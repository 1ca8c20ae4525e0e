//! PIOMAN: the event-driven multithreaded I/O manager (the paper's
//! contribution).
//!
//! PIOMAN sits between the communication library (NewMadeleine, in
//! `pm2-newmad`) and the thread scheduler (Marcel, in `pm2-marcel`). The
//! library registers a [`ProgressDriver`] — callbacks that poll the NICs
//! and feed pending requests to the network — and PIOMAN decides *when*
//! and *where* those callbacks run:
//!
//! * **on idle cores**, through a Marcel idle hook — "MARCEL schedules
//!   PIOMAN each time a core is idle" (§3.2); this is what overlaps
//!   submission and rendezvous progression with application computation;
//! * **in a progress tasklet**, scheduled whenever new work is posted
//!   ([`Pioman::notify_work`]) — tasklets give mutual exclusion without a
//!   library-wide lock (§2.1) and run "as soon as the scheduler reaches a
//!   safe point";
//! * **at timer ticks**, so progress still happens when every core is busy
//!   computing (optionally stealing cycles from computing threads);
//! * **from a blocking system call on a dedicated kernel thread** when no
//!   core is idle — the method of the authors' earlier work \[10\], kept as
//!   a fallback because of its "significant overhead";
//! * **inline in [`Pioman::wait`]** — if the application reaches the wait
//!   before background progress happened, the waiting thread performs the
//!   work itself ("the message is sent inside the wait function", §3.2).
//!
//! The §2.1 thread-safety argument is modelled by [`LockModel`]: per-event
//! spinlocks allow concurrent progress on different cores (each paying a
//! tiny lock cost), while a library-wide mutex serializes all progress
//! system-wide — the `abl_lock` row of `pm2-bench`'s claims table
//! (`claims abl_lock`) quantifies the difference.
//!
//! # The driver registry
//!
//! The server holds a *registry* of drivers rather than a single slot:
//! each transport (every NIC rail, the shared-memory channel) attaches
//! its own [`ProgressDriver`] and gets back a [`DriverId`]. Each
//! progress step makes one scheduling decision over the whole registry:
//!
//! 1. **Submissions first** — the driver holding the globally-oldest
//!    deferred submission (see [`DriverPending::oldest_submission`])
//!    submits one request; ties between unranked drivers rotate fairly.
//!    A burst valve ([`PiomanConfig::submission_burst_limit`]) forces a
//!    completion sweep through sustained submission floods.
//! 2. **Completion polling** — otherwise a round-robin rotor sweeps the
//!    armed drivers; the first one that reports work ends the sweep, and
//!    scanning a driver with nothing pending is free.
//!
//! Progress-site counters are kept per driver ([`Pioman::driver_stats`])
//! as well as globally, so workloads can see *which* shard (which rail,
//! or shared memory) the idle cores actually progressed.
//!
//! # Driver health and quarantine
//!
//! On fault-prone fabrics a stalled NIC can pin every idle core on
//! unproductive polls. The opt-in health valve
//! ([`PiomanConfig::quarantine_after`]) counts consecutive unproductive
//! completion polls per driver and, past the threshold, *quarantines*
//! the driver: its polling is paused for an exponentially growing
//! back-off window (submissions are still served), a probe re-polls it
//! at expiry, and any productive step re-arms it to full health.
//! [`Pioman::driver_health`] and [`Pioman::degraded_drivers`] report the
//! degraded state gracefully instead of wedging.

#![warn(missing_docs)]

mod config;
mod req;
mod server;

pub use config::{LockModel, PiomanConfig};
pub use req::{PiomReq, ReqError, ReqRecord};
pub use server::{
    DriverHealthReport, DriverId, DriverPending, InjectionEndpoint, Pioman, PiomanStats, Progress,
    ProgressDriver,
};
