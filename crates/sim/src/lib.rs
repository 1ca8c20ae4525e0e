//! Deterministic discrete-event simulation (DES) kernel with virtual time.
//!
//! The paper's experiments ran on two 8-core Xeon nodes with Myrinet
//! MYRI-10G NICs. Reproducing the *mechanisms* — idle-core offloading,
//! background rendezvous progression — requires a machine where cores can
//! actually be idle while others compute. This crate provides the substrate
//! on which `pm2-marcel` (scheduler), `pm2-fabric` (NICs/links) and the
//! engines are built:
//!
//! * a virtual clock in nanoseconds ([`SimTime`], [`SimDuration`]);
//! * an event queue (one binary heap) with slab-recycled, inline-stored
//!   events — allocation-free on the steady-state hot path — whose pops
//!   remain stable (ties broken by insertion sequence, so runs are
//!   bit-for-bit reproducible);
//! * a single-threaded async executor: simulated activities are ordinary
//!   `async` blocks that suspend on virtual-time futures ([`Sim::sleep`],
//!   [`Trigger::wait`]) — this plays the role the ucontext stack switching
//!   plays in Marcel;
//! * a seeded xoshiro256** RNG ([`rng::Xoshiro256`]) for workload
//!   generation and jitter injection;
//! * measurement helpers ([`stats::OnlineStats`], [`stats::Histogram`]);
//! * pm2-obs ([`obs::Obs`]), the one observation channel: typed span/event
//!   records, per-request timeline reconstruction and a
//!   [`obs::MetricsRegistry`] export path.
//!
//! # Example
//! ```
//! use pm2_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new(42);
//! let sim2 = sim.clone();
//! sim.spawn(async move {
//!     sim2.sleep(SimDuration::from_micros(5)).await;
//!     assert_eq!(sim2.now().as_micros(), 5);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod equeue;
mod executor;
pub mod obs;
pub mod rng;
mod sim;
mod slab;
pub mod stats;
mod time;
mod trigger;
pub mod verify;
mod virt;

pub use executor::TaskId;
pub use obs::{EventKind, MetricsRegistry, Obs, Site};
pub use sim::{Sim, TimerHandle};
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
pub use trigger::Trigger;
pub use verify::{LockInversion, RaceFinding, Verify, VerifyReport};
pub use virt::VirtualEvent;
