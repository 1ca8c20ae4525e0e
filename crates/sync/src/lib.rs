//! Native (real OS-thread) concurrency primitives for the PM2-RS engine.
//!
//! The paper's §2.1 argues that an event-driven engine can replace a
//! library-wide mutex with *lightweight* per-event synchronization, because
//! each communication operation runs for a very short time:
//!
//! > "As the communication processing runs for a very short period of time,
//! > the synchronization can be achieved by using light primitives such as
//! > spinlocks."
//!
//! This crate provides those light primitives as real multi-threaded Rust:
//!
//! * [`SpinLock`] — test-and-test-and-set lock with exponential backoff;
//! * [`TicketLock`] — fair FIFO spinlock;
//! * [`SeqLock`] — sequence lock for read-mostly small data;
//! * [`MpscQueue`] — unbounded lock-free multi-producer single-consumer
//!   queue (Vyukov), used for request submission lists;
//! * [`MpmcQueue`] — bounded lock-free multi-producer multi-consumer ring;
//! * [`EventCount`] — parking/wakeup primitive for completion waiting;
//! * [`Tasklet`] / [`TaskletExecutor`] — a Linux-style tasklet engine
//!   (schedule once, run on exactly one CPU at a time, serialized per
//!   tasklet) executed by a pool of worker threads;
//! * [`CachePadded`] and [`Backoff`] — supporting utilities.
//!
//! The discrete-event simulation in `pm2-sim` reuses the same *state
//! machines* (notably the tasklet one) under virtual time; this crate is the
//! native, stress-testable incarnation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod backoff;
mod cache_padded;
mod event;
mod mcs;
pub mod model;
mod mpmc;
mod mpsc;
pub mod primitives;
mod seqlock;
mod spin;
mod tasklet;
mod ticket;

pub use backoff::{exp_factor, Backoff};
pub use cache_padded::CachePadded;
pub use event::EventCount;
pub use mcs::{McsGuard, McsLock, McsNode};
pub use mpmc::MpmcQueue;
pub use mpsc::MpscQueue;
pub use seqlock::SeqLock;
pub use spin::{SpinLock, SpinLockGuard};
pub use tasklet::{Tasklet, TaskletExecutor, TaskletHandle, TaskletState};
pub use ticket::{TicketLock, TicketLockGuard};
