//! Marcel: a two-level thread scheduler over simulated cores.
//!
//! This crate reproduces the role Marcel plays in the PM2 suite (§3.1 of
//! the paper): it owns the cores of one node, schedules application
//! threads onto them, and provides the three mechanisms PIOMAN builds on:
//!
//! * **Tasklets** — high-priority deferred work with Linux semantics
//!   (coalesced scheduling, never concurrent with itself). Tasklets always
//!   run before ordinary threads when a core looks for work, matching
//!   "tasklets have a very high priority … executed as soon as the
//!   scheduler reaches a point where it is safe to let them run".
//! * **Idle hooks** — callbacks invoked whenever a core has nothing to run,
//!   so PIOMAN can "fill the gap left by the thread scheduler" with
//!   communication progress (§4.3). A core whose hooks poll without
//!   finding work parks until [`Marcel::doorbell`] or
//!   [`Marcel::wake_parked`] reports a change; its polling is computed,
//!   not simulated ([`HookResult::Idle`]). A change wakes one parked core
//!   of the node, whose sweep speaks for the others: every hook's
//!   [`IdleHook::view`] fingerprints what its poll reads, on any core.
//! * **Triggers** — periodic timers and explicit kicks, the other two
//!   occasions on which Marcel schedules PIOMAN ("CPU idleness, context
//!   switches, timer interrupts").
//!
//! Application threads are `async` state machines driven by the `pm2-sim`
//! executor; [`ThreadCtx::compute`] charges virtual CPU time to the core
//! the thread runs on, and [`ThreadCtx::park`]/[`Marcel::unpark`] implement
//! blocking and wake-up. When a thread blocks, the freed core immediately
//! looks for tasklets and idle work — this is exactly the mechanism that
//! lets the engine overlap communication with computation.
//!
//! Ready threads wait in hierarchical run queues (core / socket / node ×
//! priority): a core pops the highest priority first and, within one
//! priority, the nearest level, stealing from another socket rather than
//! idling. Woken communicating threads jump their queue at high priority,
//! so they run "as soon as the communication event is detected" (§3.2).

#![warn(missing_docs)]

mod config;
mod runq;
mod sched;
mod tasklet;
mod thread;

pub use config::MarcelConfig;
pub use sched::{HookResult, IdleHook, Marcel, SchedStats};
pub use tasklet::{TaskletId, TaskletRun};
pub use thread::{Priority, ThreadCtx, ThreadId};
