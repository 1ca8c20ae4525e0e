//! Thread identity and the context handed to simulated threads.

use crate::sched::Marcel;
use pm2_sim::{SimDuration, Trigger};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Scheduling priority of a Marcel thread.
///
/// Tasklets implicitly outrank all three levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work; runs only when nothing else is ready.
    Low,
    /// Default application priority.
    Normal,
    /// Woken communicating threads ("scheduled as soon as the event is
    /// detected", §3.2).
    High,
}

/// Identifier of a Marcel thread: its slot in the scheduler's thread
/// table and the scheduler's spawn count when it was spawned.
///
/// A finished thread's slot is freed and reused; an id whose spawn count
/// no longer matches its slot's reads as finished, never as the slot's
/// new thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl ThreadId {
    /// Raw slot index, for diagnostics (reused once the thread finishes).
    pub fn index(self) -> usize {
        self.slot as usize
    }
}

/// Handle a thread body uses to interact with the scheduler.
///
/// Cloneable; all methods are `async` and must be awaited from the thread's
/// own body (awaiting them from another thread's body is a logic error and
/// panics in debug assertions).
#[derive(Clone)]
pub struct ThreadCtx {
    pub(crate) marcel: Marcel,
    pub(crate) id: ThreadId,
}

impl ThreadCtx {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// The scheduler this thread belongs to.
    pub fn marcel(&self) -> &Marcel {
        &self.marcel
    }

    /// Burns `d` of CPU time on the current core.
    ///
    /// If the scheduler is configured with
    /// [`crate::MarcelConfig::timer_steals_from_compute`], pending tasklets
    /// may steal cycles at timer-tick boundaries, extending the wall time
    /// of the computation accordingly.
    //
    // A plain `fn` around an `async move` block, here and on the other
    // per-message waits: an `async fn` stores its arguments twice in its
    // state, and this future sits inside every communication call's.
    #[allow(clippy::manual_async_fn)]
    pub fn compute(&self, d: SimDuration) -> impl Future<Output = ()> + '_ {
        async move {
            match self.marcel.compute_steal_config() {
                // An ablation's setting: boxed, so that its loop state
                // stays out of every caller's future.
                Some(tick) => Box::pin(self.compute_with_steals(d, tick)).await,
                None => self.marcel.sim().sleep(d).await,
            }
        }
    }

    /// [`ThreadCtx::compute`] in `tick` slices, a pending tasklet
    /// stealing the core at each slice boundary.
    async fn compute_with_steals(&self, d: SimDuration, tick: SimDuration) {
        let sim = self.marcel.sim().clone();
        let mut remaining = d;
        while !remaining.is_zero() {
            let slice = remaining.min(tick);
            sim.sleep(slice).await;
            remaining = remaining.saturating_sub(slice);
            if !remaining.is_zero() {
                // Tick boundary: let at most one pending tasklet steal
                // this core.
                let stolen = self.marcel.steal_one_tasklet(self.id);
                if !stolen.is_zero() {
                    sim.sleep(stolen).await;
                }
            }
        }
    }

    /// Releases the core and waits until `trigger` fires, then re-enters
    /// the run queue (at [`Priority::High`] if `urgent`) and resumes once
    /// dispatched.
    ///
    /// Returns immediately (without releasing the core) if the trigger has
    /// already fired — the check-then-block sequence is atomic because the
    /// simulator is event-driven.
    #[allow(clippy::manual_async_fn)]
    pub fn block_until<'a, T>(
        &'a self,
        trigger: &'a Trigger<T>,
        urgent: bool,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            if trigger.is_fired() {
                return;
            }
            self.marcel.release_blocked(self.id);
            trigger.wait().await;
            self.marcel.make_ready(self.id, urgent);
            WaitDispatched {
                marcel: self.marcel.clone(),
                id: self.id,
            }
            .await;
        }
    }

    /// Releases the core and parks until [`Marcel::unpark`].
    ///
    /// A pending unpark "permit" (an unpark that arrived while the thread
    /// was still running) makes the next `park` return immediately.
    pub async fn park(&self) {
        let Some(trigger) = self.marcel.begin_park(self.id) else {
            return; // permit consumed
        };
        self.marcel.release_blocked(self.id);
        trigger.wait().await;
        self.marcel.make_ready(self.id, true);
        WaitDispatched {
            marcel: self.marcel.clone(),
            id: self.id,
        }
        .await;
    }

    /// Sleeps for `d` of virtual time **releasing the core** — unlike
    /// [`ThreadCtx::compute`], which keeps the core busy. Other threads,
    /// tasklets and idle hooks run on it meanwhile.
    pub async fn sleep(&self, d: SimDuration) {
        let trig = Trigger::new();
        let t = trig.clone();
        self.marcel.sim().schedule_in(d, move |_| t.fire());
        self.block_until(&trig, false).await;
    }

    /// Blocks until `thread` finishes (releasing the core meanwhile).
    pub async fn join(&self, thread: ThreadId) {
        let fin = self.marcel.finished(thread);
        self.block_until(&fin, false).await;
    }

    /// Cooperatively yields the core to other ready work.
    pub async fn yield_now(&self) {
        self.marcel.release_ready(self.id);
        WaitDispatched {
            marcel: self.marcel.clone(),
            id: self.id,
        }
        .await;
    }

    /// The core this thread currently occupies (None while blocked/ready).
    pub fn current_core(&self) -> Option<pm2_topo::CoreId> {
        self.marcel.core_of(self.id)
    }
}

/// Future that resolves once the scheduler has dispatched the thread onto
/// a core again.
pub(crate) struct WaitDispatched {
    pub(crate) marcel: Marcel,
    pub(crate) id: ThreadId,
}

impl Future for WaitDispatched {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.marcel.is_running(self.id) {
            Poll::Ready(())
        } else {
            self.marcel.set_dispatch_waker(self.id, cx.waker().clone());
            Poll::Pending
        }
    }
}
