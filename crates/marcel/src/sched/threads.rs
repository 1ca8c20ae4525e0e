//! Thread lifecycle: spawn, park/unpark, block/wake, yield, finish — and
//! the load queries PIOMAN consumes.
//!
//! Where a ready thread queues and which core is kicked for it (the
//! zero-fault figure baselines are byte-diffed against these rules):
//!
//! * spawn: its pinned core's queue, else the node queue; kick the pinned
//!   core or any idle one;
//! * yield: back of the socket it just ran on (cache-warm); no kick, the
//!   freed core re-scans anyway;
//! * wakeup: urgent wakeups rise to [`Priority::High`] and jump their
//!   socket or node queue (§3.2); kick the pinned core, else the idle core
//!   nearest to where the thread last ran.

use super::{Marcel, TState, ThreadRec};
use crate::runq::{prio_idx, Placement, RunQueues};
use crate::thread::{Priority, ThreadCtx, ThreadId, WaitDispatched};
use pm2_sim::trace::Category;
use pm2_sim::{SimDuration, Trigger};
use pm2_topo::CoreId;
use std::future::Future;
use std::task::Waker;

impl Marcel {
    /// Spawns a Marcel thread running `body`.
    ///
    /// The thread starts in the ready queue and runs once a core dispatches
    /// it. `affinity` restricts it to a single core if given.
    pub fn spawn<F, Fut>(
        &self,
        name: impl Into<String>,
        priority: Priority,
        affinity: Option<CoreId>,
        body: F,
    ) -> ThreadId
    where
        F: FnOnce(ThreadCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let name = name.into();
        let id = {
            let mut st = self.inner.state.borrow_mut();
            let id = ThreadId(st.threads.insert(ThreadRec {
                state: TState::Ready,
                priority,
                affinity,
                last_core: None,
                dispatch_waker: None,
                finished: Trigger::new(),
                park_trigger: None,
                unpark_permit: false,
                name: name.clone(),
            }));
            let placement = self.placement(&st.runq, affinity, None, false);
            st.runq.push(id, prio_idx(priority), placement);
            id
        };
        let marcel = self.clone();
        let ctx = ThreadCtx {
            marcel: self.clone(),
            id,
        };
        self.inner.sim.spawn_named(Some(name), async move {
            WaitDispatched {
                marcel: marcel.clone(),
                id,
            }
            .await;
            body(ctx).await;
            marcel.finish_thread(id);
        });
        self.kick_for(affinity, None);
        id
    }

    /// Where a ready thread queues: its pinned core, else the socket of the
    /// core it is cache-warm on, else anywhere on the node. `front` jumps
    /// the socket or node queue.
    fn placement(
        &self,
        runq: &RunQueues,
        affinity: Option<CoreId>,
        warm: Option<CoreId>,
        front: bool,
    ) -> Placement {
        match (affinity, warm) {
            (Some(c), _) => Placement::Core(self.local(c)),
            (None, Some(c)) => Placement::Socket {
                socket: runq.socket_of(self.local(c)),
                front,
            },
            (None, None) => Placement::Node { front },
        }
    }

    /// Nudges a core towards a thread just queued: its pinned core, else
    /// the idle core nearest to `near` (any idle core if `None`).
    fn kick_for(&self, affinity: Option<CoreId>, near: Option<CoreId>) {
        match affinity {
            Some(c) => self.schedule_run(c, SimDuration::ZERO),
            None => self.kick_idle_near(near),
        }
    }

    /// Trigger fired when `thread` finishes.
    pub fn finished(&self, thread: ThreadId) -> Trigger {
        self.inner
            .state
            .borrow()
            .threads
            .get(thread.0)
            .expect("unknown thread")
            .finished
            .clone()
    }

    /// Wakes a parked thread (or stores a permit if it is not parked).
    pub fn unpark(&self, thread: ThreadId) {
        let trig = {
            let mut st = self.inner.state.borrow_mut();
            let Some(rec) = st.threads.get_mut(thread.0) else {
                return;
            };
            match rec.park_trigger.take() {
                Some(t) => Some(t),
                None => {
                    rec.unpark_permit = true;
                    None
                }
            }
        };
        if let Some(t) = trig {
            t.fire();
        }
    }

    /// Debug name of a thread.
    pub fn thread_name(&self, thread: ThreadId) -> Option<String> {
        self.inner
            .state
            .borrow()
            .threads
            .get(thread.0)
            .map(|r| r.name.clone())
    }

    pub(crate) fn begin_park(&self, thread: ThreadId) -> Option<Trigger> {
        let mut st = self.inner.state.borrow_mut();
        let rec = st.threads.get_mut(thread.0).expect("unknown thread");
        if rec.unpark_permit {
            rec.unpark_permit = false;
            None
        } else {
            let t = Trigger::new();
            rec.park_trigger = Some(t.clone());
            Some(t)
        }
    }

    pub(crate) fn is_running(&self, thread: ThreadId) -> bool {
        matches!(
            self.inner
                .state
                .borrow()
                .threads
                .get(thread.0)
                .map(|r| r.state),
            Some(TState::Running(_))
        )
    }

    pub(crate) fn core_of(&self, thread: ThreadId) -> Option<CoreId> {
        match self.inner.state.borrow().threads.get(thread.0)?.state {
            TState::Running(c) => Some(c),
            _ => None,
        }
    }

    pub(crate) fn set_dispatch_waker(&self, thread: ThreadId, waker: Waker) {
        if let Some(rec) = self.inner.state.borrow_mut().threads.get_mut(thread.0) {
            rec.dispatch_waker = Some(waker);
        }
    }

    /// Marks `thread` blocked and frees its core.
    pub(crate) fn release_blocked(&self, thread: ThreadId) {
        self.release_core_of(thread, TState::Blocked, false);
    }

    /// Marks `thread` ready (requeued at the back) and frees its core.
    pub(crate) fn release_ready(&self, thread: ThreadId) {
        self.release_core_of(thread, TState::Ready, true);
    }

    fn release_core_of(&self, thread: ThreadId, new_state: TState, requeue: bool) {
        let freed = {
            let mut st = self.inner.state.borrow_mut();
            let rec = st.threads.get_mut(thread.0).expect("unknown thread");
            let TState::Running(core) = rec.state else {
                panic!("thread {thread:?} released while not running");
            };
            rec.state = new_state;
            rec.last_core = Some(core);
            let (priority, affinity) = (rec.priority, rec.affinity);
            if requeue {
                // No kick: the freed core re-scans below.
                let placement = self.placement(&st.runq, affinity, Some(core), false);
                st.runq.push(thread, prio_idx(priority), placement);
            }
            let from_core = self.local(core);
            debug_assert_eq!(st.cores[from_core].current, Some(thread));
            st.cores[from_core].current = None;
            core
        };
        self.trace(Category::Sched, || {
            format!("release {:?} -> {:?}", thread, new_state)
        });
        self.schedule_run(freed, SimDuration::ZERO);
    }

    /// Requeues a blocked thread; `urgent` marks communication events that
    /// "ask MARCEL to schedule it" as soon as they are detected (§3.2).
    pub(crate) fn make_ready(&self, thread: ThreadId, urgent: bool) {
        let (affinity, last_core) = {
            let mut st = self.inner.state.borrow_mut();
            let rec = st.threads.get_mut(thread.0).expect("unknown thread");
            debug_assert_eq!(rec.state, TState::Blocked);
            rec.state = TState::Ready;
            let (affinity, last_core) = (rec.affinity, rec.last_core);
            let priority = if urgent { Priority::High } else { rec.priority };
            let placement = self.placement(&st.runq, affinity, last_core, urgent);
            st.runq.push(thread, prio_idx(priority), placement);
            (affinity, last_core)
        };
        self.kick_for(affinity, last_core);
    }

    pub(crate) fn finish_thread(&self, thread: ThreadId) {
        let (core, finished) = {
            let mut st = self.inner.state.borrow_mut();
            let rec = st.threads.get_mut(thread.0).expect("unknown thread");
            let core = match rec.state {
                TState::Running(c) => Some(c),
                _ => None,
            };
            rec.state = TState::Finished;
            let finished = rec.finished.clone();
            if let Some(c) = core {
                let local = self.inner.topo.local_index(c);
                st.cores[local].current = None;
            }
            (core, finished)
        };
        finished.fire();
        if let Some(c) = core {
            self.schedule_run(c, SimDuration::ZERO);
        }
    }

    // ----- load information (consumed by PIOMAN) -------------------------

    /// Number of cores with no thread and no tasklet work right now.
    pub fn idle_core_count(&self) -> usize {
        let now = self.inner.sim.now();
        self.inner
            .state
            .borrow()
            .cores
            .iter()
            .filter(|c| c.is_idle(now))
            .count()
    }

    /// True if at least one core is idle.
    pub fn has_idle_core(&self) -> bool {
        self.idle_core_count() > 0
    }

    /// Number of threads currently running on a core.
    pub fn running_thread_count(&self) -> usize {
        self.inner
            .state
            .borrow()
            .threads
            .iter()
            .filter(|(_, r)| matches!(r.state, TState::Running(_)))
            .count()
    }

    /// Number of threads waiting in the run queues.
    pub fn ready_thread_count(&self) -> usize {
        self.inner.state.borrow().runq.len()
    }

    /// Number of threads not yet finished.
    pub fn live_thread_count(&self) -> usize {
        self.inner
            .state
            .borrow()
            .threads
            .iter()
            .filter(|(_, r)| r.state != TState::Finished)
            .count()
    }
}
