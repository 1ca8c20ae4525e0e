//! Tasklet scheduling and execution (PIOMAN's deferred-work vector).

use super::{Marcel, State};
use crate::sched::stats::bump_shard;
use crate::tasklet::{TaskletId, TaskletRec, TaskletRun};
use crate::thread::ThreadId;
use pm2_sim::obs::EventKind;
use pm2_sim::SimDuration;
use pm2_topo::CoreId;

impl Marcel {
    /// Registers a tasklet; its body reports consumed CPU time through the
    /// [`TaskletRun`] it receives. `_name` labels the call site only:
    /// nothing stores it.
    pub fn create_tasklet(
        &self,
        _name: &str,
        body: impl FnMut(&mut TaskletRun) + 'static,
    ) -> TaskletId {
        let mut st = self.inner.state.borrow_mut();
        TaskletId(st.tasklets.insert(TaskletRec {
            body: Some(Box::new(body)),
            scheduled: false,
            running: false,
            disabled: 0,
            origin: None,
            runs: 0,
        }))
    }

    /// Schedules a tasklet for execution; coalesces if already scheduled.
    ///
    /// `from` is the core requesting the work (used to price the cross-CPU
    /// invocation); `None` means "no particular core" (e.g. scheduled from
    /// a timer).
    ///
    /// Returns `true` if this call enqueued it.
    pub fn tasklet_schedule(&self, tasklet: TaskletId, from: Option<CoreId>) -> bool {
        let enqueued = {
            let mut st = self.inner.state.borrow_mut();
            let rec = st.tasklets.get_mut(tasklet.0).expect("unknown tasklet");
            if rec.scheduled {
                st.stats.tasklet_coalesced += 1;
                false
            } else {
                rec.scheduled = true;
                rec.origin = from;
                st.tasklet_queue.push_back(tasklet);
                true
            }
        };
        if enqueued {
            self.wake_parked();
            self.kick_idle_near(from);
        }
        enqueued
    }

    /// Forbids execution of a tasklet (nestable).
    pub fn tasklet_disable(&self, tasklet: TaskletId) {
        let mut st = self.inner.state.borrow_mut();
        st.tasklets
            .get_mut(tasklet.0)
            .expect("unknown tasklet")
            .disabled += 1;
    }

    /// Re-allows execution of a tasklet.
    ///
    /// # Panics
    /// Panics on unbalanced enable.
    pub fn tasklet_enable(&self, tasklet: TaskletId) {
        {
            let mut st = self.inner.state.borrow_mut();
            let rec = st.tasklets.get_mut(tasklet.0).expect("unknown tasklet");
            assert!(rec.disabled > 0, "tasklet_enable without disable");
            rec.disabled -= 1;
        }
        self.wake_parked();
        self.kick_idle_near(None);
    }

    /// Number of executions of a tasklet so far.
    pub fn tasklet_runs(&self, tasklet: TaskletId) -> u64 {
        self.inner
            .state
            .borrow()
            .tasklets
            .get(tasklet.0)
            .expect("unknown tasklet")
            .runs
    }

    /// True if any enabled tasklet is waiting to run.
    pub fn has_pending_tasklet(&self) -> bool {
        self.inner.state.borrow().tasklet_ready()
    }

    /// Pops the next runnable tasklet id, skipping disabled/running ones.
    pub(crate) fn pop_ready_tasklet(st: &mut State) -> Option<TaskletId> {
        let mut scanned = 0;
        let len = st.tasklet_queue.len();
        while scanned < len {
            let id = st.tasklet_queue.pop_front()?;
            let rec = st.tasklets.get(id.0).expect("queued tasklet missing");
            if rec.disabled == 0 && !rec.running {
                return Some(id);
            }
            st.tasklet_queue.push_back(id);
            scanned += 1;
        }
        None
    }

    /// Claims a tasklet for execution on `on` (sets the RUN bit) and
    /// returns the invocation cost: the cross-CPU notification penalty if
    /// the scheduling core differs from the executing one (the ≈2 µs the
    /// paper measures in §4.1).
    pub(crate) fn claim_tasklet(&self, id: TaskletId, on: CoreId) -> SimDuration {
        let mut st = self.inner.state.borrow_mut();
        let cfg = &self.inner.cfg;
        let rec = st.tasklets.get_mut(id.0).expect("unknown tasklet");
        debug_assert!(!rec.running, "claiming a running tasklet");
        rec.running = true;
        match rec.origin {
            None => cfg.tasklet_invoke_local,
            Some(o) => match self.inner.topo.distance(o, on) {
                pm2_topo::Distance::Same => cfg.tasklet_invoke_local,
                pm2_topo::Distance::SameSocket => cfg.tasklet_invoke_same_socket,
                _ => cfg.tasklet_invoke_remote,
            },
        }
    }

    /// Runs a claimed tasklet's body; returns the CPU cost it charged.
    ///
    /// The invocation delay has already elapsed by the time this runs, so
    /// the body's side effects (NIC submissions…) happen at the right
    /// virtual instant.
    pub(crate) fn execute_tasklet_body(
        &self,
        id: TaskletId,
        on: CoreId,
        stolen: bool,
    ) -> SimDuration {
        let mut body = {
            let mut st = self.inner.state.borrow_mut();
            let rec = st.tasklets.get_mut(id.0).expect("unknown tasklet");
            rec.scheduled = false;
            rec.body.take().expect("tasklet body in use")
        };
        let mut run = TaskletRun::new(on);
        body(&mut run);
        let (charged, resched, shard) = run.take_outcome();
        let requeued = {
            let mut st = self.inner.state.borrow_mut();
            st.stats.tasklet_runs += 1;
            if stolen {
                st.stats.compute_steals += 1;
            }
            if let Some(s) = shard {
                bump_shard(&mut st.tasklet_shard_work, s);
            }
            let rec = st.tasklets.get_mut(id.0).expect("unknown tasklet");
            rec.body = Some(body);
            rec.running = false;
            rec.runs += 1;
            // Scheduled again while it ran: its queue entry just became
            // runnable for the cores polling past it.
            rec.scheduled
        };
        if requeued {
            self.wake_parked();
        }
        if resched {
            self.tasklet_schedule(id, Some(on));
        }
        self.inner.sim.obs().emit(
            self.inner.sim.now(),
            Some(self.node().0),
            EventKind::TaskletRun {
                tasklet: id.0 as u64,
                core: on.0,
                shard: shard.map(|s| s as usize),
                cost: charged.as_nanos(),
            },
        );
        charged
    }

    /// Lets a computing thread donate cycles to one pending tasklet.
    /// Returns the CPU time consumed (zero if nothing was pending).
    pub(crate) fn steal_one_tasklet(&self, thread: ThreadId) -> SimDuration {
        let core = match self.core_of(thread) {
            Some(c) => c,
            None => return SimDuration::ZERO,
        };
        let next = {
            let mut st = self.inner.state.borrow_mut();
            Self::pop_ready_tasklet(&mut st)
        };
        match next {
            Some(id) => {
                // The steal happens inside the thread's compute window, so
                // invocation and body run back-to-back.
                let invoke = self.claim_tasklet(id, core);
                invoke + self.execute_tasklet_body(id, core, true)
            }
            None => SimDuration::ZERO,
        }
    }

    pub(crate) fn compute_steal_config(&self) -> Option<SimDuration> {
        if self.inner.cfg.timer_steals_from_compute {
            self.inner.cfg.timer_tick
        } else {
            None
        }
    }
}
