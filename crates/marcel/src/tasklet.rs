//! Simulated tasklets: the Linux `tasklet_struct` state machine under
//! virtual time.

use pm2_sim::SimDuration;
use pm2_topo::CoreId;

/// Identifier of a tasklet registered with a [`crate::Marcel`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskletId(pub(crate) usize);

/// Execution context handed to a tasklet body.
///
/// The body reports the CPU time its work consumed by calling
/// [`TaskletRun::charge`]; Marcel keeps the executing core busy for that
/// long before looking for more work. This is how "the transfer (data
/// copy, PIO, etc.) is performed on this idle CPU" (§3.2) is priced.
pub struct TaskletRun {
    core: CoreId,
    charged: SimDuration,
    reschedule: bool,
    shard: Option<u32>,
}

impl TaskletRun {
    pub(crate) fn new(core: CoreId) -> Self {
        TaskletRun {
            core,
            charged: SimDuration::ZERO,
            reschedule: false,
            shard: None,
        }
    }

    /// The core executing the tasklet.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Adds `cost` of CPU time to this execution.
    pub fn charge(&mut self, cost: SimDuration) {
        self.charged += cost;
    }

    /// Requests that the tasklet run again after this execution (same as
    /// scheduling it from within its own body).
    pub fn reschedule(&mut self) {
        self.reschedule = true;
    }

    /// Names which shard of the tasklet's backend the work of this
    /// execution landed on (e.g. which PIOMAN progress driver); Marcel
    /// tallies per-shard tasklet work
    /// ([`crate::Marcel::tasklet_shard_work`]).
    pub fn note_shard(&mut self, shard: u32) {
        self.shard = Some(shard);
    }

    pub(crate) fn take_outcome(self) -> (SimDuration, bool, Option<u32>) {
        (self.charged, self.reschedule, self.shard)
    }
}

/// A tasklet body callback.
pub(crate) type TaskletBody = Box<dyn FnMut(&mut TaskletRun)>;

/// Internal record of a registered tasklet.
pub(crate) struct TaskletRec {
    /// Body taken out while running (prevents re-entrant execution and
    /// RefCell aliasing).
    pub(crate) body: Option<TaskletBody>,
    /// SCHED bit: queued for execution.
    pub(crate) scheduled: bool,
    /// RUN bit: body currently executing (single-threaded sim still models
    /// it for re-schedule-while-running semantics).
    pub(crate) running: bool,
    /// Disable nesting depth.
    pub(crate) disabled: u32,
    /// Preferred core (the core that scheduled it last); used to price the
    /// cross-CPU invocation penalty.
    pub(crate) origin: Option<CoreId>,
    /// Executions so far.
    pub(crate) runs: u64,
}

#[cfg(test)]
mod tests {
    use crate::{Marcel, MarcelConfig, TaskletId};
    use pm2_sim::Sim;
    use pm2_topo::{NodeId, Topology};
    use std::cell::Cell;
    use std::rc::Rc;

    fn setup(cores: usize) -> (Sim, Marcel) {
        let sim = Sim::new(1);
        let topo = Rc::new(Topology::single_node(cores));
        let m = Marcel::new(sim.clone(), topo, NodeId(0), MarcelConfig::zero_cost());
        (sim, m)
    }

    #[test]
    fn runs_once_per_schedule() {
        let (sim, m) = setup(2);
        let hits = Rc::new(Cell::new(0u32));
        let hits2 = Rc::clone(&hits);
        let tk = m.create_tasklet("t", move |_| hits2.set(hits2.get() + 1));
        assert!(m.tasklet_schedule(tk, None));
        sim.run();
        assert_eq!((hits.get(), m.tasklet_runs(tk)), (1, 1));
        // The run cleared the SCHED bit, so the next schedule enqueues again.
        assert!(m.tasklet_schedule(tk, None));
        sim.run();
        assert_eq!((hits.get(), m.tasklet_runs(tk)), (2, 2));
    }

    #[test]
    fn coalesces_redundant_schedules() {
        // Schedules issued while the body runs coalesce into exactly one
        // more run.
        let (sim, m) = setup(2);
        let me: Rc<Cell<Option<TaskletId>>> = Rc::new(Cell::new(None));
        let enqueued = Rc::new(Cell::new(0u32));
        let (me2, enqueued2, m2) = (Rc::clone(&me), Rc::clone(&enqueued), m.clone());
        let tk = m.create_tasklet("t", move |_| {
            if m2.tasklet_runs(me2.get().unwrap()) == 0 {
                for _ in 0..10 {
                    if m2.tasklet_schedule(me2.get().unwrap(), None) {
                        enqueued2.set(enqueued2.get() + 1);
                    }
                }
            }
        });
        me.set(Some(tk));
        m.tasklet_schedule(tk, None);
        sim.run();
        assert_eq!(enqueued.get(), 1);
        assert_eq!(m.tasklet_runs(tk), 2);
        assert_eq!(m.stats().tasklet_coalesced, 9);
    }

    #[test]
    fn disable_defers_execution() {
        // Disabling nests: every disable needs its own enable.
        let (sim, m) = setup(1);
        let tk = m.create_tasklet("t", |_| {});
        m.tasklet_disable(tk);
        m.tasklet_disable(tk);
        m.tasklet_schedule(tk, None);
        sim.run();
        assert_eq!(m.tasklet_runs(tk), 0, "disabled tasklet ran");
        m.tasklet_enable(tk);
        sim.run();
        assert_eq!(m.tasklet_runs(tk), 0, "tasklet ran with one disable left");
        m.tasklet_enable(tk);
        sim.run();
        assert_eq!(m.tasklet_runs(tk), 1);
    }

    #[test]
    #[should_panic(expected = "tasklet_enable without disable")]
    fn unbalanced_enable_panics() {
        let (_sim, m) = setup(1);
        let tk = m.create_tasklet("t", |_| {});
        m.tasklet_enable(tk);
    }
}
