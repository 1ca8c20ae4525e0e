//! Scheduler activity counters.

use super::Marcel;
use crate::runq::PopSource;

/// Scheduler activity counters (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Threads dispatched onto cores.
    pub dispatches: u64,
    /// Tasklet bodies executed.
    pub tasklet_runs: u64,
    /// Tasklet schedules that coalesced into a pending one.
    pub tasklet_coalesced: u64,
    /// Idle-hook sweep invocations. The sweeps of a parked core (see
    /// [`crate::HookResult::Idle`]) are added when it wakes, when a change
    /// rings and when the counters are read.
    pub hook_sweeps: u64,
    /// Tasklet executions that stole cycles from a computing thread.
    pub compute_steals: u64,
    /// Timer callback firings.
    pub timer_ticks: u64,
    /// Dispatches popped from the core's own strict-affinity queue.
    pub pop_core: u64,
    /// Dispatches popped from the core's own socket queue.
    pub pop_local_socket: u64,
    /// Dispatches popped from a node-wide queue.
    pub pop_node: u64,
    /// Dispatches stolen from another socket's queue.
    pub pop_steal: u64,
}

impl SchedStats {
    /// Tallies where a dispatch was popped from.
    pub(crate) fn note_pop(&mut self, src: PopSource) {
        match src {
            PopSource::Core => self.pop_core += 1,
            PopSource::LocalSocket => self.pop_local_socket += 1,
            PopSource::Node => self.pop_node += 1,
            PopSource::RemoteSocket => self.pop_steal += 1,
        }
    }
}

impl Marcel {
    /// Snapshot of the activity counters, the sweeps parked cores have
    /// made so far included.
    pub fn stats(&self) -> SchedStats {
        self.credit_parked();
        self.inner.state.borrow().stats
    }
}
