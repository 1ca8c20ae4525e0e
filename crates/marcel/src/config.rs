//! Scheduler cost model.

use pm2_sim::SimDuration;

/// Virtual-time costs charged by the scheduler, calibrated to the paper's
/// 2.33 GHz Xeon testbed.
#[derive(Debug, Clone)]
pub struct MarcelConfig {
    /// Cost of dispatching a thread onto a core (context switch).
    pub ctx_switch: SimDuration,
    /// Fixed cost of invoking a tasklet on a core of a *different socket*
    /// than the one that scheduled it (the notification crosses the
    /// inter-socket interconnect).
    pub tasklet_invoke_remote: SimDuration,
    /// Invocation cost when the executing core shares the scheduler's
    /// socket: the ≈2 µs "communication between CPUs and invocation of
    /// the tasklet" the paper measures in §4.1 (PIOMAN places tasklets on
    /// the nearest idle core, so this is the common case).
    pub tasklet_invoke_same_socket: SimDuration,
    /// Tasklet invocation cost when the scheduling core runs it itself.
    pub tasklet_invoke_local: SimDuration,
    /// How often an idle core re-runs the idle hooks while one of them is
    /// awaiting events but its poll costs no CPU time (a poll that costs
    /// time re-runs once that time has passed): the busy-wait granularity
    /// of "leaving a core idle boils down to a busy waiting", §3.2. The
    /// grid is modelled exactly but computed, not simulated: see
    /// [`crate::HookResult::Idle`].
    pub idle_poll_period: SimDuration,
    /// Period of the scheduler timer tick, used to trigger PIOMAN when no
    /// core is idle. `None` disables the tick.
    pub timer_tick: Option<SimDuration>,
    /// If true, a computing thread lets pending tasklets steal cycles at
    /// timer-tick boundaries (the "timer interrupts" trigger of §3.1).
    /// The stolen time extends the thread's computation — this is the
    /// intrusiveness the paper wants to avoid when idle cores exist.
    pub timer_steals_from_compute: bool,
}

impl Default for MarcelConfig {
    fn default() -> Self {
        MarcelConfig {
            ctx_switch: SimDuration::from_nanos(300),
            tasklet_invoke_remote: SimDuration::from_nanos(3_200),
            tasklet_invoke_same_socket: SimDuration::from_micros(2),
            tasklet_invoke_local: SimDuration::from_nanos(500),
            idle_poll_period: SimDuration::from_nanos(500),
            timer_tick: Some(SimDuration::from_micros(100)),
            timer_steals_from_compute: false,
        }
    }
}

impl MarcelConfig {
    /// A zero-cost configuration, useful for unit tests that assert exact
    /// virtual times.
    pub fn zero_cost() -> Self {
        MarcelConfig {
            ctx_switch: SimDuration::ZERO,
            tasklet_invoke_remote: SimDuration::ZERO,
            tasklet_invoke_same_socket: SimDuration::ZERO,
            tasklet_invoke_local: SimDuration::ZERO,
            idle_poll_period: SimDuration::from_nanos(100),
            timer_tick: None,
            timer_steals_from_compute: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_overhead() {
        let c = MarcelConfig::default();
        assert_eq!(c.tasklet_invoke_same_socket.as_micros(), 2);
        assert!(c.tasklet_invoke_local < c.tasklet_invoke_same_socket);
        assert!(c.tasklet_invoke_same_socket < c.tasklet_invoke_remote);
    }
}
