//! PIOMAN configuration.

use pm2_sim::SimDuration;

/// How event processing is protected against concurrent access (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockModel {
    /// The paper's design: each event is protected separately by a light
    /// spinlock, so different cores can process different events at the
    /// same time; each progress call pays a small lock cost.
    PerEventSpinlock,
    /// The classical alternative: one library-wide mutex. Only one core
    /// can be inside the library at any time; contenders spin.
    GlobalMutex,
}

/// Tunable behaviour and costs of the PIOMAN server.
#[derive(Debug, Clone)]
pub struct PiomanConfig {
    /// Lock discipline for event processing.
    pub lock_model: LockModel,
    /// Cost of taking one per-event spinlock (uncontended).
    pub spinlock_cost: SimDuration,
    /// CPU wasted by a core that finds the global mutex held (it retries
    /// on the next poll opportunity).
    pub mutex_spin_cost: SimDuration,
    /// Run progress from the Marcel idle hook (idle-core polling).
    pub idle_poll: bool,
    /// Schedule the progress tasklet on Marcel timer ticks.
    pub timer_poll: bool,
    /// Keep a dedicated kernel thread in a blocking call when the driver
    /// is waiting on hardware ("the blocking method of \[10\]").
    pub blocking_call: bool,
    /// One-way syscall cost (enter or leave the kernel).
    pub syscall_cost: SimDuration,
    /// Latency between the hardware event and the kernel thread being
    /// runnable (interrupt delivery + scheduling).
    pub blocking_wake_latency: SimDuration,
    /// Pause between inline polls when a wait cannot block (e.g. all
    /// background progression disabled): the busy-poll granularity.
    pub inline_poll_pause: SimDuration,
    /// Anti-starvation valve for the multi-driver registry: after this
    /// many consecutive deferred-submission steps, one progress call is
    /// forced to poll for completions even if more submissions are
    /// queued. [`crate::PiomanStats::max_submission_burst`] records the
    /// longest burst actually observed so workloads can verify the
    /// valve never had to fire.
    pub submission_burst_limit: u32,
    /// Dedicate a Marcel thread to progression (the zero-idle-core
    /// fallback): the thread busy-polls the registry whenever any driver
    /// has work, parking when everything is quiet. With every core
    /// saturated by compute, stolen progression has nowhere to run —
    /// this thread *is* the progress engine then, at the price of one
    /// core. Off by default (stolen progression costs nothing when idle
    /// cores exist).
    pub progress_thread: bool,
}

impl Default for PiomanConfig {
    fn default() -> Self {
        PiomanConfig {
            lock_model: LockModel::PerEventSpinlock,
            spinlock_cost: SimDuration::from_nanos(30),
            mutex_spin_cost: SimDuration::from_nanos(300),
            idle_poll: true,
            timer_poll: true,
            blocking_call: true,
            syscall_cost: SimDuration::from_nanos(1_500),
            blocking_wake_latency: SimDuration::from_micros(2),
            inline_poll_pause: SimDuration::from_nanos(300),
            submission_burst_limit: 64,
            progress_thread: false,
        }
    }
}

impl PiomanConfig {
    /// True if at least one background progression mechanism is enabled;
    /// when none is, [`crate::Pioman::wait`] must busy-poll instead of
    /// blocking (nobody else would ever detect the completion).
    pub fn can_progress_in_background(&self) -> bool {
        self.idle_poll || self.timer_poll || self.blocking_call
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_spinlocks_and_background_progress() {
        let c = PiomanConfig::default();
        assert_eq!(c.lock_model, LockModel::PerEventSpinlock);
        assert!(c.can_progress_in_background());
    }

    #[test]
    fn fully_disabled_background_detected() {
        let c = PiomanConfig {
            idle_poll: false,
            timer_poll: false,
            blocking_call: false,
            ..PiomanConfig::default()
        };
        assert!(!c.can_progress_in_background());
    }
}
