//! Periodic timers (the "timer interrupts" trigger of §3.1).

use super::Marcel;
use pm2_sim::SimDuration;
use std::rc::Rc;

impl Marcel {
    /// Starts a periodic timer firing `callback` every `period`.
    ///
    /// The timer stops automatically when all threads have finished (so
    /// that simulations terminate).
    pub fn start_timer(&self, period: SimDuration, callback: impl Fn(&Marcel) + 'static) {
        assert!(!period.is_zero(), "timer period must be positive");
        arm_timer(self.clone(), period, Rc::new(callback));
    }
}

fn arm_timer(marcel: Marcel, period: SimDuration, cb: Rc<dyn Fn(&Marcel)>) {
    let sim = marcel.sim().clone();
    sim.schedule_in(period, move |_| {
        // Auto-stop when the node has gone quiet, so simulations terminate.
        if marcel.live_thread_count() == 0 && !marcel.has_pending_tasklet() {
            return;
        }
        marcel.inner.state.borrow_mut().stats.timer_ticks += 1;
        cb(&marcel);
        arm_timer(marcel, period, cb);
    });
}
