//! The one-shot completion flag simulated activities wait on.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A one-shot, multi-waiter event flag.
///
/// This is the simulated counterpart of a completion: PIOMAN fires the
/// trigger when a request completes; any number of activities awaiting
/// [`Trigger::wait`] resume at the same virtual instant.
///
/// # Example
/// ```
/// use pm2_sim::{Sim, SimDuration, Trigger};
/// let sim = Sim::new(0);
/// let done = Trigger::new();
/// let d2 = done.clone();
/// let sim2 = sim.clone();
/// sim.spawn(async move {
///     d2.wait().await;
///     assert_eq!(sim2.now().as_micros(), 5);
/// });
/// let d3 = done.clone();
/// sim.schedule_in(SimDuration::from_micros(5), move |_| d3.fire());
/// sim.run();
/// assert!(done.is_fired());
/// ```
#[derive(Clone, Default)]
pub struct Trigger {
    state: Rc<RefCell<TriggerState>>,
}

#[derive(Default)]
struct TriggerState {
    fired: bool,
    waiters: Vec<Waker>,
}

impl Trigger {
    /// Creates an unfired trigger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the trigger, waking all current and future waiters.
    /// Idempotent.
    pub fn fire(&self) {
        let waiters = {
            let mut st = self.state.borrow_mut();
            if st.fired {
                return;
            }
            st.fired = true;
            std::mem::take(&mut st.waiters)
        };
        for w in waiters {
            w.wake();
        }
    }

    /// True once [`Trigger::fire`] has been called.
    pub fn is_fired(&self) -> bool {
        self.state.borrow().fired
    }

    /// A future resolving when the trigger fires (immediately if already
    /// fired).
    pub fn wait(&self) -> TriggerWait {
        TriggerWait {
            state: Rc::clone(&self.state),
        }
    }
}

impl std::fmt::Debug for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trigger")
            .field("fired", &self.is_fired())
            .finish()
    }
}

/// Future returned by [`Trigger::wait`].
pub struct TriggerWait {
    state: Rc<RefCell<TriggerState>>,
}

impl Future for TriggerWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.state.borrow_mut();
        if st.fired {
            Poll::Ready(())
        } else {
            // Replace a stale clone of the same waker rather than pile up.
            if !st.waiters.iter().any(|w| w.will_wake(cx.waker())) {
                st.waiters.push(cx.waker().clone());
            }
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn trigger_releases_multiple_waiters_at_fire_time() {
        let sim = Sim::new(0);
        let trig = Trigger::new();
        let released = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let t = trig.clone();
            let released = Rc::clone(&released);
            let sim2 = sim.clone();
            sim.spawn(async move {
                t.wait().await;
                assert_eq!(sim2.now().as_micros(), 9);
                released.set(released.get() + 1);
            });
        }
        let t2 = trig.clone();
        sim.schedule_in(SimDuration::from_micros(9), move |_| t2.fire());
        sim.run();
        assert_eq!(released.get(), 3);
        assert!(trig.is_fired());
    }

    #[test]
    fn waiting_on_fired_trigger_is_immediate() {
        let sim = Sim::new(0);
        let trig = Trigger::new();
        trig.fire();
        trig.fire(); // idempotent
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        let t = trig.clone();
        sim.spawn(async move {
            t.wait().await;
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}
