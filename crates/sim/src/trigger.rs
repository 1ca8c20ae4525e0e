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

    /// A future resolving as soon as *any* of `sources` fires (immediately
    /// if one already has; never if `sources` is empty).
    ///
    /// The waiting task's waker is registered directly with every unfired
    /// source, at most once each, and removed from them when the future is
    /// dropped: waiting spawns nothing, and re-arming on a source that
    /// never fires does not grow its waiter list. A task should not wait
    /// on one of the sources through another future at the same time,
    /// since the drop removes the task's waker from every source.
    ///
    /// # Example
    /// ```
    /// use pm2_sim::{Sim, SimDuration, Trigger};
    /// let sim = Sim::new(0);
    /// let (never, soon) = (Trigger::new(), Trigger::new());
    /// let sources = [never.clone(), soon.clone()];
    /// let sim2 = sim.clone();
    /// sim.spawn(async move {
    ///     Trigger::wait_any(&sources).await;
    ///     assert_eq!(sim2.now().as_micros(), 3);
    /// });
    /// sim.schedule_in(SimDuration::from_micros(3), move |_| soon.fire());
    /// sim.run();
    /// assert_eq!(sim.live_tasks(), 0);
    /// ```
    pub fn wait_any(sources: &[Trigger]) -> AnyWait {
        AnyWait {
            sources: sources.iter().map(|t| Rc::clone(&t.state)).collect(),
            waker: None,
        }
    }

    /// Wakers currently registered with this trigger (a leak diagnostic:
    /// a finished wait must leave none behind).
    pub fn waiter_count(&self) -> usize {
        self.state.borrow().waiters.len()
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

/// Future returned by [`Trigger::wait_any`].
pub struct AnyWait {
    sources: Vec<Rc<RefCell<TriggerState>>>,
    /// The waker registered with the unfired sources, if any.
    waker: Option<Waker>,
}

impl AnyWait {
    /// Removes the registered waker from every source still holding it.
    fn deregister(&mut self) {
        if let Some(w) = self.waker.take() {
            for s in &self.sources {
                s.borrow_mut().waiters.retain(|x| !x.will_wake(&w));
            }
        }
    }
}

impl Future for AnyWait {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sources.iter().any(|s| s.borrow().fired) {
            return Poll::Ready(());
        }
        if self
            .waker
            .as_ref()
            .is_some_and(|w| !w.will_wake(cx.waker()))
        {
            self.deregister();
        }
        for s in &self.sources {
            let mut st = s.borrow_mut();
            if !st.waiters.iter().any(|w| w.will_wake(cx.waker())) {
                st.waiters.push(cx.waker().clone());
            }
        }
        self.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl Drop for AnyWait {
    fn drop(&mut self) {
        self.deregister();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;
    use std::future::poll_fn;

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

    #[test]
    fn wait_any_resolves_at_the_first_fire() {
        let sim = Sim::new(0);
        let srcs = [Trigger::new(), Trigger::new(), Trigger::new()];
        let woke = Rc::new(Cell::new(None));
        let (w2, s2, sim2) = (Rc::clone(&woke), srcs.clone(), sim.clone());
        sim.spawn(async move {
            Trigger::wait_any(&s2).await;
            w2.set(Some(sim2.now().as_micros()));
        });
        for (i, us) in [(2, 4), (1, 7)] {
            let t = srcs[i].clone();
            sim.schedule_in(SimDuration::from_micros(us), move |_| t.fire());
        }
        sim.run();
        assert_eq!(woke.get(), Some(4));
        // The source that never fired holds no waker of the finished task.
        assert_eq!(srcs[0].waiter_count(), 0);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn wait_any_on_a_prefired_source_is_immediate() {
        let sim = Sim::new(0);
        let srcs = [Trigger::new(), Trigger::new()];
        srcs[1].fire();
        let done = Rc::new(Cell::new(false));
        let (d2, s2) = (Rc::clone(&done), srcs.clone());
        sim.spawn(async move {
            Trigger::wait_any(&s2).await;
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert_eq!(sim.now().as_nanos(), 0);
        assert_eq!(srcs[0].waiter_count(), 0, "nothing registered");
    }

    #[test]
    fn rearming_on_a_silent_source_keeps_one_waiter() {
        let sim = Sim::new(0);
        let silent = Trigger::new();
        let most = Rc::new(Cell::new(0));
        let (s2, m2, sim2) = (silent.clone(), Rc::clone(&most), sim.clone());
        sim.spawn(async move {
            for _ in 0..10_000 {
                let tick = Trigger::new();
                let (t, s3, m3) = (tick.clone(), s2.clone(), Rc::clone(&m2));
                // Sample the silent source's waiters while the wait pends.
                sim2.schedule_in(SimDuration::from_nanos(1), move |_| {
                    m3.set(m3.get().max(s3.waiter_count()));
                    t.fire();
                });
                Trigger::wait_any(&[s2.clone(), tick]).await;
            }
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 10_000);
        assert_eq!(most.get(), 1, "one waker per re-arm, never more");
        assert_eq!(silent.waiter_count(), 0);
    }

    #[test]
    fn dropping_an_unresolved_wait_leaves_no_waker() {
        let sim = Sim::new(0);
        let srcs = [Trigger::new(), Trigger::new()];
        let seen = Rc::new(Cell::new((true, 0)));
        let (s2, seen2) = (srcs.clone(), Rc::clone(&seen));
        sim.spawn(async move {
            let mut w = Box::pin(Trigger::wait_any(&s2));
            let ready = poll_fn(|cx| Poll::Ready(w.as_mut().poll(cx).is_ready())).await;
            seen2.set((ready, s2[0].waiter_count() + s2[1].waiter_count()));
        });
        sim.run();
        assert_eq!(seen.get(), (false, 2), "pending, one waker per source");
        assert_eq!(srcs[0].waiter_count() + srcs[1].waiter_count(), 0);
    }
}
