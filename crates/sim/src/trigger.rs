//! The one-shot completion flag simulated activities wait on.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A one-shot, multi-waiter event flag, carrying a value `T` in the same
/// allocation.
///
/// This is the simulated counterpart of a completion: PIOMAN fires the
/// trigger when a request completes; any number of activities awaiting
/// [`Trigger::wait`] resume at the same virtual instant. The value is
/// what the flag is about (PIOMAN keeps its request record there), so a
/// request and its completion cost one heap block between them.
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
pub struct Trigger<T = ()> {
    shared: Rc<Shared<T>>,
}

/// The one allocation behind a trigger and its clones. Plain `Cell`s
/// rather than a `RefCell`: no borrow outlives a method, and a borrow
/// flag would cost another word per request.
struct Shared<T> {
    fired: Cell<bool>,
    waiters: Cell<Waiters>,
    value: T,
}

/// Wakers registered with a trigger, woken in registration order: the
/// first inline, later ones in a spill list that exists only while two
/// or more wait. `first` is empty only when `rest` is, so a new waker
/// always goes after every waker already registered.
#[derive(Default)]
struct Waiters {
    first: Option<Waker>,
    // Boxed so that the rare spill list costs one word in every trigger
    // (a bare `Vec` is three, and would push a request block past 120 B).
    #[allow(clippy::box_collection)]
    rest: Option<Box<Vec<Waker>>>,
}

impl Waiters {
    fn iter(&self) -> impl Iterator<Item = &Waker> {
        self.first
            .iter()
            .chain(self.rest.iter().flat_map(|r| r.iter()))
    }

    /// Appends `w` unless a waker that wakes the same task is already
    /// registered (a stale clone is not piled up).
    fn push(&mut self, w: &Waker) {
        if self.iter().any(|x| x.will_wake(w)) {
            return;
        }
        if self.first.is_none() {
            self.first = Some(w.clone());
        } else {
            self.rest.get_or_insert_default().push(w.clone());
        }
    }

    /// Removes every waker that wakes the same task as `w`, keeping the
    /// others in order: the spill list's head moves inline if the inline
    /// waker goes.
    fn remove(&mut self, w: &Waker) {
        if self.first.as_ref().is_some_and(|f| f.will_wake(w)) {
            self.first = None;
        }
        if let Some(rest) = &mut self.rest {
            rest.retain(|x| !x.will_wake(w));
            if self.first.is_none() && !rest.is_empty() {
                self.first = Some(rest.remove(0));
            }
            if rest.is_empty() {
                self.rest = None;
            }
        }
    }

    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.as_ref().map_or(0, |r| r.len())
    }
}

impl<T> Shared<T> {
    /// Runs `f` on the waiter list (taken out of its cell for the call).
    fn with_waiters<R>(&self, f: impl FnOnce(&mut Waiters) -> R) -> R {
        let mut w = self.waiters.take();
        let r = f(&mut w);
        self.waiters.set(w);
        r
    }
}

impl Trigger {
    /// Creates an unfired trigger.
    pub fn new() -> Self {
        Self::with_value(())
    }
}

impl<T> Trigger<T> {
    /// Creates an unfired trigger carrying `value`.
    pub fn with_value(value: T) -> Self {
        Trigger {
            shared: Rc::new(Shared {
                fired: Cell::new(false),
                waiters: Cell::default(),
                value,
            }),
        }
    }

    /// The value the trigger carries.
    pub fn value(&self) -> &T {
        &self.shared.value
    }

    /// Fires the trigger, waking all current and future waiters in the
    /// order they registered. Idempotent.
    pub fn fire(&self) {
        if self.shared.fired.replace(true) {
            return;
        }
        let Waiters { first, rest } = self.shared.waiters.take();
        for w in first.into_iter().chain(rest.into_iter().flat_map(|r| *r)) {
            w.wake();
        }
    }

    /// True once [`Trigger::fire`] has been called.
    pub fn is_fired(&self) -> bool {
        self.shared.fired.get()
    }

    /// A future resolving when the trigger fires (immediately if already
    /// fired).
    pub fn wait(&self) -> TriggerWait<T> {
        TriggerWait {
            shared: Rc::clone(&self.shared),
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
    pub fn wait_any<'a>(sources: impl IntoIterator<Item = &'a Trigger<T>>) -> AnyWait<T>
    where
        T: 'a,
    {
        AnyWait {
            sources: sources.into_iter().map(|t| Rc::clone(&t.shared)).collect(),
            waker: None,
        }
    }

    /// Wakers currently registered with this trigger (a leak diagnostic:
    /// a finished wait must leave none behind).
    pub fn waiter_count(&self) -> usize {
        self.shared.with_waiters(|w| w.len())
    }
}

impl<T> Clone for Trigger<T> {
    fn clone(&self) -> Self {
        Trigger {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T: Default> Default for Trigger<T> {
    fn default() -> Self {
        Self::with_value(T::default())
    }
}

impl<T> std::fmt::Debug for Trigger<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trigger")
            .field("fired", &self.is_fired())
            .finish()
    }
}

/// Future returned by [`Trigger::wait`].
pub struct TriggerWait<T = ()> {
    shared: Rc<Shared<T>>,
}

impl<T> Future for TriggerWait<T> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.shared.fired.get() {
            Poll::Ready(())
        } else {
            self.shared.with_waiters(|w| w.push(cx.waker()));
            Poll::Pending
        }
    }
}

/// Future returned by [`Trigger::wait_any`].
pub struct AnyWait<T = ()> {
    sources: Vec<Rc<Shared<T>>>,
    /// The waker registered with the unfired sources, if any.
    waker: Option<Waker>,
}

impl<T> AnyWait<T> {
    /// Removes the registered waker from every source still holding it.
    fn deregister(&mut self) {
        if let Some(w) = self.waker.take() {
            for s in &self.sources {
                s.with_waiters(|ws| ws.remove(&w));
            }
        }
    }
}

impl<T> Future for AnyWait<T> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sources.iter().any(|s| s.fired.get()) {
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
            s.with_waiters(|w| w.push(cx.waker()));
        }
        self.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl<T> Drop for AnyWait<T> {
    fn drop(&mut self) {
        self.deregister();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::{Cell, RefCell};
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

    /// Spawns `n` tasks that wait on one trigger in index order and
    /// fires it at 4 ns; returns the order they woke in and the trigger's
    /// waiter count at 1, 2 and 4 ns and after the run. Task `dropped`,
    /// if any, first waits through a `wait_any` over the trigger and a
    /// kick fired at 1 ns, which resolves and drops it; it re-registers
    /// with a plain wait at 3 ns.
    fn wake_order(n: usize, dropped: Option<usize>) -> (Vec<usize>, Vec<usize>) {
        let sim = Sim::new(0);
        let (trig, kick) = (Trigger::new(), Trigger::new());
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..n {
            let (t, k, o, sim2) = (trig.clone(), kick.clone(), Rc::clone(&order), sim.clone());
            sim.spawn(async move {
                if Some(i) == dropped {
                    Trigger::wait_any([&t, &k]).await;
                    sim2.sleep(SimDuration::from_nanos(2)).await;
                }
                t.wait().await;
                o.borrow_mut().push(i);
            });
        }
        let counts = Rc::new(RefCell::new(Vec::new()));
        for ns in [1, 2, 4] {
            let (t, k, c) = (trig.clone(), kick.clone(), Rc::clone(&counts));
            sim.schedule_in(SimDuration::from_nanos(ns), move |_| {
                c.borrow_mut().push(t.waiter_count());
                match ns {
                    1 => k.fire(),
                    4 => t.fire(),
                    _ => {}
                }
            });
        }
        sim.run();
        counts.borrow_mut().push(trig.waiter_count());
        assert_eq!(sim.live_tasks(), 0);
        let order = order.borrow().clone();
        let counts = counts.borrow().clone();
        (order, counts)
    }

    #[test]
    fn fire_wakes_in_registration_order() {
        for n in 0..=3 {
            let (order, counts) = wake_order(n, None);
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "{n} waiters");
            assert_eq!(counts, [n, n, n, 0], "{n} waiters");
        }
    }

    #[test]
    fn dropped_wait_keeps_the_rest_in_order_and_rearms_last() {
        // The dropped waker inline (first), in the middle of the spill
        // list, and last.
        for (n, dropped) in [(1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (3, 2)] {
            let (order, counts) = wake_order(n, Some(dropped));
            let mut expect: Vec<usize> = (0..n).filter(|&i| i != dropped).collect();
            expect.push(dropped);
            assert_eq!(order, expect, "{n} waiters, #{dropped} dropped");
            assert_eq!(counts, [n, n - 1, n, 0], "{n} waiters, #{dropped} dropped");
        }
    }

    #[test]
    fn repolled_waits_register_the_task_once() {
        let sim = Sim::new(0);
        let (trig, other) = (Trigger::new(), Trigger::new());
        let seen = Rc::new(Cell::new(0));
        let (t, o, s2) = (trig.clone(), other.clone(), Rc::clone(&seen));
        sim.spawn(async move {
            let mut wait = Box::pin(t.wait());
            let mut any = Box::pin(Trigger::wait_any([&t, &o]));
            for _ in 0..3 {
                poll_fn(|cx| {
                    assert!(wait.as_mut().poll(cx).is_pending());
                    assert!(any.as_mut().poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
            }
            s2.set(t.waiter_count() + o.waiter_count());
        });
        sim.run();
        assert_eq!(seen.get(), 2, "one waker per trigger, however often polled");
        assert_eq!(trig.waiter_count() + other.waiter_count(), 0);
    }
}
