//! The simulation facade: clock, calendar event queue and run loop.

use crate::equeue::{Due, EventAction, EventQueue};
use crate::executor::{waker_for, TaskId, TaskSlot, WakeList};
use crate::obs::Obs;
use crate::rng::Xoshiro256;
use crate::slab::Slab;
use crate::verify::Verify;
use crate::virt::{VirtualEvent, VirtualQueue};
use crate::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::Arc; // sync-allow: Waker must be Send + Sync
use std::task::{Context, Poll};

/// Handle to the simulation; cheap to clone (reference-counted).
///
/// All state is interior-mutable and single-threaded; futures spawned on
/// the sim capture clones of this handle.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

struct Inner {
    clock: Cell<SimTime>,
    seq: Cell<u64>,
    events: RefCell<EventQueue>,
    virt: RefCell<VirtualQueue>,
    tasks: RefCell<Slab<TaskSlot>>,
    wakes: Arc<WakeList>,
    spawned: RefCell<Vec<usize>>,
    /// Reusable microtask batch buffer (see [`Sim::drain_microtasks`]).
    drain_scratch: Cell<Vec<usize>>,
    rng: RefCell<Xoshiro256>,
    obs: Obs,
    verify: Verify,
    executed_events: Cell<u64>,
    polls: Cell<u64>,
    /// The checks computed firings run (see [`Sim::add_virtual_check`]).
    #[cfg(debug_assertions)]
    virt_checks: RefCell<VirtChecks>,
}

/// Debug builds: checks run when tagged virtual events fire.
#[cfg(debug_assertions)]
#[derive(Default)]
struct VirtChecks {
    /// Each check, and the last step that ran it.
    checks: Vec<(Rc<dyn Fn()>, u64)>,
    /// Per virtual-event slot: the check its firings run, if any.
    tags: Vec<Option<usize>>,
    /// Steps that fired anything so far.
    steps: u64,
}

/// Cancellation handle for a scheduled event (see [`Sim::schedule_in`]).
///
/// Cancellation reclaims the event slot *eagerly*: the closure and its
/// captures are dropped at `cancel()` time, not when the deadline would
/// have popped — a retransmit timer cancelled by an ack costs 24 bytes of
/// tombstone key until the next lazy purge, nothing more.
#[derive(Clone, Debug)]
pub struct TimerHandle {
    queue: Weak<Inner>,
    slot: u32,
    gen: u32,
    cancelled: Cell<bool>,
}

impl TimerHandle {
    /// Cancels the event and frees its closure; a no-op if it already
    /// fired (the slot generation no longer matches) or was cancelled.
    pub fn cancel(&self) {
        if self.cancelled.replace(true) {
            return;
        }
        if let Some(inner) = self.queue.upgrade() {
            let action = inner.events.borrow_mut().cancel(self.slot, self.gen);
            // Drop the reclaimed closure outside the queue borrow: its
            // captures' Drop impls may re-enter the sim.
            drop(action);
        }
    }

    /// True if [`TimerHandle::cancel`] was called through this handle (or
    /// a clone taken after the cancel).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

impl Sim {
    /// Creates a simulation at t = 0 with a seeded RNG.
    pub fn new(seed: u64) -> Sim {
        Sim {
            inner: Rc::new(Inner {
                clock: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                events: RefCell::new(EventQueue::new()),
                virt: RefCell::new(VirtualQueue::default()),
                tasks: RefCell::new(Slab::new()),
                wakes: Arc::new(WakeList::default()),
                spawned: RefCell::new(Vec::new()),
                drain_scratch: Cell::new(Vec::new()),
                rng: RefCell::new(Xoshiro256::new(seed)),
                obs: Obs::new(),
                verify: Verify::new(),
                executed_events: Cell::new(0),
                polls: Cell::new(0),
                #[cfg(debug_assertions)]
                virt_checks: RefCell::new(VirtChecks::default()),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock.get()
    }

    /// The simulation-wide structured-observability recorder (pm2-obs).
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// The simulation-wide lock-order / happens-before analyzer
    /// (pm2-verify). Disabled by default; see [`crate::verify`].
    pub fn verify(&self) -> &Verify {
        &self.inner.verify
    }

    /// Draws from the simulation RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut Xoshiro256) -> R) -> R {
        f(&mut self.inner.rng.borrow_mut())
    }

    /// Number of events executed so far (diagnostics).
    pub fn executed_events(&self) -> u64 {
        self.inner.executed_events.get()
    }

    /// Number of task polls performed so far (diagnostics).
    pub fn polls(&self) -> u64 {
        self.inner.polls.get()
    }

    /// Number of live (not yet completed) tasks.
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().len()
    }

    /// Number of live (scheduled, not fired, not cancelled) events,
    /// virtual periodic events included.
    pub fn pending_events(&self) -> usize {
        self.inner.events.borrow().live_len() + self.inner.virt.borrow().len()
    }

    /// Total keys resident in the event queue: live events plus
    /// not-yet-purged cancellation tombstones. The lazy purge keeps this
    /// O(live); exposed so tests can pin the cancellation-leak fix.
    pub fn event_queue_keys(&self) -> usize {
        self.inner.events.borrow().key_count()
    }

    // ----- events -------------------------------------------------------

    /// Schedules `action` to run `delay` from now. Returns a cancel handle.
    pub fn schedule_in<F>(&self, delay: SimDuration, action: F) -> TimerHandle
    where
        F: FnOnce(&Sim) + 'static,
    {
        self.schedule_at(self.now() + delay, action)
    }

    /// Schedules `action` at absolute time `at` (clamped to now if past).
    pub fn schedule_at<F>(&self, at: SimTime, action: F) -> TimerHandle
    where
        F: FnOnce(&Sim) + 'static,
    {
        let at = at.max(self.now());
        let seq = self.inner.seq.get();
        self.inner.seq.set(seq + 1);
        self.insert_event(at, seq, action)
    }

    fn insert_event<F>(&self, at: SimTime, seq: u64, action: F) -> TimerHandle
    where
        F: FnOnce(&Sim) + 'static,
    {
        let (slot, gen) = self
            .inner
            .events
            .borrow_mut()
            .insert(at, seq, EventAction::new(action));
        TimerHandle {
            queue: Rc::downgrade(&self.inner),
            slot,
            gen,
            cancelled: Cell::new(false),
        }
    }

    /// Starts a *virtual* periodic event: first at `first`, then every
    /// `period`, each firing doing nothing but schedule the next. The run
    /// loop orders its firings against real events by `(time, seq)` and
    /// allocates their sequence numbers exactly as a real self-rescheduling
    /// event would — this call allocates the first one — but executes no
    /// closure and counts no executed event (see the `virt` module). End it
    /// with [`Sim::materialize`].
    pub fn schedule_virtual(&self, first: SimTime, period: SimDuration) -> VirtualEvent {
        let at = first.max(self.now());
        let seq = self.inner.seq.get();
        self.inner.seq.set(seq + 1);
        let v = self
            .inner
            .virt
            .borrow_mut()
            .insert(at, seq, period.as_nanos());
        #[cfg(debug_assertions)]
        if let Some(tag) = self
            .inner
            .virt_checks
            .borrow_mut()
            .tags
            .get_mut(v.slot() as usize)
        {
            *tag = None;
        }
        v
    }

    /// The `(time, seq)` key of the next firing of `v` (never before
    /// [`Sim::now`]): the slot [`Sim::materialize`] would give its real
    /// event.
    pub fn virtual_key(&self, v: &VirtualEvent) -> (SimTime, u64) {
        self.inner.virt.borrow().key(v)
    }

    /// The firings `v` made so far: those keyed before the real event
    /// running now, or before the last one run.
    pub fn virtual_fired(&self, v: &VirtualEvent) -> u64 {
        self.inner.virt.borrow().fired(v)
    }

    /// Ends `v`, turning its next firing into a real event: `action` runs
    /// at exactly the `(time, seq)` slot that firing held, so it ties with
    /// other events as the self-rescheduling event would have. Returns the
    /// new event's time and cancel handle, and the firings `v` made.
    pub fn materialize<F>(&self, v: VirtualEvent, action: F) -> (SimTime, TimerHandle, u64)
    where
        F: FnOnce(&Sim) + 'static,
    {
        let (at, seq, fired) = self.inner.virt.borrow_mut().remove(v);
        (at, self.insert_event(at, seq, action), fired)
    }

    /// Debug builds only: registers `check`, which runs after the
    /// firings of each step (the virtual events fired before one real
    /// event) that fired a virtual event tagged with the returned id (see
    /// [`Sim::tag_virtual`]). That is when a computed firing stands in for
    /// a real event, so the assumption that made it computable must hold.
    #[cfg(debug_assertions)]
    pub fn add_virtual_check(&self, check: impl Fn() + 'static) -> usize {
        let mut vc = self.inner.virt_checks.borrow_mut();
        vc.checks.push((Rc::new(check), 0));
        vc.checks.len() - 1
    }

    /// Debug builds only: the firings of `v` run check `id` (see
    /// [`Sim::add_virtual_check`]).
    #[cfg(debug_assertions)]
    pub fn tag_virtual(&self, v: &VirtualEvent, id: usize) {
        let mut vc = self.inner.virt_checks.borrow_mut();
        let slot = v.slot() as usize;
        if vc.tags.len() <= slot {
            vc.tags.resize(slot + 1, None);
        }
        vc.tags[slot] = Some(id);
    }

    /// Fires like [`VirtualQueue::fire_before`]; returns, once each, the
    /// checks of the virtual events that fired.
    #[cfg(debug_assertions)]
    fn fire_checked(
        &self,
        virt: &mut VirtualQueue,
        next: (SimTime, u64),
        seq: &mut u64,
    ) -> Vec<Rc<dyn Fn()>> {
        let mut due = Vec::new();
        {
            let mut vc = self.inner.virt_checks.borrow_mut();
            vc.steps += 1;
            let VirtChecks {
                checks,
                tags,
                steps,
            } = &mut *vc;
            virt.fire_before(next, seq, &mut |slot| {
                if let Some(&Some(id)) = tags.get(slot as usize) {
                    if checks[id].1 != *steps {
                        checks[id].1 = *steps;
                        due.push(Rc::clone(&checks[id].0));
                    }
                }
            });
        }
        due
    }

    /// Fires the virtual events keyed before the next real event, if that
    /// event is due by `limit`. Virtual events never outlive the real
    /// queue: with no real event left there is nothing to order them
    /// against.
    fn fire_virtual(&self, limit: SimTime) {
        let mut virt = self.inner.virt.borrow_mut();
        if virt.len() == 0 {
            return;
        }
        let Some(next) = self.inner.events.borrow_mut().peek_key() else {
            return;
        };
        if next.0 > limit {
            return;
        }
        let mut seq = self.inner.seq.get();
        #[cfg(not(debug_assertions))]
        virt.fire_before(next, &mut seq, &mut |_| {});
        #[cfg(debug_assertions)]
        let due = self.fire_checked(&mut virt, next, &mut seq);
        self.inner.seq.set(seq);
        #[cfg(debug_assertions)]
        {
            drop(virt);
            for check in due {
                check();
            }
        }
    }

    // ----- tasks --------------------------------------------------------

    /// Spawns a simulated activity; it is first polled when the run loop
    /// next reaches a scheduling point (at the current virtual time).
    pub fn spawn<F>(&self, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_named(None, fut)
    }

    /// Spawns with a debug label.
    pub fn spawn_named<F>(&self, name: Option<String>, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let id = self.inner.tasks.borrow_mut().insert(TaskSlot {
            future: Some(Box::pin(fut)),
            name,
            waker: None,
        });
        self.inner.spawned.borrow_mut().push(id);
        TaskId(id)
    }

    fn poll_task(&self, id: usize) {
        let (mut fut, waker) = {
            let mut tasks = self.inner.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id) else {
                return; // already completed
            };
            let Some(fut) = slot.future.take() else {
                return; // re-entrant wake while polling; the outer poll handles it
            };
            let waker = slot
                .waker
                .get_or_insert_with(|| waker_for(id, &self.inner.wakes));
            (fut, waker.clone())
        };
        self.inner.polls.set(self.inner.polls.get() + 1);
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.inner.tasks.borrow_mut().remove(id);
            }
            Poll::Pending => {
                if let Some(slot) = self.inner.tasks.borrow_mut().get_mut(id) {
                    slot.future = Some(fut);
                }
            }
        }
    }

    /// Polls newly spawned tasks and drains posted wake-ups until
    /// quiescent. The batch buffer is recycled across calls so the
    /// steady-state drain allocates nothing.
    fn drain_microtasks(&self) {
        let mut batch = self.inner.drain_scratch.take();
        loop {
            batch.clear();
            batch.append(&mut self.inner.spawned.borrow_mut());
            self.inner.wakes.drain_into(&mut batch);
            if batch.is_empty() {
                break;
            }
            for &id in &batch {
                self.poll_task(id);
            }
        }
        self.inner.drain_scratch.set(batch);
    }

    // ----- run loop -----------------------------------------------------

    /// Runs until the event heap is exhausted; returns the final time.
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until virtual time would exceed `limit`; events at exactly
    /// `limit` are executed. Returns the time reached.
    ///
    /// Cancelled events never fire, never count as executed and never
    /// advance the clock — the queue reclaims them at `cancel()` time.
    pub fn run_until(&self, limit: SimTime) -> SimTime {
        loop {
            self.drain_microtasks();
            self.fire_virtual(limit);
            // Bind the pop result so the queue borrow ends before the
            // action runs (actions re-enter the sim to schedule).
            let due = self.inner.events.borrow_mut().pop_due(limit);
            match due {
                Due::Ready(at, action) => {
                    debug_assert!(at >= self.now(), "time went backwards");
                    self.inner.clock.set(at);
                    self.inner
                        .executed_events
                        .set(self.inner.executed_events.get() + 1);
                    action.invoke(self);
                }
                Due::Later | Due::Empty => {
                    // Nothing left inside the horizon; advance the clock
                    // to a finite horizon before stopping.
                    if limit != SimTime::MAX {
                        self.inner.clock.set(limit);
                    }
                    return self.now();
                }
            }
        }
    }

    /// Drops every task and event that has not finished: they will never
    /// run.
    ///
    /// Tasks and event closures hold handles back into the simulation, so
    /// work left unfinished (a cluster built and never run, a run stopped
    /// by [`Sim::run_until`]) keeps the simulation, and all its tasks
    /// hold, alive after the last outside handle is gone. Dropping that
    /// work breaks the cycle. What the drops wake, spawn or schedule is
    /// discarded too, until nothing is left. The clock and the counters
    /// keep their values.
    pub fn discard_pending(&self) {
        loop {
            let tasks = std::mem::take(&mut *self.inner.tasks.borrow_mut());
            self.inner.spawned.borrow_mut().clear();
            let mut woken = self.inner.drain_scratch.take();
            self.inner.wakes.drain_into(&mut woken);
            woken.clear();
            self.inner.drain_scratch.set(woken);
            let mut actions = Vec::new();
            // Popping (not replacing the queue) keeps every outstanding
            // `TimerHandle` stale rather than aliasing a later event.
            while let Due::Ready(_, action) = self.inner.events.borrow_mut().pop_due(SimTime::MAX) {
                actions.push(action);
            }
            if tasks.is_empty() && actions.is_empty() {
                return;
            }
            // Dropped outside every borrow: the drops may re-enter the sim.
            drop(tasks);
            drop(actions);
        }
    }

    /// Advances virtual time by `d`, executing everything in between.
    pub fn run_for(&self, d: SimDuration) -> SimTime {
        self.run_until(self.now() + d)
    }

    /// Runs to quiescence like [`Sim::run`], but treats `deadline` as a
    /// wedge detector: `Ok(end)` if the event heap drained with the clock
    /// at `end ≤ deadline`, `Err(deadline)` if live events remained
    /// beyond it (a protocol that stopped converging — e.g. a retransmit
    /// loop that never wins). Unlike [`Sim::run_until`] the clock is
    /// *not* clamped to the deadline on success, so timing assertions
    /// keep seeing the real quiescence time; on `Err` the remaining
    /// events are untouched and a subsequent `run` would resume them.
    ///
    /// Cancelled stragglers past the deadline (e.g. already-acked
    /// retransmit timers) don't count as pending, so a clean protocol
    /// with long-dated dead timers still reports `Ok`. Symmetrically,
    /// cancellation tombstones are never counted as productive work: a
    /// cancel storm cannot mask a livelock, because only live events
    /// reach the execute step (pinned by a regression test below).
    pub fn run_bounded(&self, deadline: SimTime) -> Result<SimTime, SimTime> {
        loop {
            self.drain_microtasks();
            self.fire_virtual(deadline);
            // pop_due skips dead keys, so tombstones neither read as
            // pending work nor advance the clock. Bind the result so the
            // queue borrow ends before the action runs.
            let due = self.inner.events.borrow_mut().pop_due(deadline);
            match due {
                Due::Ready(at, action) => {
                    debug_assert!(at >= self.now(), "time went backwards");
                    self.inner.clock.set(at);
                    self.inner
                        .executed_events
                        .set(self.inner.executed_events.get() + 1);
                    action.invoke(self);
                }
                Due::Later => return Err(deadline),
                // A live virtual event would have kept a real
                // self-rescheduling one going forever.
                Due::Empty if self.inner.virt.borrow().len() > 0 => return Err(deadline),
                Due::Empty => return Ok(self.now()),
            }
        }
    }

    // ----- futures ------------------------------------------------------

    /// A future that completes `d` of virtual time from now.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        Sleep {
            sim: Rc::downgrade(&self.inner),
            deadline: self.now() + d,
            scheduled: false,
        }
    }

    /// A future that yields once: re-polled at the current virtual time
    /// after other due activities have run.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Debug label of a task, if it is alive and was named.
    pub fn task_name(&self, task: TaskId) -> Option<String> {
        self.inner
            .tasks
            .borrow()
            .get(task.0)
            .and_then(|s| s.name.clone())
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("live_tasks", &self.live_tasks())
            .field("pending_events", &self.pending_events())
            .finish()
    }
}

/// Future returned by [`Sim::sleep`].
///
/// Holds the simulation weakly: a task asleep when the last [`Sim`]
/// handle is dropped does not keep the simulation, and with it the task
/// itself, alive.
pub struct Sleep {
    sim: Weak<Inner>,
    deadline: SimTime,
    scheduled: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let Some(inner) = self.sim.upgrade() else {
            return Poll::Pending;
        };
        let sim = Sim { inner };
        if sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.scheduled {
            self.scheduled = true;
            let waker = cx.waker().clone();
            sim.schedule_at(self.deadline, move |_| waker.wake());
        }
        Poll::Pending
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/chains.rs"]
mod chains;

#[cfg(test)]
mod tests {
    use super::chains::chain_script;
    use super::*;
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let sim = Sim::new(0);
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.schedule_in(SimDuration::from_micros(10), |_| {});
        assert_eq!(sim.run().as_micros(), 10);
    }

    #[test]
    fn events_fire_in_time_then_insertion_order() {
        let sim = Sim::new(0);
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for (delay, tag) in [(5u64, 'b'), (1, 'a'), (5, 'c')] {
            let log = Rc::clone(&log);
            sim.schedule_in(SimDuration::from_micros(delay), move |_| {
                log.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let sim = Sim::new(0);
        let hit = Rc::new(Cell::new(false));
        let h = {
            let hit = Rc::clone(&hit);
            sim.schedule_in(SimDuration::from_micros(1), move |_| hit.set(true))
        };
        h.cancel();
        assert!(h.is_cancelled());
        sim.run();
        assert!(!hit.get());
        assert_eq!(sim.executed_events(), 0);
    }

    #[test]
    fn cancel_frees_closure_captures_eagerly() {
        // Regression (pre-fix: cancel only flipped a flag and the boxed
        // closure sat in the heap until its deadline popped — an acked
        // retransmit timer held its frame alive for the whole timeout).
        let sim = Sim::new(0);
        let payload = Rc::new(vec![0u8; 4096]);
        let h = {
            let payload = Rc::clone(&payload);
            sim.schedule_in(SimDuration::from_secs(30), move |_| drop(payload))
        };
        assert_eq!(Rc::strong_count(&payload), 2);
        h.cancel();
        assert_eq!(
            Rc::strong_count(&payload),
            1,
            "cancel must reclaim the closure and its captures eagerly, \
             not at the (far-future) deadline"
        );
    }

    #[test]
    fn cancel_storm_keeps_queue_occupancy_bounded() {
        // Regression (pre-fix: every cancelled entry stayed resident, so
        // occupancy grew with cancels, not with live timers).
        let sim = Sim::new(0);
        let live: Vec<_> = (0..16)
            .map(|_| sim.schedule_in(SimDuration::from_secs(60), |_| {}))
            .collect();
        for _ in 0..10_000 {
            let h = sim.schedule_in(SimDuration::from_millis(1), |_| {});
            h.cancel();
            assert!(
                sim.event_queue_keys() <= 16 + 65,
                "queue occupancy {} is not O(live timers)",
                sim.event_queue_keys()
            );
        }
        assert_eq!(sim.pending_events(), 16);
        drop(live);
    }

    #[test]
    fn run_bounded_cancel_storm_does_not_mask_livelock() {
        // Tombstones must not count as productive work: a wedged live
        // chain past the deadline still trips Err even when thousands of
        // cancelled timers sit in front of it, and none of the dead
        // entries show up in executed_events.
        let sim = Sim::new(0);
        for i in 0..1000u64 {
            let h = sim.schedule_in(SimDuration::from_micros(i + 1), |_| {});
            h.cancel();
        }
        sim.schedule_in(SimDuration::from_micros(50), |_| {});
        sim.schedule_in(SimDuration::from_secs(10), |_| {}); // beyond deadline
        let err = sim.run_bounded(SimTime::from_micros(100));
        assert_eq!(err, Err(SimTime::from_micros(100)));
        assert_eq!(
            sim.executed_events(),
            1,
            "only the one live in-deadline event is productive work"
        );
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Sim::new(0);
        let hit = Rc::new(Cell::new(0u32));
        for us in [5u64, 15] {
            let hit = Rc::clone(&hit);
            sim.schedule_in(SimDuration::from_micros(us), move |_| {
                hit.set(hit.get() + 1)
            });
        }
        sim.run_until(SimTime::from_micros(10));
        assert_eq!(hit.get(), 1);
        assert_eq!(sim.now().as_micros(), 10);
        sim.run();
        assert_eq!(hit.get(), 2);
    }

    #[test]
    fn run_bounded_reports_quiescence_time() {
        let sim = Sim::new(0);
        sim.schedule_in(SimDuration::from_micros(5), |_| {});
        let end = sim
            .run_bounded(SimTime::from_micros(100))
            .expect("quiesces");
        // The clock stops at the last event, not at the deadline.
        assert_eq!(end.as_micros(), 5);
        assert_eq!(sim.now().as_micros(), 5);
    }

    #[test]
    fn run_bounded_detects_wedged_event_chains() {
        // A self-perpetuating timer chain (like a retransmit loop whose
        // ack never comes) must trip the deadline instead of hanging.
        fn rearm(sim: &Sim) {
            sim.schedule_in(SimDuration::from_micros(10), rearm);
        }
        let sim = Sim::new(0);
        rearm(&sim);
        let err = sim.run_bounded(SimTime::from_micros(100));
        assert_eq!(err, Err(SimTime::from_micros(100)));
        // The pending chain survives: a later run resumes it.
        assert!(sim.now().as_micros() <= 100);
    }

    #[test]
    fn run_bounded_ignores_cancelled_stragglers() {
        let sim = Sim::new(0);
        sim.schedule_in(SimDuration::from_micros(5), |_| {});
        // A long-dated timer that gets cancelled (an acked retransmit)
        // must not read as a wedge, nor advance the clock.
        let h = sim.schedule_in(SimDuration::from_secs(30), |_| {});
        h.cancel();
        let end = sim.run_bounded(SimTime::from_micros(100)).expect("clean");
        assert_eq!(end.as_micros(), 5);
        assert_eq!(sim.now().as_micros(), 5);
    }

    #[test]
    fn sleep_advances_task_time() {
        let sim = Sim::new(0);
        let sim2 = sim.clone();
        let done = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_micros(3)).await;
            sim2.sleep(SimDuration::from_micros(4)).await;
            done2.set(sim2.now().as_micros());
        });
        sim.run();
        assert_eq!(done.get(), 7);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new(0);
        let sim2 = sim.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            sim2.sleep(SimDuration::ZERO).await;
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn yield_now_interleaves_tasks() {
        let sim = Sim::new(0);
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let sim2 = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for i in 0..2 {
                    log.borrow_mut().push(format!("{name}{i}"));
                    sim2.yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["a0", "b0", "a1", "b1"]);
    }

    #[test]
    fn tasks_spawning_tasks() {
        let sim = Sim::new(0);
        let sim2 = sim.clone();
        let count = Rc::new(Cell::new(0u32));
        let count2 = Rc::clone(&count);
        sim.spawn(async move {
            for _ in 0..3 {
                let sim3 = sim2.clone();
                let count3 = Rc::clone(&count2);
                sim2.spawn(async move {
                    sim3.sleep(SimDuration::from_micros(1)).await;
                    count3.set(count3.get() + 1);
                });
            }
        });
        sim.run();
        assert_eq!(count.get(), 3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once() -> Vec<u64> {
            let sim = Sim::new(7);
            let out = Rc::new(StdRefCell::new(Vec::new()));
            for _ in 0..10 {
                let sim2 = sim.clone();
                let out2 = Rc::clone(&out);
                let delay = sim.with_rng(|r| r.gen_range(1, 100));
                sim.spawn(async move {
                    sim2.sleep(SimDuration::from_micros(delay)).await;
                    out2.borrow_mut().push(sim2.now().as_nanos());
                });
            }
            sim.run();
            Rc::try_unwrap(out).unwrap().into_inner()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn virtual_periodic_events_order_like_real_ones() {
        for seed in 0..40 {
            let real = chain_script(seed, &[100, 230, 230, 500], false);
            let virt = chain_script(seed, &[100, 230, 230, 500], true);
            assert!(real.iter().any(|(_, l)| l.starts_with("chain")));
            assert_eq!(real, virt, "seed {seed}");
        }
    }

    #[test]
    fn virtual_events_keep_run_bounded_wedged() {
        let sim = Sim::new(0);
        let v = sim.schedule_virtual(SimTime::from_nanos(100), SimDuration::from_nanos(100));
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(
            sim.run_bounded(SimTime::from_micros(1)),
            Err(SimTime::from_micros(1))
        );
        // A real event at 1 µs orders the virtual firings before it; the
        // one at 1 µs itself took its seq later, so it sorts after.
        sim.schedule_at(SimTime::from_micros(1), |_| {});
        sim.run_until(SimTime::from_micros(1));
        assert_eq!(sim.virtual_key(&v).0, SimTime::from_micros(1));
        let (at, h, fired) = sim.materialize(v, |_| {});
        assert_eq!(at, SimTime::from_micros(1));
        assert_eq!(fired, 9, "firings at 100, 200, …, 900 ns");
        assert!(!h.is_cancelled());
        assert_eq!(sim.executed_events(), 1);
    }

    #[test]
    fn named_tasks_expose_names() {
        let sim = Sim::new(0);
        let sim2 = sim.clone();
        let id = sim.spawn_named(Some("worker".into()), async move {
            sim2.sleep(SimDuration::from_micros(1)).await;
        });
        assert_eq!(sim.task_name(id).as_deref(), Some("worker"));
        sim.run();
        assert_eq!(sim.task_name(id), None);
    }
}
