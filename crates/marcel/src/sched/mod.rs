//! The scheduler engine: cores, the hierarchical run queues and the
//! dispatch machinery (core occupancy, tasklet invocation pricing,
//! idle-hook sweeps, timers, run-event deduplication). Submodules:
//!
//! * [`threads`] — thread lifecycle (spawn, block/wake, yield, finish)
//!   and the placement and kick rules of ready threads;
//! * [`tasklets`] — tasklet scheduling and execution;
//! * [`hooks`] — idle hooks (PIOMAN's polling sites) and the parked
//!   state of a core whose hooks poll without finding work;
//! * [`timers`] — periodic timers;
//! * [`stats`] — activity counters.

mod hooks;
mod stats;
mod tasklets;
#[cfg(test)]
mod tests;
mod threads;
mod timers;

pub use hooks::{HookResult, IdleHook};
pub use stats::SchedStats;

use crate::config::MarcelConfig;
use crate::runq::RunQueues;
use crate::tasklet::{TaskletId, TaskletRec};
use crate::thread::{Priority, ThreadId};
use hooks::{Hooks, Sweep};
use pm2_sim::{Sim, SimDuration, SimTime, Slab, TimerHandle, Trigger, VirtualEvent};
use pm2_topo::{CoreId, NodeId, Topology};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::task::Waker;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TState {
    Ready,
    Running(CoreId),
    Blocked,
}

/// A live thread; removed from [`State::threads`] when it finishes.
pub(crate) struct ThreadRec {
    /// [`ThreadId::gen`] of the thread in this slot.
    pub(crate) gen: u32,
    pub(crate) state: TState,
    pub(crate) priority: Priority,
    pub(crate) affinity: Option<CoreId>,
    /// Core the thread last ran on (for cache-affine wake placement).
    pub(crate) last_core: Option<CoreId>,
    pub(crate) dispatch_waker: Option<Waker>,
    pub(crate) finished: Trigger,
    pub(crate) park_trigger: Option<Trigger>,
    pub(crate) unpark_permit: bool,
}

pub(crate) struct Core {
    pub(crate) id: CoreId,
    pub(crate) current: Option<ThreadId>,
    /// Occupancy from tasklet/hook work (threads occupy via `current`).
    pub(crate) busy_until: SimTime,
    /// Earliest pending `run_core` event, for deduplication.
    pub(crate) scheduled_run: Option<(SimTime, TimerHandle)>,
    /// Set while the core polls idle hooks that find nothing: its sweeps
    /// are a virtual periodic event instead of real `run_core` events.
    pub(crate) parked: Option<Parked>,
}

/// A parked core: the grid of sweeps it would run, and what each one
/// charges.
pub(crate) struct Parked {
    /// The next virtual sweep; its `(time, seq)` slot is the core's place
    /// among same-instant events.
    pub(crate) sweeps: VirtualEvent,
    /// CPU time each sweep charges (zero: the core stays idle between
    /// sweeps, which come every `idle_poll_period`).
    pub(crate) cost: SimDuration,
    /// Firings of `sweeps` already counted as sweeps (see
    /// [`Marcel::credit_parked`]).
    pub(crate) credited: u64,
}

/// How a change to what idle sweeps read reaches the parked cores
/// (DESIGN.md §10).
pub(crate) struct Bell {
    /// A change rang and no pure sweep has observed it yet.
    pub(crate) dirty: bool,
    /// While dirty: the core whose pending run sweeps ahead of every
    /// parked core, and the `(time, seq)` key it was given. Cleared when
    /// that run starts.
    pub(crate) observer: Option<(usize, (SimTime, u64))>,
    /// The hooks' views at the pure sweep that last cleaned the node.
    #[cfg(debug_assertions)]
    pub(crate) views: Vec<u64>,
    /// The check parked sweeps run as they fire
    /// ([`Sim::add_virtual_check`]).
    #[cfg(debug_assertions)]
    pub(crate) check: usize,
}

impl Core {
    /// True if the core has neither a thread nor in-flight work at `now`.
    /// A parked core shows what its polling would: busy until its next
    /// sweep when sweeps cost CPU time, idle otherwise.
    pub(crate) fn is_idle(&self, sim: &Sim, now: SimTime) -> bool {
        self.current.is_none() && self.polled_busy_until(sim) <= now
    }

    /// `busy_until` as the polling core would show it.
    fn polled_busy_until(&self, sim: &Sim) -> SimTime {
        match &self.parked {
            Some(p) if !p.cost.is_zero() => sim.virtual_key(&p.sweeps).0,
            _ => self.busy_until,
        }
    }

    /// True if a `run_core` is pending (a parked core's next sweep is).
    pub(crate) fn run_pending(&self) -> bool {
        self.scheduled_run.is_some() || self.parked.is_some()
    }
}

pub(crate) struct State {
    pub(crate) cores: Vec<Core>,
    pub(crate) threads: Slab<ThreadRec>,
    /// Threads spawned so far (wrapping): the next [`ThreadId::gen`].
    pub(crate) spawned: u32,
    pub(crate) tasklets: Slab<TaskletRec>,
    pub(crate) tasklet_queue: VecDeque<TaskletId>,
    pub(crate) runq: RunQueues,
    pub(crate) hooks: Hooks,
    pub(crate) bell: Bell,
    pub(crate) stats: SchedStats,
}

impl State {
    /// The record of `thread`, or `None` once it finished.
    pub(crate) fn thread(&self, thread: ThreadId) -> Option<&ThreadRec> {
        let rec = self.threads.get(thread.slot as usize)?;
        (rec.gen == thread.gen).then_some(rec)
    }

    /// Mutable [`State::thread`].
    pub(crate) fn thread_mut(&mut self, thread: ThreadId) -> Option<&mut ThreadRec> {
        let rec = self.threads.get_mut(thread.slot as usize)?;
        (rec.gen == thread.gen).then_some(rec)
    }

    /// True if any enabled tasklet is waiting to run.
    pub(crate) fn tasklet_ready(&self) -> bool {
        self.tasklet_queue.iter().any(|t| {
            self.tasklets
                .get(t.0)
                .is_some_and(|r| r.disabled == 0 && !r.running)
        })
    }
}

pub(crate) struct Inner {
    pub(crate) sim: Sim,
    pub(crate) topo: Rc<Topology>,
    pub(crate) node: NodeId,
    /// Shared by every node of a cluster (one allocation, not one per
    /// rank).
    pub(crate) cfg: Rc<MarcelConfig>,
    pub(crate) state: RefCell<State>,
}

/// Handle to one node's scheduler; cheap to clone.
///
/// # Example
/// ```
/// use pm2_marcel::{Marcel, MarcelConfig, Priority};
/// use pm2_sim::{Sim, SimDuration};
/// use pm2_topo::{NodeId, Topology};
/// use std::rc::Rc;
///
/// let sim = Sim::new(0);
/// let topo = Rc::new(Topology::single_node(4));
/// let marcel = Marcel::new(sim.clone(), topo, NodeId(0), MarcelConfig::default());
/// marcel.spawn("worker", Priority::Normal, None, |ctx| async move {
///     ctx.compute(SimDuration::from_micros(10)).await;
/// });
/// sim.run();
/// assert_eq!(marcel.stats().dispatches, 1);
/// ```
#[derive(Clone)]
pub struct Marcel {
    pub(crate) inner: Rc<Inner>,
}

impl Marcel {
    /// Creates a scheduler owning the cores of `node` in `topo`.
    ///
    /// `cfg` is a config or an `Rc` of one that every node shares.
    pub fn new(
        sim: Sim,
        topo: Rc<Topology>,
        node: NodeId,
        cfg: impl Into<Rc<MarcelConfig>>,
    ) -> Marcel {
        let cfg = cfg.into();
        let runq = RunQueues::new(topo.cores_per_node(), topo.sockets_per_node());
        let cores = topo
            .cores_of(node)
            .map(|id| Core {
                id,
                current: None,
                busy_until: SimTime::ZERO,
                scheduled_run: None,
                parked: None,
            })
            .collect();
        let marcel = Marcel {
            inner: Rc::new(Inner {
                sim,
                topo,
                node,
                cfg,
                state: RefCell::new(State {
                    cores,
                    threads: Slab::new(),
                    spawned: 0,
                    tasklets: Slab::new(),
                    tasklet_queue: VecDeque::new(),
                    runq,
                    hooks: Rc::new([]),
                    // No sweep has observed anything yet.
                    bell: Bell {
                        dirty: true,
                        observer: None,
                        #[cfg(debug_assertions)]
                        views: Vec::new(),
                        #[cfg(debug_assertions)]
                        check: 0,
                    },
                    stats: SchedStats::default(),
                }),
            }),
        };
        #[cfg(debug_assertions)]
        {
            let weak = Rc::downgrade(&marcel.inner);
            let check = marcel.inner.sim.add_virtual_check(move || {
                if let Some(inner) = weak.upgrade() {
                    Marcel { inner }.parking_oracle();
                }
            });
            marcel.inner.state.borrow_mut().bell.check = check;
        }
        marcel
    }

    /// The underlying simulation.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The node this scheduler manages.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Rc<Topology> {
        &self.inner.topo
    }

    /// The cost model in use.
    pub fn config(&self) -> &MarcelConfig {
        &self.inner.cfg
    }

    pub(crate) fn local(&self, core: CoreId) -> usize {
        debug_assert_eq!(self.inner.topo.node_of(core), self.inner.node);
        self.inner.topo.local_index(core)
    }

    // ----- core engine ----------------------------------------------------

    /// The doorbell: state the idle cores poll has changed (a frame or a
    /// shared-memory message arrived, a retransmission was queued). It
    /// rings [`Marcel::wake_parked`], so the first parked core to sweep
    /// after the change observes it, and nudges every idle core to look
    /// now.
    pub fn doorbell(&self) {
        self.wake_parked();
        let now = self.inner.sim.now();
        let n = self.inner.state.borrow().cores.len();
        for local in 0..n {
            let (idle, core) = {
                let st = self.inner.state.borrow();
                let c = &st.cores[local];
                (c.is_idle(&self.inner.sim, now), c.id)
            };
            if idle {
                self.schedule_run(core, SimDuration::ZERO);
            }
        }
    }

    /// State an idle sweep reads has changed (PIOMAN queued or completed
    /// work, a thread or tasklet became ready): the ring. The node turns
    /// *dirty*, and the parked core whose next sweep has the smallest
    /// `(time, seq)` key — the first that would read the change — gets
    /// that sweep as a real `run_core`, unless a run already pending is
    /// ahead of every parked core. That core is the node's *observer*.
    /// When its run ends after a pure sweep with nothing runnable, the
    /// node is clean and every other parked core stays computed: no
    /// sweep reads anything core-dependent, so the observer's proves
    /// theirs pure too. Any other ending wakes the next parked core in
    /// key order. The sweeps parked cores made before the ring are
    /// counted at the ring, under the state they read. Idle cores are
    /// left alone; callers that also want them nudged ring
    /// [`Marcel::doorbell`].
    ///
    /// Costs nothing in virtual time: a sweep it turns real was in the
    /// polled schedule anyway, at the same `(time, seq)` slot.
    pub fn wake_parked(&self) {
        let (dirty, observer) = {
            let st = self.inner.state.borrow();
            (st.bell.dirty, st.bell.observer.is_some())
        };
        if !dirty {
            // The sweeps made so far read the state this change ends.
            self.credit_parked();
            self.inner.state.borrow_mut().bell.dirty = true;
        }
        if !observer {
            self.wake_observer();
        }
    }

    /// Counts the sweeps parked cores have made so far as run, here and in
    /// every hook ([`IdleHook::skipped`]), so counters read mid-run are
    /// exact. [`Marcel::stats`] calls it; a library reading its own
    /// counters fed by the hooks calls it first.
    pub fn credit_parked(&self) {
        let mut swept = 0;
        for c in &mut self.inner.state.borrow_mut().cores {
            if let Some(p) = &mut c.parked {
                let fired = self.inner.sim.virtual_fired(&p.sweeps);
                swept += fired - p.credited;
                p.credited = fired;
            }
        }
        self.credit_sweeps(swept);
    }

    /// Counts `swept` computed sweeps as run, here and in every hook
    /// ([`IdleHook::skipped`]).
    fn credit_sweeps(&self, swept: u64) {
        if swept == 0 {
            return;
        }
        let hooks = {
            let mut st = self.inner.state.borrow_mut();
            st.stats.hook_sweeps += swept;
            Rc::clone(&st.hooks)
        };
        for hook in hooks.iter() {
            hook.skipped(swept);
        }
    }

    /// Makes the parked core whose next sweep comes first the observer:
    /// that sweep becomes its real pending run.
    fn wake_observer(&self) {
        let first = {
            let st = self.inner.state.borrow();
            let sim = &self.inner.sim;
            st.cores
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.parked.as_ref().map(|p| (sim.virtual_key(&p.sweeps), i)))
                .min()
        };
        if let Some((key, local)) = first {
            self.observe_from(local, key);
        }
    }

    /// Makes parked core `local`, whose next sweep is keyed `key`, the
    /// observer.
    fn observe_from(&self, local: usize, key: (SimTime, u64)) {
        self.unpark_core(local);
        self.inner.state.borrow_mut().bell.observer = Some((local, key));
    }

    /// Turns a parked core's next virtual sweep into its real pending run,
    /// leaving the core exactly as the polling loop would have at this
    /// instant, and counts the sweeps it made while parked as run — here
    /// and in every hook. No-op for a core that is not parked.
    fn unpark_core(&self, local: usize) {
        let (p, core) = {
            let mut st = self.inner.state.borrow_mut();
            let c = &mut st.cores[local];
            match c.parked.take() {
                Some(p) => (p, c.id),
                None => return,
            }
        };
        let (at, handle, fired) = self
            .inner
            .sim
            .materialize(p.sweeps, self.run_event(local, core));
        {
            let c = &mut self.inner.state.borrow_mut().cores[local];
            if !p.cost.is_zero() {
                c.busy_until = at;
            }
            c.scheduled_run = Some((at, handle));
        }
        self.credit_sweeps(fired - p.credited);
    }

    /// Kicks the idle core nearest to `origin`, or any idle core.
    pub(crate) fn kick_idle_near(&self, origin: Option<CoreId>) {
        let now = self.inner.sim.now();
        let sim = &self.inner.sim;
        let chosen = {
            let st = self.inner.state.borrow();
            // Prefer an idle core with no run already pending so that two
            // ready threads wake two distinct cores.
            let fallback = || {
                st.cores
                    .iter()
                    .find(|c| c.is_idle(sim, now) && !c.run_pending())
                    .or_else(|| st.cores.iter().find(|c| c.is_idle(sim, now)))
                    .map(|c| c.id)
            };
            match origin {
                Some(o) => self
                    .inner
                    .topo
                    .neighbours_by_distance(o)
                    .find(|&cand| {
                        let local = self.inner.topo.local_index(cand);
                        let c = &st.cores[local];
                        c.is_idle(sim, now) && !c.run_pending()
                    })
                    .or_else(fallback),
                None => fallback(),
            }
        };
        if let Some(c) = chosen {
            self.schedule_run(c, SimDuration::ZERO);
        }
    }

    /// Schedules `run_core(core)` after `delay`, deduplicating against an
    /// already-pending earlier or equal run.
    pub(crate) fn schedule_run(&self, core: CoreId, delay: SimDuration) {
        let at = self.inner.sim.now() + delay;
        let local = self.local(core);
        // A kick races a parked core's polling loop: make its pending sweep
        // real first, then dedupe against it as the loop would.
        self.unpark_core(local);
        let mut st = self.inner.state.borrow_mut();
        let slot = &mut st.cores[local].scheduled_run;
        if let Some((t, _)) = slot {
            if *t <= at {
                return; // an earlier (or same-time) run is already pending
            }
            if let Some((_, h)) = slot.take() {
                h.cancel();
            }
        }
        let handle = self.inner.sim.schedule_at(at, self.run_event(local, core));
        *slot = Some((at, handle));
    }

    /// The event body of a pending `run_core(core)`.
    fn run_event(&self, local: usize, core: CoreId) -> impl FnOnce(&Sim) + 'static {
        let marcel = self.clone();
        move |_| {
            {
                let mut st = marcel.inner.state.borrow_mut();
                st.cores[local].scheduled_run = None;
                if st.bell.observer.is_some_and(|(o, _)| o == local) {
                    st.bell.observer = None;
                }
            }
            marcel.run_core(core);
        }
    }

    /// One run of `core`: the work loop, then the node's wake rule.
    fn run_core(&self, core: CoreId) {
        let local = self.local(core);
        let parked = self.work_loop(core, local);
        self.after_run(local, parked);
    }

    /// Ends a run of `local` on a dirty node (see [`Marcel::wake_parked`]).
    /// `parked`: the run ended in a pure sweep. With no thread or tasklet
    /// runnable that sweep observed the change, and the node is clean.
    /// Otherwise the node stays dirty and needs an observer ahead of every
    /// parked core: the first parked core if none is pending, or this one
    /// if it parked ahead of the pending observer.
    fn after_run(&self, local: usize, parked: bool) {
        let mut st = self.inner.state.borrow_mut();
        if !st.bell.dirty {
            return;
        }
        if parked && st.runq.len() == 0 && !st.tasklet_ready() {
            st.bell.dirty = false;
            st.bell.observer = None;
            #[cfg(debug_assertions)]
            {
                let hooks = Rc::clone(&st.hooks);
                drop(st);
                let views = hooks.iter().map(|h| h.view()).collect();
                self.inner.state.borrow_mut().bell.views = views;
            }
            return;
        }
        match st.bell.observer {
            None => {
                drop(st);
                self.wake_observer();
            }
            Some((_, ahead)) if parked => {
                let p = st.cores[local].parked.as_ref().expect("parked core");
                let key = self.inner.sim.virtual_key(&p.sweeps);
                if key < ahead {
                    drop(st);
                    self.observe_from(local, key);
                }
            }
            Some(_) => {}
        }
    }

    /// The per-core work loop: tasklets first, then threads, then idle
    /// hooks. True if it ended by parking the core after a pure sweep.
    fn work_loop(&self, core: CoreId, local: usize) -> bool {
        loop {
            let now = self.inner.sim.now();
            // Phase 0: occupied?
            {
                let st = self.inner.state.borrow();
                let c = &st.cores[local];
                if c.current.is_some() {
                    return false; // the running thread will release the core
                }
                if c.busy_until > now {
                    // Tasklet/hook work in flight: come back when it ends.
                    let until = c.busy_until;
                    drop(st);
                    self.schedule_run(core, until - now);
                    return false;
                }
            }
            // Phase 1: tasklets. The invocation penalty (cross-CPU
            // notification) elapses before the body runs, so offloaded
            // submissions hit the wire 2 µs after being scheduled from a
            // remote core — the overhead the paper measures in §4.1.
            let tasklet = {
                let mut st = self.inner.state.borrow_mut();
                Self::pop_ready_tasklet(&mut st)
            };
            if let Some(id) = tasklet {
                let invoke = self.claim_tasklet(id, core);
                if invoke.is_zero() {
                    let cost = self.execute_tasklet_body(id, core, false);
                    if !cost.is_zero() {
                        let mut st = self.inner.state.borrow_mut();
                        st.cores[local].busy_until = now + cost;
                        drop(st);
                        self.schedule_run(core, cost);
                        return false;
                    }
                    continue;
                }
                {
                    let mut st = self.inner.state.borrow_mut();
                    st.cores[local].busy_until = now + invoke;
                }
                let marcel = self.clone();
                self.inner.sim.schedule_in(invoke, move |sim| {
                    let cost = marcel.execute_tasklet_body(id, core, false);
                    let local = marcel.local(core);
                    let t = sim.now();
                    marcel.inner.state.borrow_mut().cores[local].busy_until = t + cost;
                    marcel.schedule_run(core, cost);
                });
                return false;
            }
            // Phase 2: threads — the best eligible one for this core.
            let popped = self.inner.state.borrow_mut().runq.pop_for(local);
            if let Some((tid, source)) = popped {
                let ctx_switch = self.inner.cfg.ctx_switch;
                {
                    let mut st = self.inner.state.borrow_mut();
                    st.stats.note_pop(source);
                    st.stats.dispatches += 1;
                    let rec = st.thread_mut(tid).expect("queued thread missing");
                    debug_assert_eq!(rec.state, TState::Ready);
                    rec.state = TState::Running(core);
                    rec.last_core = Some(core);
                    st.cores[local].current = Some(tid);
                }
                if ctx_switch.is_zero() {
                    self.wake_dispatch(tid);
                } else {
                    let marcel = self.clone();
                    self.inner
                        .sim
                        .schedule_in(ctx_switch, move |_| marcel.wake_dispatch(tid));
                }
                // More ready threads? Wake another idle core for them.
                if self.ready_thread_count() > 0 {
                    self.kick_idle_near(None);
                }
                return false;
            }
            // Phase 3: idle hooks.
            match self.hook_sweep(core, now) {
                Sweep::Worked(cost) if cost.is_zero() => {
                    self.schedule_run(core, self.inner.cfg.idle_poll_period);
                }
                Sweep::Worked(cost) => {
                    self.inner.state.borrow_mut().cores[local].busy_until = now + cost;
                    self.schedule_run(core, cost);
                }
                Sweep::Idle(cost) => {
                    self.park(local, now, cost);
                    return true;
                }
                // Truly idle: sleep until kicked.
                Sweep::Nothing => {}
            }
            return false;
        }
    }

    /// Parks a core whose sweep found nothing but stays armed: it would
    /// re-sweep every `cost` (every `idle_poll_period` if zero), each sweep
    /// finding nothing until some state it reads changes — which rings
    /// [`Marcel::wake_parked`]. Until then the sweeps are a virtual event.
    fn park(&self, local: usize, now: SimTime, cost: SimDuration) {
        let step = if cost.is_zero() {
            self.inner.cfg.idle_poll_period
        } else {
            cost
        };
        let sweeps = self.inner.sim.schedule_virtual(now + step, step);
        let mut st = self.inner.state.borrow_mut();
        #[cfg(debug_assertions)]
        self.inner.sim.tag_virtual(&sweeps, st.bell.check);
        let c = &mut st.cores[local];
        debug_assert!(c.scheduled_run.is_none(), "a pure sweep kicked its core");
        if !cost.is_zero() {
            c.busy_until = now + cost;
        }
        c.parked = Some(Parked {
            sweeps,
            cost,
            credited: 0,
        });
    }

    pub(crate) fn wake_dispatch(&self, thread: ThreadId) {
        let waker = {
            let mut st = self.inner.state.borrow_mut();
            st.thread_mut(thread).and_then(|r| r.dispatch_waker.take())
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}
