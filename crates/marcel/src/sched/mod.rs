//! The scheduler engine: cores, the hierarchical run queues and the
//! dispatch machinery (core occupancy, tasklet invocation pricing,
//! idle-hook sweeps, timers, run-event deduplication). Submodules:
//!
//! * [`threads`] — thread lifecycle (spawn, block/wake, yield, finish)
//!   and the placement and kick rules of ready threads;
//! * [`tasklets`] — tasklet scheduling and execution;
//! * [`hooks`] — idle hooks (PIOMAN's polling sites);
//! * [`timers`] — periodic timers;
//! * [`stats`] — activity counters.

mod hooks;
mod stats;
mod tasklets;
#[cfg(test)]
mod tests;
mod threads;
mod timers;

pub use hooks::HookResult;
pub use stats::SchedStats;
pub use timers::TimerId;

use crate::config::MarcelConfig;
use crate::runq::RunQueues;
use crate::tasklet::{TaskletId, TaskletRec};
use crate::thread::{Priority, ThreadId};
use hooks::IdleHook;
use pm2_sim::trace::Category;
use pm2_sim::{Sim, SimDuration, SimTime, Slab, TimerHandle, Trigger};
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
    Finished,
}

pub(crate) struct ThreadRec {
    pub(crate) state: TState,
    pub(crate) priority: Priority,
    pub(crate) affinity: Option<CoreId>,
    /// Core the thread last ran on (for cache-affine wake placement).
    pub(crate) last_core: Option<CoreId>,
    pub(crate) dispatch_waker: Option<Waker>,
    pub(crate) finished: Trigger,
    pub(crate) park_trigger: Option<Trigger>,
    pub(crate) unpark_permit: bool,
    pub(crate) name: String,
}

pub(crate) struct Core {
    pub(crate) id: CoreId,
    pub(crate) current: Option<ThreadId>,
    /// Occupancy from tasklet/hook work (threads occupy via `current`).
    pub(crate) busy_until: SimTime,
    /// Earliest pending `run_core` event, for deduplication.
    pub(crate) scheduled_run: Option<(SimTime, TimerHandle)>,
}

impl Core {
    /// True if the core has neither a thread nor in-flight work at `now`.
    pub(crate) fn is_idle(&self, now: SimTime) -> bool {
        self.current.is_none() && self.busy_until <= now
    }
}

pub(crate) struct State {
    pub(crate) cores: Vec<Core>,
    pub(crate) threads: Slab<ThreadRec>,
    pub(crate) tasklets: Slab<TaskletRec>,
    pub(crate) tasklet_queue: VecDeque<TaskletId>,
    pub(crate) runq: RunQueues,
    pub(crate) hooks: Vec<IdleHook>,
    pub(crate) timers: Slab<timers::TimerRec>,
    pub(crate) stats: SchedStats,
    /// Per-shard counts of idle-hook work events
    /// ([`HookResult::WorkedOn`]), indexed by shard.
    pub(crate) hook_shard_work: Vec<u64>,
    /// Per-shard counts of tasklet work events
    /// ([`crate::TaskletRun::note_shard`]), indexed by shard.
    pub(crate) tasklet_shard_work: Vec<u64>,
}

pub(crate) struct Inner {
    pub(crate) sim: Sim,
    pub(crate) topo: Rc<Topology>,
    pub(crate) node: NodeId,
    pub(crate) cfg: MarcelConfig,
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
    pub fn new(sim: Sim, topo: Rc<Topology>, node: NodeId, cfg: MarcelConfig) -> Marcel {
        let runq = RunQueues::new(topo.cores_per_node(), topo.sockets_per_node());
        let cores = topo
            .cores_of(node)
            .map(|id| Core {
                id,
                current: None,
                busy_until: SimTime::ZERO,
                scheduled_run: None,
            })
            .collect();
        Marcel {
            inner: Rc::new(Inner {
                sim,
                topo,
                node,
                cfg,
                state: RefCell::new(State {
                    cores,
                    threads: Slab::new(),
                    tasklets: Slab::new(),
                    tasklet_queue: VecDeque::new(),
                    runq,
                    hooks: Vec::new(),
                    timers: Slab::new(),
                    stats: SchedStats::default(),
                    hook_shard_work: Vec::new(),
                    tasklet_shard_work: Vec::new(),
                }),
            }),
        }
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

    /// Nudges every idle core to look for work now (used by PIOMAN when new
    /// requests arrive).
    pub fn kick_all_idle(&self) {
        let now = self.inner.sim.now();
        let idle: Vec<CoreId> = self
            .inner
            .state
            .borrow()
            .cores
            .iter()
            .filter(|c| c.is_idle(now))
            .map(|c| c.id)
            .collect();
        for c in idle {
            self.schedule_run(c, SimDuration::ZERO);
        }
    }

    /// Kicks the idle core nearest to `origin`, or any idle core.
    pub(crate) fn kick_idle_near(&self, origin: Option<CoreId>) {
        let now = self.inner.sim.now();
        let chosen = {
            let st = self.inner.state.borrow();
            // Prefer an idle core with no run already pending so that two
            // ready threads wake two distinct cores.
            let fallback = || {
                st.cores
                    .iter()
                    .find(|c| c.is_idle(now) && c.scheduled_run.is_none())
                    .or_else(|| st.cores.iter().find(|c| c.is_idle(now)))
                    .map(|c| c.id)
            };
            match origin {
                Some(o) => self
                    .inner
                    .topo
                    .neighbours_by_distance(o)
                    .into_iter()
                    .find(|&cand| {
                        let local = self.inner.topo.local_index(cand);
                        let c = &st.cores[local];
                        c.is_idle(now) && c.scheduled_run.is_none()
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
        {
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
            let marcel = self.clone();
            let handle = self.inner.sim.schedule_at(at, move |_| {
                marcel.inner.state.borrow_mut().cores[local].scheduled_run = None;
                marcel.run_core(core);
            });
            *slot = Some((at, handle));
        }
    }

    /// The per-core work loop: tasklets first, then threads, then idle
    /// hooks.
    pub(crate) fn run_core(&self, core: CoreId) {
        let local = self.local(core);
        loop {
            let now = self.inner.sim.now();
            // Phase 0: occupied?
            {
                let st = self.inner.state.borrow();
                let c = &st.cores[local];
                if c.current.is_some() {
                    return; // the running thread will release the core
                }
                if c.busy_until > now {
                    // Tasklet/hook work in flight: come back when it ends.
                    let until = c.busy_until;
                    drop(st);
                    self.schedule_run(core, until - now);
                    return;
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
                        return;
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
                return;
            }
            // Phase 2: threads — the best eligible one for this core.
            let popped = self.inner.state.borrow_mut().runq.pop_for(local);
            if let Some((tid, source)) = popped {
                let ctx_switch = self.inner.cfg.ctx_switch;
                {
                    let mut st = self.inner.state.borrow_mut();
                    st.stats.note_pop(source);
                    st.stats.dispatches += 1;
                    let rec = st.threads.get_mut(tid.0).expect("queued thread missing");
                    debug_assert_eq!(rec.state, TState::Ready);
                    rec.state = TState::Running(core);
                    rec.last_core = Some(core);
                    st.cores[local].current = Some(tid);
                }
                self.trace(Category::Sched, || {
                    format!("dispatch {:?} on {}", tid, core)
                });
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
                return;
            }
            // Phase 3: idle hooks.
            let (cost, armed) = self.hook_sweep(core, now);
            if !cost.is_zero() {
                let mut st = self.inner.state.borrow_mut();
                st.cores[local].busy_until = now + cost;
                drop(st);
                self.schedule_run(core, cost);
                return;
            }
            if armed {
                self.schedule_run(core, self.inner.cfg.idle_poll_period);
                return;
            }
            // Truly idle: sleep until kicked.
            return;
        }
    }

    pub(crate) fn wake_dispatch(&self, thread: ThreadId) {
        let waker = {
            let mut st = self.inner.state.borrow_mut();
            st.threads
                .get_mut(thread.0)
                .and_then(|r| r.dispatch_waker.take())
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    pub(crate) fn trace(&self, cat: Category, f: impl FnOnce() -> String) {
        self.inner
            .sim
            .trace()
            .emit_with(self.inner.sim.now(), cat, f);
    }
}
