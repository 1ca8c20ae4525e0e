//! The PIOMAN server: deciding when and where progress runs.
//!
//! Since the sharded-progression refactor the server owns a *driver
//! registry*: each transport (NIC rail, shared-memory channel, …)
//! registers its own [`ProgressDriver`] and the server walks them with a
//! fair round-robin schedule, prioritising deferred submissions over
//! pure completion polling (see [`Pioman::attach_driver`]).

use crate::config::{LockModel, PiomanConfig};
use crate::req::PiomReq;
use pm2_marcel::{HookResult, IdleHook, Marcel, Priority, TaskletId, ThreadCtx, ThreadId};
use pm2_sim::obs::EventKind;
use pm2_sim::{Sim, SimDuration, SimTime, Site, Trigger};
use pm2_topo::CoreId;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::{Rc, Weak};

/// Outcome of one driver progress step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Host CPU time the step consumed (polls, copies, NIC doorbells).
    pub cost: SimDuration,
    /// True if the step advanced some request (submitted, matched,
    /// completed…); false for an unproductive poll.
    pub did_work: bool,
}

impl Progress {
    /// An idle step: no work available, no CPU spent.
    pub const NONE: Progress = Progress {
        cost: SimDuration::ZERO,
        did_work: false,
    };
}

/// What one driver currently has outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriverPending {
    /// Deferred submissions waiting to be fed to the hardware.
    pub submissions: bool,
    /// Posted requests whose completion must be detected by polling.
    pub armed: bool,
    /// Global age rank of the oldest deferred submission (lower = older).
    /// The registry uses it to reproduce a single FIFO submission order
    /// across independently-queued drivers; `None` means "unranked" and
    /// sorts last.
    pub oldest_submission: Option<u64>,
}

impl DriverPending {
    /// True if the driver needs progress calls at all.
    pub fn any(self) -> bool {
        self.submissions || self.armed
    }
}

/// Identifier of a driver registered with [`Pioman::attach_driver`]: its
/// slot in the registry, which it keeps for the lifetime of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DriverId(pub usize);

/// The callbacks a communication library registers with PIOMAN.
///
/// "The use of callbacks in PIOMAN makes it generic: the network-dependent
/// code is supplied by the library using PIOMAN … not by PIOMAN itself"
/// (§3.2).
pub trait ProgressDriver {
    /// Performs at most one unit of progress (submit one pending request,
    /// poll one NIC, …) and reports its cost.
    fn progress(&self) -> Progress;
    /// What is outstanding (drives polling/arming decisions).
    fn pending(&self) -> DriverPending;
    /// A trigger that fires when the hardware has something to look at
    /// (models the completion of a blocking receive syscall). `None` if
    /// the hardware cannot wake a blocked thread.
    fn hw_trigger(&self) -> Option<Trigger>;
    /// `polls` unproductive [`ProgressDriver::progress`] calls were
    /// computed instead of made (an idle core was parked on the
    /// doorbell): count them as made. Only counters may change.
    fn credit_polls(&self, _polls: u64) {}
}

/// An injection queue: the "progress for all" substrate.
///
/// An application thread stages work locally and [`inject`]s a costed
/// closure; the closure executes on *whoever runs progression next* — a
/// stolen idle core, the progress tasklet, the dedicated progress thread
/// ([`PiomanConfig::progress_thread`]), or an inline `wait`. Endpoints
/// are ordinary [`ProgressDriver`]s in the registry, so the oldest-first
/// submission rank replays the global injection order across endpoints
/// and the submission-burst valve applies unchanged.
///
/// [`inject`]: InjectionEndpoint::inject
pub struct InjectionEndpoint {
    driver: Rc<EndpointDriver>,
    pioman: Pioman,
}

/// A deferred injection: global rank plus the costed closure.
type Injection = (u64, Box<dyn FnOnce() -> SimDuration>);

/// The registry-facing side of an [`InjectionEndpoint`]: a FIFO of
/// (rank, costed closure) pairs, drained one per progress call.
struct EndpointDriver {
    queue: RefCell<VecDeque<Injection>>,
}

impl ProgressDriver for EndpointDriver {
    fn progress(&self) -> Progress {
        // Take the item out before running it so a closure that re-enters
        // the endpoint (or the registry) never sees the queue borrowed.
        let item = self.queue.borrow_mut().pop_front();
        match item {
            Some((_, f)) => Progress {
                cost: f(),
                did_work: true,
            },
            None => Progress::NONE,
        }
    }

    fn pending(&self) -> DriverPending {
        let q = self.queue.borrow();
        DriverPending {
            submissions: !q.is_empty(),
            armed: false,
            oldest_submission: q.front().map(|(rank, _)| *rank),
        }
    }

    fn hw_trigger(&self) -> Option<Trigger> {
        None
    }
}

impl InjectionEndpoint {
    /// Enqueues one unit of deferred work. `f` runs exactly once, on the
    /// core that drains it, and returns the host-CPU cost charged to that
    /// core. `origin` is the injecting core (locality hint for the
    /// tasklet, as in [`Pioman::notify_work`]).
    pub fn inject(&self, origin: Option<CoreId>, f: impl FnOnce() -> SimDuration + 'static) {
        let rank = self.pioman.inner.endpoint_rank.get();
        self.pioman.inner.endpoint_rank.set(rank + 1);
        self.driver
            .queue
            .borrow_mut()
            .push_back((rank, Box::new(f)));
        self.pioman.notify_work(origin);
    }

    /// Closures injected but not yet drained.
    pub fn queued(&self) -> usize {
        self.driver.queue.borrow().len()
    }
}

/// Cumulative PIOMAN counters of one node ([`Pioman::stats`]). Which
/// driver a productive step served is in the `DriverProgress` obs events
/// and, per transport, in the library's own tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PiomanStats {
    /// Progress calls made inline by waiting threads.
    pub inline_progress: u64,
    /// Progress calls made from the idle hook. The polls of a parked core
    /// (see `pm2_marcel::HookResult::Idle`) are added when it wakes, when
    /// a change rings and when the counters are read.
    pub hook_progress: u64,
    /// Progress calls made from the progress tasklet.
    pub tasklet_progress: u64,
    /// Wake-ups of the blocking-call kernel thread.
    pub blocking_wakeups: u64,
    /// Progress attempts that found the global mutex held.
    pub lock_contentions: u64,
    /// Calls to [`Pioman::wait`].
    pub waits: u64,
    /// Longest run of consecutive submission steps the registry served
    /// before a completion poll (bounded by
    /// [`PiomanConfig::submission_burst_limit`]).
    pub max_submission_burst: u64,
    /// Progress calls made by the dedicated progress thread
    /// ([`PiomanConfig::progress_thread`]).
    pub thread_progress: u64,
}

/// The driver registry: one slot per [`DriverId`].
type Drivers = Rc<[Rc<dyn ProgressDriver>]>;

struct Inner {
    sim: Sim,
    marcel: Marcel,
    /// Shared by every node of a cluster.
    cfg: Rc<PiomanConfig>,
    /// Registered drivers. A snapshot, rebuilt on attach, so a progress
    /// pass holds it with one reference-count bump.
    drivers: RefCell<Drivers>,
    /// The drivers' pending states, read before a progress pass polls
    /// any driver. Taken out of the cell for the pass, so a driver that
    /// re-enters the registry gets a buffer of its own.
    pendings: Cell<Vec<DriverPending>>,
    /// Completion-poll rotor: the slot the next poll sweep starts from.
    rotor: Cell<usize>,
    /// Tie-break rotor between equally-old submitters.
    sub_rotor: Cell<usize>,
    /// Consecutive submission steps served since the last poll sweep.
    submission_burst: Cell<u32>,
    tasklet: Cell<Option<TaskletId>>,
    /// Global-mutex model: virtual time until which the library lock is
    /// held by some core.
    lock_held_until: Cell<SimTime>,
    /// Extra cost (syscall return) to charge to the next progress call.
    carried_cost: Cell<SimDuration>,
    watcher_active: Cell<bool>,
    stats: RefCell<PiomanStats>,
    /// Global rank counter shared by every injection endpoint, so the
    /// registry replays injection order across endpoints exactly as it
    /// replays pack order across per-transport queues.
    endpoint_rank: Cell<u64>,
    /// The dedicated progress thread, when
    /// [`PiomanConfig::progress_thread`] is set.
    progress_thread: Cell<Option<ThreadId>>,
    /// Drivers the last completion-poll sweep polled, in order.
    polled: RefCell<Vec<usize>>,
    /// The drivers the last idle-hook poll that parked its core polled.
    /// Every parked core's computed polls repeat it (the state it read
    /// has not changed, or the doorbell would have rung).
    idle_poll: RefCell<Vec<usize>>,
}

/// One serialized progress step (see [`Pioman::locked_progress`]).
struct Pass {
    p: Progress,
    who: Option<DriverId>,
    /// The step changed nothing but counters, and its outcome depends on
    /// nothing but state whose changes ring the doorbell: repeating it
    /// would give the same result.
    pure: bool,
}

/// Handle to one node's PIOMAN server (cheap to clone).
#[derive(Clone)]
pub struct Pioman {
    inner: Rc<Inner>,
}

#[derive(Clone, Copy)]
enum CallSite {
    Inline,
    Hook,
    Tasklet,
    /// The dedicated progress thread; reported to pm2-obs as offloaded
    /// (tasklet-class) progression, tallied separately in
    /// [`PiomanStats::thread_progress`].
    Thread,
}

impl CallSite {
    /// The pm2-obs progression-site tag of this call site.
    fn obs_site(self) -> Site {
        match self {
            CallSite::Inline => Site::Inline,
            CallSite::Hook => Site::Hook,
            CallSite::Tasklet | CallSite::Thread => Site::Tasklet,
        }
    }
}

impl Pioman {
    /// Creates the server, hooks it into `marcel` (idle hook, progress
    /// tasklet, timer trigger).
    ///
    /// `cfg` is a config or an `Rc` of one that every node shares.
    pub fn new(marcel: &Marcel, cfg: impl Into<Rc<PiomanConfig>>) -> Pioman {
        let cfg = cfg.into();
        let inner = Rc::new(Inner {
            sim: marcel.sim().clone(),
            marcel: marcel.clone(),
            cfg,
            drivers: RefCell::new(Rc::new([])),
            pendings: Cell::new(Vec::new()),
            rotor: Cell::new(0),
            sub_rotor: Cell::new(0),
            submission_burst: Cell::new(0),
            tasklet: Cell::new(None),
            lock_held_until: Cell::new(SimTime::ZERO),
            carried_cost: Cell::new(SimDuration::ZERO),
            watcher_active: Cell::new(false),
            stats: RefCell::new(PiomanStats::default()),
            endpoint_rank: Cell::new(0),
            progress_thread: Cell::new(None),
            polled: RefCell::new(Vec::new()),
            idle_poll: RefCell::new(Vec::new()),
        });
        let pioman = Pioman {
            inner: Rc::clone(&inner),
        };

        // Progress tasklet: drains work whenever scheduled, rescheduling
        // itself while some driver still has something outstanding.
        let weak: Weak<Inner> = Rc::downgrade(&inner);
        let tasklet = marcel.create_tasklet("pioman-progress", move |run| {
            let Some(inner) = weak.upgrade() else { return };
            let pioman = Pioman { inner };
            let Pass { p, who, .. } = pioman.locked_progress(CallSite::Tasklet);
            if p.did_work {
                if let Some(DriverId(i)) = who {
                    run.note_shard(i as u32);
                }
            }
            let carried = pioman.inner.carried_cost.replace(SimDuration::ZERO);
            run.charge(p.cost + carried);
            let pending = pioman.drivers_pending();
            if pending.submissions || (p.did_work && pending.armed) {
                run.reschedule();
            }
        });
        inner.tasklet.set(Some(tasklet));

        // Idle hook: "Marcel schedules PIOMAN each time a core is idle".
        if inner.cfg.idle_poll {
            marcel.register_idle_hook(IdleProgress {
                inner: Rc::downgrade(&inner),
            });
        }

        // Timer trigger: progress even when no core ever becomes idle.
        if inner.cfg.timer_poll {
            if let Some(tick) = marcel.config().timer_tick {
                let weak = Rc::downgrade(&inner);
                marcel.start_timer(tick, move |m| {
                    let Some(inner) = weak.upgrade() else { return };
                    let pioman = Pioman { inner };
                    if pioman.drivers_pending().any() {
                        if let Some(t) = pioman.inner.tasklet.get() {
                            m.tasklet_schedule(t, None);
                        }
                    }
                });
            }
        }

        // Dedicated progress thread (the zero-idle-core fallback): a
        // normal Marcel thread that busy-polls the registry while any
        // driver has work and parks when everything is quiet.
        // `notify_work` unparks it. Running as a plain high-priority
        // thread means it competes for a core like any application
        // thread — which is the point: it guarantees progression even
        // when every core is saturated by compute.
        if inner.cfg.progress_thread {
            let weak = Rc::downgrade(&inner);
            let id = marcel.spawn(
                "pioman-progress-thread",
                Priority::High,
                None,
                move |ctx| async move {
                    loop {
                        let Some(inner) = weak.upgrade() else { return };
                        let pioman = Pioman { inner };
                        if !pioman.drivers_pending().any() {
                            drop(pioman);
                            ctx.park().await;
                            continue;
                        }
                        let Pass { p, .. } = pioman.locked_progress(CallSite::Thread);
                        let carried = pioman.inner.carried_cost.replace(SimDuration::ZERO);
                        let pause = pioman.inner.cfg.inline_poll_pause;
                        let productive = p.did_work;
                        drop(pioman);
                        let mut cost = p.cost + carried;
                        if !productive {
                            // Unproductive poll: pace the busy loop so a
                            // waiting driver is not hammered at zero cost.
                            cost += pause;
                        }
                        if !cost.is_zero() {
                            ctx.compute(cost).await;
                        }
                        ctx.yield_now().await;
                    }
                },
            );
            inner.progress_thread.set(Some(id));
        }

        pioman
    }

    /// Registers one transport's callbacks and returns its slot.
    ///
    /// Drivers are polled round-robin in registration order, so register
    /// them in the order sources should be scanned (e.g. NIC rails
    /// first, shared memory last).
    pub fn attach_driver(&self, driver: Rc<dyn ProgressDriver>) -> DriverId {
        let id = {
            let mut drivers = self.inner.drivers.borrow_mut();
            let mut list = drivers.to_vec();
            list.push(driver);
            *drivers = list.into();
            DriverId(drivers.len() - 1)
        };
        self.inner.marcel.wake_parked();
        id
    }

    /// Creates an [`InjectionEndpoint`] and registers it with the driver
    /// registry. Endpoints share one global rank counter, so injections
    /// through different endpoints drain in the order they were made.
    pub fn create_endpoint(&self) -> InjectionEndpoint {
        let driver = Rc::new(EndpointDriver {
            queue: RefCell::new(VecDeque::new()),
        });
        self.attach_driver(Rc::clone(&driver) as Rc<dyn ProgressDriver>);
        InjectionEndpoint {
            driver,
            pioman: Pioman {
                inner: Rc::clone(&self.inner),
            },
        }
    }

    /// Number of attached drivers.
    pub fn driver_count(&self) -> usize {
        self.inner.drivers.borrow().len()
    }

    /// The scheduler this server is attached to.
    pub fn marcel(&self) -> &Marcel {
        &self.inner.marcel
    }

    /// Configuration in use.
    pub fn config(&self) -> &PiomanConfig {
        &self.inner.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PiomanStats {
        self.inner.marcel.credit_parked();
        *self.inner.stats.borrow()
    }

    /// Union of every attached driver's pending state.
    fn drivers_pending(&self) -> DriverPending {
        let drivers = self.inner.drivers.borrow();
        let mut acc = DriverPending::default();
        for d in drivers.iter() {
            let p = d.pending();
            acc.submissions |= p.submissions;
            acc.armed |= p.armed;
            acc.oldest_submission = match (acc.oldest_submission, p.oldest_submission) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        acc
    }

    /// The library posted new work (e.g. an asynchronous send was
    /// registered): get an idle core onto it as soon as possible.
    ///
    /// `origin` is the core that posted the work; the tasklet prefers a
    /// nearby idle core (cache locality) and its invocation from a
    /// different core costs the 2 µs cross-CPU penalty measured in §4.1.
    pub fn notify_work(&self, origin: Option<CoreId>) {
        // Parked cores must see the new work at their next grid instant.
        self.inner.marcel.wake_parked();
        if let Some(t) = self.inner.tasklet.get() {
            self.inner.marcel.tasklet_schedule(t, origin);
        }
        if let Some(th) = self.inner.progress_thread.get() {
            self.inner.marcel.unpark(th);
        }
        self.ensure_watcher();
    }

    /// Wakes the dedicated progress thread if one exists and is parked
    /// (no-op otherwise). The communication library calls this from its
    /// frame-arrival doorbell: idle-core kicks cannot reach the thread —
    /// it blocks parked, not idle.
    pub fn wake_progress_thread(&self) {
        if let Some(th) = self.inner.progress_thread.get() {
            self.inner.marcel.unpark(th);
        }
    }

    /// One scheduling decision of the registry: either feed the oldest
    /// deferred submission to its driver, or run one completion-poll
    /// sweep of the armed drivers.
    ///
    /// Submissions win over polling (the hardware should never sit idle
    /// while requests wait in software queues), except that after
    /// [`PiomanConfig::submission_burst_limit`] consecutive submission
    /// steps one poll sweep is forced so a submission flood cannot starve
    /// completion detection.
    ///
    /// The poll sweep scans drivers round-robin from the rotor, skipping
    /// drivers with nothing armed; the first driver that reports work
    /// ends the sweep (the unproductive scan costs of the drivers before
    /// it are discarded — scanning an empty source is free). If nobody
    /// worked, the sweep charges the most expensive unproductive poll.
    ///
    /// Also returns whether the step wrote registry state (served a
    /// submission, or ended a submission burst).
    fn registry_progress(&self) -> (Progress, Option<DriverId>, bool) {
        let drivers = Rc::clone(&self.inner.drivers.borrow());
        let n = drivers.len();
        if n == 0 {
            return (Progress::NONE, None, false);
        }
        let mut pendings = self.inner.pendings.take();
        pendings.clear();
        pendings.extend(drivers.iter().map(|d| d.pending()));
        let out = self.registry_step(&drivers, &pendings);
        self.inner.pendings.set(pendings);
        out
    }

    /// [`Pioman::registry_progress`] over `drivers`, whose pending states
    /// were read into `pendings` before the step.
    fn registry_step(
        &self,
        drivers: &[Rc<dyn ProgressDriver>],
        pendings: &[DriverPending],
    ) -> (Progress, Option<DriverId>, bool) {
        let n = drivers.len();

        // Phase 1: deferred submissions, oldest first across all queues.
        let burst = self.inner.submission_burst.get();
        if burst < self.inner.cfg.submission_burst_limit {
            let mut best: Option<(u64, usize)> = None;
            for k in 0..n {
                let pos = (self.inner.sub_rotor.get() + k) % n;
                if !pendings[pos].submissions {
                    continue;
                }
                let rank = pendings[pos].oldest_submission.unwrap_or(u64::MAX);
                if best.is_none_or(|(r, _)| rank < r) {
                    best = Some((rank, pos));
                }
            }
            if let Some((_, pos)) = best {
                let p = drivers[pos].progress();
                let burst = burst + 1;
                self.inner.submission_burst.set(burst);
                let mut st = self.inner.stats.borrow_mut();
                st.max_submission_burst = st.max_submission_burst.max(burst as u64);
                drop(st);
                self.inner.sub_rotor.set((pos + 1) % n);
                return (p, Some(DriverId(pos)), true);
            }
        }
        self.inner.submission_burst.set(0);

        // Phase 2: completion polling, fair rotor over armed drivers.
        let rotor = self.inner.rotor.get();
        let mut worst = SimDuration::ZERO;
        let mut worst_pos = None;
        // Resetting a full burst re-enables submissions: a write.
        let wrote = burst != 0;
        self.inner.polled.borrow_mut().clear();
        for k in 0..n {
            let pos = (rotor + k) % n;
            if !pendings[pos].armed {
                continue;
            }
            self.inner.polled.borrow_mut().push(pos);
            let p = drivers[pos].progress();
            if p.did_work {
                self.inner.rotor.set((pos + 1) % n);
                return (p, Some(DriverId(pos)), true);
            }
            if p.cost > worst {
                worst = p.cost;
                worst_pos = Some(pos);
            }
        }
        (
            Progress {
                cost: worst,
                did_work: false,
            },
            worst_pos.map(DriverId),
            wrote,
        )
    }

    /// One serialized progress step, honouring the lock model. A
    /// productive step rings [`Marcel::wake_parked`]: it changed what the
    /// parked cores' sweeps would read.
    fn locked_progress(&self, site: CallSite) -> Pass {
        let now = self.inner.sim.now();
        let lock_cost = match self.inner.cfg.lock_model {
            LockModel::PerEventSpinlock => self.inner.cfg.spinlock_cost,
            LockModel::GlobalMutex => {
                if now < self.inner.lock_held_until.get() {
                    // Someone else is inside the library: spin and retry.
                    self.inner.stats.borrow_mut().lock_contentions += 1;
                    return Pass {
                        p: Progress {
                            cost: self.inner.cfg.mutex_spin_cost,
                            did_work: false,
                        },
                        who: None,
                        pure: false,
                    };
                }
                self.inner.cfg.spinlock_cost
            }
        };
        // Tag the progression site for the duration of the pass, so layers
        // reached from driver callbacks (NIC submits, protocol handlers)
        // attribute their pm2-obs events to inline/hook/tasklet progress.
        let prev_site = self.inner.sim.obs().set_site(site.obs_site());
        let prev_vsite = self.inner.sim.verify().set_site(site.obs_site());
        // The registry walk is the serialized section the paper's per-event
        // spinlock / global mutex protects.
        self.inner.sim.verify().lock_acquire("pioman.registry");
        let (p, who, wrote) = self.registry_progress();
        self.inner.sim.verify().lock_release("pioman.registry");
        self.inner.sim.verify().set_site(prev_vsite);
        self.inner.sim.obs().set_site(prev_site);
        let cost = if p.cost.is_zero() && !p.did_work {
            // Nothing even worth polling.
            SimDuration::ZERO
        } else {
            p.cost + lock_cost
        };
        // The global mutex is read against the clock on every pass, so no
        // pass under it is pure.
        let global = self.inner.cfg.lock_model == LockModel::GlobalMutex;
        if global && !cost.is_zero() {
            self.inner.lock_held_until.set(now + cost);
        }
        {
            let mut st = self.inner.stats.borrow_mut();
            match site {
                CallSite::Inline => st.inline_progress += 1,
                CallSite::Hook => st.hook_progress += 1,
                CallSite::Tasklet => st.tasklet_progress += 1,
                CallSite::Thread => st.thread_progress += 1,
            }
        }
        if p.did_work {
            if let Some(DriverId(i)) = who {
                self.inner.sim.obs().emit(
                    now,
                    None,
                    EventKind::DriverProgress {
                        driver: i as u64,
                        site: site.obs_site(),
                        cost: cost.as_nanos(),
                    },
                );
            }
        }
        if p.did_work {
            self.inner.marcel.wake_parked();
        }
        Pass {
            p: Progress {
                cost,
                did_work: p.did_work,
            },
            who,
            pure: !p.did_work && !wrote && !global,
        }
    }

    /// Every attached driver's hardware wake-up source, in registration
    /// order, read off the driver snapshot.
    fn hw_triggers(&self) -> Vec<Trigger> {
        let drivers = self.inner.drivers.borrow();
        drivers.iter().filter_map(|d| d.hw_trigger()).collect()
    }

    /// Keeps a simulated kernel thread blocked on the hardware triggers
    /// while some driver is waiting for events (the method of [10]).
    ///
    /// The thread waits on every driver's trigger at once through
    /// [`Trigger::wait_any`], so a re-arm spawns nothing and leaves no
    /// waker behind on a trigger that never fires (the shm channel of a
    /// rank without intra-node traffic). Across its waits it holds the
    /// server, and through it the sim, only by a weak reference: a
    /// dropped cluster is freed even while its watcher is blocked.
    fn ensure_watcher(&self) {
        if !self.inner.cfg.blocking_call || self.inner.watcher_active.get() {
            return;
        }
        let drivers = self.inner.drivers.borrow();
        if !drivers.iter().any(|d| d.hw_trigger().is_some()) {
            return;
        }
        drop(drivers);
        self.inner.watcher_active.set(true);
        let weak = Rc::downgrade(&self.inner);
        let watcher = async move {
            loop {
                let Some(inner) = weak.upgrade() else { return };
                let pioman = Pioman { inner };
                let trigs = if pioman.drivers_pending().any() {
                    pioman.hw_triggers()
                } else {
                    Vec::new()
                };
                if trigs.is_empty() {
                    pioman.inner.watcher_active.set(false);
                    return;
                }
                let woken = Trigger::wait_any(&trigs);
                drop((pioman, trigs));
                woken.await;
                // Interrupt delivery + kernel-thread scheduling latency.
                let Some(inner) = weak.upgrade() else { return };
                let latency = inner.sim.sleep(inner.cfg.blocking_wake_latency);
                drop(inner);
                latency.await;
                let Some(inner) = weak.upgrade() else { return };
                inner.stats.borrow_mut().blocking_wakeups += 1;
                // The syscall return and re-entry are charged to the next
                // progress execution.
                inner
                    .carried_cost
                    .set(inner.carried_cost.get() + inner.cfg.syscall_cost * 2);
                if let Some(t) = inner.tasklet.get() {
                    inner.marcel.tasklet_schedule(t, None);
                }
                // Pace re-arming: re-entering the kernel is not free.
                let pace = inner.sim.sleep(inner.cfg.blocking_wake_latency);
                drop(inner);
                pace.await;
            }
        };
        self.inner
            .sim
            .spawn_named(Some("pioman-blocking-watcher".into()), watcher);
    }

    /// Waits until *any* request completes; returns its index.
    ///
    /// Returns immediately with the first already-complete request if one
    /// exists.
    // A plain `fn` around an `async move` block, like `wait`: an `async
    // fn` would store its arguments twice in every waiting thread.
    #[allow(clippy::manual_async_fn)]
    pub fn wait_any<'a>(
        &'a self,
        reqs: &'a [PiomReq],
        ctx: &'a ThreadCtx,
    ) -> impl Future<Output = usize> + 'a {
        async move {
            assert!(!reqs.is_empty(), "wait_any on empty request set");
            loop {
                if let Some(i) = reqs.iter().position(PiomReq::is_complete) {
                    self.inner.sim.verify().observe_complete(reqs[i].id());
                    return i;
                }
                let Pass { p, .. } = self.locked_progress(CallSite::Inline);
                if !p.cost.is_zero() {
                    ctx.compute(p.cost).await;
                }
                if p.did_work {
                    continue;
                }
                if !self.inner.cfg.can_progress_in_background() {
                    ctx.compute(self.inner.cfg.inline_poll_pause).await;
                    continue;
                }
                self.ensure_watcher();
                // Block on a trigger fired by whichever request finishes
                // first, through one forwarder per turn: it waits on every
                // request trigger at once and fires `any`. The hop through
                // `any` stays (waking the thread straight from the request
                // triggers reorders same-instant wakes, which moves the
                // `ring_1024` and `coll_rma_step` counts and the
                // `tests/idle.rs` `coll_rma_step` golden at seed 1). The
                // forwarder ends at the first completion and its `AnyWait`
                // leaves every other trigger, so a request that stays pending
                // across many turns holds no waiter of a finished turn.
                let any = Trigger::new();
                let first = Trigger::wait_any(reqs.iter().map(PiomReq::trigger));
                let t = any.clone();
                self.inner.sim.spawn(async move {
                    first.await;
                    t.fire();
                });
                ctx.block_until(&any, true).await;
            }
        }
    }

    /// Waits for `req` to complete, from Marcel thread `ctx`.
    ///
    /// The waiting thread first makes progress *inline* ("if the
    /// application reaches the wait function before the message has been
    /// submitted … the message is sent inside the wait function", §3.2);
    /// once nothing more can be done inline it blocks on the request's
    /// trigger, releasing its core so that PIOMAN can use it for polling.
    // A plain `fn` around an `async move` block: an `async fn` stores its
    // arguments twice, and this future sits inside every blocked wait.
    #[allow(clippy::manual_async_fn)]
    pub fn wait<'a>(
        &'a self,
        req: &'a PiomReq,
        ctx: &'a ThreadCtx,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            self.inner.stats.borrow_mut().waits += 1;
            loop {
                if req.is_complete() {
                    self.inner.sim.verify().observe_complete(req.id());
                    return;
                }
                let Pass { p, .. } = self.locked_progress(CallSite::Inline);
                if !p.cost.is_zero() {
                    ctx.compute(p.cost).await;
                }
                if req.is_complete() {
                    self.inner.sim.verify().observe_complete(req.id());
                    return;
                }
                if p.did_work {
                    continue;
                }
                if self.inner.cfg.can_progress_in_background() {
                    self.ensure_watcher();
                    ctx.block_until(req.trigger(), true).await;
                } else {
                    // No one else will ever poll: busy-wait like a classical
                    // MPI implementation.
                    ctx.compute(self.inner.cfg.inline_poll_pause).await;
                }
            }
        }
    }
}

/// PIOMAN's idle hook: one progress step per sweep of an idle core.
struct IdleProgress {
    inner: Weak<Inner>,
}

impl IdleHook for IdleProgress {
    fn poll(&self, _marcel: &Marcel, _core: CoreId) -> HookResult {
        let Some(inner) = self.inner.upgrade() else {
            return HookResult::Nothing;
        };
        let pioman = Pioman { inner };
        if !pioman.drivers_pending().any() {
            return HookResult::Nothing;
        }
        let Pass { p, who, pure } = pioman.locked_progress(CallSite::Hook);
        if pure {
            let polled = pioman.inner.polled.borrow();
            pioman.inner.idle_poll.borrow_mut().clone_from(&polled);
            HookResult::Idle(p.cost)
        } else if let (true, Some(DriverId(i))) = (p.did_work, who) {
            HookResult::WorkedOn {
                cost: p.cost,
                shard: i as u32,
            }
        } else {
            HookResult::Worked(p.cost)
        }
    }

    /// Every driver's pending state, in registry order, folded with
    /// FNV-1a: what a poll reads before it touches any driver, the same
    /// on every core.
    fn view(&self) -> u64 {
        let Some(inner) = self.inner.upgrade() else {
            return 0;
        };
        let drivers = inner.drivers.borrow();
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for d in drivers.iter() {
            let p = d.pending();
            let rank = p.oldest_submission.map_or(0, |r| r.wrapping_add(1));
            for word in [p.submissions as u64, p.armed as u64, rank] {
                h = (h ^ word).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Replays the counters of `sweeps` repeats of the last parking poll.
    fn skipped(&self, sweeps: u64) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        inner.stats.borrow_mut().hook_progress += sweeps;
        // The registry only grows, so every polled slot is still there.
        let drivers = inner.drivers.borrow();
        for &pos in inner.idle_poll.borrow().iter() {
            drivers[pos].credit_polls(sweeps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm2_marcel::{MarcelConfig, Priority};
    use pm2_topo::{NodeId, Topology};
    use std::collections::VecDeque;

    /// A scriptable driver: a queue of work items (cost, completes-req),
    /// plus an "armed poll" that completes a request when a deadline
    /// passes. `log` (shared between drivers in multi-driver tests)
    /// records which driver each `progress()` call landed on.
    struct FakeDriver {
        sim: Sim,
        id: usize,
        log: Rc<RefCell<Vec<usize>>>,
        poll_cost: SimDuration,
        work: RefCell<VecDeque<(SimDuration, Option<PiomReq>)>>,
        armed: RefCell<Vec<(SimTime, PiomReq)>>,
        hw: RefCell<Option<Trigger>>,
        /// Rung when an armed request becomes detectable, as a NIC's
        /// receive interrupt would.
        doorbell: RefCell<Option<Marcel>>,
    }

    impl FakeDriver {
        fn new(sim: &Sim) -> Rc<Self> {
            FakeDriver::with_id(sim, 0, Rc::new(RefCell::new(Vec::new())))
        }

        fn with_id(sim: &Sim, id: usize, log: Rc<RefCell<Vec<usize>>>) -> Rc<Self> {
            Rc::new(FakeDriver {
                sim: sim.clone(),
                id,
                log,
                poll_cost: SimDuration::from_nanos(200),
                work: RefCell::new(VecDeque::new()),
                armed: RefCell::new(Vec::new()),
                hw: RefCell::new(None),
                doorbell: RefCell::new(None),
            })
        }

        /// Registers with `pioman`, ringing its scheduler's doorbell when
        /// armed requests become detectable.
        fn attach(self: &Rc<Self>, pioman: &Pioman) -> DriverId {
            *self.doorbell.borrow_mut() = Some(pioman.marcel().clone());
            pioman.attach_driver(self.clone() as Rc<dyn ProgressDriver>)
        }

        fn push_work(&self, cost: SimDuration, req: Option<PiomReq>) {
            self.work.borrow_mut().push_back((cost, req));
        }

        /// Arm a request that becomes detectable at `at`.
        fn arm(&self, at: SimTime, req: PiomReq) {
            self.armed.borrow_mut().push((at, req));
            if let Some(m) = self.doorbell.borrow().clone() {
                self.sim.schedule_at(at, move |_| m.doorbell());
            }
        }
    }

    impl ProgressDriver for FakeDriver {
        fn progress(&self) -> Progress {
            self.log.borrow_mut().push(self.id);
            if let Some((cost, req)) = self.work.borrow_mut().pop_front() {
                if let Some(r) = req {
                    r.complete(&self.sim);
                }
                return Progress {
                    cost,
                    did_work: true,
                };
            }
            let now = self.sim.now();
            let mut armed = self.armed.borrow_mut();
            if let Some(pos) = armed.iter().position(|(at, _)| *at <= now) {
                let (_, req) = armed.remove(pos);
                req.complete(&self.sim);
                return Progress {
                    cost: self.poll_cost,
                    did_work: true,
                };
            }
            if armed.is_empty() {
                Progress::NONE
            } else {
                Progress {
                    cost: self.poll_cost,
                    did_work: false,
                }
            }
        }

        fn pending(&self) -> DriverPending {
            DriverPending {
                submissions: !self.work.borrow().is_empty(),
                armed: !self.armed.borrow().is_empty(),
                oldest_submission: None,
            }
        }

        fn hw_trigger(&self) -> Option<Trigger> {
            self.hw.borrow().clone()
        }
    }

    fn setup(cores: usize, cfg: PiomanConfig) -> (Sim, Marcel, Pioman, Rc<FakeDriver>) {
        let sim = Sim::new(5);
        let topo = Rc::new(Topology::single_node(cores));
        let marcel = Marcel::new(sim.clone(), topo, NodeId(0), MarcelConfig::zero_cost());
        let pioman = Pioman::new(&marcel, cfg);
        let driver = FakeDriver::new(&sim);
        driver.attach(&pioman);
        (sim, marcel, pioman, driver)
    }

    #[test]
    fn work_is_offloaded_to_idle_core_during_compute() {
        let (sim, marcel, pioman, driver) = setup(2, PiomanConfig::default());
        let req = PiomReq::new(&sim, "send");
        driver.push_work(SimDuration::from_micros(5), Some(req.clone()));
        let done = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done);
        let pioman2 = pioman.clone();
        let req2 = req.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            ctx.compute(SimDuration::from_micros(20)).await;
            pioman2.wait(&req2, &ctx).await;
            done2.set(ctx.marcel().sim().now().as_micros());
        });
        sim.run();
        // The 5µs submission ran on the idle second core during the 20µs
        // compute: total ≈ max(comm, comp) = 20µs (+ small overheads).
        assert!(done.get() >= 20 && done.get() < 22, "t={}", done.get());
        assert!(req.completed_at().unwrap().as_micros() < 10);
        assert!(pioman.stats().tasklet_progress >= 1);
    }

    #[test]
    fn work_runs_inline_in_wait_when_no_idle_core() {
        let (sim, marcel, pioman, driver) = setup(1, PiomanConfig::default());
        let req = PiomReq::new(&sim, "send");
        driver.push_work(SimDuration::from_micros(5), Some(req.clone()));
        let done = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done);
        let pioman2 = pioman.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            ctx.compute(SimDuration::from_micros(20)).await;
            pioman2.wait(&req, &ctx).await;
            done2.set(ctx.marcel().sim().now().as_micros());
        });
        sim.run();
        // Single core: submission delayed into the wait: ≈ 20 + 5.
        assert!(done.get() >= 25 && done.get() < 27, "t={}", done.get());
        assert!(pioman.stats().inline_progress >= 1);
    }

    #[test]
    fn armed_poll_detected_by_idle_hook_while_thread_blocked() {
        let (sim, marcel, pioman, driver) = setup(1, PiomanConfig::default());
        let req = PiomReq::new(&sim, "recv");
        driver.arm(SimTime::from_micros(40), req.clone());
        let done = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done);
        let pioman2 = pioman.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.wait(&req, &ctx).await;
            done2.set(ctx.marcel().sim().now().as_micros());
        });
        sim.run();
        // Thread blocks; its own core polls via the idle hook; detection at
        // ~40µs plus one poll period.
        assert!(done.get() >= 40 && done.get() <= 42, "t={}", done.get());
        assert!(pioman.stats().hook_progress >= 2);
    }

    #[test]
    fn blocking_call_wakes_tasklet_when_idle_polling_disabled() {
        let cfg = PiomanConfig {
            idle_poll: false,
            timer_poll: false,
            ..PiomanConfig::default()
        };
        let (sim, marcel, pioman, driver) = setup(2, cfg);
        let req = PiomReq::new(&sim, "recv");
        let hw = Trigger::new();
        *driver.hw.borrow_mut() = Some(hw.clone());
        driver.arm(SimTime::from_micros(30), req.clone());
        let hw2 = hw.clone();
        sim.schedule_in(SimDuration::from_micros(30), move |_| hw2.fire());
        let done = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done);
        let pioman2 = pioman.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.wait(&req, &ctx).await;
            done2.set(ctx.marcel().sim().now().as_micros());
        });
        sim.run();
        // 30µs event + 2µs interrupt latency + tasklet + syscall costs.
        assert!(done.get() >= 32 && done.get() <= 36, "t={}", done.get());
        assert_eq!(pioman.stats().blocking_wakeups, 1);
        assert!(pioman.stats().hook_progress == 0);
    }

    #[test]
    fn wait_busy_polls_when_all_background_disabled() {
        let cfg = PiomanConfig {
            idle_poll: false,
            timer_poll: false,
            blocking_call: false,
            ..PiomanConfig::default()
        };
        let (sim, marcel, pioman, driver) = setup(1, cfg);
        let req = PiomReq::new(&sim, "recv");
        driver.arm(SimTime::from_micros(10), req.clone());
        let done = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done);
        let pioman2 = pioman.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.wait(&req, &ctx).await;
            done2.set(ctx.marcel().sim().now().as_micros());
        });
        sim.run();
        assert!(done.get() >= 10 && done.get() <= 12, "t={}", done.get());
        assert!(pioman.stats().inline_progress > 5, "busy polling expected");
    }

    #[test]
    fn wait_any_returns_first_completion() {
        let (sim, marcel, pioman, driver) = setup(2, PiomanConfig::default());
        let slow = PiomReq::new(&sim, "slow");
        let fast = PiomReq::new(&sim, "fast");
        driver.arm(SimTime::from_micros(50), slow.clone());
        driver.arm(SimTime::from_micros(10), fast.clone());
        let winner = Rc::new(Cell::new(usize::MAX));
        let winner2 = Rc::clone(&winner);
        let pioman2 = pioman.clone();
        let reqs = vec![slow.clone(), fast.clone()];
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            winner2.set(pioman2.wait_any(&reqs, &ctx).await);
        });
        sim.run();
        assert_eq!(winner.get(), 1, "the fast request should win");
        assert!(fast.is_complete());
    }

    #[test]
    fn blocked_wait_any_holds_one_forwarder_per_turn() {
        // N requests complete one per turn; the thread re-waits on the
        // ones still pending each time. A forwarder per request per turn
        // would leave (N - k)·(k + 1) tasks alive at turn k.
        const N: usize = 8;
        let (sim, marcel, pioman, driver) = setup(2, PiomanConfig::default());
        let reqs: Vec<PiomReq> = (0..N).map(|_| PiomReq::new(&sim, "r")).collect();
        for (i, r) in reqs.iter().enumerate() {
            driver.arm(SimTime::from_micros(10 * (i as u64 + 1)), r.clone());
        }
        // Mid-turn probes, while the thread is blocked: the most live
        // tasks, and the most waiters on one pending request's trigger.
        let seen = Rc::new(Cell::new((0usize, 0usize)));
        for i in 0..N as u64 {
            let (seen, reqs, sim2) = (Rc::clone(&seen), reqs.clone(), sim.clone());
            sim.schedule_at(SimTime::from_micros(10 * i + 5), move |_| {
                let pending = reqs.iter().filter(|r| !r.is_complete());
                let waiters = pending.map(|r| r.trigger().waiter_count()).max();
                let (tasks, most) = seen.get();
                seen.set((tasks.max(sim2.live_tasks()), most.max(waiters.unwrap_or(0))));
            });
        }
        let (pioman2, reqs2) = (pioman.clone(), reqs.clone());
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            let mut pending = reqs2;
            while !pending.is_empty() {
                let i = pioman2.wait_any(&pending, &ctx).await;
                pending.remove(i);
            }
        });
        sim.run();
        assert!(reqs.iter().all(PiomReq::is_complete));
        let (tasks, waiters) = seen.get();
        assert!(tasks <= 2, "{tasks} live tasks for one blocked thread");
        assert_eq!(waiters, 1, "a pending trigger held {waiters} waiters");
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn wait_all_completes_everything() {
        let (sim, marcel, pioman, driver) = setup(2, PiomanConfig::default());
        let reqs: Vec<PiomReq> = (0..4).map(|_| PiomReq::new(&sim, "r")).collect();
        for (i, r) in reqs.iter().enumerate() {
            driver.arm(SimTime::from_micros(10 * (i as u64 + 1)), r.clone());
        }
        let done_at = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done_at);
        let pioman2 = pioman.clone();
        let reqs2 = reqs.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            // Progress made for one advances the others too.
            for req in &reqs2 {
                pioman2.wait(req, &ctx).await;
            }
            done2.set(ctx.marcel().sim().now().as_micros());
        });
        sim.run();
        assert!(reqs.iter().all(PiomReq::is_complete));
        assert!(
            done_at.get() >= 40 && done_at.get() <= 43,
            "t={}",
            done_at.get()
        );
    }

    #[test]
    fn global_mutex_serializes_and_counts_contention() {
        let cfg = PiomanConfig {
            lock_model: LockModel::GlobalMutex,
            ..PiomanConfig::default()
        };
        let (sim, marcel, pioman, driver) = setup(4, cfg);
        // Lots of costly work items: multiple idle cores will try to
        // process them concurrently and contend on the global lock.
        let reqs: Vec<PiomReq> = (0..8).map(|_| PiomReq::new(&sim, "w")).collect();
        for r in &reqs {
            driver.push_work(SimDuration::from_micros(3), Some(r.clone()));
        }
        let pioman2 = pioman.clone();
        let last = reqs.last().unwrap().clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            ctx.compute(SimDuration::from_micros(1)).await;
            pioman2.wait(&last, &ctx).await;
        });
        sim.run();
        assert!(
            pioman.stats().lock_contentions > 0,
            "idle cores should have contended: {:?}",
            pioman.stats()
        );
        // All work completed despite contention: ≥ 8×3µs serialized.
        assert!(sim.now().as_micros() >= 24);
    }

    #[test]
    fn spinlock_model_processes_concurrently() {
        let (sim, marcel, pioman, driver) = setup(4, PiomanConfig::default());
        let reqs: Vec<PiomReq> = (0..8).map(|_| PiomReq::new(&sim, "w")).collect();
        for r in &reqs {
            driver.push_work(SimDuration::from_micros(3), Some(r.clone()));
        }
        let pioman2 = pioman.clone();
        let last = reqs.last().unwrap().clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            ctx.compute(SimDuration::from_micros(1)).await;
            pioman2.wait(&last, &ctx).await;
        });
        sim.run();
        assert_eq!(pioman.stats().lock_contentions, 0);
        // 8 items × 3µs over ≥3 workers: well under full serialization.
        assert!(
            sim.now().as_micros() <= 20,
            "expected concurrency, took {}µs",
            sim.now().as_micros()
        );
    }

    // ---- multi-driver registry ----

    type MultiSetup = (
        Sim,
        Marcel,
        Pioman,
        Vec<Rc<FakeDriver>>,
        Vec<DriverId>,
        Rc<RefCell<Vec<usize>>>,
    );

    fn setup_multi(cores: usize, cfg: PiomanConfig, n: usize) -> MultiSetup {
        let sim = Sim::new(5);
        let topo = Rc::new(Topology::single_node(cores));
        let marcel = Marcel::new(sim.clone(), topo, NodeId(0), MarcelConfig::zero_cost());
        let pioman = Pioman::new(&marcel, cfg);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut drivers = Vec::new();
        let mut ids = Vec::new();
        for i in 0..n {
            let d = FakeDriver::with_id(&sim, i, Rc::clone(&log));
            ids.push(d.attach(&pioman));
            drivers.push(d);
        }
        (sim, marcel, pioman, drivers, ids, log)
    }

    #[test]
    fn submissions_alternate_between_equal_rank_drivers() {
        let (sim, marcel, pioman, drivers, ids, log) = setup_multi(2, PiomanConfig::default(), 2);
        assert_eq!(ids, vec![DriverId(0), DriverId(1)]);
        let reqs: Vec<PiomReq> = (0..6).map(|_| PiomReq::new(&sim, "w")).collect();
        for (i, r) in reqs.iter().enumerate() {
            drivers[i % 2].push_work(SimDuration::from_micros(1), Some(r.clone()));
        }
        let pioman2 = pioman.clone();
        let last = reqs.last().unwrap().clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            pioman2.wait(&last, &ctx).await;
        });
        sim.run();
        assert!(reqs.iter().all(PiomReq::is_complete));
        // Unranked submitters are served round-robin by the tie-break
        // rotor: neither driver gets two turns in a row while both have
        // submissions queued.
        let first6: Vec<usize> = log.borrow().iter().copied().take(6).collect();
        assert_eq!(first6, vec![0, 1, 0, 1, 0, 1], "log={:?}", log.borrow());
    }

    #[test]
    fn ranked_submissions_replay_global_fifo_order() {
        let (sim, marcel, pioman, _drivers, _ids, log) = setup_multi(2, PiomanConfig::default(), 0);
        // Ranked drivers: driver 1 holds the globally-oldest submission,
        // so it must be served first even though driver 0 is scanned
        // first.
        struct Ranked {
            id: usize,
            log: Rc<RefCell<Vec<usize>>>,
            queue: RefCell<VecDeque<u64>>,
        }
        impl ProgressDriver for Ranked {
            fn progress(&self) -> Progress {
                self.log.borrow_mut().push(self.id);
                self.queue.borrow_mut().pop_front();
                Progress {
                    cost: SimDuration::from_nanos(500),
                    did_work: true,
                }
            }
            fn pending(&self) -> DriverPending {
                DriverPending {
                    submissions: !self.queue.borrow().is_empty(),
                    armed: false,
                    oldest_submission: self.queue.borrow().front().copied(),
                }
            }
            fn hw_trigger(&self) -> Option<Trigger> {
                None
            }
        }
        let a = Rc::new(Ranked {
            id: 10,
            log: Rc::clone(&log),
            queue: RefCell::new(VecDeque::from([1, 4, 5])),
        });
        let b = Rc::new(Ranked {
            id: 11,
            log: Rc::clone(&log),
            queue: RefCell::new(VecDeque::from([0, 2, 3])),
        });
        pioman.attach_driver(a as Rc<dyn ProgressDriver>);
        pioman.attach_driver(b as Rc<dyn ProgressDriver>);
        let pioman2 = pioman.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            ctx.compute(SimDuration::from_micros(20)).await;
        });
        sim.run();
        // Seq stamps 0..6 were spread b,a,b,b,a,a: the registry must
        // replay exactly that global order.
        assert_eq!(log.borrow().as_slice(), &[11, 10, 11, 11, 10, 10]);
    }

    #[test]
    fn idle_drivers_are_never_polled() {
        let (sim, marcel, pioman, drivers, _ids, log) = setup_multi(1, PiomanConfig::default(), 3);
        let req = PiomReq::new(&sim, "recv");
        drivers[1].arm(SimTime::from_micros(10), req.clone());
        let pioman2 = pioman.clone();
        let req2 = req.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.wait(&req2, &ctx).await;
        });
        sim.run();
        assert!(req.is_complete());
        // Drivers 0 and 2 never had anything pending: the rotor sweep
        // must skip them without a progress call.
        assert!(
            log.borrow().iter().all(|&i| i == 1),
            "log={:?}",
            log.borrow()
        );
        assert!(!log.borrow().is_empty());
    }

    #[test]
    fn per_driver_stats_attribute_progress_to_the_right_shard() {
        let (sim, marcel, pioman, drivers, _ids, _log) = setup_multi(2, PiomanConfig::default(), 2);
        sim.obs().set_enabled(true);
        let reqs: Vec<PiomReq> = (0..5).map(|_| PiomReq::new(&sim, "w")).collect();
        // 2 items on driver 0, 3 on driver 1.
        for (i, r) in reqs.iter().enumerate() {
            drivers[if i < 2 { 0 } else { 1 }]
                .push_work(SimDuration::from_micros(1), Some(r.clone()));
        }
        let pioman2 = pioman.clone();
        let reqs2 = reqs.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            for req in &reqs2 {
                pioman2.wait(req, &ctx).await;
            }
        });
        sim.run();
        let mut worked = [0; 2];
        for e in sim.obs().events() {
            if let EventKind::DriverProgress { driver, .. } = e.kind {
                worked[driver as usize] += 1;
            }
        }
        assert_eq!(worked, [2, 3]);
        // Global counters keep counting every call, productive or not.
        let s = pioman.stats();
        assert!(s.inline_progress + s.hook_progress + s.tasklet_progress >= 5);
    }

    #[test]
    fn submission_flood_cannot_starve_completion_polling() {
        // Regression for the 3-driver starvation scenario: two drivers
        // flooding submissions while a third waits on an armed poll. The
        // burst valve must force completion sweeps through the flood.
        struct Flood {
            left: Cell<u64>,
        }
        impl ProgressDriver for Flood {
            fn progress(&self) -> Progress {
                self.left.set(self.left.get().saturating_sub(1));
                Progress {
                    cost: SimDuration::from_nanos(500),
                    did_work: true,
                }
            }
            fn pending(&self) -> DriverPending {
                DriverPending {
                    submissions: self.left.get() > 0,
                    armed: false,
                    oldest_submission: None,
                }
            }
            fn hw_trigger(&self) -> Option<Trigger> {
                None
            }
        }
        let cfg = PiomanConfig {
            submission_burst_limit: 4,
            ..PiomanConfig::default()
        };
        let sim = Sim::new(5);
        let topo = Rc::new(Topology::single_node(1));
        let marcel = Marcel::new(sim.clone(), topo, NodeId(0), MarcelConfig::zero_cost());
        let pioman = Pioman::new(&marcel, cfg);
        for _ in 0..2 {
            pioman.attach_driver(Rc::new(Flood {
                left: Cell::new(200),
            }) as Rc<dyn ProgressDriver>);
        }
        let victim = FakeDriver::new(&sim);
        victim.attach(&pioman);
        let req = PiomReq::new(&sim, "recv");
        victim.arm(SimTime::from_micros(2), req.clone());
        let done = Rc::new(Cell::new(0u64));
        let done2 = Rc::clone(&done);
        let pioman2 = pioman.clone();
        let req2 = req.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.notify_work(ctx.current_core());
            pioman2.wait(&req2, &ctx).await;
            done2.set(ctx.marcel().sim().now().as_micros());
        });
        sim.run();
        assert!(req.is_complete());
        // 400 flood items × 500ns ≈ 200µs of flood; the victim must be
        // detected shortly after its 2µs deadline, not after the flood.
        assert!(done.get() < 20, "victim starved until t={}µs", done.get());
        assert_eq!(pioman.stats().max_submission_burst, 4);
    }

    #[test]
    fn injection_endpoints_drain_in_global_injection_order() {
        let (sim, marcel, pioman, _driver) = setup(2, PiomanConfig::default());
        let ep_a = pioman.create_endpoint();
        let ep_b = pioman.create_endpoint();
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let req = PiomReq::new(&sim, "send");
        // Interleave injections across the two endpoints; drain order must
        // follow injection order, not endpoint registration order.
        for (i, ep) in [(0u32, &ep_a), (1, &ep_b), (2, &ep_b), (3, &ep_a)] {
            let order = Rc::clone(&order);
            let done = (i == 3).then(|| (req.clone(), sim.clone()));
            ep.inject(None, move || {
                order.borrow_mut().push(i);
                if let Some((req, sim)) = done {
                    req.complete(&sim);
                }
                SimDuration::from_nanos(400)
            });
        }
        assert_eq!(ep_a.queued() + ep_b.queued(), 4);
        let pioman2 = pioman.clone();
        let req2 = req.clone();
        marcel.spawn("app", Priority::Normal, None, move |ctx| async move {
            pioman2.wait(&req2, &ctx).await;
        });
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(ep_a.queued() + ep_b.queued(), 0);
    }

    #[test]
    fn progress_thread_detects_armed_completion_without_idle_hook() {
        // Zero-idle-core fallback: idle hook, timer and blocking call all
        // disabled, the application thread computes without ever calling
        // into the library, and the armed completion (detectable only by
        // *polling*) arrives mid-compute. The tasklet cannot help — it
        // reschedules only while productive — so detection before the
        // compute ends proves the dedicated thread busy-polled.
        let cfg = PiomanConfig {
            idle_poll: false,
            timer_poll: false,
            blocking_call: false,
            progress_thread: true,
            ..PiomanConfig::default()
        };
        let (sim, marcel, pioman, driver) = setup(2, cfg);
        let req = PiomReq::new(&sim, "recv");
        driver.arm(SimTime::from_micros(50), req.clone());
        marcel.spawn(
            "compute",
            Priority::Normal,
            Some(CoreId(0)),
            move |ctx| async move {
                ctx.compute(SimDuration::from_micros(100)).await;
            },
        );
        sim.run();
        assert!(req.is_complete(), "progress thread never polled the driver");
        let t = req.completed_at().unwrap().as_micros();
        assert!((50..52).contains(&t), "detected at t={t}µs");
        assert!(pioman.stats().thread_progress >= 1);
        assert_eq!(pioman.stats().hook_progress, 0);
    }
}
