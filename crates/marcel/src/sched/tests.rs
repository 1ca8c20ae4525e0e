use super::*;
use std::cell::Cell;

/// A test hook: `.0` polls, `.1` fingerprints what the poll reads (never
/// the polling core).
struct Hook<P, V>(P, V);

impl<P: Fn(&Marcel, CoreId) -> HookResult, V: Fn() -> u64> IdleHook for Hook<P, V> {
    fn poll(&self, m: &Marcel, core: CoreId) -> HookResult {
        (self.0)(m, core)
    }

    fn view(&self) -> u64 {
        (self.1)()
    }
}

fn setup(cores: usize) -> (Sim, Marcel) {
    let sim = Sim::new(1);
    let topo = Rc::new(Topology::single_node(cores));
    let m = Marcel::new(sim.clone(), topo, NodeId(0), MarcelConfig::zero_cost());
    (sim, m)
}

#[test]
fn thread_computes_and_finishes() {
    let (sim, m) = setup(2);
    let done = Rc::new(Cell::new(0u64));
    let done2 = Rc::clone(&done);
    m.spawn("t", Priority::Normal, None, move |ctx| async move {
        ctx.compute(SimDuration::from_micros(20)).await;
        done2.set(ctx.marcel().sim().now().as_micros());
    });
    sim.run();
    assert_eq!(done.get(), 20);
    assert_eq!(m.live_thread_count(), 0);
    assert_eq!(m.stats().dispatches, 1);
}

#[test]
fn two_threads_on_two_cores_run_in_parallel() {
    let (sim, m) = setup(2);
    let t_end = Rc::new(Cell::new(0u64));
    for _ in 0..2 {
        let t_end = Rc::clone(&t_end);
        m.spawn("t", Priority::Normal, None, move |ctx| async move {
            ctx.compute(SimDuration::from_micros(50)).await;
            t_end.set(t_end.get().max(ctx.marcel().sim().now().as_micros()));
        });
    }
    sim.run();
    assert_eq!(t_end.get(), 50, "both should finish at t=50 (parallel)");
    assert_eq!(m.live_thread_count(), 0);
}

#[test]
fn two_threads_on_one_core_serialize() {
    let (sim, m) = setup(1);
    let t_end = Rc::new(Cell::new(0u64));
    for _ in 0..2 {
        let t_end = Rc::clone(&t_end);
        m.spawn("t", Priority::Normal, None, move |ctx| async move {
            ctx.compute(SimDuration::from_micros(50)).await;
            t_end.set(t_end.get().max(ctx.marcel().sim().now().as_micros()));
        });
    }
    sim.run();
    assert_eq!(t_end.get(), 100, "single core must serialize");
}

#[test]
fn affinity_pins_thread_to_core() {
    let (sim, m) = setup(2);
    let cores_seen = Rc::new(std::cell::RefCell::new(Vec::new()));
    for _ in 0..2 {
        let cores_seen = Rc::clone(&cores_seen);
        m.spawn(
            "pinned",
            Priority::Normal,
            Some(CoreId(1)),
            move |ctx| async move {
                cores_seen.borrow_mut().push(ctx.current_core().unwrap());
                ctx.compute(SimDuration::from_micros(10)).await;
            },
        );
    }
    sim.run();
    assert_eq!(*cores_seen.borrow(), vec![CoreId(1), CoreId(1)]);
    // Serialized on core 1 even though core 0 was free.
    assert_eq!(sim.now().as_micros(), 20);
}

#[test]
fn block_until_releases_core_for_other_work() {
    let (sim, m) = setup(1);
    let trig = Trigger::new();
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    {
        let trig = trig.clone();
        let order = Rc::clone(&order);
        m.spawn("waiter", Priority::Normal, None, move |ctx| async move {
            order.borrow_mut().push("wait-start");
            ctx.block_until(&trig, true).await;
            order.borrow_mut().push("wait-done");
        });
    }
    {
        let trig = trig.clone();
        let order = Rc::clone(&order);
        m.spawn("worker", Priority::Normal, None, move |ctx| async move {
            order.borrow_mut().push("work");
            ctx.compute(SimDuration::from_micros(5)).await;
            trig.fire();
        });
    }
    sim.run();
    assert_eq!(
        *order.borrow(),
        vec!["wait-start", "work", "wait-done"],
        "waiter must free the single core for the worker"
    );
    assert_eq!(sim.now().as_micros(), 5);
}

#[test]
fn block_until_fired_trigger_does_not_release() {
    let (sim, m) = setup(1);
    let trig = Trigger::new();
    trig.fire();
    let t = trig.clone();
    m.spawn("t", Priority::Normal, None, move |ctx| async move {
        ctx.block_until(&t, false).await;
        ctx.compute(SimDuration::from_micros(1)).await;
    });
    sim.run();
    assert_eq!(m.stats().dispatches, 1, "no re-dispatch should occur");
}

#[test]
fn park_unpark_with_permit() {
    let (sim, m) = setup(1);
    let hits = Rc::new(Cell::new(0));
    let hits2 = Rc::clone(&hits);
    let tid = m.spawn("p", Priority::Normal, None, move |ctx| async move {
        ctx.compute(SimDuration::from_micros(5)).await;
        // unpark arrived during compute: permit makes this immediate.
        ctx.park().await;
        hits2.set(1);
    });
    let m2 = m.clone();
    sim.schedule_in(SimDuration::from_micros(1), move |_| m2.unpark(tid));
    sim.run();
    assert_eq!(hits.get(), 1);
    assert_eq!(sim.now().as_micros(), 5);
}

#[test]
fn park_blocks_until_unpark() {
    let (sim, m) = setup(1);
    let woke_at = Rc::new(Cell::new(0u64));
    let woke_at2 = Rc::clone(&woke_at);
    let tid = m.spawn("p", Priority::Normal, None, move |ctx| async move {
        ctx.park().await;
        woke_at2.set(ctx.marcel().sim().now().as_micros());
    });
    let m2 = m.clone();
    sim.schedule_in(SimDuration::from_micros(42), move |_| m2.unpark(tid));
    sim.run();
    assert_eq!(woke_at.get(), 42);
}

#[test]
fn tasklet_runs_on_idle_core_and_charges_cost() {
    let (sim, m) = setup(2);
    let ran_at = Rc::new(Cell::new(0u64));
    let ran_at2 = Rc::clone(&ran_at);
    let sim2 = sim.clone();
    let tk = m.create_tasklet("t", move |run| {
        ran_at2.set(sim2.now().as_micros());
        run.charge(SimDuration::from_micros(7));
    });
    m.tasklet_schedule(tk, None);
    sim.run();
    assert_eq!(ran_at.get(), 0, "runs immediately on an idle core");
    assert_eq!(m.tasklet_runs(tk), 1);
}

#[test]
fn tasklet_coalesces() {
    let (sim, m) = setup(1);
    let tk = m.create_tasklet("t", |_| {});
    assert!(m.tasklet_schedule(tk, None));
    assert!(!m.tasklet_schedule(tk, None));
    sim.run();
    assert_eq!(m.tasklet_runs(tk), 1);
    assert_eq!(m.stats().tasklet_coalesced, 1);
}

#[test]
fn tasklet_waits_for_busy_cores() {
    // One core, one long-running thread: the tasklet only runs when the
    // thread finishes.
    let (sim, m) = setup(1);
    let ran_at = Rc::new(Cell::new(0u64));
    let ran_at2 = Rc::clone(&ran_at);
    let sim2 = sim.clone();
    let tk = m.create_tasklet("t", move |_| {
        ran_at2.set(sim2.now().as_micros());
    });
    let m2 = m.clone();
    m.spawn("busy", Priority::Normal, None, move |ctx| async move {
        m2.tasklet_schedule(tk, ctx.current_core());
        ctx.compute(SimDuration::from_micros(30)).await;
    });
    sim.run();
    assert_eq!(ran_at.get(), 30);
}

#[test]
fn disabled_tasklet_defers() {
    let (sim, m) = setup(1);
    let tk = m.create_tasklet("t", |_| {});
    m.tasklet_disable(tk);
    m.tasklet_schedule(tk, None);
    sim.run();
    assert_eq!(m.tasklet_runs(tk), 0);
    m.tasklet_enable(tk);
    sim.run();
    assert_eq!(m.tasklet_runs(tk), 1);
}

#[test]
fn tasklet_reschedule_from_body_runs_again() {
    let (sim, m) = setup(1);
    let count = Rc::new(Cell::new(0u32));
    let count2 = Rc::clone(&count);
    let tk = m.create_tasklet("t", move |run| {
        let c = count2.get() + 1;
        count2.set(c);
        run.charge(SimDuration::from_micros(1));
        if c < 3 {
            run.reschedule();
        }
    });
    m.tasklet_schedule(tk, None);
    sim.run();
    assert_eq!(count.get(), 3);
    assert_eq!(sim.now().as_micros(), 3);
}

#[test]
fn idle_hook_runs_when_core_idle() {
    let (sim, m) = setup(1);
    let polls = Rc::new(Cell::new(0u32));
    let (polls2, polls3) = (Rc::clone(&polls), Rc::clone(&polls));
    let poll = move |_: &Marcel, _: CoreId| {
        let c = polls2.get();
        if c < 5 {
            polls2.set(c + 1);
            HookResult::Worked(SimDuration::from_micros(1))
        } else {
            HookResult::Nothing
        }
    };
    m.register_idle_hook(Hook(poll, move || polls3.get() as u64));
    m.spawn("t", Priority::Normal, None, |ctx| async move {
        ctx.compute(SimDuration::from_micros(2)).await;
    });
    sim.run();
    assert_eq!(polls.get(), 5, "hook should poll after the thread ends");
}

#[test]
fn armed_hook_keeps_polling_until_disarmed() {
    let (sim, m) = setup(1);
    let armed = Rc::new(Cell::new(true));
    let polls = Rc::new(Cell::new(0u32));
    {
        let (armed, armed2) = (Rc::clone(&armed), Rc::clone(&armed));
        let polls = Rc::clone(&polls);
        let poll = move |_: &Marcel, _: CoreId| {
            if armed.get() {
                polls.set(polls.get() + 1);
                HookResult::Idle(SimDuration::ZERO)
            } else {
                HookResult::Nothing
            }
        };
        m.register_idle_hook(Hook(poll, move || armed2.get() as u64));
    }
    // A thread must exist once so the core wakes up at least once.
    m.spawn("t", Priority::Normal, None, |_ctx| async move {});
    let armed2 = Rc::clone(&armed);
    let m2 = m.clone();
    sim.schedule_in(SimDuration::from_micros(10), move |_| {
        armed2.set(false);
        m2.wake_parked();
    });
    sim.run();
    // Polled every 0.1µs from 0 to 10µs inclusive (the disarming event
    // was scheduled first, so the sweep at 10µs already sees it): 101
    // sweeps, of which only the first and last ran for real.
    assert_eq!(m.stats().hook_sweeps, 101);
    assert_eq!(polls.get(), 1, "the parked sweeps are computed, not run");
    assert_eq!(sim.now().as_micros(), 10);
}

/// `(instant ns, core)` of each sweep that saw the change.
type Seen = Rc<std::cell::RefCell<Vec<(u64, usize)>>>;

/// Registers a hook that stays armed (charging `cost` per poll) until
/// `ready` is set, then records when and where it saw it.
fn armed_until_ready(m: &Marcel, cost: SimDuration) -> (Rc<Cell<bool>>, Seen) {
    let ready = Rc::new(Cell::new(false));
    let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
    let (r, r2, s) = (Rc::clone(&ready), Rc::clone(&ready), Rc::clone(&seen));
    let poll = move |m: &Marcel, core: CoreId| {
        if !r.get() {
            return HookResult::Idle(cost);
        }
        s.borrow_mut().push((m.sim().now().as_nanos(), core.0));
        HookResult::Nothing
    };
    m.register_idle_hook(Hook(poll, move || r2.get() as u64));
    (ready, seen)
}

/// Spawns one empty thread pinned to each of `cores` so they sweep once.
fn touch_cores(m: &Marcel, cores: &[usize]) {
    for &c in cores {
        m.spawn("t", Priority::Normal, Some(CoreId(c)), |_ctx| async move {});
    }
}

#[test]
fn parked_core_runs_o1_events_while_counting_every_sweep() {
    let (sim, m) = setup(1);
    let (ready, seen) = armed_until_ready(&m, SimDuration::ZERO);
    touch_cores(&m, &[0]);
    let m2 = m.clone();
    sim.schedule_in(SimDuration::from_millis(1), move |_| {
        ready.set(true);
        m2.wake_parked();
    });
    sim.run();
    // One sweep every 0.1µs over 1ms, both ends included.
    assert_eq!(m.stats().hook_sweeps, 10_001);
    assert_eq!(*seen.borrow(), vec![(1_000_000, 0)]);
    assert!(
        sim.executed_events() <= 5,
        "parked polling executed {} events",
        sim.executed_events()
    );
}

#[test]
fn doorbell_wakes_at_first_grid_instant_at_or_after_it() {
    // Sweeps at 0, 230, 460, … ns. A change at 1000 ns is first seen by
    // the sweep at 1150 ns; one at exactly 1150 ns, by that sweep too
    // when it was scheduled before the core parked (it sorts first).
    for (bell, want) in [(1_000u64, 1_150u64), (1_150, 1_150), (1_151, 1_380)] {
        let (sim, m) = setup(1);
        let (ready, seen) = armed_until_ready(&m, SimDuration::from_nanos(230));
        touch_cores(&m, &[0]);
        let m2 = m.clone();
        sim.schedule_at(SimTime::from_nanos(bell), move |_| {
            ready.set(true);
            m2.doorbell();
        });
        sim.run();
        assert_eq!(*seen.borrow(), vec![(want, 0)], "doorbell at {bell} ns");
        assert_eq!(m.stats().hook_sweeps, want / 230 + 1);
    }
}

#[test]
fn parked_cores_sharing_an_instant_wake_in_polling_order() {
    let (sim, m) = setup(3);
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    let (ready, seen) = {
        let order = Rc::clone(&order);
        let ready = Rc::new(Cell::new(false));
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let (r, r2, s) = (Rc::clone(&ready), Rc::clone(&ready), Rc::clone(&seen));
        let poll = move |m: &Marcel, core: CoreId| {
            if r.get() {
                s.borrow_mut().push((m.sim().now().as_nanos(), core.0));
                return HookResult::Nothing;
            }
            if m.sim().now().as_nanos() == 0 {
                order.borrow_mut().push(core.0);
            }
            HookResult::Idle(SimDuration::from_nanos(230))
        };
        m.register_idle_hook(Hook(poll, move || r2.get() as u64));
        (ready, seen)
    };
    // Cores 2, 0, 1 sweep at t = 0 in that order and share every grid
    // instant after it.
    touch_cores(&m, &[2, 0, 1]);
    let m2 = m.clone();
    sim.schedule_at(SimTime::from_nanos(500), move |_| {
        ready.set(true);
        m2.wake_parked();
    });
    sim.run();
    let polled: Vec<usize> = order.borrow().clone();
    assert_eq!(polled.len(), 3);
    let woke: Vec<(u64, usize)> = polled.iter().map(|&c| (690, c)).collect();
    assert_eq!(*seen.borrow(), woke, "same instant, same order as polled");
}

#[test]
fn blocked_receive_that_never_arrives_leaves_the_run_wedged() {
    let sim = Sim::new(1);
    let topo = Rc::new(Topology::single_node(2));
    let cfg = MarcelConfig {
        timer_tick: Some(SimDuration::from_micros(100)),
        ..MarcelConfig::zero_cost()
    };
    let m = Marcel::new(sim.clone(), topo, NodeId(0), cfg);
    let idle = |_: &Marcel, _: CoreId| HookResult::Idle(SimDuration::from_nanos(230));
    m.register_idle_hook(Hook(idle, || 0));
    m.start_timer(SimDuration::from_micros(100), |_| {});
    let never = Trigger::new();
    m.spawn("recv", Priority::Normal, None, move |ctx| async move {
        ctx.block_until(&never, true).await;
    });
    assert_eq!(
        sim.run_bounded(SimTime::from_millis(1)),
        Err(SimTime::from_millis(1))
    );
    assert!(sim.executed_events() < 50, "{}", sim.executed_events());
}

#[test]
fn priorities_dispatch_high_first() {
    let (sim, m) = setup(1);
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    // Occupy the core so the next two spawns queue up.
    m.spawn("first", Priority::Normal, None, |ctx| async move {
        ctx.compute(SimDuration::from_micros(1)).await;
    });
    for (name, prio) in [("low", Priority::Low), ("high", Priority::High)] {
        let order = Rc::clone(&order);
        m.spawn(name, prio, None, move |ctx| async move {
            order.borrow_mut().push(name);
            ctx.compute(SimDuration::from_micros(1)).await;
        });
    }
    sim.run();
    assert_eq!(*order.borrow(), vec!["high", "low"]);
}

#[test]
fn timer_fires_periodically_and_stops_when_quiet() {
    let sim = Sim::new(1);
    let topo = Rc::new(Topology::single_node(1));
    let cfg = MarcelConfig {
        timer_tick: Some(SimDuration::from_micros(10)),
        ..MarcelConfig::zero_cost()
    };
    let m = Marcel::new(sim.clone(), topo, NodeId(0), cfg);
    let ticks = Rc::new(Cell::new(0u32));
    let ticks2 = Rc::clone(&ticks);
    m.start_timer(SimDuration::from_micros(10), move |_| {
        ticks2.set(ticks2.get() + 1);
    });
    m.spawn("t", Priority::Normal, None, |ctx| async move {
        ctx.compute(SimDuration::from_micros(35)).await;
    });
    sim.run();
    assert_eq!(ticks.get(), 3, "ticks at 10,20,30; stops once quiet");
}

#[test]
fn compute_steal_lets_tasklet_interrupt() {
    let sim = Sim::new(1);
    let topo = Rc::new(Topology::single_node(1));
    let cfg = MarcelConfig {
        timer_tick: Some(SimDuration::from_micros(10)),
        timer_steals_from_compute: true,
        ..MarcelConfig::zero_cost()
    };
    let m = Marcel::new(sim.clone(), topo, NodeId(0), cfg);
    let ran_at = Rc::new(Cell::new(u64::MAX));
    let ran_at2 = Rc::clone(&ran_at);
    let sim2 = sim.clone();
    let tk = m.create_tasklet("t", move |run| {
        ran_at2.set(sim2.now().as_micros());
        run.charge(SimDuration::from_micros(2));
    });
    let m2 = m.clone();
    sim.schedule_in(SimDuration::from_micros(5), move |_| {
        m2.tasklet_schedule(tk, None);
    });
    let end = Rc::new(Cell::new(0u64));
    let end2 = Rc::clone(&end);
    m.spawn("busy", Priority::Normal, None, move |ctx| async move {
        ctx.compute(SimDuration::from_micros(40)).await;
        end2.set(ctx.marcel().sim().now().as_micros());
    });
    sim.run();
    assert_eq!(ran_at.get(), 10, "steals at the first tick boundary");
    assert_eq!(end.get(), 42, "compute extended by the stolen 2µs");
    assert_eq!(m.stats().compute_steals, 1);
}

#[test]
fn sleep_releases_the_core() {
    let (sim, m) = setup(1);
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    {
        let order = Rc::clone(&order);
        m.spawn("sleeper", Priority::Normal, None, move |ctx| async move {
            ctx.sleep(SimDuration::from_micros(10)).await;
            order
                .borrow_mut()
                .push(("sleeper", ctx.marcel().sim().now().as_micros()));
        });
    }
    {
        let order = Rc::clone(&order);
        m.spawn("worker", Priority::Normal, None, move |ctx| async move {
            ctx.compute(SimDuration::from_micros(6)).await;
            order
                .borrow_mut()
                .push(("worker", ctx.marcel().sim().now().as_micros()));
        });
    }
    sim.run();
    // The worker ran during the sleeper's sleep on the single core.
    assert_eq!(
        *order.borrow(),
        vec![("worker", 6), ("sleeper", 10)],
        "sleep must release the core; compute would have serialized"
    );
}

#[test]
fn join_helper_waits_for_child() {
    let (sim, m) = setup(2);
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    let child = {
        let order = Rc::clone(&order);
        m.spawn("child", Priority::Normal, None, move |ctx| async move {
            ctx.compute(SimDuration::from_micros(4)).await;
            order.borrow_mut().push("child");
        })
    };
    {
        let order = Rc::clone(&order);
        m.spawn("parent", Priority::Normal, None, move |ctx| async move {
            ctx.join(child).await;
            order.borrow_mut().push("parent");
        });
    }
    sim.run();
    assert_eq!(*order.borrow(), vec!["child", "parent"]);
}

#[test]
fn join_via_finished_trigger() {
    let (sim, m) = setup(2);
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    let child = {
        let order = Rc::clone(&order);
        m.spawn("child", Priority::Normal, None, move |ctx| async move {
            ctx.compute(SimDuration::from_micros(9)).await;
            order.borrow_mut().push("child");
        })
    };
    let fin = m.finished(child);
    {
        let order = Rc::clone(&order);
        m.spawn("parent", Priority::Normal, None, move |ctx| async move {
            ctx.block_until(&fin, false).await;
            order.borrow_mut().push("parent");
        });
    }
    sim.run();
    assert_eq!(*order.borrow(), vec!["child", "parent"]);
}

#[test]
fn finished_thread_frees_its_slot_and_its_id_stays_finished() {
    let (sim, m) = setup(2);
    let a = m.spawn("a", Priority::Normal, None, |_| async {});
    sim.run();
    assert_eq!(m.live_thread_count(), 0);
    let gate = Trigger::new();
    let g = gate.clone();
    let b = m.spawn("b", Priority::Normal, None, move |ctx| async move {
        ctx.block_until(&g, false).await;
    });
    assert_eq!(a.index(), b.index(), "the freed slot is reused");
    assert_ne!(a, b);
    assert!(
        m.finished(a).is_fired(),
        "a's id reads as finished, not as b"
    );
    assert!(!m.finished(b).is_fired());
    let joined = Rc::new(Cell::new(None));
    let j = Rc::clone(&joined);
    m.spawn("c", Priority::Normal, None, move |ctx| async move {
        ctx.join(a).await;
        j.set(Some(ctx.marcel().sim().now().as_nanos()));
    });
    m.unpark(a); // no permit lands on b
    sim.schedule_in(SimDuration::from_micros(3), move |_| gate.fire());
    sim.run();
    assert_eq!(
        joined.get(),
        Some(0),
        "joining a finished id returns at once"
    );
    assert_eq!(m.live_thread_count(), 0);
    assert!(m.finished(b).is_fired());
}

#[test]
fn stats_track_pop_locality_mix() {
    let (sim, m) = setup(2);
    for _ in 0..4 {
        m.spawn("t", Priority::Normal, None, |ctx| async move {
            ctx.compute(SimDuration::from_micros(5)).await;
        });
    }
    m.spawn(
        "pinned",
        Priority::Normal,
        Some(CoreId(0)),
        |ctx| async move {
            ctx.compute(SimDuration::from_micros(5)).await;
        },
    );
    sim.run();
    let s = m.stats();
    assert_eq!(s.dispatches, 5);
    assert_eq!(
        s.pop_core + s.pop_local_socket + s.pop_node + s.pop_steal,
        s.dispatches,
        "pop sources partition the dispatches"
    );
    assert_eq!(s.pop_core, 1, "one strict-affinity dispatch");
}

/// What [`ViewedHook`] answers: parked-idle (pure, 230 ns a poll), one
/// productive poll, or nothing to wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Idle,
    WorkOnce,
    Nothing,
}

/// A hook whose behaviour the test switches through [`Mode`]; records
/// `(instant ns, core)` of every poll it really runs.
struct ViewedHook {
    mode: Rc<Cell<Mode>>,
    polls: Seen,
}

impl IdleHook for ViewedHook {
    fn poll(&self, m: &Marcel, core: CoreId) -> HookResult {
        self.polls
            .borrow_mut()
            .push((m.sim().now().as_nanos(), core.0));
        match self.mode.get() {
            Mode::Idle => HookResult::Idle(SimDuration::from_nanos(230)),
            Mode::WorkOnce => {
                self.mode.set(Mode::Idle);
                HookResult::Worked(SimDuration::from_nanos(50))
            }
            Mode::Nothing => HookResult::Nothing,
        }
    }

    fn view(&self) -> u64 {
        self.mode.get() as u64
    }
}

/// Four cores that park at 0, 50, 100 and 150 ns on a [`ViewedHook`]:
/// after 500 ns their next sweeps are at 690, 510, 560 and 610 ns.
fn four_parked() -> (Sim, Marcel, Rc<Cell<Mode>>, Seen) {
    let (sim, m) = setup(4);
    let mode = Rc::new(Cell::new(Mode::Idle));
    let polls: Seen = Rc::default();
    m.register_idle_hook(ViewedHook {
        mode: Rc::clone(&mode),
        polls: Rc::clone(&polls),
    });
    for c in 0..4u64 {
        m.spawn(
            "t",
            Priority::Normal,
            Some(CoreId(c as usize)),
            move |ctx| async move {
                ctx.compute(SimDuration::from_nanos(50 * c)).await;
            },
        );
    }
    sim.run_until(SimTime::from_nanos(400));
    polls.borrow_mut().clear();
    (sim, m, mode, polls)
}

/// Which cores are parked, by local index.
fn parked(m: &Marcel) -> Vec<bool> {
    let st = m.inner.state.borrow();
    st.cores.iter().map(|c| c.parked.is_some()).collect()
}

/// Rings at 500 ns after `change`, runs to 2 µs, and returns the polls
/// run for real after the ring and the sweeps counted at 2 µs.
fn ring_at_500(
    sim: &Sim,
    m: &Marcel,
    polls: &Seen,
    change: impl FnOnce() + 'static,
) -> (Vec<(u64, usize)>, u64) {
    let m2 = m.clone();
    sim.schedule_at(SimTime::from_nanos(500), move |_| {
        change();
        m2.wake_parked();
    });
    let sweeps = Rc::new(Cell::new(0));
    let (m3, sweeps2) = (m.clone(), Rc::clone(&sweeps));
    sim.schedule_at(SimTime::from_micros(2), move |_| {
        sweeps2.set(m3.stats().hook_sweeps);
    });
    sim.run_until(SimTime::from_micros(2));
    let seen = polls.borrow().clone();
    (seen, sweeps.get())
}

/// The sweeps the polled model makes by 2 µs: core `c` from `50c` ns on,
/// every 230 ns.
fn polled_by_2us(cores: u64) -> u64 {
    (0..cores).map(|c| (2_000 - 50 * c) / 230 + 1).sum()
}

#[test]
fn a_ring_materializes_only_the_earliest_parked_core() {
    let (sim, m, _mode, _polls) = four_parked();
    assert_eq!(parked(&m), vec![true; 4]);
    let m2 = m.clone();
    let checked = Rc::new(Cell::new(false));
    let checked2 = Rc::clone(&checked);
    sim.schedule_at(SimTime::from_nanos(500), move |sim| {
        let keys: Vec<(SimTime, u64)> = {
            let st = m2.inner.state.borrow();
            st.cores
                .iter()
                .map(|c| sim.virtual_key(&c.parked.as_ref().unwrap().sweeps))
                .collect()
        };
        let first = (0..4).min_by_key(|&i| keys[i]).unwrap();
        assert_eq!((first, keys[first].0), (1, SimTime::from_nanos(510)));
        m2.wake_parked();
        assert_eq!(parked(&m2), vec![true, false, true, true]);
        let st = m2.inner.state.borrow();
        assert_eq!(st.bell.observer, Some((1, keys[1])));
        assert_eq!(st.cores[1].scheduled_run.as_ref().unwrap().0, keys[1].0);
        checked2.set(true);
    });
    sim.run_until(SimTime::from_nanos(505));
    assert!(checked.get());
}

#[test]
fn a_productive_sweep_wakes_the_next_earliest_core() {
    let (sim, m, mode, polls) = four_parked();
    let (seen, _) = ring_at_500(&sim, &m, &polls, move || mode.set(Mode::WorkOnce));
    // Core 1 works at 510 and re-sweeps 50 ns later; core 2, next in key
    // order, sweeps pure at 560 and cleans the node: 3 and 0 stay parked.
    assert_eq!(seen, vec![(510, 1), (560, 2), (560, 1)]);
    assert_eq!(parked(&m), vec![true; 4]);
    assert!(!m.inner.state.borrow().bell.dirty);
}

#[test]
fn a_pure_sweep_leaves_the_other_cores_parked() {
    let (sim, m, _mode, polls) = four_parked();
    let (seen, sweeps) = ring_at_500(&sim, &m, &polls, || {});
    assert_eq!(seen, vec![(510, 1)]);
    assert_eq!(parked(&m), vec![true; 4]);
    // Counted as the polled model would: the sweeps the three parked
    // cores made before the ring were credited at the ring.
    assert_eq!(sweeps, polled_by_2us(4));
}

#[test]
fn a_sweep_that_finds_nothing_wakes_the_next_core_at_its_own_slot() {
    let (sim, m, mode, polls) = four_parked();
    let (seen, _) = ring_at_500(&sim, &m, &polls, move || mode.set(Mode::Nothing));
    assert_eq!(seen, vec![(510, 1), (560, 2), (610, 3), (690, 0)]);
    assert_eq!(parked(&m), vec![false; 4]);
    let st = m.inner.state.borrow();
    assert!(st.cores.iter().all(|c| c.scheduled_run.is_none()));
    assert!(st.bell.dirty, "no pure sweep observed the change");
}

#[test]
fn counters_read_mid_run_include_the_parked_sweeps() {
    let (sim, m) = setup(1);
    let mode = Rc::new(Cell::new(Mode::Idle));
    m.register_idle_hook(ViewedHook {
        mode: Rc::clone(&mode),
        polls: Rc::default(),
    });
    touch_cores(&m, &[0]);
    let read = Rc::new(Cell::new(0));
    let (m2, read2) = (m.clone(), Rc::clone(&read));
    sim.schedule_at(SimTime::from_micros(500), move |_| {
        read2.set(m2.stats().hook_sweeps);
    });
    let m3 = m.clone();
    sim.schedule_at(SimTime::from_millis(1), move |_| {
        mode.set(Mode::Nothing);
        m3.wake_parked();
    });
    sim.run();
    // Parked from its first sweep at 0 until 1 ms: the read at 500 µs
    // sees the sweeps at 0, 230, …, 499 790 ns.
    assert_eq!(read.get(), 500_000 / 230 + 1);
    // The sweep at 1 000 040 ns, the first after the change, ran for
    // real; the total is unchanged by the read.
    assert_eq!(m.stats().hook_sweeps, 1_000_000 / 230 + 2);
}
