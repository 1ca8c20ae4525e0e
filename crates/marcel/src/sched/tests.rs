use super::*;
use std::cell::Cell;

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
    let polls2 = Rc::clone(&polls);
    m.register_idle_hook(move |_, _| {
        let c = polls2.get();
        if c < 5 {
            polls2.set(c + 1);
            HookResult::Worked(SimDuration::from_micros(1))
        } else {
            HookResult::Nothing
        }
    });
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
        let armed = Rc::clone(&armed);
        let polls = Rc::clone(&polls);
        m.register_idle_hook(move |_, _| {
            if armed.get() {
                polls.set(polls.get() + 1);
                HookResult::Armed
            } else {
                HookResult::Nothing
            }
        });
    }
    // A thread must exist once so the core wakes up at least once.
    m.spawn("t", Priority::Normal, None, |_ctx| async move {});
    let armed2 = Rc::clone(&armed);
    sim.schedule_in(SimDuration::from_micros(10), move |_| armed2.set(false));
    sim.run();
    assert!(
        polls.get() >= 10,
        "polled every 0.1µs for 10µs: {}",
        polls.get()
    );
    assert!(sim.now().as_micros() >= 10);
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
