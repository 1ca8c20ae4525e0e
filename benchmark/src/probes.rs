//! Layer probes: micro-drivers that call one layer's public API with a
//! fixed op count and time it with `Instant`.
//!
//! A probe answers "what does one operation of this layer cost the host
//! when nothing else runs", which the workloads cannot: there the layers
//! interleave. The `newmad.*` probes drive a whole two-node cluster, so
//! their cost *includes* every lower layer (unit `ns/msg_incl`); do not
//! subtract them from one another or from the bare-layer probes.

use crate::stats::median;
use pioman::{Pioman, PiomanConfig};
use pm2_coll::{AlgoKind, CollKind, CollSpec, CollTuning, ReduceOp};
use pm2_fabric::{Fabric, FabricParams};
use pm2_marcel::{Marcel, MarcelConfig, Priority};
use pm2_mpi::{Cluster, ClusterConfig};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::{Sim, SimDuration, SimTime, TimerHandle};
use pm2_topo::{NodeId, Topology};
use std::cell::Cell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One micro-driver: `run(ops)` performs `ops` operations and returns the
/// wall time they took (set-up excluded).
pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    /// Op count of a full `probe` run: at least 1 M ops or 1 s on the
    /// seed commit. The traced benchmark run divides it.
    pub ops: u64,
    pub run: fn(u64) -> Duration,
}

pub const PROBES: &[Probe] = &[
    Probe {
        name: "sim.probe.schedule_fire_shallow_ns",
        unit: "ns/op",
        ops: 4_000_000,
        run: |ops| schedule_fire(ops, 16),
    },
    Probe {
        name: "sim.probe.schedule_fire_deep_ns",
        unit: "ns/op",
        ops: 4_000_000,
        run: |ops| schedule_fire(ops, 1 << 16),
    },
    Probe {
        name: "sim.probe.cancel_ns",
        unit: "ns/op",
        ops: 4_000_000,
        run: cancel,
    },
    Probe {
        name: "sim.probe.task_wake_ns",
        unit: "ns/op",
        ops: 4_000_000,
        run: task_wake,
    },
    Probe {
        name: "marcel.probe.dispatch_ns",
        unit: "ns/op",
        ops: 1_000_000,
        run: marcel_dispatch,
    },
    Probe {
        name: "marcel.probe.tasklet_ns",
        unit: "ns/op",
        ops: 2_000_000,
        run: marcel_tasklet,
    },
    Probe {
        name: "pioman.probe.inject_ns",
        unit: "ns/op",
        ops: 1_000_000,
        run: pioman_inject,
    },
    Probe {
        name: "fabric.probe.frame_64b_ns",
        unit: "ns/op",
        ops: 2_000_000,
        run: |ops| fabric_frames(ops, 64),
    },
    Probe {
        name: "fabric.probe.frame_64k_ns",
        unit: "ns/op",
        ops: 400_000,
        run: |ops| fabric_frames(ops, 64 << 10),
    },
    Probe {
        name: "newmad.probe.eager_msg_ns",
        unit: "ns/msg_incl",
        ops: 200_000,
        run: |ops| newmad_msgs(ops, 1 << 10, Arrival::Expected),
    },
    Probe {
        name: "newmad.probe.unexpected_msg_ns",
        unit: "ns/msg_incl",
        ops: 400_000,
        run: |ops| newmad_msgs(ops, 1 << 10, Arrival::Unexpected),
    },
    Probe {
        name: "newmad.probe.rdv_msg_ns",
        unit: "ns/msg_incl",
        ops: 10_000,
        run: |ops| newmad_msgs(ops, 64 << 10, Arrival::Expected),
    },
    Probe {
        name: "coll.probe.plan_ns",
        unit: "ns/op",
        ops: 100_000,
        run: coll_plan,
    },
];

/// Runs `probe` `reps` times with its op count divided by `shrink`;
/// returns the median cost in ns per op.
pub fn measure(probe: &Probe, shrink: u64, reps: usize) -> f64 {
    let ops = (probe.ops / shrink.max(1)).max(64);
    let per_op: Vec<f64> = (0..reps)
        .map(|_| (probe.run)(ops).as_nanos() as f64 / ops as f64)
        .collect();
    median(&per_op)
}

/// `resident` self-rescheduling event chains: every fire schedules its
/// successor one period ahead, so the queue holds `resident` keys
/// throughout. 16 keys stay in the near heap; 64 Ki spread over 6.5 ms of
/// virtual time and live mostly in the far tier. The run stops at the
/// virtual instant by which exactly `ops` events have fired.
fn schedule_fire(ops: u64, resident: u64) -> Duration {
    const STAGGER_NS: u64 = 100;
    fn chain(sim: &Sim, period: SimDuration) {
        sim.schedule_in(period, move |s| chain(s, period));
    }
    let sim = Sim::new(0);
    let period = SimDuration::from_nanos(resident * STAGGER_NS);
    for k in 0..resident {
        sim.schedule_at(SimTime::from_nanos(k * STAGGER_NS), move |s| {
            chain(s, period)
        });
    }
    let t = Instant::now();
    sim.run_until(SimTime::from_nanos((ops - 1) * STAGGER_NS));
    let elapsed = t.elapsed();
    assert_eq!(sim.executed_events(), ops);
    elapsed
}

/// The retransmit-timer pattern: 64 timers outstanding, every op arms a
/// new one and cancels the oldest (an ack arrived).
fn cancel(ops: u64) -> Duration {
    let sim = Sim::new(0);
    let mut armed: VecDeque<TimerHandle> = VecDeque::with_capacity(65);
    let t = Instant::now();
    for _ in 0..ops {
        armed.push_back(sim.schedule_in(SimDuration::from_micros(100), |_| {}));
        if armed.len() > 64 {
            armed.pop_front().expect("non-empty").cancel();
        }
    }
    armed.iter().for_each(TimerHandle::cancel);
    sim.run();
    t.elapsed()
}

/// 16 tasks sleeping 1 µs in a loop: timer fire → waker → task poll.
fn task_wake(ops: u64) -> Duration {
    let sim = Sim::new(0);
    for _ in 0..16 {
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..ops / 16 {
                s.sleep(SimDuration::from_micros(1)).await;
            }
        });
    }
    let t = Instant::now();
    sim.run();
    t.elapsed()
}

fn bare_marcel() -> (Sim, Marcel) {
    let sim = Sim::new(0);
    let topo = Rc::new(Topology::single_node(8));
    let marcel = Marcel::new(sim.clone(), topo, NodeId(0), MarcelConfig::default());
    (sim, marcel)
}

/// Thread life cycle on an 8-core node: spawn, dispatch, 1 µs compute,
/// finish — 1024 threads at a time.
fn marcel_dispatch(ops: u64) -> Duration {
    let (sim, marcel) = bare_marcel();
    let t = Instant::now();
    let mut left = ops;
    while left > 0 {
        let batch = left.min(1024);
        for _ in 0..batch {
            marcel.spawn("probe", Priority::Normal, None, |ctx| async move {
                ctx.compute(SimDuration::from_micros(1)).await;
            });
        }
        sim.run();
        left -= batch;
    }
    t.elapsed()
}

/// One tasklet rescheduling itself `ops` times on an otherwise idle node.
fn marcel_tasklet(ops: u64) -> Duration {
    let (sim, marcel) = bare_marcel();
    let left = Rc::new(Cell::new(ops));
    let tasklet = marcel.create_tasklet("probe", move |run| {
        run.charge(SimDuration::from_nanos(100));
        left.set(left.get().saturating_sub(1));
        if left.get() > 0 {
            run.reschedule();
        }
    });
    let t = Instant::now();
    marcel.tasklet_schedule(tasklet, None);
    sim.run();
    t.elapsed()
}

/// `InjectionEndpoint::inject` of a no-op costed closure, drained by
/// whichever progression mechanism gets there — 1024 at a time.
fn pioman_inject(ops: u64) -> Duration {
    let (sim, marcel) = bare_marcel();
    let pioman = Pioman::new(&marcel, PiomanConfig::default());
    let endpoint = pioman.create_endpoint();
    let t = Instant::now();
    let mut left = ops;
    while left > 0 {
        let batch = left.min(1024);
        for _ in 0..batch {
            endpoint.inject(None, || SimDuration::from_nanos(100));
        }
        sim.run();
        left -= batch;
    }
    t.elapsed()
}

/// `Nic::tx` → wire → `rx_poll` between two nodes, 64 frames in flight;
/// the payload buffer is allocated per frame, as the protocol layer does.
fn fabric_frames(ops: u64, bytes: usize) -> Duration {
    let sim = Sim::new(0);
    let topo = Rc::new(Topology::new(2, 1, 1));
    let fabric: Rc<Fabric<Vec<u8>>> = Fabric::new(sim.clone(), topo, FabricParams::myri10g());
    let (tx, rx) = (fabric.nic(NodeId(0)), fabric.nic(NodeId(1)));
    let t = Instant::now();
    let mut left = ops;
    while left > 0 {
        let batch = left.min(64);
        for _ in 0..batch {
            tx.tx(NodeId(1), bytes, vec![0u8; bytes]);
        }
        sim.run();
        while let Some(frame) = rx.rx_poll() {
            black_box(frame);
        }
        left -= batch;
    }
    t.elapsed()
}

#[derive(Clone, Copy, PartialEq)]
enum Arrival {
    /// The receive is posted before the message is sent.
    Expected,
    /// The message waits in the unexpected pool for its receive.
    Unexpected,
}

/// `ops` messages of `len` bytes from node 0 to node 1 of a two-node
/// cluster with two cores per node (one for the app thread, one for
/// stolen progression, so idle polling does not swamp the per-message
/// cost). Messages go in windows of 256 separated by a token, so that
/// every message of a window is expected, or every one is unexpected.
fn newmad_msgs(ops: u64, len: usize, arrival: Arrival) -> Duration {
    const WINDOW: u64 = 256;
    const DATA: Tag = Tag(1);
    const TOKEN: Tag = Tag(2);
    let mut cfg = ClusterConfig::paper_testbed(EngineKind::Pioman);
    cfg.sockets_per_node = 1;
    cfg.cores_per_socket = 2;
    let cluster = Cluster::build(cfg);
    let windows: Vec<u64> = (0..ops.div_ceil(WINDOW))
        .map(|w| WINDOW.min(ops - w * WINDOW))
        .collect();
    {
        let s = cluster.session(0).clone();
        let windows = windows.clone();
        cluster.spawn_on(0, "probe-tx", move |ctx| async move {
            for window in windows {
                if arrival == Arrival::Expected {
                    // The receiver says when its receives are posted.
                    s.recv(&ctx, Some(NodeId(1)), TOKEN).await;
                }
                let mut posted = Vec::with_capacity(window as usize);
                for _ in 0..window {
                    posted.push(s.isend(&ctx, NodeId(1), DATA, vec![0u8; len]).await);
                }
                for h in &posted {
                    s.swait_send(h, &ctx).await;
                }
                if arrival == Arrival::Unexpected {
                    // Links deliver in order: the token arrives last.
                    s.send(&ctx, NodeId(1), TOKEN, vec![0u8; 16]).await;
                }
            }
        });
    }
    {
        let s = cluster.session(1).clone();
        cluster.spawn_on(1, "probe-rx", move |ctx| async move {
            for window in windows {
                if arrival == Arrival::Unexpected {
                    s.recv(&ctx, Some(NodeId(0)), TOKEN).await;
                }
                let mut posted = Vec::with_capacity(window as usize);
                for _ in 0..window {
                    posted.push(s.irecv(&ctx, Some(NodeId(0)), DATA).await);
                }
                if arrival == Arrival::Expected {
                    s.send(&ctx, NodeId(0), TOKEN, vec![0u8; 16]).await;
                }
                for h in &posted {
                    black_box(s.swait_recv(h, &ctx).await);
                }
            }
        });
    }
    let t = Instant::now();
    cluster.run_deadline(SimTime::from_secs(600));
    let elapsed = t.elapsed();
    let unexpected = cluster.session(1).counters().unexpected;
    match arrival {
        Arrival::Expected => assert_eq!(unexpected, 0, "expected-path probe saw unexpected"),
        Arrival::Unexpected => assert!(unexpected >= ops, "unexpected-path probe saw expected"),
    }
    elapsed
}

/// Ring-allreduce planning for 32 ranks × 1 MiB (the per-call cost every
/// collective pays before its first message).
fn coll_plan(ops: u64) -> Duration {
    let spec = CollSpec {
        kind: CollKind::Allreduce {
            op: ReduceOp::WrapAdd8,
        },
        len: 1 << 20,
        ranks: 32,
        chunk: CollTuning::default().ring_chunk_bytes,
    };
    let ring = AlgoKind::Ring.algorithm();
    let t = Instant::now();
    for i in 0..ops {
        black_box(ring.plan(black_box(&spec), (i % 32) as usize));
    }
    t.elapsed()
}
