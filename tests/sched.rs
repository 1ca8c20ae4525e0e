//! End-to-end checks of the Marcel scheduler on the paper's workloads:
//!
//! * the fig. 5 overlap point, the fig. 7/8 stencil and a fig. 5 loop on
//!   a loaded node reproduce their goldens bit-for-bit (the first two are
//!   the numbers the committed `tests/baselines/` files encode; the third
//!   is the only end-to-end check that urgent wakeups jump the run queue
//!   under load);
//! * the same config replays to the same virtual-time results;
//! * delivery survives the fault matrix (`PM2_FAULT_SEED`, same knob as
//!   `tests/faults.rs`) and thousands of concurrent streams;
//! * the locality mix in `SchedStats` partitions the dispatches.

use pm2_fabric::{FabricParams, FaultPlan};
use pm2_mpi::workloads::{run_overlap, run_stencil, OverlapParams, StencilParams};
use pm2_mpi::{Cluster, ClusterConfig};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::stats::OnlineStats;
use pm2_sim::{SimDuration, SimTime};
use pm2_topo::NodeId;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Wedge guard, matching the workloads' own deadline.
const DEADLINE: SimTime = SimTime::from_secs(60);

/// The fig. 5 point the goldens were captured at (8 kB, 20 µs compute).
fn fig5_point() -> OverlapParams {
    OverlapParams {
        msg_len: 8 << 10,
        compute: SimDuration::from_micros(20),
        iters: 10,
        warmup: 2,
    }
}

fn testbed() -> ClusterConfig {
    ClusterConfig::paper_testbed(EngineKind::Pioman)
}

/// The scheduler must reproduce the pre-refactor goldens exactly: these
/// constants were captured on the monolithic `sched.rs`, with the same
/// configs the committed baselines use. (The name is kept from when the
/// hierarchical queues were one policy among several; they are now the
/// only scheduler.)
#[test]
fn default_policy_reproduces_pre_refactor_goldens() {
    let overlap = run_overlap(testbed(), &fig5_point());
    assert_eq!(
        format!("{:.6}", overlap.half_round_us.mean()),
        "20.300000",
        "overlap drifted from the pre-refactor golden"
    );
    let stencil = run_stencil(testbed(), &StencilParams::four_threads());
    assert_eq!(
        format!("{:.3}", stencil.total_us),
        "421.728",
        "stencil drifted from the pre-refactor golden"
    );
}

/// The scheduler finishes the paper's workloads: all measured iterations
/// complete (the deadline in the workload drivers never fires) and both
/// traffic kinds flow in the stencil. (The name is kept from the policy
/// loop this check used to run.)
#[test]
fn all_policies_complete_the_paper_workloads() {
    let p = fig5_point();
    let overlap = run_overlap(testbed(), &p);
    assert_eq!(
        overlap.half_round_us.count(),
        p.iters as u64,
        "overlap iterations lost"
    );
    let mean = overlap.half_round_us.mean();
    assert!(
        (20.0..60.0).contains(&mean),
        "implausible fig5 half-round {mean}µs"
    );
    let stencil = run_stencil(testbed(), &StencilParams::four_threads());
    assert!(stencil.total_us > 0.0, "stencil never ran");
    let c0 = &stencil.counters[0];
    assert!(c0.shm_msgs > 0, "no intra-node traffic");
    assert!(c0.eager_msgs_tx > 0, "no inter-node traffic");
}

/// Same config ⇒ same virtual-time results. The scheduler only uses
/// ordered containers and simulation state, so a rerun replays the exact
/// event sequence.
#[test]
fn runs_are_deterministic() {
    let p = fig5_point();
    let a = run_overlap(testbed(), &p);
    let b = run_overlap(testbed(), &p);
    assert_eq!(
        a.half_round_us.mean().to_bits(),
        b.half_round_us.mean().to_bits(),
        "overlap replay diverged"
    );
    let sp = StencilParams::four_threads();
    let sa = run_stencil(testbed(), &sp);
    let sb = run_stencil(testbed(), &sp);
    assert_eq!(
        sa.total_us.to_bits(),
        sb.total_us.to_bits(),
        "stencil replay diverged"
    );
}

/// Seed of the fault scenarios; `ci.sh` runs the matrix over 1 / 7 / 42,
/// exactly like `tests/faults.rs`.
fn fault_seed() -> u64 {
    std::env::var("PM2_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Liveness under a lossy fabric: stream mixed eager + rendezvous
/// messages through a dropping / duplicating / corrupting window and
/// require every byte delivered.
#[test]
fn survives_fault_seeds() {
    let seed = fault_seed();
    let mut fabric = FabricParams::myri10g();
    fabric.fault = FaultPlan {
        seed,
        drop_rate: 0.08,
        dup_rate: 0.05,
        corrupt_rate: 0.04,
        window: Some((SimTime::ZERO, SimTime::from_millis(2))),
        ..FaultPlan::default()
    };
    let cfg = ClusterConfig {
        fabric,
        ..testbed()
    };
    let lens = [512usize, 2048, 64 << 10, 512, 2048, 512];
    let cluster = Cluster::build(cfg);
    let delivered = Rc::new(Cell::new(0usize));
    {
        let s = cluster.session(0).clone();
        cluster.spawn_on(0, "tx", move |ctx| async move {
            for (i, len) in lens.iter().enumerate() {
                let body: Vec<u8> = (0..*len).map(|j| (i as u8) ^ (j as u8)).collect();
                s.send(&ctx, NodeId(1), Tag(i as u64), body).await;
            }
        });
    }
    {
        let s = cluster.session(1).clone();
        let delivered = Rc::clone(&delivered);
        cluster.spawn_on(1, "rx", move |ctx| async move {
            for (i, len) in lens.iter().enumerate() {
                let data = s.recv(&ctx, Some(NodeId(0)), Tag(i as u64)).await;
                assert_eq!(data.len(), *len, "message {i} truncated");
                assert!(
                    data.iter()
                        .enumerate()
                        .all(|(j, &b)| b == (i as u8) ^ (j as u8)),
                    "message {i} corrupted past the reliability layer"
                );
                delivered.set(delivered.get() + 1);
            }
        });
    }
    let end = cluster.run_deadline(DEADLINE);
    assert!(end < DEADLINE, "seed {seed}: run wedged");
    assert_eq!(delivered.get(), lens.len(), "seed {seed}: messages lost");
}

/// Service scale: 2 ranks × 1 024 closed-loop client streams, one small
/// eager message each to the other rank, every one delivered exactly once
/// with its own payload.
#[test]
fn thousands_of_streams_deliver_exactly_once() {
    const STREAMS: usize = 1_024;
    let cluster = Cluster::build(testbed());
    let delivered = Rc::new(Cell::new(0usize));
    for src in 0..2 {
        let dst = 1 - src;
        for stream in 0..STREAMS {
            let tag = Tag((src * STREAMS + stream) as u64);
            let len = 64 + stream % 193;
            let s = cluster.session(src).clone();
            cluster.spawn_on(src, format!("tx{src}.{stream}"), move |ctx| async move {
                s.send(&ctx, NodeId(dst), tag, vec![stream as u8; len])
                    .await;
            });
            let s = cluster.session(dst).clone();
            let delivered = Rc::clone(&delivered);
            cluster.spawn_on(dst, format!("rx{src}.{stream}"), move |ctx| async move {
                let data = s.recv(&ctx, Some(NodeId(src)), tag).await;
                assert_eq!(data, vec![stream as u8; len], "stream {src}.{stream}");
                delivered.set(delivered.get() + 1);
            });
        }
    }
    let end = cluster.run_deadline(DEADLINE);
    assert!(end < DEADLINE, "stream storm wedged");
    assert_eq!(delivered.get(), 2 * STREAMS, "one delivery per stream");
}

/// Fig. 5 overlap loop with the communicating thread *sharing its node
/// with compute load*: background threads keep every core busy, so the
/// scheduler decides how quickly the woken communicating thread gets a
/// core back. The compute slice is shorter than the communication, so
/// `swait` genuinely blocks each iteration and the wakeup-to-dispatch
/// delay lands on the measured path.
///
/// The golden pins the urgent-wakeup rule (§3.2): a woken communicating
/// thread rises to high priority at the front of its queue. A scheduler
/// that queues it behind the compute threads in arrival order measured
/// 19.073 µs here.
#[test]
fn loaded_overlap_reproduces_golden() {
    let cfg = ClusterConfig {
        sockets_per_node: 1,
        cores_per_socket: 2,
        ..testbed()
    };
    let p = OverlapParams {
        compute: SimDuration::from_micros(2),
        ..fig5_point()
    };
    let cluster = Cluster::build(cfg);
    let stats = Rc::new(RefCell::new(OnlineStats::new()));
    let total = p.iters + p.warmup;
    let (len, compute, warmup) = (p.msg_len, p.compute, p.warmup);
    // Enough background work to keep both node-0 cores contended for the
    // whole measurement window (~0.5 ms of virtual time).
    for b in 0..3 {
        cluster.spawn_on(0, format!("bg-{b}"), move |ctx| async move {
            for _ in 0..400 {
                ctx.compute(SimDuration::from_micros(2)).await;
                ctx.yield_now().await;
            }
        });
    }
    {
        let s = cluster.session(0).clone();
        let stats = Rc::clone(&stats);
        cluster.spawn_on(0, "overlap-0", move |ctx| async move {
            for i in 0..total {
                let t1 = ctx.marcel().sim().now();
                let h = s
                    .isend(&ctx, NodeId(1), Tag(2 * i as u64), vec![0xa5; len])
                    .await;
                ctx.compute(compute).await;
                s.swait_send(&h, &ctx).await;
                let hr = s.irecv(&ctx, Some(NodeId(1)), Tag(2 * i as u64 + 1)).await;
                ctx.compute(compute).await;
                let _ = s.swait_recv(&hr, &ctx).await;
                let t2 = ctx.marcel().sim().now();
                if i >= warmup {
                    stats
                        .borrow_mut()
                        .record(t2.saturating_since(t1).as_micros_f64() / 2.0);
                }
            }
        });
    }
    {
        let s = cluster.session(1).clone();
        cluster.spawn_on(1, "overlap-1", move |ctx| async move {
            for i in 0..total {
                let hr = s.irecv(&ctx, Some(NodeId(0)), Tag(2 * i as u64)).await;
                ctx.compute(compute).await;
                let _ = s.swait_recv(&hr, &ctx).await;
                let h = s
                    .isend(&ctx, NodeId(0), Tag(2 * i as u64 + 1), vec![0x5a; len])
                    .await;
                ctx.compute(compute).await;
                s.swait_send(&h, &ctx).await;
            }
        });
    }
    let end = cluster.run_deadline(DEADLINE);
    assert!(end < DEADLINE, "loaded overlap wedged");
    let stats = Rc::try_unwrap(stats).expect("sole owner").into_inner();
    assert_eq!(stats.count(), p.iters as u64);
    assert_eq!(
        format!("{:.3}", stats.mean()),
        "15.719",
        "loaded overlap drifted from its golden"
    );
}

/// The locality mix exposed through `SchedStats` partitions dispatches.
#[test]
fn stats_locality_mix_partitions_dispatches() {
    let cluster = Cluster::build(testbed());
    for node in 0..2 {
        let peer = NodeId(1 - node);
        let s = cluster.session(node).clone();
        cluster.spawn_on(node, "pp", move |ctx| async move {
            for i in 0..4u64 {
                if ctx.marcel().node() == NodeId(0) {
                    s.send(&ctx, peer, Tag(2 * i), vec![0; 1 << 10]).await;
                    let _ = s.recv(&ctx, Some(peer), Tag(2 * i + 1)).await;
                } else {
                    let _ = s.recv(&ctx, Some(peer), Tag(2 * i)).await;
                    s.send(&ctx, peer, Tag(2 * i + 1), vec![0; 1 << 10]).await;
                }
            }
        });
    }
    cluster.run();
    for node in 0..2 {
        let st = cluster.marcel(node).stats();
        assert!(st.dispatches > 0, "node {node}: nothing dispatched");
        assert_eq!(
            st.pop_core + st.pop_local_socket + st.pop_node + st.pop_steal,
            st.dispatches,
            "node {node}: locality mix does not partition dispatches: {st:?}"
        );
    }
}
