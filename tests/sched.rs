//! Differential scheduling-policy suite.
//!
//! The pluggable-scheduler refactor must be invisible under the default
//! policy and *comparable* under the alternatives:
//!
//! * the default `hier` policy reproduces the pre-refactor goldens
//!   bit-for-bit (the same numbers the committed `tests/baselines/`
//!   files encode);
//! * every policy is deterministic: the same config replays to the same
//!   virtual-time results;
//! * every policy completes the paper's fig. 5 overlap loop and the
//!   fig. 7/8 stencil, and survives the fault matrix (`PM2_FAULT_SEED`,
//!   same knob as `tests/faults.rs`) with no comm-signal wait bracket
//!   left open, even under thousands of concurrent streams;
//! * the comm-aware policy measurably improves overlap over the FIFO
//!   baseline on a loaded core — the whole point of boosting threads
//!   whose requests are near completion.

use pm2_fabric::{FabricParams, FaultPlan};
use pm2_marcel::MAX_TRACKED_REQS;
use pm2_mpi::workloads::{run_overlap, run_stencil, OverlapParams, StencilParams};
use pm2_mpi::{Cluster, ClusterConfig, SchedPolicyKind};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::stats::OnlineStats;
use pm2_sim::{SimDuration, SimTime};
use pm2_topo::NodeId;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Every selectable policy, by its canonical name.
const POLICIES: [&str; 4] = ["hier", "fifo", "vruntime", "comm"];

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

fn testbed(policy: &str) -> ClusterConfig {
    ClusterConfig::paper_testbed(EngineKind::Pioman).with_sched_policy(policy)
}

/// The default policy must reproduce the pre-refactor scheduler exactly:
/// these constants were captured on the monolithic `sched.rs` before the
/// trait extraction, with the same configs the committed baselines use.
#[test]
fn default_policy_reproduces_pre_refactor_goldens() {
    let overlap = run_overlap(testbed("hier"), &fig5_point());
    assert_eq!(
        format!("{:.6}", overlap.half_round_us.mean()),
        "20.300000",
        "default-policy overlap drifted from the pre-refactor golden"
    );
    let stencil = run_stencil(testbed("hier"), &StencilParams::four_threads());
    assert_eq!(
        format!("{:.3}", stencil.total_us),
        "421.728",
        "default-policy stencil drifted from the pre-refactor golden"
    );
}

#[test]
fn policy_selection_is_visible_on_the_cluster() {
    for name in POLICIES {
        let cluster = Cluster::build(testbed(name));
        for node in 0..cluster.ranks() {
            assert_eq!(cluster.marcel(node).policy_name(), name);
        }
    }
    // Canonical names round-trip through the registry.
    for kind in SchedPolicyKind::all() {
        assert_eq!(SchedPolicyKind::from_name(kind.name()), Some(kind));
    }
    assert_eq!(SchedPolicyKind::from_name("no-such-policy"), None);
}

/// Same config ⇒ same virtual-time results, for every policy. The
/// policies only use ordered containers and simulation state, so a rerun
/// replays the exact event sequence.
#[test]
fn every_policy_is_deterministic() {
    for name in POLICIES {
        let p = fig5_point();
        let a = run_overlap(testbed(name), &p);
        let b = run_overlap(testbed(name), &p);
        assert_eq!(
            a.half_round_us.mean().to_bits(),
            b.half_round_us.mean().to_bits(),
            "{name}: overlap replay diverged"
        );
        let sp = StencilParams::four_threads();
        let sa = run_stencil(testbed(name), &sp);
        let sb = run_stencil(testbed(name), &sp);
        assert_eq!(
            sa.total_us.to_bits(),
            sb.total_us.to_bits(),
            "{name}: stencil replay diverged"
        );
    }
}

/// Every policy finishes the paper's workloads: all measured iterations
/// complete (the deadline in the workload drivers never fires) and both
/// traffic kinds flow in the stencil.
#[test]
fn all_policies_complete_the_paper_workloads() {
    for name in POLICIES {
        let p = fig5_point();
        let overlap = run_overlap(testbed(name), &p);
        assert_eq!(
            overlap.half_round_us.count(),
            p.iters as u64,
            "{name}: overlap iterations lost"
        );
        let mean = overlap.half_round_us.mean();
        assert!(
            (20.0..60.0).contains(&mean),
            "{name}: implausible fig5 half-round {mean}µs"
        );
        let stencil = run_stencil(testbed(name), &StencilParams::four_threads());
        assert!(stencil.total_us > 0.0, "{name}: stencil never ran");
        let c0 = &stencil.counters[0];
        assert!(c0.shm_msgs > 0, "{name}: no intra-node traffic");
        assert!(c0.eager_msgs_tx > 0, "{name}: no inter-node traffic");
    }
}

/// Seed of the fault scenarios; `ci.sh` runs the matrix over 1 / 7 / 42,
/// exactly like `tests/faults.rs`.
fn fault_seed() -> u64 {
    std::env::var("PM2_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Liveness under a lossy fabric must not depend on the scheduling
/// policy: stream mixed eager + rendezvous messages through a dropping /
/// duplicating / corrupting window and require every byte delivered.
#[test]
fn all_policies_survive_fault_seeds() {
    let seed = fault_seed();
    for name in POLICIES {
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
            ..testbed(name)
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
        assert!(end < DEADLINE, "{name} seed {seed}: run wedged");
        assert_eq!(
            delivered.get(),
            lens.len(),
            "{name} seed {seed}: messages lost"
        );
        assert_signals_quiesced(&cluster, name);
    }
}

/// Comm-signal hygiene after quiescence: no wait bracket is left open and
/// the bounded signal table never grew past its cap.
fn assert_signals_quiesced(cluster: &Cluster, policy: &str) {
    for node in 0..cluster.ranks() {
        let marcel = cluster.marcel(node);
        assert_eq!(
            marcel.comm_waiting(),
            0,
            "{policy} node {node}: open wait brackets after quiescence"
        );
        assert!(
            marcel.comm_tracked() <= MAX_TRACKED_REQS,
            "{policy} node {node}: comm-signal table over its cap"
        );
    }
}

/// Comm-signal hygiene at service scale under the `comm` policy: 2 ranks
/// × 1 024 closed-loop client streams, one small eager message each to
/// the other rank, every one bracketing its wait through the signal
/// table.
#[test]
fn comm_signals_quiesce_under_thousands_of_streams() {
    const STREAMS: usize = 1_024;
    let cluster = Cluster::build(testbed("comm"));
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
    assert!(end < DEADLINE, "signal storm wedged");
    assert_eq!(delivered.get(), 2 * STREAMS, "one delivery per stream");
    assert_signals_quiesced(&cluster, "comm");
}

/// Fig. 5 overlap loop with the communicating thread *sharing its node
/// with compute load*: background threads keep every core busy, so the
/// policy decides how quickly the woken communicating thread gets a core
/// back. The compute slice is shorter than the communication, so `swait`
/// genuinely blocks each iteration and the wakeup-to-dispatch delay lands
/// on the measured path. Returns the mean half-round time in µs.
fn loaded_overlap_mean(policy: &str) -> f64 {
    let cfg = ClusterConfig {
        sockets_per_node: 1,
        cores_per_socket: 2,
        ..testbed(policy)
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
    assert!(end < DEADLINE, "{policy}: loaded overlap wedged");
    let stats = Rc::try_unwrap(stats).expect("sole owner").into_inner();
    assert_eq!(stats.count(), p.iters as u64);
    stats.mean()
}

/// The acceptance point of the comm-aware policy: on a loaded node it
/// must beat the FIFO baseline, which ignores wakeup urgency and parks
/// the freshly-completed communicating thread behind the compute queue.
#[test]
fn comm_aware_improves_loaded_overlap_vs_fifo() {
    let fifo = loaded_overlap_mean("fifo");
    let comm = loaded_overlap_mean("comm");
    let hier = loaded_overlap_mean("hier");
    eprintln!("loaded fig5 half-round: fifo {fifo:.3}µs, comm {comm:.3}µs, hier {hier:.3}µs");
    assert!(
        comm < fifo,
        "comm-aware ({comm:.3}µs) should beat FIFO ({fifo:.3}µs) under load"
    );
    // The boost must not regress the default policy's overlap either.
    assert!(
        comm <= hier + 1.0,
        "comm-aware ({comm:.3}µs) far behind hier ({hier:.3}µs)"
    );
}

/// The locality mix exposed through `SchedStats` partitions dispatches,
/// under any policy.
#[test]
fn stats_locality_mix_partitions_dispatches() {
    for name in POLICIES {
        let cluster = Cluster::build(testbed(name));
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
            assert!(st.dispatches > 0, "{name} node {node}: nothing dispatched");
            assert_eq!(
                st.pop_core + st.pop_local_socket + st.pop_node + st.pop_steal,
                st.dispatches,
                "{name} node {node}: locality mix does not partition \
                 dispatches: {st:?}"
            );
        }
    }
}
