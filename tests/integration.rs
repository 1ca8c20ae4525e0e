//! Cross-crate integration tests on the full stack (topology → fabric →
//! Marcel → PIOMAN → NewMadeleine → mini-MPI). The paper's result shapes
//! are asserted row by row in `tests/claims.rs`.

use pm2_mpi::{Cluster, ClusterConfig, Comm, StrategyKind};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::SimDuration;
use pm2_topo::NodeId;
use std::cell::RefCell;
use std::rc::Rc;

/// A 4-node all-to-all with mixed sizes arrives intact under both
/// engines (multi-node matching, wildcard receives, eager + rendezvous).
#[test]
fn four_node_all_to_all() {
    for engine in [EngineKind::Pioman, EngineKind::Sequential] {
        let cluster = Cluster::build(ClusterConfig {
            nodes: 4,
            ..ClusterConfig::paper_testbed(engine)
        });
        let received = Rc::new(RefCell::new(vec![0usize; 4]));
        for me in 0..4usize {
            let s = cluster.session(me).clone();
            let received = Rc::clone(&received);
            cluster.spawn_on(me, format!("rank{me}"), move |ctx| async move {
                let mut handles = Vec::new();
                for peer in 0..4 {
                    if peer == me {
                        continue;
                    }
                    let len = 1 << (10 + ((me + peer) % 7)); // 1K..64K
                    let tag = Tag((me * 4 + peer) as u64);
                    handles.push(s.isend(&ctx, NodeId(peer), tag, vec![me as u8; len]).await);
                }
                ctx.compute(SimDuration::from_micros(30)).await;
                for h in &handles {
                    s.swait_send(h, &ctx).await;
                }
                for peer in 0..4usize {
                    if peer == me {
                        continue;
                    }
                    let tag = Tag((peer * 4 + me) as u64);
                    let data = s.recv(&ctx, Some(NodeId(peer)), tag).await;
                    assert!(data.iter().all(|&b| b == peer as u8));
                    received.borrow_mut()[me] += 1;
                }
            });
        }
        cluster.run();
        assert_eq!(*received.borrow(), vec![3, 3, 3, 3], "engine {engine:?}");
    }
}

/// Collectives compose with point-to-point traffic across barriers.
#[test]
fn collectives_and_p2p_compose() {
    let cluster = Cluster::build(ClusterConfig {
        nodes: 3,
        ..ClusterConfig::default()
    });
    let comms = Comm::world(&cluster);
    let sums = Rc::new(RefCell::new(Vec::new()));
    for (rank, comm) in comms.into_iter().enumerate() {
        let sums = Rc::clone(&sums);
        cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
            for round in 0..3u64 {
                let s = comm
                    .allreduce_sum(&ctx, (comm.rank() as u64 + 1) * (round + 1))
                    .await;
                sums.borrow_mut().push(s);
                comm.barrier(&ctx).await;
                // Ring exchange after each barrier.
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                let h = comm
                    .isend(&ctx, next, Tag(round), vec![comm.rank() as u8; 2048])
                    .await;
                let data = comm.recv(&ctx, Some(prev), Tag(round)).await;
                assert_eq!(data[0] as usize, prev);
                comm.wait_send(&h, &ctx).await;
                comm.barrier(&ctx).await;
            }
        });
    }
    cluster.run();
    let sums = sums.borrow();
    assert_eq!(sums.len(), 9);
    for round in 0..3u64 {
        let expected = 6 * (round + 1); // (1+2+3) * (round+1)
        assert_eq!(
            sums.iter().filter(|&&s| s == expected).count(),
            3,
            "round {round}"
        );
    }
}

/// The aggregation strategy preserves correctness on the full stack and
/// reduces wire frames for bursty traffic.
#[test]
fn aggregation_end_to_end() {
    let cluster = Cluster::build(ClusterConfig {
        strategy: StrategyKind::Aggreg,
        ..ClusterConfig::default()
    });
    const N: usize = 20;
    {
        let s = cluster.session(0).clone();
        cluster.spawn_on(0, "tx", move |ctx| async move {
            let mut hs = Vec::new();
            for i in 0..N {
                hs.push(
                    s.isend(&ctx, NodeId(1), Tag(i as u64), vec![i as u8; 256])
                        .await,
                );
            }
            ctx.compute(SimDuration::from_micros(40)).await;
            for h in &hs {
                s.swait_send(h, &ctx).await;
            }
        });
    }
    let ok = Rc::new(RefCell::new(0usize));
    {
        let s = cluster.session(1).clone();
        let ok = Rc::clone(&ok);
        cluster.spawn_on(1, "rx", move |ctx| async move {
            for i in 0..N {
                let v = s.recv(&ctx, Some(NodeId(0)), Tag(i as u64)).await;
                assert_eq!(v, vec![i as u8; 256]);
                *ok.borrow_mut() += 1;
            }
        });
    }
    cluster.run();
    assert_eq!(*ok.borrow(), N);
    let c = cluster.session(0).counters();
    assert!(
        c.eager_frames_tx < N as u64 / 2,
        "burst should aggregate: {} frames for {N} messages",
        c.eager_frames_tx
    );
}

/// Determinism across the whole stack: identical seeds give identical
/// virtual end times; different seeds with jitter give different ones.
#[test]
fn full_stack_determinism() {
    fn run(seed: u64, jitter: f64) -> u64 {
        let mut fabric = pm2_fabric::FabricParams::myri10g();
        fabric.jitter_frac = jitter;
        let cluster = Cluster::build(ClusterConfig {
            seed,
            fabric,
            ..ClusterConfig::default()
        });
        {
            let s = cluster.session(0).clone();
            cluster.spawn_on(0, "tx", move |ctx| async move {
                for i in 0..10 {
                    let h = s.isend(&ctx, NodeId(1), Tag(i), vec![1; 4096]).await;
                    s.swait_send(&h, &ctx).await;
                }
            });
        }
        let done = Rc::new(RefCell::new(0u64));
        {
            let s = cluster.session(1).clone();
            let done = Rc::clone(&done);
            cluster.spawn_on(1, "rx", move |ctx| async move {
                for i in 0..10 {
                    let _ = s.recv(&ctx, Some(NodeId(0)), Tag(i)).await;
                }
                *done.borrow_mut() = ctx.marcel().sim().now().as_nanos();
            });
        }
        cluster.run();
        let t = *done.borrow();
        t
    }
    assert_eq!(run(7, 0.3), run(7, 0.3));
    assert_ne!(
        run(7, 0.3),
        run(8, 0.3),
        "jitter should differ across seeds"
    );
}
