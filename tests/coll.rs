//! Collective-engine validation: differential testing of every algorithm
//! against the flat reference, fault-tolerance under a lossy fabric, and
//! the performance properties the algorithms exist for.
//!
//! Everything is seeded and deterministic; the lossy scenarios honour
//! `PM2_FAULT_SEED` so `ci.sh` can run the published seed matrix.

use pm2_bench::collbench::{run_coll, CollOp};
use pm2_coll::{AlgoKind, ReduceOp};
use pm2_fabric::{FabricParams, FaultPlan};
use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_sim::rng::Xoshiro256;
use pm2_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Wedge guard for the lossy runs (virtual time).
const COLL_DEADLINE: SimTime = SimTime::from_secs(60);

fn fault_seed() -> u64 {
    std::env::var("PM2_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Xoshiro256::new(seed);
    (0..len).map(|_| rng.gen_below(256) as u8).collect()
}

/// Byte-wise wrapping sum of all ranks' payloads — the reference result
/// for `ReduceOp::WrapAdd8`, computed without the engine.
fn wrap_sum(inputs: &[Vec<u8>]) -> Vec<u8> {
    let mut acc = inputs[0].clone();
    for b in &inputs[1..] {
        for (a, x) in acc.iter_mut().zip(b) {
            *a = a.wrapping_add(*x);
        }
    }
    acc
}

/// Runs one collective on every rank of a fresh cluster and returns each
/// rank's result buffer.
fn run_world<F, Fut>(cfg: ClusterConfig, deadline: Option<SimTime>, body: F) -> Vec<Vec<u8>>
where
    F: Fn(Comm, pm2_marcel::ThreadCtx) -> Fut + Clone + 'static,
    Fut: std::future::Future<Output = Vec<u8>> + 'static,
{
    let cluster = Cluster::build(cfg);
    let comms = Comm::world(&cluster);
    let ranks = cluster.ranks();
    let out = Rc::new(RefCell::new(vec![Vec::new(); ranks]));
    for (rank, comm) in comms.into_iter().enumerate() {
        let out = Rc::clone(&out);
        let body = body.clone();
        cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
            let res = body(comm, ctx).await;
            out.borrow_mut()[rank] = res;
        });
    }
    match deadline {
        Some(d) => cluster.run_deadline(d),
        None => cluster.run(),
    };
    Rc::try_unwrap(out).expect("all ranks done").into_inner()
}

fn cfg(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        ..ClusterConfig::default()
    }
}

const ALL_ALGOS: [AlgoKind; 4] = [
    AlgoKind::Flat,
    AlgoKind::Tree,
    AlgoKind::Ring,
    AlgoKind::RecDouble,
];

/// Differential property test: every algorithm must produce the flat
/// reference result for random rank counts, payload sizes (0 B – 1 MiB,
/// log-uniform so both eager and rendezvous paths are hit) and roots.
#[test]
fn differential_algorithms_match_flat_reference() {
    let mut rng = Xoshiro256::new(0xC011EC7);
    for trial in 0..8 {
        let ranks = rng.gen_range(2, 17) as usize;
        let len = match rng.gen_below(4) {
            0 => rng.gen_below(64) as usize,
            1 => rng.gen_range(64, 4096) as usize,
            2 => rng.gen_range(4096, 128 << 10) as usize,
            _ => rng.gen_range(128 << 10, (1 << 20) + 1) as usize,
        };
        let root = rng.gen_below(ranks as u64) as usize;
        let inputs: Vec<Vec<u8>> = (0..ranks)
            .map(|r| payload(trial * 1000 + r as u64, len))
            .collect();
        let expected_sum = wrap_sum(&inputs);

        for algo in ALL_ALGOS {
            // Allreduce: every rank must end with the byte-wise sum.
            let ins = inputs.clone();
            let got = run_world(cfg(ranks), None, move |comm, ctx| {
                let data = ins[comm.rank()].clone();
                async move {
                    comm.allreduce_with(&ctx, data, ReduceOp::WrapAdd8, Some(algo))
                        .await
                }
            });
            for (r, buf) in got.iter().enumerate() {
                assert_eq!(
                    buf, &expected_sum,
                    "allreduce {algo:?} trial {trial} ranks {ranks} len {len} rank {r}"
                );
            }

            // Bcast: the root's payload must reach every rank.
            let rootbuf = inputs[root].clone();
            let got = run_world(cfg(ranks), None, move |comm, ctx| {
                let data = if comm.rank() == root {
                    rootbuf.clone()
                } else {
                    Vec::new()
                };
                async move { comm.bcast_with(&ctx, root, data, Some(algo)).await }
            });
            for (r, buf) in got.iter().enumerate() {
                assert_eq!(
                    buf, &inputs[root],
                    "bcast {algo:?} trial {trial} ranks {ranks} len {len} root {root} rank {r}"
                );
            }
        }

        // Gather: tree vs flat (framed to one buffer for comparison).
        for algo in [AlgoKind::Flat, AlgoKind::Tree] {
            let ins = inputs.clone();
            let got = run_world(cfg(ranks), None, move |comm, ctx| {
                let data = ins[comm.rank()].clone();
                async move {
                    match comm.gather_with(&ctx, root, data, Some(algo)).await {
                        Some(bufs) => bufs.concat(),
                        None => Vec::new(),
                    }
                }
            });
            assert_eq!(
                got[root],
                inputs.concat(),
                "gather {algo:?} trial {trial} ranks {ranks} len {len} root {root}"
            );
            for (r, buf) in got.iter().enumerate() {
                assert!(r == root || buf.is_empty(), "non-root {r} got data");
            }
        }
    }
}

/// Barriers complete under every algorithm at several scales.
#[test]
fn barrier_completes_under_every_algorithm() {
    for ranks in [2, 3, 5, 8, 13] {
        for algo in ALL_ALGOS {
            let got = run_world(cfg(ranks), None, move |comm, ctx| async move {
                comm.barrier_with(&ctx, Some(algo)).await;
                vec![comm.rank() as u8]
            });
            assert_eq!(got.len(), ranks, "barrier {algo:?} at {ranks} ranks");
        }
    }
}

/// Collectives complete exactly-once over a lossy fabric (1% frame
/// loss): the reliability layer retransmits under the collective DAG
/// without the application noticing, and results stay byte-correct.
#[test]
fn collectives_survive_lossy_fabric() {
    let seed = fault_seed();
    let mut fabric = FabricParams::myri10g();
    fabric.fault = FaultPlan::loss(seed, 0.01);
    let config = ClusterConfig {
        nodes: 4,
        fabric,
        ..ClusterConfig::default()
    };
    let inputs: Vec<Vec<u8>> = (0..4).map(|r| payload(900 + r as u64, 48 << 10)).collect();
    let expected = wrap_sum(&inputs);
    let ins = inputs.clone();
    let got = run_world(config, Some(COLL_DEADLINE), move |comm, ctx| {
        let data = ins[comm.rank()].clone();
        let bline = ins[0].clone();
        async move {
            comm.barrier(&ctx).await;
            let sum = comm.allreduce(&ctx, data, ReduceOp::WrapAdd8).await;
            let bc = comm
                .bcast(&ctx, 0, if comm.rank() == 0 { bline } else { Vec::new() })
                .await;
            let mut out = sum;
            out.extend_from_slice(&bc);
            out
        }
    });
    let mut reference = expected;
    reference.extend_from_slice(&inputs[0]);
    for (r, buf) in got.iter().enumerate() {
        assert_eq!(buf, &reference, "seed {seed} rank {r}");
    }
}

/// The satellite regression: a binomial-tree bcast costs the root only
/// `ceil(log2 P)` sequential sends where the flat shape costs `P-1`.
/// Checked end-to-end through the engine's own counters at P = 8.
#[test]
fn tree_bcast_root_sends_log_p() {
    let p = 8usize;
    for (algo, expected_sends) in [(AlgoKind::Tree, 3u64), (AlgoKind::Flat, 7u64)] {
        let sends = Rc::new(RefCell::new(0u64));
        let sends2 = Rc::clone(&sends);
        run_world(cfg(p), None, move |comm, ctx| {
            let sends = Rc::clone(&sends2);
            async move {
                let data = if comm.rank() == 0 {
                    vec![7u8; 1 << 10]
                } else {
                    Vec::new()
                };
                comm.bcast_with(&ctx, 0, data, Some(algo)).await;
                if comm.rank() == 0 {
                    *sends.borrow_mut() = comm.coll_counters().sends;
                }
                Vec::new()
            }
        });
        assert_eq!(
            *sends.borrow(),
            expected_sends,
            "{algo:?} root sends at P={p}"
        );
    }
}

/// The ring exists for bandwidth: at 8 ranks × 1 MiB it must deliver at
/// least twice the flat algorithm's allreduce throughput.
#[test]
fn ring_allreduce_doubles_flat_throughput() {
    let flat = run_coll(CollOp::Allreduce, Some(AlgoKind::Flat), 8, 1 << 20, 2, 1);
    let ring = run_coll(CollOp::Allreduce, Some(AlgoKind::Ring), 8, 1 << 20, 2, 1);
    assert!(
        ring * 2.0 <= flat,
        "ring {ring:.1}µs vs flat {flat:.1}µs — less than 2× speedup"
    );
}

/// The auto-selector must never lose to the flat reference at any
/// benched (size, ranks) point, for allreduce and bcast alike.
#[test]
fn auto_selection_never_slower_than_flat() {
    for op in [CollOp::Allreduce, CollOp::Bcast] {
        for ranks in [2usize, 4, 8] {
            for bytes in [256, 1 << 10, 32 << 10, 1 << 20] {
                let flat = run_coll(op, Some(AlgoKind::Flat), ranks, bytes, 2, 1);
                let auto = run_coll(op, None, ranks, bytes, 2, 1);
                assert!(
                    auto <= flat * 1.001,
                    "{op:?} auto {auto:.2}µs > flat {flat:.2}µs at {ranks} ranks × {bytes} B"
                );
            }
        }
    }
}

/// Nonblocking collectives progress while the application computes: the
/// overlap counter accounts (virtually all of) the compute window.
#[test]
fn icoll_overlap_is_accounted() {
    let overlaps = Rc::new(RefCell::new(Vec::new()));
    let overlaps2 = Rc::clone(&overlaps);
    run_world(cfg(4), None, move |comm, ctx| {
        let overlaps = Rc::clone(&overlaps2);
        async move {
            let h = comm.iallreduce(&ctx, vec![comm.rank() as u8; 256 << 10], ReduceOp::WrapAdd8);
            ctx.compute(pm2_sim::SimDuration::from_micros(150)).await;
            let out = h.wait(&ctx).await;
            overlaps.borrow_mut().push(comm.coll_counters().overlap_ns);
            out
        }
    });
    for (r, ns) in overlaps.borrow().iter().enumerate() {
        assert!(
            *ns >= 100_000,
            "rank {r} overlapped only {ns} ns of a 150µs compute window"
        );
    }
}
