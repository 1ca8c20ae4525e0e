//! Collective-benchmark harness: times one (collective, algorithm,
//! ranks, payload) point on a fresh simulated cluster.
//!
//! All timing is virtual (simulator clock), so results are exact and
//! deterministic per seed: ranks synchronize with a barrier, rank 0
//! stamps the clock, every rank runs `iters` back-to-back collectives,
//! and the cost per operation is the stamped window divided by `iters`.

use pm2_coll::{AlgoKind, ReduceOp};
use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_sim::SimTime;
use std::cell::Cell;
use std::rc::Rc;

/// Which collective a [`run_coll`] point exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Allreduce under byte-wise wrapping addition.
    Allreduce,
    /// Broadcast from rank 0.
    Bcast,
}

/// Times `iters` back-to-back collectives (after `warmup` untimed ones)
/// and returns rank 0's virtual microseconds per collective. `algo`
/// forces one algorithm; `None` exercises the auto-selector.
pub fn run_coll(
    op: CollOp,
    algo: Option<AlgoKind>,
    ranks: usize,
    bytes: usize,
    iters: usize,
    warmup: usize,
) -> f64 {
    let cluster = Cluster::build(ClusterConfig {
        nodes: ranks,
        ..ClusterConfig::default()
    });
    let comms = Comm::world(&cluster);
    let t0 = Rc::new(Cell::new(SimTime::ZERO));
    let t1 = Rc::new(Cell::new(SimTime::ZERO));
    for (rank, comm) in comms.into_iter().enumerate() {
        let (t0, t1) = (Rc::clone(&t0), Rc::clone(&t1));
        cluster.spawn_on(rank, format!("coll{rank}"), move |ctx| async move {
            let one = |i: usize| {
                let comm = comm.clone();
                let ctx = ctx.clone();
                async move {
                    let data = vec![(comm.rank() + i) as u8; bytes];
                    match op {
                        CollOp::Allreduce => {
                            comm.allreduce_with(&ctx, data, ReduceOp::WrapAdd8, algo)
                                .await;
                        }
                        CollOp::Bcast => {
                            let payload = if comm.rank() == 0 { data } else { Vec::new() };
                            comm.bcast_with(&ctx, 0, payload, algo).await;
                        }
                    }
                }
            };
            for i in 0..warmup {
                one(i).await;
            }
            comm.barrier(&ctx).await;
            if comm.rank() == 0 {
                t0.set(ctx.marcel().sim().now());
            }
            for i in 0..iters {
                one(warmup + i).await;
            }
            if comm.rank() == 0 {
                t1.set(ctx.marcel().sim().now());
            }
            comm.barrier(&ctx).await;
        });
    }
    cluster.run();
    t1.get().saturating_since(t0.get()).as_micros_f64() / iters as f64
}
