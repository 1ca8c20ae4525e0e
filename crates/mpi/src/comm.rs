//! Rank-oriented communication: the mini-MPI facade.
//!
//! Point-to-point calls go straight to the session; collectives delegate
//! to the [`pm2_coll`] engine, which plans each one as a DAG of
//! point-to-point steps (binomial tree, ring, recursive doubling or the
//! flat reference shape — auto-selected by payload size and rank count,
//! see [`CollTuning`](pm2_coll::CollTuning)) and drives it through
//! PIOMAN progression. Every blocking collective has a nonblocking `i*`
//! twin returning a handle, so communication overlaps application
//! compute.

use crate::cluster::Cluster;
use pm2_coll::{AlgoKind, CollCounters, CollEngine, CollHandle, CollKind, ReduceOp};
use pm2_marcel::ThreadCtx;
use pm2_newmad::{RecvHandle, SendHandle, Session, Tag};
use pm2_topo::NodeId;

pub use pm2_coll::RESERVED_TAG_BASE;

/// A per-rank communicator (one MPI process per node).
///
/// Clone one `Comm` per rank from [`Comm::world`]; collectives must be
/// called by exactly one thread per rank, in the same order on every rank
/// (the usual MPI contract — the collective tag generations rely on it).
///
/// Reduction-style collectives additionally require the payload length to
/// be identical on every rank (the auto-selector and the ring
/// segmentation key on it). [`Comm::gather`] tolerates ragged lengths,
/// but then contributions must stay in the same selection size class —
/// or force one algorithm via
/// [`CollTuning::force`](pm2_coll::CollTuning::force).
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    ranks: usize,
    session: Session,
    engine: CollEngine,
}

impl Comm {
    /// Builds one communicator per rank of `cluster`.
    pub fn world(cluster: &Cluster) -> Vec<Comm> {
        (0..cluster.ranks())
            .map(|rank| Comm {
                rank,
                ranks: cluster.ranks(),
                session: cluster.session(rank).clone(),
                engine: CollEngine::new(
                    cluster.session(rank).clone(),
                    rank,
                    cluster.ranks(),
                    std::rc::Rc::clone(&cluster.coll),
                ),
            })
            .collect()
    }

    /// This communicator's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.ranks
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Snapshot of this rank's collective counters (steps, chunks, bytes,
    /// overlap time).
    pub fn coll_counters(&self) -> CollCounters {
        self.engine.counters()
    }

    /// Registers this rank's collective counters with a pm2-obs
    /// [`MetricsRegistry`](pm2_sim::MetricsRegistry) as group
    /// `coll.rank<r>`, completing the unified snapshot started by
    /// [`Cluster::register_metrics`].
    pub fn register_metrics(&self, reg: &pm2_sim::MetricsRegistry) {
        let engine = self.engine.clone();
        reg.register(format!("coll.rank{}", self.rank), move || {
            let c = engine.counters();
            vec![
                ("collectives".into(), c.collectives as f64),
                ("nonblocking".into(), c.nonblocking as f64),
                ("steps".into(), c.steps as f64),
                ("sends".into(), c.sends as f64),
                ("recvs".into(), c.recvs as f64),
                ("chunks".into(), c.chunks as f64),
                ("bytes_sent".into(), c.bytes_sent as f64),
                ("bytes_recv".into(), c.bytes_recv as f64),
                ("overlap_ns".into(), c.overlap_ns as f64),
            ]
        });
    }

    /// Non-blocking send to `dest` rank.
    ///
    /// # Panics
    /// Panics if `tag` intrudes into the reserved collective space.
    pub async fn isend(&self, ctx: &ThreadCtx, dest: usize, tag: Tag, data: Vec<u8>) -> SendHandle {
        pm2_coll::tags::assert_app_tag(tag);
        self.session.isend(ctx, NodeId(dest), tag, data).await
    }

    /// Non-blocking receive from `src` rank (`None`: any source).
    pub async fn irecv(&self, ctx: &ThreadCtx, src: Option<usize>, tag: Tag) -> RecvHandle {
        pm2_coll::tags::assert_app_tag(tag);
        self.session.irecv(ctx, src.map(NodeId), tag).await
    }

    /// Blocking receive.
    pub async fn recv(&self, ctx: &ThreadCtx, src: Option<usize>, tag: Tag) -> Vec<u8> {
        let h = self.irecv(ctx, src, tag).await;
        self.session.swait_recv(&h, ctx).await
    }

    /// Waits on a send handle.
    pub async fn wait_send(&self, h: &SendHandle, ctx: &ThreadCtx) {
        self.session.swait_send(h, ctx).await;
    }

    /// Waits on a receive handle and returns the payload.
    pub async fn wait_recv(&self, h: &RecvHandle, ctx: &ThreadCtx) -> Vec<u8> {
        self.session.swait_recv(h, ctx).await
    }

    // ------------------------------------------------------ collectives --

    /// Barrier (auto-selected algorithm; dissemination by default).
    pub async fn barrier(&self, ctx: &ThreadCtx) {
        self.barrier_with(ctx, None).await;
    }

    /// Barrier through a forced algorithm (`None`: auto-select).
    pub async fn barrier_with(&self, ctx: &ThreadCtx, algo: Option<AlgoKind>) {
        self.engine
            .coll(ctx, CollKind::Barrier, 0, Vec::new(), algo)
            .await;
    }

    /// Nonblocking barrier.
    pub fn ibarrier(&self, ctx: &ThreadCtx) -> IBarrier {
        IBarrier(
            self.engine
                .icoll(ctx, CollKind::Barrier, 0, Vec::new(), None),
        )
    }

    /// Broadcast from `root`: the root's `data` reaches every rank
    /// (binomial tree by default; non-roots may pass an empty buffer).
    pub async fn bcast(&self, ctx: &ThreadCtx, root: usize, data: Vec<u8>) -> Vec<u8> {
        self.bcast_with(ctx, root, data, None).await
    }

    /// Broadcast through a forced algorithm (`None`: auto-select).
    pub async fn bcast_with(
        &self,
        ctx: &ThreadCtx,
        root: usize,
        data: Vec<u8>,
        algo: Option<AlgoKind>,
    ) -> Vec<u8> {
        let len = data.len();
        let mut bufs = self
            .engine
            .coll(ctx, CollKind::Bcast { root }, len, vec![data], algo)
            .await;
        bufs.swap_remove(0)
    }

    /// Nonblocking broadcast from `root`.
    pub fn ibcast(&self, ctx: &ThreadCtx, root: usize, data: Vec<u8>) -> IBcast {
        let len = data.len();
        IBcast(
            self.engine
                .icoll(ctx, CollKind::Bcast { root }, len, vec![data], None),
        )
    }

    /// Reduce to `root` under `op`: returns `Some(result)` on the root,
    /// `None` elsewhere. `data` must be the same length on every rank.
    pub async fn reduce(
        &self,
        ctx: &ThreadCtx,
        root: usize,
        data: Vec<u8>,
        op: ReduceOp,
    ) -> Option<Vec<u8>> {
        let len = data.len();
        let mut bufs = self
            .engine
            .coll(ctx, CollKind::Reduce { root, op }, len, vec![data], None)
            .await;
        (self.rank == root).then(|| bufs.swap_remove(0))
    }

    /// Allreduce under `op`: every rank ends with the element-wise
    /// reduction of all contributions. `data` must be the same length on
    /// every rank. Small payloads go through recursive doubling, large
    /// ones through the chunk-pipelined ring.
    pub async fn allreduce(&self, ctx: &ThreadCtx, data: Vec<u8>, op: ReduceOp) -> Vec<u8> {
        self.allreduce_with(ctx, data, op, None).await
    }

    /// Allreduce through a forced algorithm (`None`: auto-select).
    pub async fn allreduce_with(
        &self,
        ctx: &ThreadCtx,
        data: Vec<u8>,
        op: ReduceOp,
        algo: Option<AlgoKind>,
    ) -> Vec<u8> {
        let len = data.len();
        let mut bufs = self
            .engine
            .coll(ctx, CollKind::Allreduce { op }, len, vec![data], algo)
            .await;
        bufs.swap_remove(0)
    }

    /// Nonblocking allreduce under `op`.
    pub fn iallreduce(&self, ctx: &ThreadCtx, data: Vec<u8>, op: ReduceOp) -> IAllreduce {
        let len = data.len();
        IAllreduce(
            self.engine
                .icoll(ctx, CollKind::Allreduce { op }, len, vec![data], None),
        )
    }

    /// Sum-allreduce of a u64.
    pub async fn allreduce_sum(&self, ctx: &ThreadCtx, value: u64) -> u64 {
        let out = self
            .allreduce(ctx, value.to_le_bytes().to_vec(), ReduceOp::SumU64)
            .await;
        u64::from_le_bytes(out.try_into().expect("8-byte payload"))
    }

    /// Nonblocking sum-allreduce of a u64.
    pub fn iallreduce_sum(&self, ctx: &ThreadCtx, value: u64) -> IAllreduceSum {
        IAllreduceSum(self.iallreduce(ctx, value.to_le_bytes().to_vec(), ReduceOp::SumU64))
    }

    /// Gather to `root`: returns `Some(vec-of-per-rank-buffers)` on the
    /// root, `None` elsewhere.
    pub async fn gather(
        &self,
        ctx: &ThreadCtx,
        root: usize,
        data: Vec<u8>,
    ) -> Option<Vec<Vec<u8>>> {
        self.gather_with(ctx, root, data, None).await
    }

    /// Gather through a forced algorithm (`None`: auto-select).
    pub async fn gather_with(
        &self,
        ctx: &ThreadCtx,
        root: usize,
        data: Vec<u8>,
        algo: Option<AlgoKind>,
    ) -> Option<Vec<Vec<u8>>> {
        let len = data.len();
        let mut bufs = vec![Vec::new(); self.ranks];
        bufs[self.rank] = data;
        let out = self
            .engine
            .coll(ctx, CollKind::Gather { root }, len, bufs, algo)
            .await;
        (self.rank == root).then_some(out)
    }

    /// All-to-all personalized exchange: `data[r]` goes to rank `r`;
    /// returns the buffers received from each rank (own slot passed
    /// through).
    ///
    /// # Panics
    /// Panics if `data.len() != self.size()`.
    pub async fn alltoall(&self, ctx: &ThreadCtx, mut data: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.ranks, "alltoall needs one buffer per rank");
        let len = data.iter().map(Vec::len).max().unwrap_or(0);
        let own = std::mem::take(&mut data[self.rank]);
        data.extend(std::iter::repeat_with(Vec::new).take(self.ranks));
        let mut bufs = self
            .engine
            .coll(ctx, CollKind::Alltoall, len, data, None)
            .await;
        let mut out = bufs.split_off(self.ranks);
        out[self.rank] = own;
        out
    }
}

/// Handle of a nonblocking [`Comm::ibarrier`].
pub struct IBarrier(CollHandle);

impl IBarrier {
    /// True once every rank has entered the barrier.
    pub fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    /// Waits for the barrier to complete.
    pub async fn wait(&self, ctx: &ThreadCtx) {
        self.0.wait(ctx).await;
    }
}

/// Handle of a nonblocking [`Comm::ibcast`].
pub struct IBcast(CollHandle);

impl IBcast {
    /// True once the broadcast payload has arrived.
    pub fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    /// Waits and returns the broadcast payload.
    pub async fn wait(&self, ctx: &ThreadCtx) -> Vec<u8> {
        self.0.wait(ctx).await.swap_remove(0)
    }
}

/// Handle of a nonblocking [`Comm::iallreduce`].
pub struct IAllreduce(CollHandle);

impl IAllreduce {
    /// True once the reduced buffer is ready.
    pub fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    /// Waits and returns the reduced buffer.
    pub async fn wait(&self, ctx: &ThreadCtx) -> Vec<u8> {
        self.0.wait(ctx).await.swap_remove(0)
    }
}

/// Handle of a nonblocking [`Comm::iallreduce_sum`].
pub struct IAllreduceSum(IAllreduce);

impl IAllreduceSum {
    /// True once the sum is ready.
    pub fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    /// Waits and returns the sum.
    pub async fn wait(&self, ctx: &ThreadCtx) -> u64 {
        let out = self.0.wait(ctx).await;
        u64::from_le_bytes(out.try_into().expect("8-byte payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn barrier_synchronizes_ranks() {
        let cluster = Cluster::build(ClusterConfig::default());
        let comms = Comm::world(&cluster);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (rank, comm) in comms.into_iter().enumerate() {
            let log = Rc::clone(&log);
            cluster.spawn_on(rank, format!("rank{rank}"), move |ctx| async move {
                // Rank 1 works 50µs before the barrier; both must leave
                // the barrier only after that.
                if comm.rank() == 1 {
                    ctx.compute(pm2_sim::SimDuration::from_micros(50)).await;
                }
                log.borrow_mut().push(format!("enter{}", comm.rank()));
                comm.barrier(&ctx).await;
                let t = ctx.marcel().sim().now().as_micros();
                assert!(t >= 50, "left barrier at {t}µs");
                log.borrow_mut().push(format!("exit{}", comm.rank()));
            });
        }
        cluster.run();
        assert_eq!(log.borrow().len(), 4);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let cluster = Cluster::build(ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        });
        let comms = Comm::world(&cluster);
        let results = Rc::new(RefCell::new(Vec::new()));
        for (rank, comm) in comms.into_iter().enumerate() {
            let results = Rc::clone(&results);
            cluster.spawn_on(rank, format!("rank{rank}"), move |ctx| async move {
                let total = comm
                    .allreduce_sum(&ctx, (comm.rank() as u64 + 1) * 10)
                    .await;
                results.borrow_mut().push(total);
            });
        }
        cluster.run();
        assert_eq!(*results.borrow(), vec![60, 60, 60]);
    }

    #[test]
    fn repeated_barriers_do_not_cross_talk() {
        let cluster = Cluster::build(ClusterConfig::default());
        let comms = Comm::world(&cluster);
        let counter = Rc::new(Cell::new(0u32));
        for (rank, comm) in comms.into_iter().enumerate() {
            let counter = Rc::clone(&counter);
            cluster.spawn_on(rank, format!("rank{rank}"), move |ctx| async move {
                for i in 0..5 {
                    if comm.rank() == 0 {
                        ctx.compute(pm2_sim::SimDuration::from_micros(i * 3 + 1))
                            .await;
                    }
                    comm.barrier(&ctx).await;
                    counter.set(counter.get() + 1);
                }
            });
        }
        cluster.run();
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn bcast_reaches_all_ranks_from_any_root() {
        for root in 0..3 {
            let cluster = Cluster::build(ClusterConfig {
                nodes: 3,
                ..ClusterConfig::default()
            });
            let comms = Comm::world(&cluster);
            let got = Rc::new(RefCell::new(vec![Vec::new(); 3]));
            for (rank, comm) in comms.into_iter().enumerate() {
                let got = Rc::clone(&got);
                cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
                    let data = if comm.rank() == root {
                        vec![root as u8; 1000]
                    } else {
                        Vec::new()
                    };
                    let out = comm.bcast(&ctx, root, data).await;
                    got.borrow_mut()[comm.rank()] = out;
                });
            }
            cluster.run();
            for r in 0..3 {
                assert_eq!(
                    got.borrow()[r],
                    vec![root as u8; 1000],
                    "root {root} rank {r}"
                );
            }
        }
    }

    #[test]
    fn gather_collects_per_rank_buffers() {
        let cluster = Cluster::build(ClusterConfig {
            nodes: 4,
            ..ClusterConfig::default()
        });
        let comms = Comm::world(&cluster);
        let result = Rc::new(RefCell::new(None));
        for (rank, comm) in comms.into_iter().enumerate() {
            let result = Rc::clone(&result);
            cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
                let out = comm
                    .gather(&ctx, 1, vec![comm.rank() as u8; 10 + comm.rank()])
                    .await;
                if comm.rank() == 1 {
                    *result.borrow_mut() = out;
                } else {
                    assert!(out.is_none());
                }
            });
        }
        cluster.run();
        let r = result.borrow();
        let bufs = r.as_ref().expect("root collected");
        for (rank, buf) in bufs.iter().enumerate() {
            assert_eq!(buf, &vec![rank as u8; 10 + rank]);
        }
    }

    #[test]
    fn alltoall_exchanges_everything() {
        let cluster = Cluster::build(ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        });
        let comms = Comm::world(&cluster);
        let got = Rc::new(RefCell::new(vec![Vec::new(); 3]));
        for (rank, comm) in comms.into_iter().enumerate() {
            let got = Rc::clone(&got);
            cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
                let me = comm.rank();
                let outbound: Vec<Vec<u8>> = (0..comm.size())
                    .map(|to| vec![(me * 10 + to) as u8; 64])
                    .collect();
                let inbound = comm.alltoall(&ctx, outbound).await;
                got.borrow_mut()[me] = inbound
                    .iter()
                    .map(|b| b.first().copied().unwrap_or(255))
                    .collect();
            });
        }
        cluster.run();
        for me in 0..3 {
            let expected: Vec<u8> = (0..3).map(|from| (from * 10 + me) as u8).collect();
            assert_eq!(got.borrow()[me], expected, "rank {me}");
        }
    }

    #[test]
    fn reduce_delivers_only_at_root() {
        let cluster = Cluster::build(ClusterConfig {
            nodes: 4,
            ..ClusterConfig::default()
        });
        let comms = Comm::world(&cluster);
        let result = Rc::new(RefCell::new(None));
        for (rank, comm) in comms.into_iter().enumerate() {
            let result = Rc::clone(&result);
            cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
                let mine = (comm.rank() as u64 + 1).to_le_bytes().to_vec();
                let out = comm.reduce(&ctx, 2, mine, ReduceOp::SumU64).await;
                if comm.rank() == 2 {
                    *result.borrow_mut() = out;
                } else {
                    assert!(out.is_none());
                }
            });
        }
        cluster.run();
        let r = result.borrow();
        let total = u64::from_le_bytes(r.as_ref().expect("root").clone().try_into().unwrap());
        assert_eq!(total, 1 + 2 + 3 + 4);
    }

    #[test]
    fn nonblocking_allreduce_overlaps_compute() {
        let cluster = Cluster::build(ClusterConfig {
            nodes: 2,
            ..ClusterConfig::default()
        });
        let comms = Comm::world(&cluster);
        let results = Rc::new(RefCell::new(Vec::new()));
        for (rank, comm) in comms.into_iter().enumerate() {
            let results = Rc::clone(&results);
            cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
                let h = comm.iallreduce_sum(&ctx, comm.rank() as u64 + 1);
                // Compute while the collective progresses in background.
                ctx.compute(pm2_sim::SimDuration::from_micros(200)).await;
                let total = h.wait(&ctx).await;
                results.borrow_mut().push(total);
            });
        }
        cluster.run();
        assert_eq!(*results.borrow(), vec![3, 3]);
        // The post-to-wait window must have been accounted as overlap.
    }

    #[test]
    fn coll_counters_accumulate() {
        let cluster = Cluster::build(ClusterConfig {
            nodes: 4,
            ..ClusterConfig::default()
        });
        let comms = Comm::world(&cluster);
        let comm0 = comms[0].clone();
        for (rank, comm) in comms.into_iter().enumerate() {
            cluster.spawn_on(rank, format!("r{rank}"), move |ctx| async move {
                comm.barrier(&ctx).await;
                comm.allreduce_sum(&ctx, 1).await;
            });
        }
        cluster.run();
        let c = comm0.coll_counters();
        assert_eq!(c.collectives, 2);
        assert!(c.sends > 0 && c.recvs > 0 && c.steps == c.sends + c.recvs);
        assert!(c.bytes_sent > 0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        let cluster = Cluster::build(ClusterConfig::default());
        let comms = Comm::world(&cluster);
        let comm = comms[0].clone();
        cluster.spawn_on(0, "bad", move |ctx| async move {
            let _ = comm.isend(&ctx, 1, Tag(RESERVED_TAG_BASE), vec![]).await;
        });
        cluster.run();
    }
}
