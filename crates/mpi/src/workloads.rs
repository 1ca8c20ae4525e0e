//! The paper's benchmark programs, reusable by examples and benches.

use crate::cluster::{Cluster, ClusterConfig};
use pm2_newmad::{NmCounters, Tag};
use pm2_sim::stats::OnlineStats;
use pm2_sim::{SimDuration, SimTime};
use pm2_topo::NodeId;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// CI guard for every workload driver: no benchmark program here should
/// need anywhere near a minute of virtual time (the 16 MB rendezvous
/// takes ~15 ms), so a run still busy at this horizon is a wedged
/// protocol and fails loudly instead of spinning the host CPU forever.
const WORKLOAD_DEADLINE: SimTime = SimTime::from_secs(60);

/// Parameters of the Figure 4 overlap microbenchmark.
#[derive(Debug, Clone)]
pub struct OverlapParams {
    /// Message payload in bytes.
    pub msg_len: usize,
    /// Computation inserted between `isend`/`irecv` and `swait`.
    pub compute: SimDuration,
    /// Measured iterations.
    pub iters: usize,
    /// Discarded warm-up iterations.
    pub warmup: usize,
}

impl Default for OverlapParams {
    fn default() -> Self {
        OverlapParams {
            msg_len: 8 << 10,
            compute: SimDuration::from_micros(20),
            iters: 20,
            warmup: 3,
        }
    }
}

/// Result of the overlap benchmark: per-direction "sending time".
#[derive(Debug, Clone)]
pub struct OverlapResult {
    /// Statistics of the half-round time in µs (the paper's y-axis).
    pub half_round_us: OnlineStats,
    /// Sender-node session counters at the end.
    pub counters: NmCounters,
    /// Productive progress steps per driver shard on the sender node, in
    /// registration order (one entry per rail, then shared memory).
    pub driver_progress: Vec<u64>,
}

/// Runs the Figure 4 program on a fresh cluster built from `cfg`.
///
/// ```text
/// get_time(t1);  nm_isend(len);  compute();  nm_swait();  get_time(t2);
/// ```
///
/// Both sides run the loop symmetrically (node 0 sends first, then the
/// direction reverses), so a full round contains one sender-side pattern
/// and one receiver-side pattern per node; the reported value is the
/// half-round, "which roughly corresponds to half the latency" (§4.1)
/// plus whatever part of the computation was not overlapped.
pub fn run_overlap(cfg: ClusterConfig, p: &OverlapParams) -> OverlapResult {
    assert!(cfg.nodes >= 2, "overlap benchmark needs two nodes");
    let cluster = Cluster::build(cfg);
    let stats = Rc::new(RefCell::new(OnlineStats::new()));
    let total = p.iters + p.warmup;
    let (len, compute, warmup) = (p.msg_len, p.compute, p.warmup);

    {
        let s = cluster.session(0).clone();
        let stats = Rc::clone(&stats);
        cluster.spawn_on(0, "overlap-0", move |ctx| async move {
            for i in 0..total {
                let t1 = ctx.marcel().sim().now();
                // Outbound direction: we are the sender.
                let h = s
                    .isend(&ctx, NodeId(1), Tag(2 * i as u64), vec![0xa5; len])
                    .await;
                ctx.compute(compute).await;
                s.swait_send(&h, &ctx).await;
                // Return direction: we are the receiver.
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
    cluster.run_deadline(WORKLOAD_DEADLINE);
    OverlapResult {
        half_round_us: Rc::try_unwrap(stats).expect("sole owner").into_inner(),
        counters: cluster.session(0).counters(),
        driver_progress: cluster.session(0).driver_progress(),
    }
}

/// Result of the ping-pong benchmark at one message size.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Half-round-trip latency statistics (µs).
    pub latency_us: OnlineStats,
    /// Effective bandwidth in MB/s derived from the mean latency.
    pub bandwidth_mbs: f64,
    /// Productive progress steps per driver shard on rank 0, in
    /// registration order (one entry per rail, then shared memory).
    pub driver_progress: Vec<u64>,
}

/// Classic ping-pong: rank 0 sends, rank 1 echoes, half the round trip is
/// the latency. No computation — this produces the NetPIPE-style
/// latency/bandwidth curve used as the "no computation (reference)"
/// series and by the `bandwidth` row of `pm2-bench`'s claims table.
pub fn run_pingpong(cfg: ClusterConfig, msg_len: usize, iters: usize) -> PingPongResult {
    assert!(cfg.nodes >= 2, "ping-pong needs two nodes");
    let cluster = Cluster::build(cfg);
    let stats = Rc::new(RefCell::new(OnlineStats::new()));
    let warmup = 2usize;
    {
        let s = cluster.session(0).clone();
        let stats = Rc::clone(&stats);
        cluster.spawn_on(0, "ping", move |ctx| async move {
            for i in 0..iters + warmup {
                let t1 = ctx.marcel().sim().now();
                let h = s
                    .isend(&ctx, NodeId(1), Tag(2 * i as u64), vec![0xaa; msg_len])
                    .await;
                s.swait_send(&h, &ctx).await;
                let _ = s.recv(&ctx, Some(NodeId(1)), Tag(2 * i as u64 + 1)).await;
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
        cluster.spawn_on(1, "pong", move |ctx| async move {
            for i in 0..iters + warmup {
                let data = s.recv(&ctx, Some(NodeId(0)), Tag(2 * i as u64)).await;
                let h = s.isend(&ctx, NodeId(0), Tag(2 * i as u64 + 1), data).await;
                s.swait_send(&h, &ctx).await;
            }
        });
    }
    cluster.run_deadline(WORKLOAD_DEADLINE);
    let driver_progress = cluster.session(0).driver_progress();
    let latency_us = Rc::try_unwrap(stats).expect("sole owner").into_inner();
    let mean = latency_us.mean();
    let bandwidth_mbs = if mean > 0.0 {
        msg_len as f64 / mean // B/µs == MB/s
    } else {
        0.0
    };
    PingPongResult {
        latency_us,
        bandwidth_mbs,
        driver_progress,
    }
}

/// Parameters of the Figure 7/8 convolution-style meta-application.
#[derive(Debug, Clone)]
pub struct StencilParams {
    /// Thread-grid columns (split across the nodes, Figure 8).
    pub grid_cols: usize,
    /// Thread-grid rows.
    pub grid_rows: usize,
    /// Halo message payload per neighbour, in bytes (below the rendezvous
    /// threshold in the paper's Table 1 runs).
    pub halo_bytes: usize,
    /// Time to compute a domain frontier (before the sends).
    pub frontier_compute: SimDuration,
    /// Time to compute the domain interior (overlap window).
    pub interior_compute: SimDuration,
    /// Iterations of the convolution loop.
    pub iters: usize,
}

impl StencilParams {
    /// The paper's 4-thread configuration (2×2 grid over 2 nodes),
    /// calibrated so the sequential engine lands near Table 1's 441 µs.
    pub fn four_threads() -> Self {
        StencilParams {
            grid_cols: 2,
            grid_rows: 2,
            halo_bytes: 28 << 10,
            frontier_compute: SimDuration::from_micros(40),
            interior_compute: SimDuration::from_micros(150),
            iters: 2,
        }
    }

    /// The paper's 16-thread configuration (4×4 grid, Figure 8). The
    /// matrix is 4× bigger; with the halo capped by the eager threshold,
    /// the extra data volume is modelled as one more exchange round.
    pub fn sixteen_threads() -> Self {
        StencilParams {
            grid_cols: 4,
            grid_rows: 4,
            halo_bytes: 28 << 10,
            frontier_compute: SimDuration::from_micros(40),
            interior_compute: SimDuration::from_micros(150),
            iters: 3,
        }
    }

    /// Total threads.
    pub fn threads(&self) -> usize {
        self.grid_cols * self.grid_rows
    }
}

/// Result of the meta-application run.
#[derive(Debug, Clone)]
pub struct StencilResult {
    /// Wall time (µs) from start until the last thread finished.
    pub total_us: f64,
    /// Aggregated session counters over all nodes.
    pub counters: Vec<NmCounters>,
}

/// Runs the convolution meta-application (Figure 7 per-thread program,
/// Figure 8 thread layout) on a fresh cluster built from `cfg`.
///
/// Threads are laid out row-major on a `grid_rows × grid_cols` grid; the
/// grid columns are split evenly across the nodes, so vertical neighbours
/// communicate intra-node (shared memory) and horizontal neighbours across
/// the split communicate inter-node (NIC) — both kinds exist, as in §4.3.
pub fn run_stencil(cfg: ClusterConfig, p: &StencilParams) -> StencilResult {
    let nodes = cfg.nodes;
    assert!(p.grid_cols % nodes == 0, "columns must split evenly");
    let cluster = Cluster::build(cfg);
    let end_max = Rc::new(Cell::new(0u64));
    let nthreads = p.threads() as u64;
    let node_of_col = move |c: usize| c * nodes / p.grid_cols;

    for row in 0..p.grid_rows {
        for col in 0..p.grid_cols {
            let me = (row * p.grid_cols + col) as u64;
            let node = node_of_col(col);
            let session = cluster.session(node).clone();
            let end_max = Rc::clone(&end_max);
            let p = p.clone();
            let mut neighbours = Vec::new();
            if row > 0 {
                neighbours.push(((row - 1) * p.grid_cols + col, node_of_col(col)));
            }
            if row + 1 < p.grid_rows {
                neighbours.push(((row + 1) * p.grid_cols + col, node_of_col(col)));
            }
            if col > 0 {
                neighbours.push((row * p.grid_cols + col - 1, node_of_col(col - 1)));
            }
            if col + 1 < p.grid_cols {
                neighbours.push((row * p.grid_cols + col + 1, node_of_col(col + 1)));
            }
            cluster.spawn_on(node, format!("stencil-{me}"), move |ctx| async move {
                let tag = |iter: usize, from: u64, to: u64| {
                    Tag((iter as u64 * nthreads + from) * nthreads + to)
                };
                for iter in 0..p.iters {
                    // Figure 7: compute1(); isend; compute2(); swait; recv.
                    ctx.compute(p.frontier_compute).await;
                    let mut sends = Vec::new();
                    for &(nb, nb_node) in &neighbours {
                        let h = session
                            .isend(
                                &ctx,
                                NodeId(nb_node),
                                tag(iter, me, nb as u64),
                                vec![me as u8; p.halo_bytes],
                            )
                            .await;
                        sends.push(h);
                    }
                    ctx.compute(p.interior_compute).await;
                    for h in &sends {
                        session.swait_send(h, &ctx).await;
                    }
                    for &(nb, _) in &neighbours {
                        let data = session.recv(&ctx, None, tag(iter, nb as u64, me)).await;
                        debug_assert_eq!(data.len(), p.halo_bytes);
                        debug_assert!(data.iter().all(|&b| b == nb as u8));
                    }
                }
                let t = ctx.marcel().sim().now().as_nanos();
                end_max.set(end_max.get().max(t));
            });
        }
    }
    cluster.run_deadline(WORKLOAD_DEADLINE);
    StencilResult {
        total_us: end_max.get() as f64 / 1_000.0,
        counters: (0..cluster.ranks())
            .map(|n| cluster.session(n).counters())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm2_newmad::EngineKind;

    #[test]
    fn overlap_pioman_hides_communication() {
        let p = OverlapParams {
            msg_len: 8 << 10,
            compute: SimDuration::from_micros(20),
            iters: 10,
            warmup: 2,
        };
        let pio = run_overlap(ClusterConfig::paper_testbed(EngineKind::Pioman), &p);
        let seq = run_overlap(ClusterConfig::paper_testbed(EngineKind::Sequential), &p);
        let pio_t = pio.half_round_us.mean();
        let seq_t = seq.half_round_us.mean();
        // 8 kB comm ≈ 11µs < 20µs compute: Pioman ≈ max ≈ 20-23µs,
        // sequential ≈ sum ≈ 30µs+.
        assert!(pio_t < 25.0, "pioman half-round {pio_t}µs");
        assert!(seq_t > pio_t + 4.0, "seq {seq_t} vs pioman {pio_t}");
    }

    #[test]
    fn overlap_reference_without_compute_is_comm_bound() {
        let p = OverlapParams {
            msg_len: 1 << 10,
            compute: SimDuration::ZERO,
            iters: 10,
            warmup: 2,
        };
        let r = run_overlap(ClusterConfig::paper_testbed(EngineKind::Pioman), &p);
        let t = r.half_round_us.mean();
        assert!(t > 2.0 && t < 12.0, "1K reference {t}µs");
    }

    #[test]
    fn pingpong_shards_progress_per_transport() {
        let cluster = Cluster::build(ClusterConfig::paper_testbed(EngineKind::Pioman));
        for node in 0..2 {
            let s = cluster.session(node).clone();
            let peer = NodeId(1 - node);
            cluster.spawn_on(node, "pp", move |ctx| async move {
                for i in 0..8u64 {
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
        let pioman = cluster.pioman(0).expect("pioman engine");
        // One driver per rail plus the shared-memory driver.
        assert_eq!(pioman.driver_count(), 2);
        // Pure inter-node traffic: all progress lands on the rail shard.
        let work = cluster.session(0).driver_progress();
        assert!(work[0] > 0, "rail shard idle: {work:?}");
        assert_eq!(work[1], 0, "shm shard should be idle: {work:?}");
        let c = cluster.session(0).counters();
        assert_eq!(c.net_progress, work[0]);
        assert_eq!(c.shm_progress, 0);
        // The submission burst valve never engages in a ping-pong.
        assert!(
            pioman.stats().max_submission_burst < 64,
            "burst {}",
            pioman.stats().max_submission_burst
        );
    }

    #[test]
    fn stencil_four_threads_offloading_beats_sequential() {
        let p = StencilParams::four_threads();
        let seq = run_stencil(ClusterConfig::paper_testbed(EngineKind::Sequential), &p);
        let pio = run_stencil(ClusterConfig::paper_testbed(EngineKind::Pioman), &p);
        assert!(
            pio.total_us < seq.total_us,
            "offloading {:.0}µs should beat no-offloading {:.0}µs",
            pio.total_us,
            seq.total_us
        );
        // Both intra-node and inter-node traffic happened.
        let c0 = &seq.counters[0];
        assert!(c0.shm_msgs > 0, "intra-node traffic expected");
        assert!(c0.eager_msgs_tx > 0, "inter-node traffic expected");
    }

    #[test]
    fn stencil_sixteen_threads_runs_and_overlaps() {
        let p = StencilParams {
            iters: 1,
            ..StencilParams::sixteen_threads()
        };
        let seq = run_stencil(ClusterConfig::paper_testbed(EngineKind::Sequential), &p);
        let pio = run_stencil(ClusterConfig::paper_testbed(EngineKind::Pioman), &p);
        assert!(pio.total_us < seq.total_us);
    }
}
