//! Scale tests: the DES core and matching layer at hundreds of ranks.
//!
//! These pin the two scaling properties this repo's queue work bought:
//! the calendar event queue keeps 256-rank schedules tractable and
//! deterministic, and arena matching keeps an all-to-all's unexpected
//! backlog linear in probe work (the old flat-Vec scans were quadratic
//! here — see `NmCounters::match_probes`).

use pm2_fabric::FaultPlan;
use pm2_marcel::MarcelConfig;
use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::SimTime;
use pm2_topo::NodeId;
use std::cell::Cell;
use std::rc::Rc;

/// One-socket dual-core nodes (the benchmark's `ring_1024` shape): big
/// clusters without paying for 8 Marcel cores per rank.
fn scale_testbed(ranks: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_testbed(EngineKind::Pioman);
    cfg.nodes = ranks;
    cfg.sockets_per_node = 1;
    cfg.cores_per_socket = 2;
    cfg.fabric.fault = FaultPlan::default();
    cfg.marcel = MarcelConfig::default();
    cfg.seed = seed;
    cfg
}

/// Wedge guard: every workload here finishes in well under a virtual
/// second; five virtual minutes means livelock, not slowness.
const SCALE_DEADLINE: SimTime = SimTime::from_secs(300);

/// 256 ranks: dissemination barrier, then an eager all-to-all storm
/// (every rank sends one 32-byte message to every other rank *before*
/// posting any receive, so arrivals pile into the unexpected pool), then
/// a closing barrier. Checks the PR-4 conservation invariants and that
/// total matching work stayed linear in the message count.
#[test]
fn eager_all_to_all_storm_at_256_ranks_balances() {
    const RANKS: usize = 256;
    let cluster = Cluster::build(scale_testbed(RANKS, 42));
    let world = Comm::world(&cluster);
    let done = Rc::new(Cell::new(0u32));
    for (rank, comm) in world.into_iter().enumerate() {
        let s = cluster.session(rank).clone();
        let done = Rc::clone(&done);
        cluster.spawn_on(rank, format!("rank{rank}"), move |ctx| async move {
            comm.barrier(&ctx).await;
            // Storm: all sends first (tag = sender rank), then receives.
            let mut handles = Vec::with_capacity(RANKS - 1);
            for off in 1..RANKS {
                let dest = (rank + off) % RANKS;
                let h = s
                    .isend(&ctx, NodeId(dest), Tag(rank as u64), vec![off as u8; 32])
                    .await;
                handles.push(h);
            }
            for off in 1..RANKS {
                let src = (rank + RANKS - off) % RANKS;
                let data = s.recv(&ctx, Some(NodeId(src)), Tag(src as u64)).await;
                assert_eq!(data.len(), 32);
                assert_eq!(data[0] as usize, off);
            }
            for h in &handles {
                s.swait_send(h, &ctx).await;
            }
            comm.barrier(&ctx).await;
            done.set(done.get() + 1);
        });
    }
    cluster
        .sim()
        .run_bounded(SCALE_DEADLINE)
        .expect("storm converges well before the deadline");
    assert_eq!(done.get(), RANKS as u32);

    // PR-4 invariants across the whole mesh: messages conserve per node,
    // frame fates balance fabric-wide.
    let (mut tx, mut rx_or_lost, mut dup) = (0u64, 0u64, 0u64);
    let (mut msgs, mut probes, mut unexpected) = (0u64, 0u64, 0u64);
    for node in 0..RANKS {
        let c = cluster.session(node).counters();
        assert_eq!(
            c.eager_msgs_tx + c.rdv_started,
            c.sends,
            "node {node}: message counters do not balance: {c:?}"
        );
        msgs += c.sends;
        probes += c.match_probes;
        unexpected += c.unexpected;
        let n = cluster.nic_counters(node, 0);
        tx += n.tx_frames;
        rx_or_lost += n.rx_frames + n.faults_dropped + n.faults_corrupted;
        dup += n.faults_duplicated;
    }
    assert_eq!(rx_or_lost, tx + dup, "frame fates do not balance");
    assert!(
        unexpected > 1000,
        "storm should flood the unexpected pool (got {unexpected} of {msgs})"
    );
    // Linearity guard: every message triggers O(1) lookups (arrival-side
    // posted probe, receive-side pool probe) of O(1) amortized records
    // each. The pre-arena scans made this quadratic in the per-node
    // backlog (~255 here), which would blow far past this bound.
    assert!(
        probes < 16 * msgs,
        "matching probe work {probes} for {msgs} messages is not O(N)"
    );
}

/// Reverse-order drain of a deep unexpected backlog: one sender parks
/// 500 tagged messages, the receiver then claims them newest-first, so
/// every lookup's match sits at the *end* of the arrival order. The old
/// flat-Vec scan examined the whole backlog per recv (~N²/2 ≈ 125 000
/// entries here); the arena pool's (source, tag) index answers each in
/// O(1), which the probe counter pins.
#[test]
fn reverse_drain_of_unexpected_backlog_stays_linear() {
    const N: u64 = 500;
    let cluster = Cluster::build(scale_testbed(2, 42));
    let world = Comm::world(&cluster);
    let done = Rc::new(Cell::new(0u32));
    for (rank, comm) in world.into_iter().enumerate() {
        let s = cluster.session(rank).clone();
        let done = Rc::clone(&done);
        cluster.spawn_on(rank, format!("rank{rank}"), move |ctx| async move {
            comm.barrier(&ctx).await;
            if rank == 0 {
                let mut handles = Vec::new();
                for k in 0..N {
                    handles.push(s.isend(&ctx, NodeId(1), Tag(k), vec![k as u8; 8]).await);
                }
                for h in &handles {
                    s.swait_send(h, &ctx).await;
                }
            } else {
                // Let the whole storm land unexpected before draining.
                ctx.sleep(pm2_sim::SimDuration::from_millis(50)).await;
                for k in (0..N).rev() {
                    let data = s.recv(&ctx, Some(NodeId(0)), Tag(k)).await;
                    assert_eq!(data[0], k as u8);
                }
            }
            comm.barrier(&ctx).await;
            done.set(done.get() + 1);
        });
    }
    cluster
        .sim()
        .run_bounded(SCALE_DEADLINE)
        .expect("drain converges well before the deadline");
    assert_eq!(done.get(), 2);
    let recv_side = cluster.session(1).counters();
    assert!(
        recv_side.unexpected >= N,
        "backlog never parked: {} unexpected",
        recv_side.unexpected
    );
    let probes: u64 = (0..2)
        .map(|n| cluster.session(n).counters().match_probes)
        .sum();
    let msgs: u64 = (0..2).map(|n| cluster.session(n).counters().sends).sum();
    assert!(
        probes < 16 * msgs,
        "reverse drain did {probes} probe work for {msgs} messages — \
         the unexpected lookup is scanning the backlog again"
    );
}

/// 256 ranks: the barrier + neighbour-ring schedule is bit-for-bit
/// deterministic — two clusters with the same seed reach the same end
/// time after the same number of events.
#[test]
fn barrier_ring_at_256_ranks_is_deterministic() {
    fn run_once(seed: u64) -> (u64, u64) {
        const RANKS: usize = 256;
        let cluster = Cluster::build(scale_testbed(RANKS, seed));
        let world = Comm::world(&cluster);
        for (rank, comm) in world.into_iter().enumerate() {
            cluster.spawn_on(rank, format!("rank{rank}"), move |ctx| async move {
                let n = comm.size();
                comm.barrier(&ctx).await;
                let right = (rank + 1) % n;
                let left = (rank + n - 1) % n;
                for it in 0..2u64 {
                    let tag = Tag(1000 + it);
                    let h = comm.isend(&ctx, right, tag, vec![it as u8; 64]).await;
                    let got = comm.recv(&ctx, Some(left), tag).await;
                    assert_eq!(got.len(), 64);
                    comm.wait_send(&h, &ctx).await;
                }
                comm.barrier(&ctx).await;
            });
        }
        let end = cluster
            .sim()
            .run_bounded(SCALE_DEADLINE)
            .expect("ring converges well before the deadline");
        (end.as_nanos(), cluster.sim().executed_events())
    }
    let (end_a, events_a) = run_once(7);
    let (end_b, events_b) = run_once(7);
    assert_eq!(end_a, end_b, "same seed must reach the same end time");
    assert_eq!(events_a, events_b, "same seed must execute the same work");
    assert!(end_a > 0 && events_a > 0);
}
