//! Dropping a cluster frees it: no reference cycle keeps the simulation,
//! its tasks or its buffers alive once the last handle is gone.
//!
//! A counting global allocator (per thread, so the harness's other
//! threads do not disturb it) marks the live heap bytes before
//! `Cluster::build`; after the fig. 4 loop has run to quiescence and the
//! cluster is dropped, the count must be back at that mark exactly. A
//! blocked PIOMAN watcher that held the sim strongly, or one leaked task
//! per re-arm, would leave the whole simulation behind.
//!
//! The same allocator keeps a peak cell for a heap census: a rank must
//! cost the same bytes whether the cluster has 1 024 or 8 192 of them,
//! and a ring run must not hold on to what its phases used.

use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_newmad::{EngineKind, Tag};
use pm2_sim::rng::Xoshiro256;
use pm2_sim::{SimDuration, SimTime};
use pm2_topo::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with a live-bytes counter in front.
struct Counting;

// Const-initialised and without destructors, so touching it from inside
// the allocator can neither allocate nor fail.
thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.get().wrapping_add(bytes);
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get().wrapping_sub(bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never influences the
// pointers returned or the memory they cover.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`,
        // and `new_size` obeys the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Most heap bytes live at one moment while `f` ran, above the live
/// bytes when it started; `f`'s result is dropped before returning.
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    let mark = LIVE.get();
    PEAK.set(mark);
    drop(f());
    PEAK.get() - mark
}

/// The paper's fig. 4 program on 2 nodes × 8 cores: 4 thread pairs each
/// looping `isend → compute(20 µs) → swait → irecv → compute → swait`
/// over seeded sizes from 1 KiB eager to 128 KiB rendezvous, run to
/// quiescence. Returns the cluster, still alive.
fn fig4_loop(seed: u64) -> Cluster {
    const PAIRS: u64 = 4;
    const ITERS: u64 = 12;
    let cluster = Cluster::build(ClusterConfig {
        seed,
        ..ClusterConfig::paper_testbed(EngineKind::Pioman)
    });
    let sizes = [
        1usize << 10,
        8 << 10,
        24 << 10,
        128 << 10,
        4 << 10,
        16 << 10,
    ];
    for pair in 0..PAIRS {
        for node in 0..2usize {
            let s = cluster.session(node).clone();
            let peer = NodeId(1 - node);
            let mut rng = Xoshiro256::new(seed << 4 | pair);
            let lens: Vec<usize> = (0..ITERS)
                .map(|_| sizes[rng.gen_below(sizes.len() as u64) as usize])
                .collect();
            cluster.spawn_on(node, format!("p{pair}n{node}"), move |ctx| async move {
                for (i, len) in lens.into_iter().enumerate() {
                    for step in 0..2 {
                        if (step + node) % 2 == 0 {
                            let h = s.isend(&ctx, peer, Tag(pair), vec![i as u8; len]).await;
                            ctx.compute(SimDuration::from_micros(20)).await;
                            s.swait_send(&h, &ctx).await;
                        } else {
                            let r = s.irecv(&ctx, Some(peer), Tag(pair)).await;
                            ctx.compute(SimDuration::from_micros(20)).await;
                            assert_eq!(s.swait_recv(&r, &ctx).await.len(), len);
                        }
                    }
                }
            });
        }
    }
    cluster.run_deadline(SimTime::from_secs(60));
    cluster
}

#[test]
fn dropped_cluster_frees_every_byte() {
    // One unmeasured run first: lazily-initialised process state (the
    // harness's, std's) is then in place before any mark.
    drop(fig4_loop(0));
    let leaks: Vec<(u64, isize)> = (1..=8)
        .map(|seed| {
            let mark = LIVE.get();
            drop(fig4_loop(seed));
            (seed, LIVE.get().wrapping_sub(mark) as isize)
        })
        .filter(|&(_, bytes)| bytes != 0)
        .collect();
    assert!(
        leaks.is_empty(),
        "(seed, bytes) still live after drop: {leaks:?}"
    );
}

/// The simulation seed of the census runs (`ci.sh` runs 1, 7 and 42).
fn fault_seed() -> u64 {
    std::env::var("PM2_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The ring workload's cluster: `ranks` nodes of one socket × 2 cores
/// (one app thread plus one core for stolen progression), with the
/// fabric jitter that makes per-seed latencies differ.
fn ring_config(ranks: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_testbed(EngineKind::Pioman);
    cfg.seed = seed;
    cfg.nodes = ranks;
    cfg.sockets_per_node = 1;
    cfg.cores_per_socket = 2;
    cfg.fabric.jitter_frac = 0.25;
    cfg
}

#[test]
fn cluster_heap_is_linear_in_ranks() {
    // A per-pair table (one entry per source × destination) would cost a
    // rank 8 B per peer: 64 KiB at 8 192 ranks.
    let seed = fault_seed();
    drop(Cluster::build(ring_config(16, seed)));
    let per_rank = |ranks: usize| peak_of(|| Cluster::build(ring_config(ranks, seed))) / ranks;
    let (small, large) = (per_rank(1024), per_rank(8192));
    assert!(
        large * 10 <= small * 11,
        "{large} B/rank at 8 192 ranks vs {small} at 1 024: not linear in ranks"
    );
    assert!(large <= 5 << 10, "{large} B/rank at 8 192 ranks");
}

/// The ring workload at `ranks`: a barrier, `rounds` exchanges of 64 B
/// with both neighbours (send right, receive left, one tag per round),
/// a barrier; run to quiescence.
fn ring_run(ranks: usize, rounds: u64, seed: u64) -> Cluster {
    let cluster = Cluster::build(ring_config(ranks, seed));
    for (rank, comm) in Comm::world(&cluster).into_iter().enumerate() {
        cluster.spawn_on(rank, format!("rank{rank}"), move |ctx| async move {
            let s = comm.session().clone();
            let (right, left) = ((rank + 1) % ranks, (rank + ranks - 1) % ranks);
            comm.barrier(&ctx).await;
            for round in 0..rounds {
                let tag = Tag(1000 + round);
                let h = s
                    .isend(&ctx, NodeId(right), tag, vec![round as u8; 64])
                    .await;
                let r = s.irecv(&ctx, Some(NodeId(left)), tag).await;
                assert_eq!(s.swait_recv(&r, &ctx).await, vec![round as u8; 64]);
                s.swait_send(&h, &ctx).await;
            }
            comm.barrier(&ctx).await;
        });
    }
    cluster.run_deadline(SimTime::from_secs(60));
    assert_eq!(cluster.sim().live_tasks(), 0, "ring did not finish");
    cluster
}

#[test]
fn ring_peak_heap_per_rank_is_bounded() {
    // Buffers a finished phase grew (a barrier's burst of events, a round's
    // match queues, a plan's doubling slack) must not stay held: with
    // them the peak is ~50 KB per rank here. Neither may helpers of a
    // finished wait (a forwarder per request per blocked `wait_any`
    // turn) or a send counter per tag ever used: with those it is
    // ~28 KB, without ~20 KB. A delivery-order entry per `(src, tag)`
    // flow ever delivered and a cost-model copy per NIC, channel and
    // registry add another ~3.5 KB.
    const RANKS: usize = 256;
    let seed = fault_seed();
    drop(ring_run(16, 2, seed));
    let per_rank = peak_of(|| ring_run(RANKS, 60, seed)) / RANKS;
    assert!(per_rank <= 18 << 10, "ring peak {per_rank} B/rank");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "8 192 ranks: release builds only")]
fn ring_at_8192_ranks_stays_under_its_heap_ceiling() {
    // The flyweight-rank target: 16 384 simulated cores in the heap the
    // 1 024-rank ring needed before. With a delivery-order entry per
    // flow ever delivered and per-rank cost-model copies the peak is
    // ~21.7 KB per rank.
    const RANKS: usize = 8192;
    const CEILING: usize = 21_000;
    let seed = fault_seed();
    drop(ring_run(16, 2, seed));
    let per_rank = peak_of(|| ring_run(RANKS, 4, seed)) / RANKS;
    assert!(
        per_rank <= CEILING,
        "ring peak {per_rank} B/rank at {RANKS} ranks (ceiling {CEILING})"
    );
}
