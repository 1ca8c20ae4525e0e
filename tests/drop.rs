//! Dropping a cluster frees it: no reference cycle keeps the simulation,
//! its tasks or its buffers alive once the last handle is gone.
//!
//! A counting global allocator (per thread, so the harness's other
//! threads do not disturb it) marks the live heap bytes before
//! `Cluster::build`; after the fig. 4 loop has run to quiescence and the
//! cluster is dropped, the count must be back at that mark exactly. A
//! blocked PIOMAN watcher that held the sim strongly, or one leaked task
//! per re-arm, would leave the whole simulation behind.

use pm2_mpi::{Cluster, ClusterConfig};
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
}

fn grew(bytes: usize) {
    LIVE.set(LIVE.get().wrapping_add(bytes));
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
