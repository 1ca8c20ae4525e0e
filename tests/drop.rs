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
//! and a ring run must not hold on to what its phases used. It also
//! keeps the largest block allocated, which is how a spawned thread's
//! future is sized.

use pioman::PiomReq;
use pm2_mpi::{Cluster, ClusterConfig, Comm};
use pm2_newmad::{EngineKind, OffloadPolicy, RecvHandle, SendHandle, Tag};
use pm2_sim::rng::Xoshiro256;
use pm2_sim::{Sim, SimDuration, SimTime};
use pm2_topo::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::{size_of, size_of_val};
use std::rc::Rc;

/// The system allocator with a live-bytes counter in front.
struct Counting;

// Const-initialised and without destructors, so touching it from inside
// the allocator can neither allocate nor fail. Signed: a test thread that
// frees what another thread allocated (the harness hands it its closure)
// starts below zero, and an unsigned count would wrap there and hide
// every later peak above its mark.
thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// The largest single block allocated since [`largest_block_of`]
    /// last reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.get() + bytes as isize;
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get() - bytes as isize);
}

fn allocated(block: usize) {
    LARGEST.set(LARGEST.get().max(block));
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
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
            allocated(layout.size());
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
            allocated(new_size);
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
    (PEAK.get() - mark) as usize
}

/// The largest single heap block allocated while `f` ran, with `f`'s
/// result.
fn largest_block_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.set(0);
    let out = f();
    (LARGEST.get(), out)
}

/// The paper's fig. 4 program on 2 nodes × 8 cores: 4 thread pairs each
/// looping `isend → compute(20 µs) → swait → irecv → compute → swait`
/// over seeded sizes from 1 KiB eager to 128 KiB rendezvous, run to
/// quiescence. Returns the cluster, still alive.
fn fig4_loop(seed: u64) -> Cluster {
    let cluster = fig4_cluster(seed);
    cluster.run_deadline(SimTime::from_secs(60));
    cluster
}

/// The fig. 4 cluster with its threads spawned, not yet run.
fn fig4_cluster(seed: u64) -> Cluster {
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
            (seed, LIVE.get() - mark)
        })
        .filter(|&(_, bytes)| bytes != 0)
        .collect();
    assert!(
        leaks.is_empty(),
        "(seed, bytes) still live after drop: {leaks:?}"
    );
}

#[test]
fn run_stopped_midway_frees_every_byte() {
    // Threads blocked in a wait, a rendezvous half done, timers armed:
    // the unfinished work holds the simulation until the cluster's drop
    // discards it.
    drop(fig4_loop(0));
    let mut leaks = Vec::new();
    for seed in 1..=8 {
        for stop_us in [30, 100, 500] {
            let mark = LIVE.get();
            let cluster = fig4_cluster(seed);
            cluster.sim().run_until(SimTime::from_micros(stop_us));
            assert!(
                cluster.sim().live_tasks() > 0,
                "seed {seed}: finished by {stop_us} µs"
            );
            drop(cluster);
            let bytes = LIVE.get() - mark;
            if bytes != 0 {
                leaks.push((seed, stop_us, bytes));
            }
        }
    }
    assert!(
        leaks.is_empty(),
        "(seed, stop µs, bytes) still live after drop: {leaks:?}"
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
fn never_run_cluster_frees_every_byte() {
    // Building spawns tasks and arms timers that only a run would
    // finish; they hold the simulation until the drop.
    let seed = fault_seed();
    drop(Cluster::build(ring_config(16, seed)));
    let leaks: Vec<(usize, isize)> = [16, 256, 1024]
        .into_iter()
        .map(|ranks| {
            let mark = LIVE.get();
            drop(Cluster::build(ring_config(ranks, seed)));
            (ranks, LIVE.get() - mark)
        })
        .filter(|&(_, bytes)| bytes != 0)
        .collect();
    assert!(
        leaks.is_empty(),
        "(ranks, bytes) still live after drop: {leaks:?}"
    );
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
    // 3 548 B in release and 3 628 B in debug builds at seeds 1, 7, 42
    // and 20240927; a config copy per rank and four-slot slabs and
    // driver tables for one or two entries made it 4 060 B.
    assert!(large <= 3_700, "{large} B/rank at 8 192 ranks");
}

/// The ring workload at `ranks`: a barrier, `rounds` exchanges of 64 B
/// with both neighbours (send right, receive left, one tag per round),
/// a barrier; run to quiescence.
fn ring_run(ranks: usize, rounds: u64, seed: u64) -> Cluster {
    let cluster = Cluster::build(ring_config(ranks, seed));
    ring_rounds(&cluster, &Comm::world(&cluster), rounds);
    cluster
}

/// Spawns every rank's ring thread on `cluster` and runs it to
/// quiescence.
fn ring_rounds(cluster: &Cluster, comms: &[Comm], rounds: u64) {
    for comm in comms {
        spawn_ring_rank(cluster, comm.clone(), rounds);
    }
    cluster.run_deadline(SimTime::from_secs(60));
    assert_eq!(cluster.sim().live_tasks(), 0, "ring did not finish");
}

/// One rank's ring thread: barrier, `rounds` exchanges, barrier.
fn spawn_ring_rank(cluster: &Cluster, comm: Comm, rounds: u64) {
    let (rank, ranks) = (comm.rank(), comm.size());
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

#[test]
fn ring_peak_heap_per_rank_is_bounded() {
    // Buffers a finished phase grew (a barrier's burst of events, a round's
    // match queues, a plan's doubling slack) must not stay held: with
    // them the peak is ~50 KB per rank here. Neither may helpers of a
    // finished wait (a forwarder per request per blocked `wait_any`
    // turn) or a send counter per tag ever used: with those it is
    // ~28 KB, without ~20 KB. A delivery-order entry per `(src, tag)`
    // flow ever delivered and a cost-model copy per NIC, channel and
    // registry add another ~3.5 KB. An arena slot and a queue per
    // pending receive, `from` records of 88 B and 80-B plan steps with
    // a `Vec` of dependencies each add ~2.5 KB more (15.9 KB); without
    // them it was 13.3 KB. With a request, its trigger and its result
    // cell in one block and the first waiter inline it was 11.67 KB in
    // release and 11.79 KB in debug builds at seeds 1, 7 and 42. With
    // small futures, 24-B plan steps, exact-fit single-entry slabs and
    // driver tables, and one config of each layer per cluster it is
    // 10.22 KB in release builds at seeds 1, 7, 42 and 20240927 and
    // 10.35 KB in debug builds.
    const RANKS: usize = 256;
    const CEILING: usize = 10_700;
    let seed = fault_seed();
    drop(ring_run(16, 2, seed));
    let per_rank = peak_of(|| ring_run(RANKS, 60, seed)) / RANKS;
    assert!(
        per_rank <= CEILING,
        "ring peak {per_rank} B/rank (ceiling {CEILING})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "8 192 ranks: release builds only")]
fn ring_at_8192_ranks_stays_under_its_heap_ceiling() {
    // The flyweight-rank target: 16 384 simulated cores in the heap the
    // 1 024-rank ring needed before. With a delivery-order entry per
    // flow ever delivered and per-rank cost-model copies the peak is
    // ~21.7 KB per rank; with an arena slot and a queue per pending
    // receive, 88-B `from` records and 80-B plan steps ~20.1 KB; with a
    // request in three blocks and a waiter list per blocked wait ~15.7 KB;
    // with 1-KB thread futures, 56-B plan steps, four-slot slabs for one
    // entry and per-rank config copies 13 186 B. It is 11 377 B at seeds
    // 1, 7, 42 and 20240927.
    const RANKS: usize = 8192;
    const CEILING: usize = 11_900;
    let seed = fault_seed();
    drop(ring_run(16, 2, seed));
    let per_rank = peak_of(|| ring_run(RANKS, 4, seed)) / RANKS;
    assert!(
        per_rank <= CEILING,
        "ring peak {per_rank} B/rank at {RANKS} ranks (ceiling {CEILING})"
    );
}

#[test]
fn pending_directed_irecv_costs_one_map_slot() {
    // One session posts receives from one peer, a fresh tag each, that
    // never match. A pending receive is its handle (one pointer), its
    // request block (record, payload slot and first waiter: 120 B) and
    // its slot in the match table: 896 receives fill 1 024 slots of 33 B,
    // 38 B each, 166 B in all. A request, trigger and result cell in
    // three blocks and an unboxed second-entry queue made it 256 B; an
    // arena slot and a per-key queue beside the slot ~375 B.
    const N: usize = 896;
    const BOUND: usize = 168;
    const SLOT_BOUND: usize = 40;
    let cluster = Cluster::build(ring_config(2, fault_seed()));
    let s = cluster.session(0).clone();
    let per_recv = Rc::new(Cell::new(None));
    let out = Rc::clone(&per_recv);
    cluster.spawn_on(0, "rx", move |ctx| async move {
        let sim = ctx.marcel().sim().clone();
        let mut handles = Vec::with_capacity(N);
        let mut bare = Vec::with_capacity(N);
        let mark = LIVE.get();
        for i in 0..N {
            handles.push(s.irecv(&ctx, Some(NodeId(1)), Tag(i as u64)).await);
        }
        let posted = (LIVE.get() - mark) as usize / N + size_of::<RecvHandle>();
        let mark = LIVE.get();
        bare.extend((0..N).map(|_| PiomReq::new(&sim, "recv")));
        let block = (LIVE.get() - mark) as usize / N;
        out.set(Some((posted, posted - block - size_of::<RecvHandle>())));
    });
    cluster.run();
    let (per_recv, slot) = per_recv.get().expect("receiver ran");
    assert!(
        per_recv <= BOUND && slot <= SLOT_BOUND,
        "a pending receive costs {per_recv} B (bound {BOUND}), its match slot {slot} B \
         (bound {SLOT_BOUND})"
    );
}

#[test]
fn pending_isend_costs_its_request_and_pack() {
    // A one-core rank posts eager sends that nothing submits until it
    // blocks (offload only). A queued send is its handle, its request
    // block and its pack in the send queue: 210 B each with 896 in the
    // queue. The request alone was two blocks, 136 B.
    const N: usize = 896;
    const BOUND: usize = 212;
    let mut cfg = ring_config(2, fault_seed());
    cfg.cores_per_socket = 1;
    cfg.offload_policy = OffloadPolicy::Always;
    let cluster = Cluster::build(cfg);
    let s = cluster.session(0).clone();
    let per_send = Rc::new(Cell::new(None));
    let out = Rc::clone(&per_send);
    cluster.spawn_on(0, "tx", move |ctx| async move {
        let mut sends = Vec::with_capacity(N);
        let mark = LIVE.get();
        for _ in 0..N {
            sends.push(s.isend(&ctx, NodeId(1), Tag(1), Vec::new()).await);
        }
        let bytes = (LIVE.get() - mark) as usize / N + size_of::<SendHandle>();
        assert!(
            sends.iter().all(|h| !h.is_complete()),
            "a send was submitted"
        );
        out.set(Some(bytes));
    });
    cluster.run();
    let per_send = per_send.get().expect("sender ran");
    assert!(
        per_send <= BOUND,
        "a queued send costs {per_send} B (bound {BOUND})"
    );
}

#[test]
fn pending_rendezvous_send_costs_its_records_at_both_ends() {
    // Sends above the rendezvous threshold whose receives are never
    // posted, measured 1 ms after posting, every announcement (RTS)
    // parked at the receiver. The sender holds the handle, the request
    // block (120 B), the RTS pack (72 B) and a `RdvSend` record in a map
    // keyed by rendezvous id (64-B buckets, up to half empty after a
    // growth: ~130 B). The receiver holds the parked RTS (a 56-B arena
    // slot and a duplicate-suppression set entry, ~90 B) and its index
    // under `(src, tag)` and `tag`: with one tag for all sends a queue
    // slot of each, with a tag per send a map entry and a one-slot queue
    // of each (~270 B). It is 453 B, and 631 B with a tag per send, at
    // seeds 1, 7, 42 and 20240927; a queue per new key starting at four
    // slots made the second 727 B.
    const N: usize = 256;
    const BOUNDS: [(bool, usize); 2] = [(false, 475), (true, 660)];
    for (tag_per_send, bound) in BOUNDS {
        let mut cfg = ring_config(2, fault_seed());
        cfg.rdv_threshold = 0;
        let cluster = Cluster::build(cfg);
        // One rendezvous run to its end first: both sides' rendezvous
        // state is made on first use.
        let (tx, rx) = (cluster.session(0).clone(), cluster.session(1).clone());
        cluster.spawn_on(0, "warm-tx", move |ctx| async move {
            tx.send(&ctx, NodeId(1), Tag(1 << 40), vec![1]).await;
        });
        cluster.spawn_on(1, "warm-rx", move |ctx| async move {
            rx.recv(&ctx, Some(NodeId(0)), Tag(1 << 40)).await;
        });
        cluster.run();
        let sends = Rc::new(std::cell::RefCell::new(Vec::with_capacity(N)));
        let mark = LIVE.get();
        let (s, out) = (cluster.session(0).clone(), Rc::clone(&sends));
        cluster.spawn_on(0, "tx", move |ctx| async move {
            for i in 0..N {
                let tag = Tag(if tag_per_send { i as u64 } else { 7 });
                let h = s.isend(&ctx, NodeId(1), tag, vec![1]).await;
                out.borrow_mut().push(h);
            }
        });
        let sim = cluster.sim();
        sim.run_until(sim.now() + SimDuration::from_millis(1));
        let per_send = (LIVE.get() - mark) as usize / N + size_of::<SendHandle>();
        assert!(sends.borrow().iter().all(|h| !h.is_complete()));
        assert_eq!(cluster.session(1).debug_state().unexpected_rts, N);
        assert!(
            per_send <= bound,
            "a pending rendezvous send costs {per_send} B, tag per send: {tag_per_send} \
             (bound {bound})"
        );
    }
}

#[test]
fn request_is_one_block_of_at_most_120_bytes() {
    // Record, completion flag, payload slot and first waiter share the
    // trigger's allocation; the handle is one pointer.
    let sim = Sim::new(0);
    let mark = LIVE.get();
    let req = PiomReq::new(&sim, "recv");
    let block = LIVE.get() - mark;
    assert_eq!(size_of_val(&req), size_of::<usize>());
    assert!(block <= 120, "a request costs {block} B");
}

#[test]
fn plan_steps_stay_small() {
    // A barrier plan holds two steps per round for the whole collective.
    // Narrow peer and flow fields, dependencies kept as a range into one
    // list per plan, and slot, range and rank-list payloads in side
    // lists (tokens and discards carry none) make a step 24 B. With the
    // payload inline it was 56 B; before that 80 B plus a `Vec` per step
    // with dependencies.
    assert!(size_of::<pm2_coll::Step>() <= 24);
}

#[test]
fn single_entry_slab_keeps_one_slot() {
    // Every rank has one app thread and one progress tasklet in its
    // scheduler's slabs; a first growth to four slots cost ~0.3 MiB on
    // the 1 024-rank ring.
    let mut slab = pm2_sim::Slab::new();
    slab.insert([0u8; 88]);
    assert_eq!(slab.capacity(), 1);
    slab.insert([1u8; 88]);
    assert_eq!(slab.capacity(), 2);
}

#[test]
fn ring_thread_body_stays_small() {
    // The largest block `spawn_on` allocates is the thread's future. An
    // `async fn` keeps its arguments twice, and each layer of a call
    // nests its callee's future: with the barrier's plan executor and
    // the posting futures held inline it was 1 040 B. It is 416 B.
    const BOUND: usize = 436;
    let cluster = Cluster::build(ring_config(4, fault_seed()));
    let comm = Comm::world(&cluster).swap_remove(0);
    let (body, ()) = largest_block_of(|| spawn_ring_rank(&cluster, comm, 60));
    assert!(
        body <= BOUND,
        "a ring thread's future is {body} B (bound {BOUND})"
    );
}

/// Runs `rounds` rounds on a 2-rank cluster: each spawns 4 thread pairs
/// that exchange 64 B (one tag per pair) and finish, then runs to
/// quiescence.
fn spawn_rounds(cluster: &Cluster, rounds: u64) {
    for _ in 0..rounds {
        for pair in 0..4u64 {
            for node in 0..2usize {
                let s = cluster.session(node).clone();
                let peer = NodeId(1 - node);
                cluster.spawn_on(node, format!("p{pair}n{node}"), move |ctx| async move {
                    let h = s.isend(&ctx, peer, Tag(pair), vec![pair as u8; 64]).await;
                    let r = s.irecv(&ctx, Some(peer), Tag(pair)).await;
                    assert_eq!(s.swait_recv(&r, &ctx).await, vec![pair as u8; 64]);
                    s.swait_send(&h, &ctx).await;
                });
            }
        }
        cluster.run();
    }
}

#[test]
fn ring_rounds_reach_a_flat_heap() {
    // The ring shape's steady state: after warm-up rounds of barrier,
    // exchanges and barrier on one cluster, more rounds leave the live
    // heap where it was, to the byte. Every collective takes a new tag
    // generation and every round reuses its exchange tags, so a record
    // kept per tag, per message or per finished thread shows here.
    const RANKS: usize = 16;
    const WARM: u64 = 4;
    const MORE: u64 = 16;
    let cluster = Cluster::build(ring_config(RANKS, fault_seed()));
    let comms = Comm::world(&cluster);
    for _ in 0..WARM {
        ring_rounds(&cluster, &comms, 2);
    }
    let warm = LIVE.get();
    for _ in 0..MORE {
        ring_rounds(&cluster, &comms, 2);
    }
    let grown = LIVE.get() - warm;
    assert_eq!(
        grown, 0,
        "{MORE} more ring rounds on {RANKS} ranks grew the heap by {grown} B"
    );
}

#[test]
fn finished_threads_leave_no_heap_behind() {
    // A thread's record outliving it grows the heap by a slab slot per
    // thread ever spawned, so every `icoll` would cost memory for the
    // rest of the run.
    const WARM: u64 = 4;
    const MORE: u64 = 32;
    let cluster = Cluster::build(ring_config(2, fault_seed()));
    spawn_rounds(&cluster, WARM);
    let warm = LIVE.get();
    spawn_rounds(&cluster, MORE);
    let grown = LIVE.get() - warm;
    assert_eq!(cluster.sim().live_tasks(), 0);
    assert_eq!(
        grown, 0,
        "{MORE} more rounds of 8 threads grew the heap by {grown} B"
    );
}
