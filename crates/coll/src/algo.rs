//! The [`Algorithm`] trait and the shipped collective planners.
//!
//! Every planner turns a [`CollSpec`] into one rank's [`Plan`]. The flow
//! ids it assigns are derived from the step's role (phase, round,
//! segment, chunk), so both endpoints of a message compute the same wire
//! tag without any coordination. Planners are pure functions of
//! `(spec, rank)` — the differential tests exploit that by running the
//! same spec through every algorithm and comparing results byte-for-byte.
//!
//! An algorithm asked for a collective kind it has no specialized shape
//! for falls back to the [`FlatAlgo`] plan; the auto-selector
//! ([`crate::tuning::CollTuning`]) only routes kinds to algorithms that
//! improve on flat.

use crate::plan::{CollKind, CollSpec, Plan, RecvDst, ReduceOp, SendSrc};

/// Chunk-index field width inside a ring flow id.
const CHUNK_BITS: u32 = 12;
/// Hard cap on pipeline chunks per segment (flow-field width).
pub const MAX_CHUNKS: usize = 1 << CHUNK_BITS;

/// Phase-namespaced flow id (multi-phase plans keep phases disjoint).
fn fl(phase: u64, x: u64) -> u64 {
    debug_assert!(phase < 16 && x < 1 << 28);
    (phase << 28) | x
}

/// A collective planner.
pub trait Algorithm {
    /// Short name (bench series, diagnostics).
    fn name(&self) -> &'static str;
    /// Plans `rank`'s step-DAG for the collective described by `spec`.
    fn plan(&self, spec: &CollSpec, rank: usize) -> Plan;
}

/// Which planner to use — the unit of auto-selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// Direct O(P)-at-root exchanges (the reference).
    Flat,
    /// Binomial tree (bcast/reduce/gather; allreduce = reduce∘bcast).
    Tree,
    /// Ring allreduce with chunked pipelining.
    Ring,
    /// Recursive doubling (allreduce) / dissemination (barrier).
    RecDouble,
}

impl AlgoKind {
    /// The planner behind this kind.
    pub fn algorithm(self) -> &'static dyn Algorithm {
        match self {
            AlgoKind::Flat => &FlatAlgo,
            AlgoKind::Tree => &TreeAlgo,
            AlgoKind::Ring => &RingAlgo,
            AlgoKind::RecDouble => &RecDoubleAlgo,
        }
    }

    /// Short name (bench series keys).
    pub fn name(self) -> &'static str {
        self.algorithm().name()
    }

    /// All shipped algorithms (differential-test matrix).
    pub const ALL: [AlgoKind; 4] = [
        AlgoKind::Flat,
        AlgoKind::Tree,
        AlgoKind::Ring,
        AlgoKind::RecDouble,
    ];
}

// ---------------------------------------------------------------- flat --

/// The reference algorithm: every collective routes directly through its
/// root (or pairwise for alltoall). O(P) sequential work at the root —
/// kept as the differential-testing baseline and the fallback shape.
pub struct FlatAlgo;

impl Algorithm for FlatAlgo {
    fn name(&self) -> &'static str {
        "flat"
    }

    fn plan(&self, spec: &CollSpec, rank: usize) -> Plan {
        let p = spec.ranks;
        let mut plan = Plan::new();
        if p <= 1 {
            return plan;
        }
        match spec.kind {
            CollKind::Barrier => {
                if rank == 0 {
                    let recvs: Vec<usize> = (1..p)
                        .map(|r| plan.recv(r, fl(0, r as u64), &[], RecvDst::Discard))
                        .collect();
                    for r in 1..p {
                        plan.send(r, fl(1, r as u64), &recvs, SendSrc::Token);
                    }
                } else {
                    plan.send(0, fl(0, rank as u64), &[], SendSrc::Token);
                    plan.recv(0, fl(1, rank as u64), &[], RecvDst::Discard);
                }
            }
            CollKind::Bcast { root } => {
                if rank == root {
                    for r in (0..p).filter(|&r| r != root) {
                        plan.send(r, fl(0, r as u64), &[], whole_send(0));
                    }
                } else {
                    plan.recv(root, fl(0, rank as u64), &[], whole_replace(0));
                }
            }
            CollKind::Reduce { root, op } => {
                if rank == root {
                    for r in (0..p).filter(|&r| r != root) {
                        plan.recv(r, fl(0, r as u64), &[], whole_combine(0, op));
                    }
                } else {
                    plan.send(root, fl(0, rank as u64), &[], whole_send(0));
                }
            }
            CollKind::Allreduce { op } => {
                // Reduce to rank 0, then broadcast from it.
                if rank == 0 {
                    let recvs: Vec<usize> = (1..p)
                        .map(|r| plan.recv(r, fl(0, r as u64), &[], whole_combine(0, op)))
                        .collect();
                    for r in 1..p {
                        plan.send(r, fl(1, r as u64), &recvs, whole_send(0));
                    }
                } else {
                    plan.send(0, fl(0, rank as u64), &[], whole_send(0));
                    plan.recv(0, fl(1, rank as u64), &[], whole_replace(0));
                }
            }
            CollKind::Gather { root } => {
                if rank == root {
                    for r in (0..p).filter(|&r| r != root) {
                        plan.recv(
                            r,
                            fl(0, r as u64),
                            &[],
                            RecvDst::Slot {
                                slot: r,
                                range: None,
                                combine: None,
                            },
                        );
                    }
                } else {
                    plan.send(
                        root,
                        fl(0, rank as u64),
                        &[],
                        SendSrc::Slot {
                            slot: rank,
                            range: None,
                        },
                    );
                }
            }
            CollKind::Alltoall => {
                for r in (0..p).filter(|&r| r != rank) {
                    plan.send(
                        r,
                        fl(0, rank as u64),
                        &[],
                        SendSrc::Slot {
                            slot: r,
                            range: None,
                        },
                    );
                    plan.recv(
                        r,
                        fl(0, r as u64),
                        &[],
                        RecvDst::Slot {
                            slot: p + r,
                            range: None,
                            combine: None,
                        },
                    );
                }
            }
        }
        plan
    }
}

fn whole_send(slot: usize) -> SendSrc {
    SendSrc::Slot { slot, range: None }
}

fn whole_replace(slot: usize) -> RecvDst {
    RecvDst::Slot {
        slot,
        range: None,
        combine: None,
    }
}

fn whole_combine(slot: usize, op: ReduceOp) -> RecvDst {
    RecvDst::Slot {
        slot,
        range: None,
        combine: Some(op),
    }
}

// ---------------------------------------------------------------- tree --

/// Binomial position of virtual rank `vrank` in a `ranks`-wide tree:
/// its parent (None at the root) and its children as `(vrank, mask)`
/// pairs, largest subtree first. Child `(c, m)` roots the vrank range
/// `c..min(c+m, ranks)`.
pub fn binomial(vrank: usize, ranks: usize) -> (Option<usize>, Vec<(usize, usize)>) {
    let mut mask = 1usize;
    let mut parent = None;
    while mask < ranks {
        if vrank & mask != 0 {
            parent = Some(vrank - mask);
            break;
        }
        mask <<= 1;
    }
    let mut children = Vec::new();
    let mut m = mask >> 1;
    while m > 0 {
        if vrank + m < ranks {
            children.push((vrank + m, m));
        }
        m >>= 1;
    }
    (parent, children)
}

/// Binomial-tree bcast/reduce/gather: `ceil(log2 P)` sequential rounds at
/// the root instead of `P-1`. Allreduce composes tree-reduce with
/// tree-bcast; barrier and alltoall fall back to flat (the selector never
/// routes them here).
pub struct TreeAlgo;

impl Algorithm for TreeAlgo {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn plan(&self, spec: &CollSpec, rank: usize) -> Plan {
        let p = spec.ranks;
        let mut plan = Plan::new();
        if p <= 1 {
            return plan;
        }
        match spec.kind {
            CollKind::Bcast { root } => {
                let v = (rank + p - root) % p;
                let (parent, children) = binomial(v, p);
                let recv = parent
                    .map(|pv| plan.recv((pv + root) % p, fl(0, v as u64), &[], whole_replace(0)));
                for (cv, _m) in children {
                    plan.send(
                        (cv + root) % p,
                        fl(0, cv as u64),
                        recv.as_slice(),
                        whole_send(0),
                    );
                }
            }
            CollKind::Reduce { root, op } => {
                let v = (rank + p - root) % p;
                let (parent, children) = binomial(v, p);
                let recvs: Vec<usize> = children
                    .iter()
                    .map(|&(cv, _m)| {
                        plan.recv((cv + root) % p, fl(0, cv as u64), &[], whole_combine(0, op))
                    })
                    .collect();
                if let Some(pv) = parent {
                    plan.send((pv + root) % p, fl(0, v as u64), &recvs, whole_send(0));
                }
            }
            CollKind::Allreduce { op } => {
                // Tree-reduce to rank 0 (phase 0), tree-bcast back (phase 1).
                let (parent, children) = binomial(rank, p);
                let recvs: Vec<usize> = children
                    .iter()
                    .map(|&(cv, _m)| plan.recv(cv, fl(0, cv as u64), &[], whole_combine(0, op)))
                    .collect();
                let up = parent.map(|pv| plan.send(pv, fl(0, rank as u64), &recvs, whole_send(0)));
                // Bcast phase. The root's fan-out waits for its whole
                // reduction; a non-root's replace-recv must wait for its
                // own up-send (write-after-read on slot 0).
                let down = up.map(|up_send| {
                    plan.recv(
                        parent.expect("non-root has a parent"),
                        fl(1, rank as u64),
                        &[up_send],
                        whole_replace(0),
                    )
                });
                for (cv, _m) in children {
                    let deps = match &down {
                        Some(d) => std::slice::from_ref(d),
                        None => &recvs,
                    };
                    plan.send(cv, fl(1, cv as u64), deps, whole_send(0));
                }
            }
            CollKind::Gather { root } => {
                let v = (rank + p - root) % p;
                let (parent, children) = binomial(v, p);
                let recvs: Vec<usize> = children
                    .iter()
                    .map(|&(cv, _m)| {
                        plan.recv((cv + root) % p, fl(0, cv as u64), &[], RecvDst::Unpack)
                    })
                    .collect();
                if let Some(pv) = parent {
                    // Frame the whole subtree: self plus every child range.
                    let mut subtree = vec![rank];
                    for &(cv, m) in &children {
                        for cvv in cv..(cv + m).min(p) {
                            subtree.push((cvv + root) % p);
                        }
                    }
                    plan.send(
                        (pv + root) % p,
                        fl(0, v as u64),
                        &recvs,
                        SendSrc::Packed { ranks: subtree },
                    );
                }
            }
            CollKind::Barrier | CollKind::Alltoall => return FlatAlgo.plan(spec, rank),
        }
        plan
    }
}

// ---------------------------------------------------------------- ring --

/// Ring allreduce: reduce-scatter then allgather, `2(P-1)` rounds of
/// `len/P`-byte segments, each segment further split into pipeline chunks
/// of at most [`CollSpec::chunk`] bytes so successive rounds overlap over
/// the rendezvous path. Bandwidth-optimal: every link carries
/// `2·len·(P-1)/P` bytes total, independent of P. Other kinds fall back
/// to flat.
pub struct RingAlgo;

impl Algorithm for RingAlgo {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn plan(&self, spec: &CollSpec, rank: usize) -> Plan {
        let p = spec.ranks;
        let CollKind::Allreduce { op } = spec.kind else {
            return FlatAlgo.plan(spec, rank);
        };
        let mut plan = Plan::new();
        if p <= 1 {
            return plan;
        }
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        let rounds = 2 * (p - 1);
        let segments = crate::plan::segment_ranges(spec.len, p);
        for (s, seg) in segments.iter().enumerate() {
            // Rounds in which this rank sends / receives segment `s`.
            let a = (rank + p - s) % p;
            let b = (rank + p - s - 1) % p; // = a-1 mod p
            let mut events: Vec<(usize, bool)> = Vec::new(); // (round, is_send)
            for r in [a, a + p] {
                if r < rounds {
                    events.push((r, true));
                }
            }
            for r in [b, b + p] {
                if r < rounds {
                    events.push((r, false));
                }
            }
            events.sort_unstable();
            for (c, chunk) in crate::plan::chunk_ranges(seg.clone(), spec.chunk, MAX_CHUNKS)
                .into_iter()
                .enumerate()
            {
                // Chain this chunk's events: each send reads what the
                // previous recv produced; each recv overwrites what the
                // previous send read.
                let mut prev: Option<usize> = None;
                for &(r, is_send) in &events {
                    let flow = (((r * p + s) as u64) << CHUNK_BITS) | c as u64;
                    let deps = prev.as_slice();
                    prev = Some(if is_send {
                        plan.send(
                            right,
                            flow,
                            deps,
                            SendSrc::Slot {
                                slot: 0,
                                range: Some(chunk.clone()),
                            },
                        )
                    } else {
                        plan.recv(
                            left,
                            flow,
                            deps,
                            RecvDst::Slot {
                                slot: 0,
                                range: Some(chunk.clone()),
                                // Reduce-scatter rounds combine, allgather
                                // rounds overwrite with the finished value.
                                combine: if r < p - 1 { Some(op) } else { None },
                            },
                        )
                    });
                }
            }
        }
        plan
    }
}

// ---------------------------------------- recursive doubling / dissemination --

/// Latency-optimal small-payload algorithms: recursive-doubling allreduce
/// (`ceil(log2 P)` exchange rounds, with a fold/unfold pre-phase for
/// non-power-of-two P) and the dissemination barrier. Other kinds fall
/// back to flat.
pub struct RecDoubleAlgo;

impl Algorithm for RecDoubleAlgo {
    fn name(&self) -> &'static str {
        "recdouble"
    }

    fn plan(&self, spec: &CollSpec, rank: usize) -> Plan {
        let p = spec.ranks;
        let mut plan = Plan::new();
        if p <= 1 {
            return plan;
        }
        match spec.kind {
            CollKind::Barrier => {
                // Dissemination: in round k, signal (rank + 2^k) and wait
                // for (rank - 2^k); after ceil(log2 P) rounds everyone has
                // transitively heard from everyone.
                let mut prev_recv: Option<usize> = None;
                let mut d = 1usize;
                let mut k = 0u64;
                while d < p {
                    plan.send(
                        (rank + d) % p,
                        fl(0, k),
                        prev_recv.as_slice(),
                        SendSrc::Token,
                    );
                    prev_recv =
                        Some(plan.recv((rank + p - d) % p, fl(0, k), &[], RecvDst::Discard));
                    d <<= 1;
                    k += 1;
                }
            }
            CollKind::Allreduce { op } => {
                let m = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
                let rem = p - m;
                if rank >= m {
                    // Folded-in extra rank: contribute, then receive the
                    // result. The replace-recv waits for the fold-send
                    // (write-after-read on slot 0).
                    let s = plan.send(rank - m, fl(0, rank as u64), &[], whole_send(0));
                    plan.recv(rank - m, fl(2, rank as u64), &[s], whole_replace(0));
                } else {
                    let mut prev: Option<usize> = None;
                    if rank < rem {
                        prev = Some(plan.recv(
                            rank + m,
                            fl(0, (rank + m) as u64),
                            &[],
                            whole_combine(0, op),
                        ));
                    }
                    let mut d = 1usize;
                    let mut k = 0u64;
                    while d < m {
                        let partner = rank ^ d;
                        let s = plan.send(partner, fl(1, k), prev.as_slice(), whole_send(0));
                        prev = Some(plan.recv(partner, fl(1, k), &[s], whole_combine(0, op)));
                        d <<= 1;
                        k += 1;
                    }
                    if rank < rem {
                        plan.send(
                            rank + m,
                            fl(2, (rank + m) as u64),
                            prev.as_slice(),
                            whole_send(0),
                        );
                    }
                }
            }
            _ => return FlatAlgo.plan(spec, rank),
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{apply_recv, materialize, StepOp};
    use std::collections::{HashMap, VecDeque};

    fn spec(kind: CollKind, len: usize, ranks: usize) -> CollSpec {
        CollSpec {
            kind,
            len,
            ranks,
            chunk: 64 << 10,
        }
    }

    /// Plan-level executor: runs every rank's plan against an in-memory
    /// mailbox, honouring dependency edges. Sends complete on issue;
    /// receives complete when the matching message is present. Panics on
    /// deadlock — i.e. on a planner bug.
    fn run_local(
        spec: &CollSpec,
        algo: AlgoKind,
        mut bufs: Vec<Vec<Vec<u8>>>,
    ) -> Vec<Vec<Vec<u8>>> {
        let p = spec.ranks;
        let plans: Vec<Plan> = (0..p).map(|r| algo.algorithm().plan(spec, r)).collect();
        let mut done: Vec<Vec<bool>> = plans.iter().map(|pl| vec![false; pl.steps.len()]).collect();
        let mut mailbox: HashMap<(usize, usize, u32), VecDeque<Vec<u8>>> = HashMap::new();
        loop {
            let mut progress = false;
            let mut all_done = true;
            for rank in 0..p {
                for i in 0..plans[rank].steps.len() {
                    if done[rank][i] {
                        continue;
                    }
                    all_done = false;
                    let step = &plans[rank].steps[i];
                    if !plans[rank].deps(i).all(|d| done[rank][d]) {
                        continue;
                    }
                    match &step.op {
                        StepOp::Send(src) => {
                            let bytes = materialize(&bufs[rank], src);
                            mailbox
                                .entry((rank, step.peer as usize, step.flow))
                                .or_default()
                                .push_back(bytes);
                        }
                        StepOp::Recv(dst) => {
                            let key = (step.peer as usize, rank, step.flow);
                            let Some(q) = mailbox.get_mut(&key) else {
                                continue;
                            };
                            let Some(bytes) = q.pop_front() else {
                                continue;
                            };
                            apply_recv(&mut bufs[rank], dst, bytes);
                        }
                    }
                    done[rank][i] = true;
                    progress = true;
                }
            }
            if all_done {
                return bufs;
            }
            assert!(progress, "plan deadlocked under {}", algo.name());
        }
    }

    fn payload(rank: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|j| (rank as u8).wrapping_mul(31) ^ (j as u8))
            .collect()
    }

    /// Satellite regression: the tree bcast moves at most `ceil(log2 P)`
    /// sequential rounds at the root, against the flat algorithm's `P-1`.
    #[test]
    fn tree_bcast_root_sends_log_p() {
        for p in 2..=64usize {
            let s = spec(CollKind::Bcast { root: 0 }, 1024, p);
            let tree_root = TreeAlgo.plan(&s, 0);
            let flat_root = FlatAlgo.plan(&s, 0);
            let log2p = usize::BITS as usize - (p - 1).leading_zeros() as usize;
            assert!(
                tree_root.send_count() <= log2p,
                "P={p}: tree root does {} sends, log2 bound is {log2p}",
                tree_root.send_count()
            );
            assert_eq!(flat_root.send_count(), p - 1, "P={p}");
            // Same bound from any root.
            let tree_r1 = TreeAlgo.plan(&spec(CollKind::Bcast { root: p - 1 }, 1024, p), p - 1);
            assert!(tree_r1.send_count() <= log2p);
        }
    }

    #[test]
    fn binomial_tree_shape() {
        let (parent, children) = binomial(0, 8);
        assert_eq!(parent, None);
        assert_eq!(children, vec![(4, 4), (2, 2), (1, 1)]);
        let (parent, children) = binomial(6, 8);
        assert_eq!(parent, Some(4));
        assert_eq!(children, vec![(7, 1)]);
        // Non-power-of-two: child ranges clip at `ranks`.
        let (parent, children) = binomial(4, 6);
        assert_eq!(parent, Some(0));
        assert_eq!(children, vec![(5, 1)]);
    }

    #[test]
    fn bcast_agrees_across_algorithms() {
        for p in [2usize, 3, 5, 8, 13, 16] {
            for root in [0, p - 1, p / 2] {
                let s = spec(CollKind::Bcast { root }, 777, p);
                let make = |r: usize| {
                    vec![if r == root {
                        payload(root, 777)
                    } else {
                        Vec::new()
                    }]
                };
                for algo in [AlgoKind::Flat, AlgoKind::Tree] {
                    let bufs = run_local(&s, algo, (0..p).map(make).collect());
                    for (r, b) in bufs.iter().enumerate() {
                        assert_eq!(
                            b[0],
                            payload(root, 777),
                            "{} p={p} root={root} rank={r}",
                            algo.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_agrees_across_algorithms() {
        for p in [2usize, 3, 4, 7, 8, 12, 16] {
            for len in [0usize, 1, 8, 100, 4096] {
                let s = spec(
                    CollKind::Allreduce {
                        op: ReduceOp::WrapAdd8,
                    },
                    len,
                    p,
                );
                let mut expect = vec![0u8; len];
                for r in 0..p {
                    ReduceOp::WrapAdd8.combine(&mut expect, &payload(r, len));
                }
                for algo in AlgoKind::ALL {
                    let bufs = run_local(&s, algo, (0..p).map(|r| vec![payload(r, len)]).collect());
                    for (r, b) in bufs.iter().enumerate() {
                        assert_eq!(b[0], expect, "{} p={p} len={len} rank={r}", algo.name());
                    }
                }
            }
        }
    }

    #[test]
    fn gather_agrees_across_algorithms() {
        for p in [2usize, 3, 6, 8, 11] {
            let root = p / 2;
            let s = spec(CollKind::Gather { root }, 0, p);
            let make = |me: usize| {
                let mut slots = vec![Vec::new(); p];
                slots[me] = payload(me, 10 + me); // ragged lengths
                slots
            };
            for algo in [AlgoKind::Flat, AlgoKind::Tree] {
                let bufs = run_local(&s, algo, (0..p).map(make).collect());
                for (r, slot) in bufs[root].iter().enumerate() {
                    assert_eq!(slot, &payload(r, 10 + r), "{} p={p} slot {r}", algo.name());
                }
            }
        }
    }

    #[test]
    fn barrier_and_alltoall_plans_complete() {
        for p in [2usize, 3, 8] {
            for algo in AlgoKind::ALL {
                run_local(&spec(CollKind::Barrier, 0, p), algo, vec![vec![]; p]);
            }
            let s = spec(CollKind::Alltoall, 0, p);
            let make = |me: usize| {
                let mut slots = vec![Vec::new(); 2 * p];
                for (to, slot) in slots.iter_mut().enumerate().take(p) {
                    *slot = vec![(me * p + to) as u8; 5];
                }
                slots
            };
            let bufs = run_local(&s, AlgoKind::Flat, (0..p).map(make).collect());
            for (me, mine) in bufs.iter().enumerate() {
                for from in 0..p {
                    if from == me {
                        continue; // own slot handled by the caller
                    }
                    assert_eq!(mine[p + from], vec![(from * p + me) as u8; 5]);
                }
            }
        }
    }

    #[test]
    fn ring_chunking_multiplies_steps() {
        let coarse = RingAlgo.plan(
            &CollSpec {
                chunk: 128 << 10,
                ..spec(
                    CollKind::Allreduce {
                        op: ReduceOp::WrapAdd8,
                    },
                    1 << 20,
                    8,
                )
            },
            3,
        );
        let fine = RingAlgo.plan(
            &CollSpec {
                chunk: 16 << 10,
                ..spec(
                    CollKind::Allreduce {
                        op: ReduceOp::WrapAdd8,
                    },
                    1 << 20,
                    8,
                )
            },
            3,
        );
        assert!(fine.steps.len() > coarse.steps.len());
        // 1 MiB over 8 ranks = 128 KiB segments → 8 chunks of 16 KiB each;
        // 2(P-1) rounds of one send + one recv per chunk-slot.
        assert_eq!(fine.steps.len(), coarse.steps.len() * 8);
    }

    #[test]
    fn single_rank_plans_are_empty() {
        for algo in AlgoKind::ALL {
            for kind in [
                CollKind::Barrier,
                CollKind::Bcast { root: 0 },
                CollKind::Allreduce {
                    op: ReduceOp::SumU64,
                },
                CollKind::Gather { root: 0 },
                CollKind::Alltoall,
            ] {
                assert!(algo
                    .algorithm()
                    .plan(&spec(kind, 64, 1), 0)
                    .steps
                    .is_empty());
            }
        }
    }
}
