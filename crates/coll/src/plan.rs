//! The step-DAG representation of a collective, plus buffer and chunk math.
//!
//! A [`Plan`] is one rank's view of a collective: a list of point-to-point
//! [`Step`]s (sends and receives) with explicit dependency edges. The
//! executor issues every step whose dependencies have completed, so
//! independent steps overlap freely while read-after-write and
//! write-after-read hazards on the payload buffers are respected.
//!
//! Buffers are plain `Vec<Vec<u8>>` slots owned by the executor; the slot
//! convention per collective kind is documented on [`CollKind`].

use std::ops::Range;

/// Reduction operator applied by combining receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Little-endian u64 lane-wise wrapping sum (trailing bytes summed
    /// individually). The `allreduce_sum` operator.
    SumU64,
    /// Byte-wise wrapping sum — total-order-free, so any associative
    /// schedule gives identical bytes; the differential-test operator.
    WrapAdd8,
}

impl ReduceOp {
    /// Combines `src` into `dst` (`dst ⊕= src`). Lengths must match.
    pub fn combine(self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "reduce length mismatch");
        match self {
            ReduceOp::SumU64 => {
                let lanes = dst.len() / 8 * 8;
                for i in (0..lanes).step_by(8) {
                    let a = u64::from_le_bytes(dst[i..i + 8].try_into().unwrap());
                    let b = u64::from_le_bytes(src[i..i + 8].try_into().unwrap());
                    dst[i..i + 8].copy_from_slice(&a.wrapping_add(b).to_le_bytes());
                }
                for i in lanes..dst.len() {
                    dst[i] = dst[i].wrapping_add(src[i]);
                }
            }
            ReduceOp::WrapAdd8 => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = d.wrapping_add(*s);
                }
            }
        }
    }
}

/// Which collective is being planned, with its parameters.
///
/// Buffer-slot conventions (the executor's `Vec<Vec<u8>>`):
///
/// * `Barrier` — no slots;
/// * `Bcast`/`Reduce`/`Allreduce` — slot 0 holds the payload (the root's
///   data for bcast, each rank's contribution for the reductions) and the
///   result;
/// * `Gather` — `ranks` slots, slot *r* = rank *r*'s contribution (only
///   the own slot is filled on entry; the root ends with all of them);
/// * `Alltoall` — `2·ranks` slots: `0..ranks` outbound (`slot[r]` goes to
///   rank *r*), `ranks..2·ranks` inbound (`slot[ranks+r]` came from *r*).
///   The own-rank slot is passed through by the caller, not the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Synchronization only, no payload.
    Barrier,
    /// One-to-all broadcast from `root`.
    Bcast {
        /// Source rank.
        root: usize,
    },
    /// All-to-one reduction at `root`.
    Reduce {
        /// Destination rank.
        root: usize,
        /// Combining operator.
        op: ReduceOp,
    },
    /// Reduction whose result reaches every rank.
    Allreduce {
        /// Combining operator.
        op: ReduceOp,
    },
    /// All-to-one concatenation at `root` (per-rank buffers may differ in
    /// length).
    Gather {
        /// Destination rank.
        root: usize,
    },
    /// Personalized all-to-all exchange.
    Alltoall,
}

impl CollKind {
    /// Stable id used as the tag-space namespace (see [`crate::tags`]).
    pub fn id(&self) -> u64 {
        match self {
            CollKind::Barrier => 0,
            CollKind::Bcast { .. } => 1,
            CollKind::Reduce { .. } => 2,
            CollKind::Allreduce { .. } => 3,
            CollKind::Gather { .. } => 4,
            CollKind::Alltoall => 5,
        }
    }

    /// Human-readable name (diagnostics, bench series).
    pub fn name(&self) -> &'static str {
        match self {
            CollKind::Barrier => "barrier",
            CollKind::Bcast { .. } => "bcast",
            CollKind::Reduce { .. } => "reduce",
            CollKind::Allreduce { .. } => "allreduce",
            CollKind::Gather { .. } => "gather",
            CollKind::Alltoall => "alltoall",
        }
    }
}

/// Everything a planner needs to lay out one rank's steps.
#[derive(Debug, Clone, Copy)]
pub struct CollSpec {
    /// The collective and its parameters.
    pub kind: CollKind,
    /// Uniform payload length in bytes (bcast/reduce/allreduce; used by
    /// the ring planner for segmentation — gather/alltoall frames carry
    /// their own lengths).
    pub len: usize,
    /// Number of participating ranks.
    pub ranks: usize,
    /// Pipelining chunk size for chunked algorithms (bytes).
    pub chunk: usize,
}

/// Where a send step's payload bytes come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendSrc {
    /// A zero-byte synchronization token.
    Token,
    /// A slice of one buffer slot (`None` range = the whole slot).
    Slot {
        /// Buffer slot index.
        slot: usize,
        /// Byte range within the slot, or the whole slot.
        range: Option<Range<usize>>,
    },
    /// The listed slots framed as `(rank:u32, len:u32, bytes)*` — the
    /// tree-gather "subtree blob".
    Packed {
        /// Slot indices (= rank numbers) to frame, in order.
        ranks: Vec<usize>,
    },
}

/// What a receive step does with the arriving bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvDst {
    /// Synchronization token: bytes are dropped.
    Discard,
    /// Store into a slot slice: `combine: None` replaces (resizing when
    /// the range is `None`), `Some(op)` reduces element-wise.
    Slot {
        /// Buffer slot index.
        slot: usize,
        /// Byte range within the slot, or the whole slot.
        range: Option<Range<usize>>,
        /// Combine with the existing contents instead of replacing.
        combine: Option<ReduceOp>,
    },
    /// Decode a [`SendSrc::Packed`] frame back into its slots.
    Unpack,
}

/// A send or receive with its data binding, as [`Plan::op`] reads it
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp<'a> {
    /// Transmit to [`Step::peer`].
    Send(&'a SendSrc),
    /// Receive from [`Step::peer`].
    Recv(&'a RecvDst),
}

/// How a step stores its operation: a zero-byte token or discard inline,
/// anything with a slot, range or rank list as an index into the plan's
/// side list of that direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Token,
    Discard,
    Send(u32),
    Recv(u32),
}

static TOKEN: SendSrc = SendSrc::Token;
static DISCARD: RecvDst = RecvDst::Discard;

/// One point-to-point operation of a plan: 24 bytes, so that a barrier's
/// plan (two steps per round, held while the barrier runs) stays small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The remote rank.
    pub peer: u32,
    /// Flow id — both endpoints derive the same value from the step's
    /// role (phase/round/segment/chunk), so it becomes the low tag bits
    /// (the 32-bit flow field of [`crate::tags`]) and disambiguates
    /// concurrent steps between the same pair.
    pub flow: u32,
    /// Where this step's dependencies sit in the plan's shared list (see
    /// [`Plan::deps`]).
    deps: Range<u32>,
    /// The operation (see [`Plan::op`]).
    op: Op,
}

impl Step {
    /// True for a send, false for a receive.
    pub fn is_send(&self) -> bool {
        matches!(self.op, Op::Token | Op::Send(_))
    }
}

/// One rank's step-DAG for one collective.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    /// The steps; dependency edges point at smaller indices.
    pub steps: Vec<Step>,
    /// Every step's dependencies, concatenated in step order: one
    /// allocation per plan rather than one per step.
    deps: Vec<u32>,
    /// The payload sources of the send steps that are not tokens.
    sends: Vec<SendSrc>,
    /// The destinations of the receive steps that do not discard.
    recvs: Vec<RecvDst>,
}

impl Plan {
    /// An empty plan (single-rank collectives).
    pub fn new() -> Plan {
        Plan::default()
    }

    /// Appends a send step; returns its index.
    ///
    /// # Panics
    /// Panics if `flow` overflows the tag's 32-bit flow field.
    pub fn send(&mut self, peer: usize, flow: u64, deps: &[usize], src: SendSrc) -> usize {
        let op = match src {
            SendSrc::Token => Op::Token,
            src => {
                self.sends.push(src);
                Op::Send(side_index(self.sends.len()))
            }
        };
        self.push(peer, flow, deps, op)
    }

    /// Appends a receive step; returns its index.
    ///
    /// # Panics
    /// Panics if `flow` overflows the tag's 32-bit flow field.
    pub fn recv(&mut self, peer: usize, flow: u64, deps: &[usize], dst: RecvDst) -> usize {
        let op = match dst {
            RecvDst::Discard => Op::Discard,
            dst => {
                self.recvs.push(dst);
                Op::Recv(side_index(self.recvs.len()))
            }
        };
        self.push(peer, flow, deps, op)
    }

    fn push(&mut self, peer: usize, flow: u64, deps: &[usize], op: Op) -> usize {
        debug_assert!(
            deps.iter().all(|&d| d < self.steps.len()),
            "dependency on a not-yet-planned step"
        );
        let start = self.deps.len() as u32;
        self.deps.extend(deps.iter().map(|&d| d as u32));
        self.steps.push(Step {
            peer: u32::try_from(peer).expect("rank fits in 32 bits"),
            flow: u32::try_from(flow)
                .unwrap_or_else(|_| panic!("flow {flow} overflows the tag field")),
            deps: start..self.deps.len() as u32,
            op,
        });
        self.steps.len() - 1
    }

    /// Indices of the steps that must *complete* before step `step` is
    /// issued.
    pub fn deps(&self, step: usize) -> impl Iterator<Item = usize> + '_ {
        let range = &self.steps[step].deps;
        self.deps[range.start as usize..range.end as usize]
            .iter()
            .map(|&d| d as usize)
    }

    /// The operation of step `step`.
    pub fn op(&self, step: usize) -> StepOp<'_> {
        match self.steps[step].op {
            Op::Token => StepOp::Send(&TOKEN),
            Op::Discard => StepOp::Recv(&DISCARD),
            Op::Send(i) => StepOp::Send(&self.sends[i as usize]),
            Op::Recv(i) => StepOp::Recv(&self.recvs[i as usize]),
        }
    }

    /// Drops the slack the plan's lists grew by doubling: a plan lives
    /// as long as its collective runs.
    pub fn shrink_to_fit(&mut self) {
        self.steps.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.sends.shrink_to_fit();
        self.recvs.shrink_to_fit();
    }

    /// Number of send steps (the root-hot-spot regression test counts
    /// these).
    pub fn send_count(&self) -> usize {
        self.steps.iter().filter(|s| s.is_send()).count()
    }

    /// Number of receive steps.
    pub fn recv_count(&self) -> usize {
        self.steps.len() - self.send_count()
    }
}

/// The index of the side-list entry just pushed, given the list's new
/// length.
fn side_index(len: usize) -> u32 {
    u32::try_from(len - 1).expect("fewer than 2^32 steps in a plan")
}

/// Splits `len` bytes into `parts` contiguous near-equal ranges
/// (`r*len/parts .. (r+1)*len/parts`); short lengths yield empty tail
/// ranges, which the executor carries as zero-byte messages.
pub fn segment_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|r| (r * len / parts)..((r + 1) * len / parts))
        .collect()
}

/// Splits `range` into pipeline chunks of at most `chunk` bytes, capped
/// at `max_chunks` pieces (the flow field reserves 12 bits for the chunk
/// index). An empty range yields one empty chunk so the step structure
/// stays uniform.
pub fn chunk_ranges(range: Range<usize>, chunk: usize, max_chunks: usize) -> Vec<Range<usize>> {
    let len = range.end - range.start;
    if len == 0 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![range.start..range.start];
    }
    let chunk = chunk.max(1);
    let n = len.div_ceil(chunk).min(max_chunks.max(1));
    segment_ranges(len, n)
        .into_iter()
        .map(|r| (range.start + r.start)..(range.start + r.end))
        .collect()
}

/// Frames the listed slots as `(rank:u32, len:u32, bytes)*`.
pub fn pack_slots(bufs: &[Vec<u8>], ranks: &[usize]) -> Vec<u8> {
    let total: usize = ranks.iter().map(|&r| 8 + bufs[r].len()).sum();
    let mut out = Vec::with_capacity(total);
    for &r in ranks {
        out.extend_from_slice(&(r as u32).to_le_bytes());
        out.extend_from_slice(&(bufs[r].len() as u32).to_le_bytes());
        out.extend_from_slice(&bufs[r]);
    }
    out
}

/// Materializes the bytes a send step transmits.
pub fn materialize(bufs: &[Vec<u8>], src: &SendSrc) -> Vec<u8> {
    match src {
        SendSrc::Token => Vec::new(),
        SendSrc::Slot { slot, range: None } => bufs[*slot].clone(),
        SendSrc::Slot {
            slot,
            range: Some(r),
        } => bufs[*slot][r.clone()].to_vec(),
        SendSrc::Packed { ranks } => pack_slots(bufs, ranks),
    }
}

/// Applies a receive step's arrived bytes to the buffer slots.
pub fn apply_recv(bufs: &mut [Vec<u8>], dst: &RecvDst, data: Vec<u8>) {
    match dst {
        RecvDst::Discard => {}
        RecvDst::Slot {
            slot,
            range: None,
            combine: None,
        } => bufs[*slot] = data,
        RecvDst::Slot {
            slot,
            range: None,
            combine: Some(op),
        } => op.combine(&mut bufs[*slot], &data),
        RecvDst::Slot {
            slot,
            range: Some(r),
            combine,
        } => {
            let dst = &mut bufs[*slot][r.clone()];
            match combine {
                None => dst.copy_from_slice(&data),
                Some(op) => op.combine(dst, &data),
            }
        }
        RecvDst::Unpack => unpack_slots(bufs, &data),
    }
}

/// Decodes a [`pack_slots`] frame back into `bufs`.
///
/// # Panics
/// Panics on a malformed frame (truncated header or body, slot out of
/// range) — framing errors are planner bugs, not recoverable conditions.
pub fn unpack_slots(bufs: &mut [Vec<u8>], mut frame: &[u8]) {
    while !frame.is_empty() {
        assert!(frame.len() >= 8, "truncated gather frame header");
        let rank = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
        frame = &frame[8..];
        assert!(frame.len() >= len, "truncated gather frame body");
        bufs[rank] = frame[..len].to_vec();
        frame = &frame[len..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_and_partition() {
        for len in [0usize, 1, 7, 8, 1000] {
            for parts in [1usize, 2, 3, 8] {
                let segs = segment_ranges(len, parts);
                assert_eq!(segs.len(), parts);
                assert_eq!(segs[0].start, 0);
                assert_eq!(segs[parts - 1].end, len);
                for w in segs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn chunks_respect_size_and_cap() {
        let c = chunk_ranges(100..1100, 300, 4096);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0].start, 100);
        assert_eq!(c[3].end, 1100);
        assert!(c.iter().all(|r| r.end - r.start <= 300));
        // Cap forces bigger chunks rather than dropping data.
        let capped = chunk_ranges(0..1000, 1, 2);
        assert_eq!(capped.len(), 2);
        assert_eq!(capped[1].end, 1000);
        // Empty range → one empty chunk.
        assert_eq!(chunk_ranges(5..5, 64, 16), vec![5..5]);
    }

    #[test]
    fn pack_roundtrips() {
        let bufs = vec![vec![1, 2], vec![], vec![9; 5]];
        let frame = pack_slots(&bufs, &[0, 2]);
        let mut out = vec![Vec::new(); 3];
        unpack_slots(&mut out, &frame);
        assert_eq!(out[0], vec![1, 2]);
        assert_eq!(out[2], vec![9; 5]);
        assert!(out[1].is_empty());
    }

    #[test]
    fn reduce_ops_combine() {
        let mut a = 5u64.to_le_bytes().to_vec();
        a.push(250);
        let mut b = 7u64.to_le_bytes().to_vec();
        b.push(10);
        ReduceOp::SumU64.combine(&mut a, &b);
        assert_eq!(u64::from_le_bytes(a[..8].try_into().unwrap()), 12);
        assert_eq!(a[8], 4); // 250 + 10 wraps
        let mut x = vec![200u8, 1];
        ReduceOp::WrapAdd8.combine(&mut x, &[100, 2]);
        assert_eq!(x, vec![44, 3]);
    }

    #[test]
    fn plan_counts_sends() {
        let mut p = Plan::new();
        let r = p.recv(1, 0, &[], RecvDst::Discard);
        p.send(1, 1, &[r], SendSrc::Token);
        assert_eq!(p.send_count(), 1);
        assert_eq!(p.recv_count(), 1);
    }

    #[test]
    fn ops_read_back_as_planned() {
        let mut p = Plan::new();
        let slot = SendSrc::Slot {
            slot: 0,
            range: Some(2..5),
        };
        let combine = RecvDst::Slot {
            slot: 1,
            range: None,
            combine: Some(ReduceOp::WrapAdd8),
        };
        let packed = SendSrc::Packed { ranks: vec![3, 1] };
        p.send(1, 0, &[], SendSrc::Token);
        p.recv(2, 0, &[], combine.clone());
        p.send(3, 1, &[1], slot.clone());
        p.recv(4, 1, &[0, 2], RecvDst::Discard);
        p.send(5, 2, &[], packed.clone());
        p.shrink_to_fit();
        assert_eq!(p.op(0), StepOp::Send(&SendSrc::Token));
        assert_eq!(p.op(1), StepOp::Recv(&combine));
        assert_eq!(p.op(2), StepOp::Send(&slot));
        assert_eq!(p.op(3), StepOp::Recv(&RecvDst::Discard));
        assert_eq!(p.op(4), StepOp::Send(&packed));
        assert_eq!(p.deps(3).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(p.send_count(), 3);
        // Tokens and discards take no side-list entry.
        assert_eq!((p.sends.len(), p.recvs.len()), (2, 1));
    }
}
