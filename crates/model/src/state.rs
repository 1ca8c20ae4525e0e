//! Model states: per-rank protocol state, the abstract fabric, the
//! adversary budgets, and the violation vocabulary.
//!
//! Everything in [`World`] is canonically ordered (`BTreeMap`/`BTreeSet`,
//! fixed-size vectors) so that structurally equal states hash equal and
//! the explorer's visited set deduplicates reliably.

use crate::frames::{Frame, Pkt, ProtoFrame};
use pm2_newmad::SeqWindow;
use std::collections::{BTreeMap, BTreeSet};

/// What one rank's application script does at one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Send one eager message.
    Eager {
        /// Destination rank.
        dst: usize,
        /// Matching tag.
        tag: u64,
        /// Flow sequence number.
        seq: u32,
    },
    /// Send one rendezvous message of `chunks` data chunks.
    Rdv {
        /// Destination rank.
        dst: usize,
        /// Data chunk count (≥ 1).
        chunks: u32,
    },
    /// Issue a one-sided put (`chunks` = 0 ⇒ single eager-size frame,
    /// ≥ 2 ⇒ that many `RmaPutData` chunks).
    RmaPut {
        /// Target rank.
        dst: usize,
        /// Chunk count (0 for the small-put wire form).
        chunks: u32,
    },
    /// Issue a one-sided get (`reply_chunks` = 0 ⇒ single reply frame,
    /// ≥ 2 ⇒ that many `RmaGetData` chunks back).
    RmaGet {
        /// Target rank.
        dst: usize,
        /// Reply chunk count (0 for the single-reply wire form).
        reply_chunks: u32,
    },
    /// Issue a one-sided accumulate.
    RmaAcc {
        /// Target rank.
        dst: usize,
    },
}

/// One scripted application operation, tagged with its flow id.
///
/// Flow ids double as the wire-level `rdv`/`op` identifiers, so they
/// must be unique across the whole configuration (asserted by
/// [`Cfg::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppOp {
    /// Unique flow id (also the wire `rdv`/`op` id for non-eager ops).
    pub flow: u64,
    /// What the operation does.
    pub kind: OpKind,
}

/// A seeded protocol mutation: a deliberate, localized bug injected into
/// the transition tables so the explorer can prove it finds the
/// resulting violation. Each variant names the defense it removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mutation {
    /// Envelope layer stops advancing the receive `SeqWindow`: every
    /// duplicate envelope is dispatched as if fresh.
    SkipSeqWindowAdvance,
    /// `cts-stale` rule removed: a CTS for an unknown rendezvous hits no
    /// rule (production would panic on an unhandled frame).
    DropDupCtsGuard,
    /// `rts-fresh` no longer checks for an existing assembly: a
    /// duplicate RTS resets the receiver's chunk assembly mid-flight.
    SkipRtsDedup,
    /// Put-chunk assembly forgets to mark chunks as seen: duplicates
    /// are counted twice and completion fires with holes.
    ForgetChunkBitmap,
    /// Retry exhaustion is detected but the waiting request is never
    /// failed: the flow stalls silently instead of erroring out.
    IgnoreRetriesExhausted,
    /// The retransmit timer stops re-issuing RTS envelopes (fires,
    /// burns an attempt, sends nothing).
    DontReissueRts,
    /// Envelope acks are only sent for fresh envelopes; duplicates are
    /// suppressed without re-acking, so the sender retries forever.
    AckOnlyFresh,
    /// Rendezvous receive completes one chunk early (at `chunks - 1`).
    CompleteRecvEarly,
    /// Get-reply chunk assembly skips its duplicate check.
    SkipGetChunkDedup,
}

/// The active mutation set (empty ⇒ the faithful tables).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Muts(pub BTreeSet<Mutation>);

impl Muts {
    /// The faithful, unmutated tables.
    pub fn none() -> Self {
        Muts::default()
    }
    /// A mutation set from a list.
    pub fn of(list: &[Mutation]) -> Self {
        Muts(list.iter().copied().collect())
    }
    /// Whether `m` is active.
    pub fn has(&self, m: Mutation) -> bool {
        self.0.contains(&m)
    }
}

/// A bounded model configuration: ranks, scripts, adversary budgets.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Number of ranks (2–3 in practice).
    pub ranks: usize,
    /// Per-rank application scripts, executed in order.
    pub scripts: Vec<Vec<AppOp>>,
    /// Envelope retry budget (production `SessionConfig::max_retries`).
    pub max_retries: u32,
    /// How many in-flight frames the adversary may drop.
    pub drop_budget: u8,
    /// How many in-flight frames the adversary may duplicate.
    pub dup_budget: u8,
}

impl Cfg {
    /// Panics if the configuration is malformed (flow ids not unique,
    /// script destinations out of range, self-sends).
    pub fn validate(&self) {
        assert_eq!(self.scripts.len(), self.ranks, "one script per rank");
        let mut flows = BTreeSet::new();
        for (rank, script) in self.scripts.iter().enumerate() {
            for op in script {
                assert!(flows.insert(op.flow), "flow id {} reused", op.flow);
                let dst = match op.kind {
                    OpKind::Eager { dst, .. }
                    | OpKind::Rdv { dst, .. }
                    | OpKind::RmaPut { dst, .. }
                    | OpKind::RmaGet { dst, .. }
                    | OpKind::RmaAcc { dst } => dst,
                };
                assert!(dst < self.ranks, "dest {dst} out of range");
                assert_ne!(dst, rank, "self-sends are not modelled");
            }
        }
    }

    /// All (origin, op) pairs across every script.
    pub fn all_ops(&self) -> impl Iterator<Item = (usize, &AppOp)> {
        self.scripts
            .iter()
            .enumerate()
            .flat_map(|(rank, script)| script.iter().map(move |op| (rank, op)))
    }

    /// The flow id of the eager op matching (origin, dst, tag, seq).
    ///
    /// Eager wire frames do not carry their flow id; exhaustion handling
    /// uses this reverse lookup to void the right flow.
    pub fn eager_flow(&self, origin: usize, dst: usize, tag: u64, seq: u32) -> Option<u64> {
        self.scripts[origin].iter().find_map(|op| match op.kind {
            OpKind::Eager {
                dst: d,
                tag: t,
                seq: s,
            } if d == dst && t == tag && s == seq => Some(op.flow),
            _ => None,
        })
    }
}

/// Receiver-side chunk assembly (rendezvous data, put chunks, get-reply
/// chunks): the model twin of production's chunk bitmap + counter.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asm {
    /// Which chunk indices have landed.
    pub seen: Vec<bool>,
    /// How many arrivals were counted (≠ popcount(seen) under the
    /// `ForgetChunkBitmap` mutation — that gap *is* the bug).
    pub received: u32,
}

impl Asm {
    /// Fresh assembly for `chunks` chunks.
    pub fn new(chunks: u32) -> Self {
        Asm {
            seen: vec![false; chunks as usize],
            received: 0,
        }
    }
}

/// One pending (unacked) envelope at its sender.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelPend {
    /// The protocol frame inside the envelope (for retransmission).
    pub inner: ProtoFrame,
    /// Retransmit attempts so far (0 = only the original transmission).
    pub attempts: u32,
}

/// Status of one application flow at its origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowSt {
    /// The origin-side request completed (production `req.complete()`).
    pub completed: bool,
    /// The origin-side request failed with a typed error (production
    /// `req.fail(RetriesExhausted)`).
    pub failed: bool,
}

/// One rank's complete protocol state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeState {
    /// Next script index to run.
    pub next_op: usize,
    /// Origin-side flow status, keyed by flow id.
    pub flows: BTreeMap<u64, FlowSt>,
    /// Eager deliveries: (src, tag, seq) → delivery count.
    pub delivered_eager: BTreeMap<(usize, u64, u32), u32>,
    /// Rendezvous deliveries: (src, rdv) → delivery count. Production
    /// rdv ids are per-sender counters, so the id alone is ambiguous.
    pub delivered_rdv: BTreeMap<(usize, u64), u32>,
    /// RMA target-side applies: (src, op) → apply count (op ids are
    /// per-origin counters, like rdv ids).
    pub applied_rma: BTreeMap<(usize, u64), u32>,
    /// Sender-side in-flight rendezvous (RTS sent, waiting for CTS).
    pub rdv_sends: BTreeMap<u64, u32>,
    /// Receiver-side rendezvous assemblies, keyed (src, rdv).
    pub rdv_recvs: BTreeMap<(usize, u64), Asm>,
    /// Origin-side in-flight RMA ops: op → target rank.
    pub rma_ops: BTreeMap<u64, usize>,
    /// Target-side put-chunk assemblies, keyed (src, op).
    pub rma_chunks: BTreeMap<(usize, u64), Asm>,
    /// Origin-side get-reply chunk assemblies, keyed by op.
    pub rma_get_asm: BTreeMap<u64, Asm>,
    /// Next envelope seq to assign, per destination.
    pub rel_next_tx: BTreeMap<usize, u64>,
    /// Pending (unacked) envelopes, keyed (dest, rel).
    pub rel_pending: BTreeMap<(usize, u64), RelPend>,
    /// Per-source receive window — the *production* `SeqWindow`, so the
    /// explorer checks the shipped dedup code, not a model twin.
    pub rel_rx: BTreeMap<usize, SeqWindow>,
    /// Ghost state (not part of any implementation): the exact set of
    /// envelope seqs ever delivered, per source. The explorer compares
    /// `SeqWindow` verdicts against this oracle to prove the window
    /// sound in both directions.
    pub env_seen: BTreeMap<usize, BTreeSet<u64>>,
}

/// The complete explored state: all ranks, the fabric, the adversary.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct World {
    /// Per-rank protocol state.
    pub nodes: Vec<NodeState>,
    /// Frames in flight, as a multiset (duplication makes counts > 1).
    pub net: BTreeMap<Pkt, u8>,
    /// Remaining adversary drop budget.
    pub drops_left: u8,
    /// Remaining adversary duplication budget.
    pub dups_left: u8,
    /// Flows voided by legitimate retry exhaustion: their goals and
    /// leftover state are excused at terminal states.
    pub voided: BTreeSet<u64>,
}

impl World {
    /// The initial state for `cfg`: quiet fabric, full budgets.
    pub fn init(cfg: &Cfg) -> Self {
        World {
            nodes: vec![NodeState::default(); cfg.ranks],
            net: BTreeMap::new(),
            drops_left: cfg.drop_budget,
            dups_left: cfg.dup_budget,
            voided: BTreeSet::new(),
        }
    }

    /// Add one copy of `pkt` to the fabric.
    pub fn net_add(&mut self, pkt: Pkt) {
        *self.net.entry(pkt).or_insert(0) += 1;
    }

    /// Remove one copy of `pkt` from the fabric.
    pub fn net_remove(&mut self, pkt: &Pkt) {
        match self.net.get_mut(pkt) {
            Some(1) => {
                self.net.remove(pkt);
            }
            Some(n) => *n -= 1,
            None => unreachable!("removing a frame that is not in flight"),
        }
    }

    /// Whether any copy of an envelope `rel` from `src` to `dst` is
    /// still in flight.
    pub fn env_in_flight(&self, src: usize, dst: usize, rel: u64) -> bool {
        self.net.keys().any(|p| {
            p.src == src && p.dst == dst && matches!(p.frame, Frame::Env { rel: r, .. } if r == rel)
        })
    }

    /// Whether an ack for envelope `rel` is in flight from `src` to `dst`.
    pub fn ack_in_flight(&self, src: usize, dst: usize, rel: u64) -> bool {
        self.net
            .keys()
            .any(|p| p.src == src && p.dst == dst && p.frame == Frame::Ack { rel })
    }
}

/// A safety or liveness property the explorer found violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A message/op was delivered or applied more than once.
    DoubleDelivery {
        /// Human-readable description of the duplicated delivery.
        what: String,
    },
    /// A chunk assembly completed with missing or double-counted chunks.
    CorruptAssembly {
        /// Human-readable description of the corrupt completion.
        what: String,
    },
    /// A frame arrived that no rule handles (production panics here).
    UnhandledFrame {
        /// Human-readable description of the orphan frame.
        what: String,
    },
    /// More than one rule claimed the same frame: the table is not
    /// deterministic.
    AmbiguousRules {
        /// The rule names that collided.
        what: String,
    },
    /// The production `SeqWindow` disagreed with the ghost seen-set:
    /// re-admitted a duplicate or suppressed a fresh envelope.
    WindowUnsound {
        /// Which direction it failed, and for which envelope.
        what: String,
    },
    /// Retry exhaustion fired even though the adversary's drop budget
    /// cannot exhaust the retry budget (the timeout-gating theorem says
    /// each timer fire consumes at least one drop).
    SpuriousExhaustion {
        /// Which envelope exhausted.
        what: String,
    },
    /// A terminal state where some flow neither met its goal nor
    /// surfaced a typed failure: a silent stall (deadlock from the
    /// application's point of view).
    SilentStall {
        /// Which goal went unmet.
        what: String,
    },
    /// A terminal state retains protocol state for a flow that neither
    /// failed nor was voided: a leak.
    LeftoverState {
        /// Which table still holds state.
        what: String,
    },
}

impl Violation {
    /// Stable kind tag for assertions and counterexample headers.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::DoubleDelivery { .. } => "double-delivery",
            Violation::CorruptAssembly { .. } => "corrupt-assembly",
            Violation::UnhandledFrame { .. } => "unhandled-frame",
            Violation::AmbiguousRules { .. } => "ambiguous-rules",
            Violation::WindowUnsound { .. } => "window-unsound",
            Violation::SpuriousExhaustion { .. } => "spurious-exhaustion",
            Violation::SilentStall { .. } => "silent-stall",
            Violation::LeftoverState { .. } => "leftover-state",
        }
    }

    /// The free-form detail string.
    pub fn detail(&self) -> &str {
        match self {
            Violation::DoubleDelivery { what }
            | Violation::CorruptAssembly { what }
            | Violation::UnhandledFrame { what }
            | Violation::AmbiguousRules { what }
            | Violation::WindowUnsound { what }
            | Violation::SpuriousExhaustion { what }
            | Violation::SilentStall { what }
            | Violation::LeftoverState { what } => what,
        }
    }
}
