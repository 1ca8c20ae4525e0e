//! Matching state: posted receives, the unexpected pool, sequence/credit
//! bookkeeping, and the per-transport pack lists.
//!
//! Extracted from the session monolith: this module owns [`NmState`] (the
//! data every protocol path mutates) and the pure matching helpers; the
//! protocol logic itself lives in `eager`, `rendezvous` and `progress`.
//!
//! # Keyed matching
//!
//! The posted-receive and unexpected pools used to be flat `Vec`s scanned
//! front to back on every match — O(pool) per lookup, quadratic under the
//! incast scenarios where hundreds of messages arrive before their
//! receives are posted. Both are now keyed by `(source, tag)` (and by
//! `tag` for wildcards), so a lookup touches only its own key's front. A
//! global monotonic stamp per entry preserves the *exact* former scan
//! semantics:
//!
//! * [`PostedTable`]: a posted receive sits under exactly one key —
//!   directed `(src, tag)` or wildcard `tag` — and is stored in that key's
//!   map slot: the first pending entry inline with its stamp, a queue only
//!   once a second entry waits on the same key, and the key removed with
//!   its last entry. A pending receive thus costs one map slot, with no
//!   arena slot, index record or per-key queue beside it. A match compares
//!   the two candidate fronts by stamp, which is precisely "first posted
//!   receive matching (src, tag)" of the old linear scan.
//! * [`ArrivalPool`]: an unexpected message must be findable both by a
//!   directed receive and by a wildcard one, so its entry lives in a
//!   [`Slab`] arena and is indexed in *two* queues of `(index, stamp)`
//!   pairs. Consuming it through one index leaves a stale twin in the
//!   other; twins are skipped (stamp mismatch against the arena) and
//!   discarded lazily, so total probe work stays O(entries), each entry
//!   paying for its own two index records.

use crate::config::NmCounters;
use crate::reliability::RelPending;
use crate::rendezvous::{RdvRecv, RdvSend};
use crate::rma::{RmaChunks, RmaGetAssembly, RmaOp};
use crate::strategy::{Pack, PackKind};
use pioman::PiomReq;
use pm2_sim::Slab;
use pm2_topo::NodeId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use crate::msg::Tag;

/// An eager message that arrived before its receive was posted (§2.2's
/// unexpected path: it sits in the library pool until matched).
pub(crate) struct UnexpectedMsg {
    pub(crate) src: NodeId,
    pub(crate) tag: Tag,
    pub(crate) seq: u32,
    pub(crate) data: Vec<u8>,
}

/// A rendezvous announcement (RTS) with no posted receive yet.
pub(crate) struct UnexpectedRts {
    pub(crate) src: NodeId,
    pub(crate) tag: Tag,
    pub(crate) seq: u32,
    pub(crate) len: usize,
    pub(crate) rdv: u64,
}

/// A multiply-rotate hasher for the small integer keys of the matching
/// maps ([`NodeId`], [`Tag`]). SipHash's DoS resistance buys nothing
/// against a deterministic simulator and costs real time on the eager
/// hot path, where nearly every queue is one hash lookup deep.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// Once an arrival-pool map holds this many entries *and* outnumbers the
/// live arena fourfold, queues with no live entry are swept and the table
/// shrunk to what is left. Below the floor they are kept so a ping-pong on a few
/// `(peer, tag)` keys reuses its queues' capacity instead of re-allocating
/// every round; keys used once (a tag per round or per collective) are
/// reclaimed after a handful. A posted-receive map is shrunk once it is
/// larger than the floor and under a quarter full.
const MAP_SWEEP_FLOOR: usize = 8;

fn sweep_if_bloated<K: Eq + std::hash::Hash, V>(
    map: &mut FxMap<K, VecDeque<V>>,
    live: usize,
    is_live: impl Fn(&V) -> bool,
) {
    if map.len() > MAP_SWEEP_FLOOR && map.len() > 4 * live {
        map.retain(|_, q| q.iter().any(&is_live));
        map.shrink_to_fit();
    }
}

/// One key's pending receives in posting order, each with its stamp: the
/// first inline, a queue only once a second one is pending. A queue is
/// never empty: the key is removed with its last entry. The queue is
/// boxed so that the common single entry sets the map slot's size.
enum Pending<T> {
    One(u64, T),
    #[allow(clippy::box_collection)]
    Many(Box<VecDeque<(u64, T)>>),
}

impl<T> Pending<T> {
    fn front_stamp(&self) -> Option<u64> {
        match self {
            Pending::One(stamp, _) => Some(*stamp),
            Pending::Many(queue) => queue.front().map(|&(stamp, _)| stamp),
        }
    }

    fn push(&mut self, stamp: u64, value: T) {
        match self {
            Pending::Many(queue) => queue.push_back((stamp, value)),
            Pending::One(..) => {
                let mut queue = Box::new(VecDeque::with_capacity(2));
                queue.push_back((stamp, value));
                // The inline entry goes in front of the new one.
                if let (Pending::One(first, v), Pending::Many(queue)) =
                    (std::mem::replace(self, Pending::Many(queue)), self)
                {
                    queue.push_front((first, v));
                }
            }
        }
    }
}

fn push_pending<K: Eq + std::hash::Hash, T>(
    map: &mut FxMap<K, Pending<T>>,
    key: K,
    stamp: u64,
    value: T,
) {
    match map.entry(key) {
        Entry::Occupied(mut pending) => pending.get_mut().push(stamp, value),
        Entry::Vacant(slot) => {
            slot.insert(Pending::One(stamp, value));
        }
    }
}

/// Takes the oldest entry under `key`, removing the key with its last
/// entry; a table left at a quarter of its capacity is shrunk.
fn pop_pending<K: Eq + std::hash::Hash, T>(map: &mut FxMap<K, Pending<T>>, key: K) -> Option<T> {
    let Entry::Occupied(mut slot) = map.entry(key) else {
        return None;
    };
    let value = match slot.get_mut() {
        Pending::Many(queue) if queue.len() > 1 => queue.pop_front(),
        _ => match slot.remove() {
            Pending::One(stamp, v) => Some((stamp, v)),
            Pending::Many(mut queue) => queue.pop_front(),
        },
    };
    if map.capacity() > MAP_SWEEP_FLOOR && map.len() * 4 < map.capacity() {
        map.shrink_to_fit();
    }
    value.map(|(_, v)| v)
}

/// Posted receives, matched in posting order.
///
/// Directed posts are kept under `(src, tag)`, wildcard posts under
/// `tag`, each entry in its key's map slot (see [`Pending`]); an incoming
/// `(src, tag)` message takes the older of the two candidate fronts by
/// stamp. A key is removed with its last entry, so the maps hold only
/// keys with a pending receive.
pub(crate) struct PostedTable<T> {
    by_src: FxMap<(NodeId, Tag), Pending<T>>,
    any_src: FxMap<Tag, Pending<T>>,
    len: usize,
    next_stamp: u64,
}

impl<T> PostedTable<T> {
    pub(crate) fn new() -> Self {
        PostedTable {
            by_src: FxMap::default(),
            any_src: FxMap::default(),
            len: 0,
            next_stamp: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn push(&mut self, src: Option<NodeId>, tag: Tag, value: T) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.len += 1;
        match src {
            Some(s) => push_pending(&mut self.by_src, (s, tag), stamp, value),
            None => push_pending(&mut self.any_src, tag, stamp, value),
        }
    }

    /// Takes the first (in posting order) entry matching a message from
    /// `src` with `tag`; returns it plus the probe count (candidate fronts
    /// examined, ≥ 1 per call).
    pub(crate) fn take(&mut self, src: NodeId, tag: Tag) -> (Option<T>, u64) {
        let directed = self.by_src.get(&(src, tag)).and_then(Pending::front_stamp);
        let wildcard = self.any_src.get(&tag).and_then(Pending::front_stamp);
        let probes = (directed.is_some() as u64 + wildcard.is_some() as u64).max(1);
        let value = match (directed, wildcard) {
            (Some(d), Some(w)) if d < w => pop_pending(&mut self.by_src, (src, tag)),
            (Some(_), None) => pop_pending(&mut self.by_src, (src, tag)),
            (_, Some(_)) => pop_pending(&mut self.any_src, tag),
            (None, None) => None,
        };
        self.len -= value.is_some() as usize;
        (value, probes)
    }
}

/// Arrived-before-matched entries (unexpected messages, parked RTS),
/// arena-backed, consumed in arrival order.
///
/// Each entry is indexed twice — under `(src, tag)` for directed
/// receives and under `tag` for wildcards — and validated by stamp on
/// access, so the twin left behind by a removal is skipped lazily, and
/// a queue left holding only twins is swept with the emptied ones.
pub(crate) struct ArrivalPool<T> {
    arena: Slab<(u64, T)>,
    by_src: FxMap<(NodeId, Tag), VecDeque<(usize, u64)>>,
    by_tag: FxMap<Tag, VecDeque<(usize, u64)>>,
    next_stamp: u64,
}

impl<T> ArrivalPool<T> {
    pub(crate) fn new() -> Self {
        ArrivalPool {
            arena: Slab::new(),
            by_src: FxMap::default(),
            by_tag: FxMap::default(),
            next_stamp: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.arena.len()
    }

    pub(crate) fn push(&mut self, src: NodeId, tag: Tag, value: T) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let idx = self.arena.insert((stamp, value));
        // A new key's queues start with room for one entry, not the four
        // of a first `push_back`: with a tag per message (a rendezvous
        // announcement each, say) every entry has keys of its own.
        let new_queue = || VecDeque::with_capacity(1);
        self.by_src
            .entry((src, tag))
            .or_insert_with(new_queue)
            .push_back((idx, stamp));
        self.by_tag
            .entry(tag)
            .or_insert_with(new_queue)
            .push_back((idx, stamp));
    }

    /// True if `(idx, stamp)` indexes a live entry, not a stale twin.
    fn is_live(arena: &Slab<(u64, T)>, &(idx, stamp): &(usize, u64)) -> bool {
        arena.get(idx).is_some_and(|&(live, _)| live == stamp)
    }

    /// Pops stale twins off the selected queue's front until a live entry
    /// (or the end) is reached; returns its arena index.
    fn front_live(&mut self, src: Option<NodeId>, tag: Tag, probes: &mut u64) -> Option<usize> {
        let q = match src {
            Some(s) => self.by_src.get_mut(&(s, tag)),
            None => self.by_tag.get_mut(&tag),
        }?;
        let arena = &self.arena;
        let found = loop {
            let Some(&entry) = q.front() else {
                break None;
            };
            *probes += 1;
            if Self::is_live(arena, &entry) {
                break Some(entry.0);
            }
            q.pop_front(); // stale twin: consumed through the other index
        };
        found
    }

    /// Takes the oldest entry matching `(src, tag)` (`src == None` is the
    /// wildcard); returns it plus the probe count (index records
    /// examined, ≥ 1 per call).
    pub(crate) fn take(&mut self, src: Option<NodeId>, tag: Tag) -> (Option<T>, u64) {
        let mut probes = 0u64;
        let found = self.front_live(src, tag, &mut probes);
        let value = found.map(|idx| {
            match src {
                Some(s) => self.by_src.get_mut(&(s, tag)),
                None => self.by_tag.get_mut(&tag),
            }
            // lint-allow: arena invariant, front_live found this queue
            .expect("live front just seen")
            .pop_front();
            // lint-allow: arena invariant, stamp validated by front_live
            let value = self.arena.remove(idx).expect("validated live").1;
            let arena = &self.arena;
            let is_live = |e: &(usize, u64)| Self::is_live(arena, e);
            sweep_if_bloated(&mut self.by_src, arena.len(), is_live);
            sweep_if_bloated(&mut self.by_tag, arena.len(), is_live);
            value
        });
        (value, probes.max(1))
    }

    /// Non-destructive variant of [`ArrivalPool::take`] (still prunes the
    /// stale twins it walks over).
    pub(crate) fn peek(&mut self, src: Option<NodeId>, tag: Tag) -> (Option<&T>, u64) {
        let mut probes = 0u64;
        let found = self.front_live(src, tag, &mut probes);
        // lint-allow: arena invariant, stamp validated by front_live
        let value = found.map(|idx| &self.arena.get(idx).expect("validated live").1);
        (value, probes.max(1))
    }
}

impl<T> Default for ArrivalPool<T> {
    fn default() -> Self {
        ArrivalPool::new()
    }
}

/// Duplicate-suppression window over one peer's envelope sequence stream.
///
/// Tracks the seen set as a cumulative prefix (`cum` = next expected seq)
/// plus the out-of-order stragglers beyond it, so memory stays bounded by
/// the reorder depth rather than the message count — a 10⁶-message soak
/// keeps this at a handful of entries.
///
/// Public so pm2-model can embed the *production* window in its abstract
/// protocol states: the explorer then proves window soundness over this
/// exact code rather than a parallel re-implementation that could drift.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct SeqWindow {
    cum: u64,
    beyond: BTreeSet<u64>,
}

impl SeqWindow {
    /// Records `seq` as seen; returns `true` if it was fresh (first
    /// sighting), `false` for a duplicate.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq != self.cum {
            return seq > self.cum && self.beyond.insert(seq);
        }
        self.cum += 1;
        while self.beyond.remove(&self.cum) {
            self.cum += 1;
        }
        if self.beyond.is_empty() {
            // An emptied `BTreeSet` keeps its node: let it go, so a window
            // that is caught up holds no heap.
            self.beyond = BTreeSet::new();
        }
        true
    }

    /// Next expected sequence number (every seq below it has been seen).
    pub fn cum(&self) -> u64 {
        self.cum
    }

    /// Out-of-order sequence numbers seen beyond the cumulative prefix.
    pub fn beyond(&self) -> impl Iterator<Item = u64> + '_ {
        self.beyond.iter().copied()
    }
}

/// Sender side: what a node keeps per destination.
#[derive(Default)]
pub(crate) struct ToPeer {
    /// Next message sequence number. One counter serves every tag: it is
    /// monotone in send order within each `(dest, tag)` flow, which is all
    /// [`Delivered`] reads.
    pub(crate) seq: u32,
    /// Eager credit bytes spent and not yet returned; the destination's
    /// unexpected pool has `credit_bytes_per_peer - credits_used` left.
    pub(crate) credits_used: i64,
}

/// Receiver side: what a node keeps per source. Both fields are inline;
/// only a source consumed out of order allocates (see [`Delivered`]).
#[derive(Default)]
pub(crate) struct FromPeer {
    /// Freed pool bytes not yet returned to the source.
    pub(crate) credit_owed: usize,
    /// Which of the source's messages were consumed, for
    /// `ooo_deliveries`.
    pub(crate) delivered: Delivered,
}

/// Once this many of a source's seqs are consumed above its delivered
/// prefix, the seq at the prefix is taken never to come (a send nobody
/// receives, an abandoned handshake) and the source stops pruning.
const STALL_BEYOND: usize = 256;

/// Delivery-order accounting for one source's message stream.
///
/// A delivery is out of order iff its `(src, tag)` flow already delivered
/// a higher seq. Keeping that highest seq for every flow ever seen costs
/// one entry per tag (per message, for one-shot tags); this keeps it only
/// where it can still matter. Seqs are consumed at most once, so every
/// seq still to come lies at or above the source's delivered prefix (all
/// seqs below it were consumed): a flow whose highest seq fell below the
/// prefix can never again be overtaken, and its entry is dropped. A
/// delivery exactly at the prefix of a flow with no entry would be
/// dropped at once, so it inserts nothing.
///
/// A source consumed in seq order holds the prefix and nothing else; the
/// seqs consumed above the prefix and the flow entries live in a box
/// allocated when the source first consumes out of order and freed once
/// the prefix has caught up with them.
///
/// A seq that never comes stops the prefix for good. When the set above
/// it outgrows [`STALL_BEYOND`], the source is `stalled`: it keeps every
/// flow's entry from then on, as if nothing were pruned.
#[derive(Default)]
pub(crate) struct Delivered {
    /// Every seq below it was consumed.
    prefix: u64,
    ooo: Option<Box<OutOfOrder>>,
}

/// The part of [`Delivered`] a source consumed in seq order never needs.
#[derive(Default)]
struct OutOfOrder {
    /// Seqs consumed above the prefix. Empty once stalled.
    beyond: BTreeSet<u64>,
    /// Highest delivered seq per tag, for flows at or above the prefix
    /// (every flow once stalled).
    flows: FxMap<Tag, u32>,
    stalled: bool,
}

impl OutOfOrder {
    fn deliver(&mut self, tag: Tag, seq: u32, at_prefix: bool) -> bool {
        match self.flows.get_mut(&tag) {
            Some(last) if seq < *last => true,
            Some(last) => {
                *last = seq;
                false
            }
            None => {
                if self.stalled || !at_prefix {
                    self.flows.insert(tag, seq);
                }
                false
            }
        }
    }
}

impl Delivered {
    /// Records the delivery of `seq` on flow `tag`; returns whether the
    /// flow had already delivered a higher seq.
    pub(crate) fn deliver(&mut self, tag: Tag, seq: u32) -> bool {
        let at_prefix = u64::from(seq) == self.prefix;
        let late = match self.ooo.as_deref_mut() {
            Some(ooo) => ooo.deliver(tag, seq, at_prefix),
            // In order with no flow entry: nothing to keep.
            None if at_prefix => false,
            None => self.ooo.insert(Box::default()).deliver(tag, seq, at_prefix),
        };
        self.consume(seq);
        late
    }

    /// Records that `seq` was consumed without a delivery being counted
    /// (a parked rendezvous announcement taken by a receive).
    pub(crate) fn consume(&mut self, seq: u32) {
        let seq = u64::from(seq);
        if self.ooo.as_deref().is_some_and(|o| o.stalled) {
            return;
        }
        if seq != self.prefix {
            debug_assert!(seq > self.prefix, "seq {seq} consumed twice");
            if seq < self.prefix {
                return;
            }
            let ooo = self.ooo.get_or_insert_with(Box::default);
            let fresh = ooo.beyond.insert(seq);
            debug_assert!(fresh, "seq {seq} consumed twice");
            if ooo.beyond.len() > STALL_BEYOND {
                ooo.stalled = true;
                ooo.beyond = BTreeSet::new();
            }
            return;
        }
        self.prefix += 1;
        let Some(ooo) = self.ooo.as_deref_mut() else {
            return;
        };
        while ooo.beyond.remove(&self.prefix) {
            self.prefix += 1;
        }
        let prefix = self.prefix;
        ooo.flows.retain(|_, last| u64::from(*last) >= prefix);
        if ooo.beyond.is_empty() && ooo.flows.is_empty() {
            // Caught up: a source back in order holds no heap.
            self.ooo = None;
        } else if ooo.flows.is_empty() {
            // `retain` keeps the table: release it.
            ooo.flows = FxMap::default();
        }
    }
}

/// Rendezvous state, allocated by a node's first rendezvous or parked
/// RTS: eager-only traffic never pays for it.
pub(crate) struct RdvState {
    pub(crate) sends: HashMap<u64, RdvSend>,
    pub(crate) recvs: HashMap<(NodeId, u64), RdvRecv>,
    pub(crate) unexpected_rts: ArrivalPool<UnexpectedRts>,
    /// `(src, rdv)` of every parked RTS — O(1) duplicate suppression
    /// (the pool itself is keyed by `(src, tag)`, not rdv id).
    pub(crate) parked_rts: HashSet<(NodeId, u64)>,
    pub(crate) next_rdv: u64,
}

impl Default for RdvState {
    fn default() -> Self {
        RdvState {
            sends: HashMap::new(),
            recvs: HashMap::new(),
            unexpected_rts: ArrivalPool::new(),
            parked_rts: HashSet::new(),
            next_rdv: 1,
        }
    }
}

/// Reliability state, allocated by a node's first envelope: fault-free
/// runs never pay for it.
#[derive(Default)]
pub(crate) struct RelState {
    /// Next envelope sequence per destination.
    pub(crate) next_tx: HashMap<NodeId, u64>,
    /// Unacked envelopes awaiting retransmit, keyed by (destination,
    /// envelope seq).
    pub(crate) pending: HashMap<(NodeId, u64), RelPending>,
    /// Per-source duplicate-suppression windows.
    pub(crate) rx: HashMap<NodeId, SeqWindow>,
}

/// One-sided state, allocated by a node's first window or op.
pub(crate) struct RmaState {
    /// Windows exposed by this node: id → window memory.
    pub(crate) windows: HashMap<u64, Vec<u8>>,
    /// Origin-side ops (staged, in flight, or holding an untaken get
    /// result).
    pub(crate) ops: HashMap<u64, RmaOp>,
    /// Ops issued to a remote target and not yet acked — drives driver
    /// arming (a completed get whose result sits untaken does not).
    pub(crate) inflight: usize,
    /// Next origin-scoped op id.
    pub(crate) next_op: u64,
    /// Target-side chunk assembly for large puts, keyed (origin, op).
    pub(crate) chunks: HashMap<(NodeId, u64), RmaChunks>,
    /// Origin-side chunk assembly for large get replies, keyed by op
    /// alone (op ids are origin-scoped; reusing `chunks`' (node, op) key
    /// could collide with a put this node is target-assembling under the
    /// same op number from the same peer).
    pub(crate) get_chunks: HashMap<u64, RmaGetAssembly>,
}

impl Default for RmaState {
    fn default() -> Self {
        RmaState {
            windows: HashMap::new(),
            ops: HashMap::new(),
            inflight: 0,
            next_op: 1,
            chunks: HashMap::new(),
            get_chunks: HashMap::new(),
        }
    }
}

/// All mutable session state behind the `RefCell`.
///
/// What every rank uses stays inline; the rendezvous, reliability and
/// one-sided groups are boxed and allocated on first use. Checks of
/// pending work read an absent group as empty and never allocate it.
pub(crate) struct NmState {
    /// Waiting packs bound for the network rails (Figure 3's send list,
    /// one per transport since the progression split).
    pub(crate) net_packs: VecDeque<Pack>,
    /// Waiting packs bound for the intra-node shared-memory channel.
    pub(crate) shm_packs: VecDeque<Pack>,
    /// Global enqueue stamp shared by both lists (see [`Pack::seq`]).
    pub(crate) pack_seq: u64,
    /// Receives posted by the application, waiting for a match: each is
    /// its request (its source and tag are its key; the payload goes into
    /// the request's record).
    pub(crate) posted: PostedTable<PiomReq>,
    pub(crate) unexpected: ArrivalPool<UnexpectedMsg>,
    /// Sender side, per destination: message seqs and credits.
    pub(crate) to: FxMap<NodeId, ToPeer>,
    /// Receiver side, per source: credits owed and delivery order.
    pub(crate) from: FxMap<NodeId, FromPeer>,
    pub(crate) rdv: Option<Box<RdvState>>,
    pub(crate) rel: Option<Box<RelState>>,
    pub(crate) rma: Option<Box<RmaState>>,
    pub(crate) rail_rr: usize,
    pub(crate) poll_rotor: usize,
    /// Productive progress steps per driver shard (rails…, then shm).
    pub(crate) driver_work: Vec<u64>,
    pub(crate) counters: NmCounters,
}

impl NmState {
    pub(crate) fn new(n_rails: usize) -> NmState {
        NmState {
            net_packs: VecDeque::new(),
            shm_packs: VecDeque::new(),
            pack_seq: 0,
            posted: PostedTable::new(),
            unexpected: ArrivalPool::new(),
            to: FxMap::default(),
            from: FxMap::default(),
            rdv: None,
            rel: None,
            rma: None,
            rail_rr: 0,
            poll_rotor: 0,
            driver_work: vec![0; n_rails + 1],
            counters: NmCounters::default(),
        }
    }

    /// The rendezvous group, allocated on first use.
    pub(crate) fn rdv(&mut self) -> &mut RdvState {
        self.rdv.get_or_insert_with(Box::default)
    }

    /// The reliability group, allocated on first use.
    pub(crate) fn rel(&mut self) -> &mut RelState {
        self.rel.get_or_insert_with(Box::default)
    }

    /// The one-sided group, allocated on first use.
    pub(crate) fn rma(&mut self) -> &mut RmaState {
        self.rma.get_or_insert_with(Box::default)
    }

    /// True while a rendezvous, an unacked envelope or a one-sided op
    /// (in flight, or half-assembled) waits on the network.
    pub(crate) fn protocol_armed(&self) -> bool {
        self.rdv
            .as_deref()
            .is_some_and(|r| !r.sends.is_empty() || !r.recvs.is_empty())
            || self.rel.as_deref().is_some_and(|r| !r.pending.is_empty())
            || self
                .rma
                .as_deref()
                .is_some_and(|r| r.inflight > 0 || !r.chunks.is_empty() || !r.get_chunks.is_empty())
    }

    /// Enqueues a pack on the transport list matching its destination
    /// (`own` node → shared memory, anything else → network), stamping it
    /// with the next global rank.
    pub(crate) fn push_pack(&mut self, own: NodeId, dest: NodeId, kind: PackKind) {
        let seq = self.pack_seq;
        self.pack_seq += 1;
        let pack = Pack { dest, seq, kind };
        if dest == own {
            self.shm_packs.push_back(pack);
        } else {
            self.net_packs.push_back(pack);
        }
    }

    /// Registers a receive for `(src, tag)` (`None` = any source) for
    /// matching.
    pub(crate) fn post_recv(&mut self, src: Option<NodeId>, tag: Tag, req: PiomReq) {
        self.posted.push(src, tag, req);
    }

    /// Takes the first posted receive matching a message from `(src,
    /// tag)`, exactly as the former front-to-back scan would have.
    pub(crate) fn take_posted(&mut self, src: NodeId, tag: Tag) -> Option<PiomReq> {
        let (req, probes) = self.posted.take(src, tag);
        self.counters.match_probes += probes;
        req
    }

    /// Parks an eager message that arrived before its receive.
    pub(crate) fn park_unexpected(&mut self, msg: UnexpectedMsg) {
        self.counters.unexpected += 1;
        let (src, tag) = (msg.src, msg.tag);
        self.unexpected.push(src, tag, msg);
    }

    /// Takes the oldest unexpected message matching `(src, tag)`.
    pub(crate) fn take_unexpected(
        &mut self,
        src: Option<NodeId>,
        tag: Tag,
    ) -> Option<UnexpectedMsg> {
        let (msg, probes) = self.unexpected.take(src, tag);
        self.counters.match_probes += probes;
        msg
    }

    /// Payload length of the oldest matching unexpected message, without
    /// consuming it.
    pub(crate) fn probe_unexpected(&mut self, src: Option<NodeId>, tag: Tag) -> Option<usize> {
        let (msg, probes) = self.unexpected.peek(src, tag);
        let len = msg.map(|m| m.data.len());
        self.counters.match_probes += probes;
        len
    }

    /// Parks a rendezvous announcement with no posted receive yet.
    pub(crate) fn park_rts(&mut self, rts: UnexpectedRts) {
        self.counters.unexpected += 1;
        let rdv = self.rdv();
        rdv.parked_rts.insert((rts.src, rts.rdv));
        let (src, tag) = (rts.src, rts.tag);
        rdv.unexpected_rts.push(src, tag, rts);
    }

    /// True if an RTS with this `(src, rdv)` identity is already parked
    /// (duplicate-handshake suppression).
    pub(crate) fn rts_parked(&self, src: NodeId, rdv: u64) -> bool {
        self.rdv
            .as_deref()
            .is_some_and(|r| r.parked_rts.contains(&(src, rdv)))
    }

    /// Takes the oldest parked RTS matching `(src, tag)`; its seq is
    /// consumed (though not counted as a delivery).
    pub(crate) fn take_rts(&mut self, src: Option<NodeId>, tag: Tag) -> Option<UnexpectedRts> {
        let (rts, probes) = match self.rdv.as_deref_mut() {
            Some(r) => r.unexpected_rts.take(src, tag),
            // An empty pool answers after one probe.
            None => (None, 1),
        };
        self.counters.match_probes += probes;
        if let Some(u) = &rts {
            self.rdv().parked_rts.remove(&(u.src, u.rdv));
            self.from.entry(u.src).or_default().delivered.consume(u.seq);
        }
        rts
    }

    /// Announced length of the oldest matching parked RTS, without
    /// consuming it.
    pub(crate) fn probe_rts(&mut self, src: Option<NodeId>, tag: Tag) -> Option<usize> {
        let (len, probes) = match self.rdv.as_deref_mut() {
            Some(r) => {
                let (rts, probes) = r.unexpected_rts.peek(src, tag);
                (rts.map(|u| u.len), probes)
            }
            None => (None, 1),
        };
        self.counters.match_probes += probes;
        len
    }

    /// Tracks delivery order per flow (detects reordering introduced by
    /// non-FIFO strategies). Seqs are compared only within one
    /// `(src, tag)` flow; they need not be consecutive there.
    pub(crate) fn note_delivery(&mut self, src: NodeId, tag: Tag, seq: u32) {
        let from = self.from.entry(src).or_default();
        if from.delivered.deliver(tag, seq) {
            self.counters.ooo_deliveries += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(n: usize) -> NodeId {
        NodeId(n)
    }

    /// Reference model of the former linear scans, for differential
    /// checks: a Vec in insertion order.
    struct NaivePool {
        entries: Vec<(Option<NodeId>, Tag, u32)>,
    }

    impl NaivePool {
        fn matches(e: &(Option<NodeId>, Tag, u32), src: Option<NodeId>, tag: Tag) -> bool {
            // Entry-side wildcard (posted table) and query-side wildcard
            // (arrival pool) both reduce to "None matches anything".
            e.1 == tag && (e.0.is_none() || src.is_none() || e.0 == src)
        }
        fn take(&mut self, src: Option<NodeId>, tag: Tag) -> Option<u32> {
            let pos = self
                .entries
                .iter()
                .position(|e| Self::matches(e, src, tag))?;
            Some(self.entries.remove(pos).2)
        }
    }

    #[test]
    fn posted_table_matches_in_posting_order_across_wildcards() {
        let mut t = PostedTable::new();
        t.push(Some(nid(1)), Tag(7), 100u32); // directed at src 1
        t.push(None, Tag(7), 101); // wildcard, posted later
        t.push(Some(nid(2)), Tag(7), 102);
        // Message from src 2: the wildcard (stamp 1) predates the
        // directed post for src 2 (stamp 2) — old scan took the wildcard.
        assert_eq!(t.take(nid(2), Tag(7)).0, Some(101));
        assert_eq!(t.take(nid(2), Tag(7)).0, Some(102));
        assert_eq!(t.take(nid(2), Tag(7)).0, None);
        assert_eq!(t.take(nid(1), Tag(7)).0, Some(100));
        assert!(t.is_empty());
    }

    #[test]
    fn posted_table_differential_vs_naive_scan() {
        let mut rng = pm2_sim::rng::Xoshiro256::new(7);
        let mut table = PostedTable::new();
        let mut naive = NaivePool {
            entries: Vec::new(),
        };
        let mut next = 0u32;
        for _ in 0..20_000 {
            if rng.gen_bool(0.55) {
                let src = if rng.gen_bool(0.3) {
                    None
                } else {
                    Some(nid(rng.gen_below(4) as usize))
                };
                let tag = Tag(rng.gen_below(3));
                table.push(src, tag, next);
                naive.entries.push((src, tag, next));
                next += 1;
            } else {
                let src = nid(rng.gen_below(4) as usize);
                let tag = Tag(rng.gen_below(3));
                assert_eq!(table.take(src, tag).0, naive.take(Some(src), tag));
            }
        }
    }

    #[test]
    fn arrival_pool_differential_vs_naive_scan() {
        let mut rng = pm2_sim::rng::Xoshiro256::new(11);
        let mut pool = ArrivalPool::new();
        let mut naive = NaivePool {
            entries: Vec::new(),
        };
        let mut next = 0u32;
        for _ in 0..20_000 {
            if rng.gen_bool(0.55) {
                let src = nid(rng.gen_below(4) as usize);
                let tag = Tag(rng.gen_below(3));
                pool.push(src, tag, next);
                naive.entries.push((Some(src), tag, next));
                next += 1;
            } else {
                let src = if rng.gen_bool(0.4) {
                    None
                } else {
                    Some(nid(rng.gen_below(4) as usize))
                };
                let tag = Tag(rng.gen_below(3));
                if rng.gen_bool(0.2) {
                    // Probe must see what a take would take.
                    let want = naive
                        .entries
                        .iter()
                        .find(|e| NaivePool::matches(e, src, tag))
                        .map(|e| e.2);
                    assert_eq!(pool.peek(src, tag).0.copied(), want);
                } else {
                    assert_eq!(pool.take(src, tag).0, naive.take(src, tag));
                }
            }
            assert_eq!(pool.len(), naive.entries.len());
        }
    }

    #[test]
    fn one_shot_tags_leave_match_maps_small() {
        // A tag per round, each used once: the emptied queues must not
        // pile up in the maps, nor their table keep its largest size.
        // What the table reaches just before a sweep empties it.
        const MAX_SLOTS: usize = 2 * MAP_SWEEP_FLOOR;
        let mut posted = PostedTable::new();
        let mut arrived = ArrivalPool::new();
        let (mut posted_max, mut arrived_max, mut by_tag_max) = (0, 0, 0);
        for round in 0..1_000u64 {
            let (src, tag) = (nid((round % 3) as usize), Tag(1000 + round));
            posted.push(Some(src), tag, round);
            assert_eq!(posted.take(src, tag).0, Some(round));
            arrived.push(src, tag, round);
            assert_eq!(arrived.take(Some(src), tag).0, Some(round));
            posted_max = posted_max.max(posted.by_src.capacity());
            arrived_max = arrived_max.max(arrived.by_src.capacity());
            by_tag_max = by_tag_max.max(arrived.by_tag.capacity());
        }
        assert!(
            posted_max <= MAX_SLOTS,
            "posted by_src grew to {posted_max}"
        );
        assert!(
            arrived_max <= MAX_SLOTS,
            "arrived by_src grew to {arrived_max}"
        );
        // Each directed take leaves a stale twin under its tag: the
        // queues holding only twins are swept like emptied ones.
        assert!(
            by_tag_max <= MAX_SLOTS,
            "arrived by_tag grew to {by_tag_max}"
        );
        assert!(posted.by_src.len() <= MAP_SWEEP_FLOOR);
        assert!(arrived.by_src.len() <= MAP_SWEEP_FLOOR);
        assert!(arrived.by_tag.len() <= MAP_SWEEP_FLOOR);
    }

    #[test]
    fn unexpected_backlog_drains_with_linear_probe_work() {
        // Regression (pre-fix: every take scanned the whole Vec, so an
        // N-deep backlog cost Θ(N²) probe work to drain — this asserts
        // the arena keeps it O(N), counter-verified through NmState).
        const N: u64 = 2000;
        let mut st = NmState::new(1);
        for i in 0..N {
            st.park_unexpected(UnexpectedMsg {
                src: nid((i % 7) as usize),
                tag: Tag(i % 5),
                seq: i as u32,
                data: vec![0u8; 8],
            });
        }
        assert_eq!(st.counters.match_probes, 0, "parking is probe-free");
        let mut drained = 0u64;
        for i in 0..N {
            // Alternate directed and wildcard receives, like a mixed
            // incast drain.
            let src = if i % 3 == 0 {
                None
            } else {
                Some(nid((i % 7) as usize))
            };
            if st.take_unexpected(src, Tag(i % 5)).is_some() {
                drained += 1;
            }
        }
        // Drain stragglers via pure wildcards across all tags.
        for tag in 0..5 {
            while st.take_unexpected(None, Tag(tag)).is_some() {
                drained += 1;
            }
        }
        assert_eq!(drained, N, "every parked message is reachable");
        assert_eq!(st.unexpected.len(), 0);
        let probes = st.counters.match_probes;
        assert!(
            probes <= 6 * N,
            "probe work {probes} for backlog {N} is not O(N)"
        );
    }

    #[test]
    fn rts_parking_tracks_duplicate_identity() {
        let mut st = NmState::new(1);
        let rts = |rdv: u64| UnexpectedRts {
            src: nid(3),
            tag: Tag(9),
            seq: 0,
            len: 1 << 20,
            rdv,
        };
        st.park_rts(rts(41));
        st.park_rts(rts(42));
        assert!(st.rts_parked(nid(3), 41));
        assert!(!st.rts_parked(nid(3), 40));
        assert_eq!(st.probe_rts(Some(nid(3)), Tag(9)), Some(1 << 20));
        let got = st.take_rts(None, Tag(9)).expect("oldest parked RTS");
        assert_eq!(got.rdv, 41);
        assert!(!st.rts_parked(nid(3), 41), "identity cleared on take");
        assert!(st.rts_parked(nid(3), 42));
        assert_eq!(st.rdv.as_deref().map(|r| r.unexpected_rts.len()), Some(1));
    }

    #[test]
    fn seq_window_suppresses_duplicates() {
        let mut w = SeqWindow::default();
        assert!(w.insert(0));
        assert!(w.insert(2));
        assert!(!w.insert(0));
        assert!(!w.insert(2));
        assert!(w.insert(1));
        assert!(!w.insert(1));
        assert!(w.insert(3));
    }

    #[test]
    fn from_table_holds_a_small_record_per_source() {
        // Sources delivering in seq order cost a rank one slot each in
        // its `from` table: the key, the credit owed, the prefix and an
        // empty box. The out-of-order set, the flow map and the stall
        // flag inline made a slot 88 B.
        assert_eq!(std::mem::size_of::<FromPeer>(), 24);
        const SOURCES: usize = 64;
        let mut st = NmState::new(1);
        for seq in 0..4 {
            for src in 0..SOURCES {
                st.note_delivery(nid(src), Tag(seq % 2), seq as u32);
            }
        }
        assert!(st.from.values().all(|f| f.delivered.ooo.is_none()));
        // 64 sources take a table of 128 slots (key, record and a control
        // byte each): 66 B per source.
        let slot = std::mem::size_of::<(NodeId, FromPeer)>() + 1;
        let buckets = (st.from.capacity() + 1).next_power_of_two();
        let per_source = buckets * slot / SOURCES;
        assert!(per_source <= 66, "{per_source} B per source");
    }

    /// The former accounting, kept as the reference: the highest seq
    /// delivered per `(src, tag)` flow, one entry per flow ever seen.
    #[derive(Default)]
    struct PerFlowReference {
        last: HashMap<(NodeId, Tag), u32>,
        ooo: u64,
    }

    impl PerFlowReference {
        fn deliver(&mut self, src: NodeId, tag: Tag, seq: u32) {
            let last = self.last.entry((src, tag)).or_insert(0);
            if seq < *last {
                self.ooo += 1;
            } else {
                *last = seq;
            }
        }
    }

    #[test]
    fn delivered_prefix_counts_ooo_like_the_per_flow_rule() {
        // Several sources, each numbering its messages to this node with
        // one counter over every tag; the receiver consumes each stream
        // in a random order close to seq order, a few messages as
        // matched parked RTS (consumed, not counted). Source 0 never
        // delivers one early seq, so it must stall and keep every flow.
        const SOURCES: usize = 4;
        const MSGS: u32 = 3 * STALL_BEYOND as u32;
        for seed in 0..20 {
            let mut rng = pm2_sim::rng::Xoshiro256::new(seed);
            let mut pending: Vec<VecDeque<(u32, Tag)>> = (0..SOURCES)
                .map(|_| (0..MSGS).map(|seq| (seq, Tag(rng.gen_below(6)))).collect())
                .collect();
            let lost = pending[0].remove(3 + rng.gen_below(8) as usize);
            assert!(lost.is_some());
            let mut st = NmState::new(1);
            let mut reference = PerFlowReference::default();
            while pending.iter().any(|p| !p.is_empty()) {
                let src = rng.gen_below(SOURCES as u64) as usize;
                let queue = &mut pending[src];
                if queue.is_empty() {
                    continue;
                }
                let reach = 1 + rng.gen_below(12) as usize;
                let pick = rng.gen_below(reach.min(queue.len()) as u64) as usize;
                let Some((seq, tag)) = queue.remove(pick) else {
                    unreachable!("picked within the queue");
                };
                if rng.gen_bool(0.05) {
                    st.from.entry(nid(src)).or_default().delivered.consume(seq);
                } else {
                    st.note_delivery(nid(src), tag, seq);
                    reference.deliver(nid(src), tag, seq);
                }
                assert_eq!(
                    st.counters.ooo_deliveries, reference.ooo,
                    "seed {seed}: source {src} seq {seq}"
                );
            }
            assert!(reference.ooo > 0, "seed {seed}: no reordering exercised");
            for src in 0..SOURCES {
                let d = &st.from[&nid(src)].delivered;
                let stalled = d.ooo.as_deref().is_some_and(|o| o.stalled);
                assert_eq!(stalled, src == 0, "seed {seed}: source {src}");
                if src != 0 {
                    // Every seq came: the prefix passed them all and no
                    // flow entry (nor the box holding them) is left.
                    assert_eq!(d.prefix, u64::from(MSGS));
                    assert!(d.ooo.is_none(), "seed {seed}: source {src}");
                }
            }
        }
    }
}
