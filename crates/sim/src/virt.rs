//! Virtual periodic events: a periodic event whose firings change nothing
//! but the event order, so the run loop computes them instead of running
//! them (see [`Sim::schedule_virtual`](crate::Sim::schedule_virtual)).
//!
//! A real event scheduled at `(t, seq)` whose action only reschedules
//! itself at `t + period` still takes part in the `(time, seq)` order: each
//! firing allocates the sequence number of the next one, which decides how
//! that next firing ties with other events at its instant. A virtual event
//! keeps exactly that bookkeeping — its next `(time, seq)` key and how many
//! firings it made — without a queue entry or a closure call per firing.
//! The run loop advances it in bulk up to the next event keyed at another
//! instant, so it costs one step per run of firings that no other event
//! interleaves, not one per period.

use crate::slab::Slab;
use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a live virtual periodic event. Not `Clone`: the owner ends
/// it exactly once, with [`Sim::materialize`](crate::Sim::materialize).
#[derive(Debug)]
pub struct VirtualEvent {
    pub(crate) slot: u32,
}

struct Rec {
    at: SimTime,
    seq: u64,
    period_ns: u64,
    fired: u64,
}

/// The live virtual events, keyed by their next firing. Heap entries are
/// invalidated lazily: an entry is live iff its slot still holds the same
/// `seq` (sequence numbers are unique).
#[derive(Default)]
pub(crate) struct VirtualQueue {
    recs: Slab<Rec>,
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
}

impl VirtualQueue {
    pub(crate) fn len(&self) -> usize {
        self.recs.len()
    }

    pub(crate) fn insert(&mut self, at: SimTime, seq: u64, period_ns: u64) -> VirtualEvent {
        assert!(period_ns > 0, "virtual event period must be positive");
        let slot = self.recs.insert(Rec {
            at,
            seq,
            period_ns,
            fired: 0,
        }) as u32;
        self.heap.push(Reverse((at, seq, slot)));
        VirtualEvent { slot }
    }

    /// Next firing time of `v`.
    pub(crate) fn next_at(&self, v: &VirtualEvent) -> SimTime {
        self.recs
            .get(v.slot as usize)
            .expect("live virtual event")
            .at
    }

    /// Ends `v`; returns its next `(time, seq)` key and the firings made.
    pub(crate) fn remove(&mut self, v: VirtualEvent) -> (SimTime, u64, u64) {
        let rec = self
            .recs
            .remove(v.slot as usize)
            .expect("live virtual event");
        // Stale heap entries are skipped on peek; rebuild once they
        // dominate so the heap stays O(live).
        if self.heap.len() > 64 && self.heap.len() > 2 * self.recs.len() {
            let recs = &self.recs;
            self.heap
                .retain(|Reverse((_, seq, slot))| Self::live(recs, *slot, *seq));
        }
        (rec.at, rec.seq, rec.fired)
    }

    fn live(recs: &Slab<Rec>, slot: u32, seq: u64) -> bool {
        recs.get(slot as usize).is_some_and(|r| r.seq == seq)
    }

    fn peek(&mut self) -> Option<(SimTime, u64, u32)> {
        while let Some(&Reverse(k)) = self.heap.peek() {
            if Self::live(&self.recs, k.2, k.1) {
                return Some(k);
            }
            self.heap.pop();
        }
        None
    }

    /// Fires, in `(time, seq)` order, every firing keyed before `next`
    /// (the next real event). Each firing takes the next value of `seq`
    /// for its successor, exactly as a self-rescheduling real event would.
    pub(crate) fn fire_before(&mut self, next: (SimTime, u64), seq: &mut u64) {
        while let Some((at, s, slot)) = self.peek() {
            if (at, s) >= next {
                return;
            }
            self.heap.pop();
            // Successor keys get fresh (larger) seqs, so they precede a
            // key at a later instant only: fire every period that lands
            // strictly before the next instant anyone else holds.
            let bound = self.peek().map_or(next.0, |(t, ..)| t.min(next.0));
            let rec = self.recs.get_mut(slot as usize).expect("live heap entry");
            let gap = bound.as_nanos().saturating_sub(at.as_nanos());
            let firings = 1 + gap.saturating_sub(1) / rec.period_ns;
            rec.at = SimTime::from_nanos(at.as_nanos() + firings * rec.period_ns);
            rec.seq = *seq + firings - 1;
            rec.fired += firings;
            *seq += firings;
            self.heap.push(Reverse((rec.at, rec.seq, slot)));
        }
    }
}
