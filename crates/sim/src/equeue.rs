//! Event queue: one binary heap of `(time, seq)` keys over slab-recycled,
//! allocation-free event slots.
//!
//! FIFO tie-break: keys order by `(time, seq)`, and `seq` is unique, so
//! no two keys compare equal. The heap therefore pops them in exactly one
//! order, however it was built: by time, and by schedule order among
//! events at the same time.
//!
//! Event payloads live in a [`Slab`] of [`EventAction`]s that recycles
//! indices, with closures stored inline (up to [`ACTION_WORDS`] words)
//! so the steady-state schedule → fire → complete hot path performs no
//! heap allocation. Cancellation removes the slot (dropping the closure
//! and its captures eagerly) and leaves a 24-byte tombstone key that is
//! skipped lazily on pop and purged in bulk once tombstones outnumber
//! live events — queue occupancy stays O(live). A burst's capacity is
//! released once it drains: `pop_due` shrinks the heap's buffer when it
//! is less than a quarter full.

use crate::sim::Sim;
use crate::slab::Slab;
use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

/// Inline closure storage size, in `usize` words (40 bytes on 64-bit —
/// protocol closures capture an `Rc` or two plus a few scalars; measured
/// over the fig5/bandwidth workloads, 99.97% fit in 24 bytes). Larger or
/// over-aligned closures fall back to a single boxed slot.
const ACTION_WORDS: usize = 5;

/// Bulk-purge tombstones only past this floor, so tiny queues never pay
/// the rebuild.
const PURGE_FLOOR: usize = 64;

/// The heap's buffer is shrunk only above this many keys of capacity, so
/// small queues never reallocate.
const SHRINK_FLOOR: usize = 256;

/// A scheduled action: a type-erased `FnOnce(&Sim)` stored inline when it
/// fits, boxed otherwise. Consumed by [`EventAction::invoke`]; dropping an
/// un-invoked action (the cancellation path) frees the captures eagerly.
pub(crate) struct EventAction {
    payload: MaybeUninit<[usize; ACTION_WORDS]>,
    call: unsafe fn(*mut (), &Sim),
    drop_in_place: unsafe fn(*mut ()),
}

unsafe fn invoke_inline<F: FnOnce(&Sim)>(p: *mut (), sim: &Sim) {
    // SAFETY: caller guarantees `p` holds a valid, owned `F`; the read
    // consumes it exactly once.
    let f = unsafe { (p as *mut F).read() };
    f(sim);
}

unsafe fn drop_inline<F>(p: *mut ()) {
    // SAFETY: caller guarantees `p` holds a valid, owned `F` that has not
    // been consumed.
    unsafe { std::ptr::drop_in_place(p as *mut F) }
}

unsafe fn invoke_boxed<F: FnOnce(&Sim)>(p: *mut (), sim: &Sim) {
    // SAFETY: caller guarantees the first payload word holds the raw
    // pointer produced by `Box::into_raw`; reconstructing the box
    // transfers ownership back exactly once.
    let b = unsafe { Box::from_raw((p as *mut *mut F).read()) };
    b(sim);
}

unsafe fn drop_boxed<F>(p: *mut ()) {
    // SAFETY: as in `invoke_boxed`; the box is dropped instead of called.
    let b = unsafe { Box::from_raw((p as *mut *mut F).read()) };
    drop(b);
}

impl EventAction {
    pub(crate) fn new<F>(f: F) -> EventAction
    where
        F: FnOnce(&Sim) + 'static,
    {
        let mut payload = MaybeUninit::<[usize; ACTION_WORDS]>::uninit();
        let base = payload.as_mut_ptr() as *mut ();
        if size_of::<F>() <= size_of::<[usize; ACTION_WORDS]>()
            && align_of::<F>() <= align_of::<[usize; ACTION_WORDS]>()
        {
            // SAFETY: `F` fits in the buffer and its alignment does not
            // exceed the buffer's; the value is moved in and owned by the
            // payload from here on.
            unsafe { (base as *mut F).write(f) };
            EventAction {
                payload,
                call: invoke_inline::<F>,
                drop_in_place: drop_inline::<F>,
            }
        } else {
            let raw = Box::into_raw(Box::new(f));
            // SAFETY: a thin raw pointer always fits in the first word.
            unsafe { (base as *mut *mut F).write(raw) };
            EventAction {
                payload,
                call: invoke_boxed::<F>,
                drop_in_place: drop_boxed::<F>,
            }
        }
    }

    pub(crate) fn invoke(self, sim: &Sim) {
        let mut this = ManuallyDrop::new(self);
        let base = this.payload.as_mut_ptr() as *mut ();
        // SAFETY: `call` consumes the payload exactly once; ManuallyDrop
        // keeps `Drop` from touching it again.
        unsafe { (this.call)(base, sim) }
    }
}

impl Drop for EventAction {
    fn drop(&mut self) {
        let base = self.payload.as_mut_ptr() as *mut ();
        // SAFETY: an `EventAction` reaching `Drop` was never invoked, so
        // the payload still owns the closure.
        unsafe { (self.drop_in_place)(base) }
    }
}

/// Queue key: 24 bytes, ordered by `(at, seq)` — `seq` is unique, so the
/// trailing `(slot, gen)` never influences ordering; they locate the
/// payload and validate it against recycled slots.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// Result of [`EventQueue::pop_due`].
pub(crate) enum Due {
    /// An event was due at or before the limit and has been popped.
    Ready(SimTime, EventAction),
    /// The earliest live event is past the limit.
    Later,
    /// No live events remain.
    Empty,
}

/// The event queue. See the module docs for its invariants.
pub(crate) struct EventQueue {
    /// Payloads, recycled by index. Generation counts live in `gens`.
    slots: Slab<EventAction>,
    /// Per-slot generation, bumped on every removal so stale keys for a
    /// recycled slot never validate.
    gens: Vec<u32>,
    /// Live keys and not-yet-purged tombstones, earliest on top.
    heap: BinaryHeap<Reverse<EventKey>>,
    live: usize,
    dead_keys: usize,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            slots: Slab::with_capacity(64),
            gens: Vec::with_capacity(64),
            heap: BinaryHeap::with_capacity(64),
            live: 0,
            dead_keys: 0,
        }
    }

    /// Live (scheduled, not fired, not cancelled) events.
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }

    /// Total resident keys: live plus not-yet-purged tombstones. Bounded
    /// at O(live) by the lazy purge; exposed for occupancy tests.
    pub(crate) fn key_count(&self) -> usize {
        self.live + self.dead_keys
    }

    fn key_live(&self, k: &EventKey) -> bool {
        self.gens.get(k.slot as usize).copied() == Some(k.gen)
    }

    /// Schedules `action` at `(at, seq)`; returns `(slot, gen)` for the
    /// cancellation handle.
    pub(crate) fn insert(&mut self, at: SimTime, seq: u64, action: EventAction) -> (u32, u32) {
        let slot = self.slots.insert(action);
        if slot == self.gens.len() {
            self.gens.push(0);
        }
        debug_assert!(slot < self.gens.len(), "slab grew by more than one");
        let gen = self.gens[slot];
        self.live += 1;
        self.heap.push(Reverse(EventKey {
            at,
            seq,
            slot: slot as u32,
            gen,
        }));
        (slot as u32, gen)
    }

    /// Cancels `(slot, gen)`. Returns the reclaimed action (so the caller
    /// can drop it outside any queue borrow — closure drops may re-enter
    /// the sim); `None` if the event already fired or was cancelled.
    pub(crate) fn cancel(&mut self, slot: u32, gen: u32) -> Option<EventAction> {
        let s = slot as usize;
        if self.gens.get(s).copied() != Some(gen) {
            return None;
        }
        let action = self
            .slots
            .remove(s)
            .expect("current-generation key points at an occupied slot");
        self.gens[s] = gen.wrapping_add(1);
        self.live -= 1;
        self.dead_keys += 1;
        if self.dead_keys > PURGE_FLOOR && self.dead_keys > self.live {
            self.purge();
        }
        Some(action)
    }

    /// Time of the earliest live event, skimming tombstones off the top.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| at)
    }

    /// `(time, seq)` key of the earliest live event, skimming tombstones
    /// off the top.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            match self.heap.peek() {
                None => return None,
                Some(Reverse(k)) if self.key_live(k) => return Some((k.at, k.seq)),
                Some(_) => {
                    self.heap.pop();
                    self.dead_keys = self.dead_keys.saturating_sub(1);
                }
            }
        }
    }

    /// Pops the earliest live event.
    #[cfg(test)]
    pub(crate) fn pop_first(&mut self) -> Option<(SimTime, EventAction)> {
        match self.pop_due(SimTime::MAX) {
            Due::Ready(at, action) => Some((at, action)),
            Due::Later | Due::Empty => None,
        }
    }

    /// Pops the earliest live event if it is due at or before `limit` —
    /// one combined peek + pop, so the run loop pays the tombstone skim
    /// once per event.
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Due {
        match self.peek_time() {
            Some(at) if at <= limit => {
                let Reverse(k) = self.heap.pop().expect("peek_time saw a live key");
                debug_assert_eq!(k.at, at);
                let action = self
                    .slots
                    .remove(k.slot as usize)
                    .expect("live key points at an occupied slot");
                self.gens[k.slot as usize] = k.gen.wrapping_add(1);
                self.live -= 1;
                // A drained burst does not keep its capacity.
                let (len, cap) = (self.heap.len(), self.heap.capacity());
                if cap > SHRINK_FLOOR && len < cap / 4 {
                    self.heap.shrink_to(2 * len);
                }
                Due::Ready(at, action)
            }
            Some(_) => Due::Later,
            None => Due::Empty,
        }
    }

    /// Drops every tombstone key; O(resident keys), amortized O(1) per
    /// cancellation by the `dead > live` trigger.
    fn purge(&mut self) {
        let gens = &self.gens;
        self.heap
            .retain(|Reverse(k)| gens.get(k.slot as usize) == Some(&k.gen));
        self.dead_keys = 0;
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use std::cell::Cell;
    use std::rc::Rc;

    fn noop() -> EventAction {
        EventAction::new(|_| {})
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn action_inline_zst_invokes() {
        let sim = Sim::new(0);
        // A ZST closure must round-trip through the inline path.
        assert_eq!(size_of::<fn()>(), 8);
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        let a = EventAction::new(move |_| hit2.set(true));
        a.invoke(&sim);
        assert!(hit.get());
    }

    #[test]
    fn action_inline_small_capture_invokes() {
        let sim = Sim::new(0);
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        let payload = [7u64; 8]; // 64 bytes: inline
        let a = EventAction::new(move |_| out2.set(payload.iter().sum()));
        a.invoke(&sim);
        assert_eq!(out.get(), 56);
    }

    #[test]
    fn action_boxed_large_capture_invokes() {
        let sim = Sim::new(0);
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        let payload = [3u8; 200]; // 200 bytes: boxed fallback
        let a = EventAction::new(move |_| out2.set(payload.iter().map(|&b| b as u64).sum()));
        a.invoke(&sim);
        assert_eq!(out.get(), 600);
    }

    #[test]
    fn action_drop_without_invoke_frees_captures() {
        // Both storage paths must free captures when dropped un-invoked.
        let small = Rc::new(());
        let a = {
            let small = Rc::clone(&small);
            EventAction::new(move |_| drop(small))
        };
        assert_eq!(Rc::strong_count(&small), 2);
        drop(a);
        assert_eq!(Rc::strong_count(&small), 1);

        let large = Rc::new(());
        let a = {
            let large = Rc::clone(&large);
            let pad = [0u8; 200];
            EventAction::new(move |_| {
                let _ = pad;
                drop(large)
            })
        };
        assert_eq!(Rc::strong_count(&large), 2);
        drop(a);
        assert_eq!(Rc::strong_count(&large), 1);
    }

    fn reporting(fired: &Rc<Cell<u64>>, seq: u64) -> EventAction {
        let fired = Rc::clone(fired);
        EventAction::new(move |_| fired.set(seq))
    }

    #[test]
    fn pops_in_time_then_seq_order_across_tiers() {
        // Keys 1 ns apart, at equal times (seq breaks the tie), and in
        // clusters hundreds of ms apart, inserted out of order.
        const MS: u64 = 1_000_000;
        let sim = Sim::new(0);
        let fired = Rc::new(Cell::new(u64::MAX));
        let mut q = EventQueue::new();
        let mut want = Vec::new();
        let mut seq = 0;
        for base in [500 * MS, 0, 3 * MS] {
            for ns in [
                base + 6_144,
                base + 1,
                base,
                base + 1,
                base + 6_144,
                base + 17,
            ] {
                q.insert(t(ns), seq, reporting(&fired, seq));
                want.push((ns, seq));
                seq += 1;
            }
        }
        want.sort_unstable();
        let mut got = Vec::new();
        while let Some(time) = q.peek_time() {
            let (at, action) = q.pop_first().unwrap();
            assert_eq!(at, time);
            action.invoke(&sim);
            got.push((at.as_nanos(), fired.get()));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn far_key_overtaken_by_window_still_pops_in_order() {
        // A key scheduled far ahead still pops before a later key
        // scheduled once the clock has moved on.
        let mut q = EventQueue::new();
        q.insert(t(0), 0, noop());
        assert_eq!(q.pop_first().unwrap().0, t(0));
        q.insert(t(614_400), 1, noop());
        q.insert(t(204_800), 2, noop());
        assert_eq!(q.pop_first().unwrap().0, t(204_800));
        q.insert(t(634_880), 3, noop());
        assert_eq!(q.pop_first().unwrap().0, t(614_400));
        assert_eq!(q.pop_first().unwrap().0, t(634_880));
        assert!(q.pop_first().is_none());
    }

    #[test]
    fn far_future_window_jumps_preserve_order() {
        // Three clusters of ten keys, 2.6 ms and 524 ms apart.
        const SPAN_NS: u64 = 524_288;
        let mut q = EventQueue::new();
        let mut want = Vec::new();
        for (i, base) in [0u64, SPAN_NS * 5, SPAN_NS * 1000].iter().enumerate() {
            for j in 0..10u64 {
                let ns = base + j * 17;
                q.insert(t(ns), (i as u64) * 100 + j, noop());
                want.push(ns);
            }
        }
        want.sort_unstable();
        let mut got = Vec::new();
        while let Some((at, _)) = q.pop_first() {
            got.push(at.as_nanos());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn cancel_reclaims_slot_and_is_idempotent() {
        let mut q = EventQueue::new();
        let rc = Rc::new(());
        let (slot, gen) = {
            let rc = Rc::clone(&rc);
            q.insert(t(100), 0, EventAction::new(move |_| drop(rc)))
        };
        assert_eq!(Rc::strong_count(&rc), 2);
        let action = q.cancel(slot, gen);
        assert!(action.is_some());
        drop(action);
        assert_eq!(Rc::strong_count(&rc), 1, "captures freed at cancel");
        assert!(q.cancel(slot, gen).is_none(), "double cancel is a no-op");
        assert_eq!(q.live_len(), 0);
        assert!(q.pop_first().is_none());
    }

    #[test]
    fn stale_handle_never_cancels_recycled_slot() {
        let mut q = EventQueue::new();
        let (s1, g1) = q.insert(t(10), 0, noop());
        q.pop_first().unwrap();
        // The slab recycles the index for the next insert; the old
        // (slot, gen) must not be able to kill the new occupant.
        let (s2, g2) = q.insert(t(20), 1, noop());
        assert_eq!(s1, s2, "slot expected to recycle");
        assert_ne!(g1, g2);
        assert!(q.cancel(s1, g1).is_none());
        assert_eq!(q.live_len(), 1);
        assert!(q.cancel(s2, g2).is_some());
    }

    #[test]
    fn tombstones_stay_bounded_by_live() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for i in 0..16u64 {
            keep.push(q.insert(t(1 << 40), i, noop()));
        }
        for i in 0..10_000u64 {
            let (s, g) = q.insert(t(1000 + i), 100 + i, noop());
            q.cancel(s, g);
            assert!(
                q.key_count() <= 16 + PURGE_FLOOR + 1,
                "occupancy {} not O(live) at iteration {i}",
                q.key_count()
            );
        }
        assert_eq!(q.live_len(), 16);
    }

    #[test]
    fn burst_capacity_is_released_once_drained() {
        let mut q = EventQueue::new();
        for seq in 0..10_000u64 {
            q.insert(t(10_000 + seq % 2_048), seq, noop());
        }
        while q.pop_first().is_some() {}
        // A light periodic load afterwards.
        let mut seq = 10_000;
        for i in 0..4 {
            q.insert(t(20_000 + i * 500), seq, noop());
            seq += 1;
        }
        for _ in 0..200 {
            let (at, _) = q.pop_first().unwrap();
            q.insert(t(at.as_nanos() + 2_000), seq, noop());
            seq += 1;
        }
        let held = q.heap.capacity();
        assert!(
            held <= SHRINK_FLOOR.max(4 * q.key_count()),
            "{held} keys of capacity held for {} live",
            q.live_len()
        );
    }

    #[test]
    fn periodic_schedule_never_reallocates() {
        // 16 events, each re-armed one period after it fires: a run
        // loop's steady state. Once warm, the heap keeps its buffer.
        const LIVE: u64 = 16;
        const PERIOD: u64 = 5_000;
        let mut q = EventQueue::new();
        for i in 0..LIVE {
            q.insert(t(i * PERIOD / LIVE), i, noop());
        }
        let buffer = |q: &EventQueue| (q.heap.as_slice().as_ptr(), q.heap.capacity());
        let mut warm = None;
        for seq in LIVE..22_000 {
            let (at, _) = q.pop_first().unwrap();
            let popped = buffer(&q);
            q.insert(t(at.as_nanos() + PERIOD), seq, noop());
            if seq < 2_000 {
                continue;
            }
            let warm = *warm.get_or_insert(popped);
            assert_eq!(popped, warm, "pop {seq} reallocated the heap's buffer");
            assert_eq!(
                buffer(&q),
                warm,
                "insert {seq} reallocated the heap's buffer"
            );
        }
    }

    #[test]
    fn differential_fuzz_matches_reference_heap() {
        // Model-based check against a plain (time, seq) reference: random
        // schedules (equal times up to ~16 ms ahead), random cancels,
        // interleaved pops — the popped (time, seq) stream, actions
        // included, must match the model exactly. The seed is
        // `PM2_FAULT_SEED` (default 42), so the CI seed matrix runs it at
        // every published seed.
        let seed = std::env::var("PM2_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        let sim = Sim::new(0);
        let fired: Rc<Cell<u64>> = Rc::new(Cell::new(u64::MAX));
        let tagged = |s: u64| {
            let fired = Rc::clone(&fired);
            EventAction::new(move |_| fired.set(s))
        };
        let mut rng = Xoshiro256::new(seed);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, (u32, u32))> = Vec::new(); // (ns, seq, handle)
        let mut seq = 0u64;
        let mut clock = 0u64;
        for _ in 0..30_000 {
            match rng.gen_below(10) {
                0..=5 => {
                    // Deltas from 2 ns (many equal times) to ~16M ns.
                    let span = 1u64 << rng.gen_range(1, 25);
                    let ns = clock + rng.gen_below(span);
                    let h = q.insert(t(ns), seq, tagged(seq));
                    model.push((ns, seq, h));
                    seq += 1;
                }
                6..=7 => {
                    if !model.is_empty() {
                        let i = rng.gen_below(model.len() as u64) as usize;
                        let (_, _, (s, g)) = model.swap_remove(i);
                        assert!(q.cancel(s, g).is_some());
                    }
                }
                _ => {
                    let want = model.iter().min_by_key(|&&(ns, s, _)| (ns, s)).copied();
                    match (q.pop_first(), want) {
                        (None, None) => {}
                        (Some((at, action)), Some((ns, s, _))) => {
                            assert_eq!(at.as_nanos(), ns);
                            action.invoke(&sim);
                            assert_eq!(fired.get(), s, "FIFO tie-break diverged");
                            let i = model.iter().position(|&(_, ms, _)| ms == s).unwrap();
                            model.swap_remove(i);
                            clock = ns;
                        }
                        (got, want) => panic!(
                            "queue/model diverge: got {:?}, want {:?}",
                            got.map(|(at, _)| at.as_nanos()),
                            want.map(|(ns, ..)| ns)
                        ),
                    }
                }
            }
            assert_eq!(q.live_len(), model.len());
        }
        // Drain and compare the full remaining (time, seq) order.
        let mut rest: Vec<(u64, u64)> = model.iter().map(|&(ns, s, _)| (ns, s)).collect();
        rest.sort_unstable();
        for (ns, s) in rest {
            let (at, action) = q.pop_first().expect("model has more events");
            assert_eq!(at.as_nanos(), ns);
            action.invoke(&sim);
            assert_eq!(fired.get(), s, "FIFO tie-break diverged in drain");
        }
        assert!(q.pop_first().is_none());
    }
}
