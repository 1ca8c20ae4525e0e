//! Hierarchical calendar event queue with slab-recycled, allocation-free
//! event slots.
//!
//! The queue replaces the former single `BinaryHeap<Box<dyn FnOnce>>`
//! design with three tiers ordered by distance from the current bucket:
//!
//! * `near` — a small binary heap holding every key whose time bucket is
//!   at or before `cur_bucket`. Its minimum is always the global minimum.
//! * `wheel` — [`WHEEL_BUCKETS`] fixed-width buckets ([`BUCKET_NS`] ns
//!   each) covering the window `(cur_bucket, cur_bucket + WHEEL_BUCKETS)`.
//!   Inserts into the window are an O(1) push; a 256-bit occupancy bitmap
//!   finds the next non-empty bucket in a handful of word scans. When the
//!   window reaches a bucket, its buffer is heapified whole into `near`,
//!   so an empty bucket holds no capacity; `near`'s old buffer goes onto
//!   a short spare list that the next bucket to fill takes from.
//! * `far` — an overflow heap for everything past the wheel horizon
//!   (~524 µs at the default width). When both `near` and the wheel are
//!   empty the window jumps to the far minimum and re-splits.
//!
//! FIFO tie-break preservation: keys order by `(time, seq)` exactly as
//! the old heap did. Two events with equal time always land in the same
//! bucket, travel through the same tier transitions together, and meet
//! again in `near`'s heap where `seq` decides — so the pop order is
//! bit-identical to the single-heap order, for every schedule pattern.
//!
//! Event payloads live in a [`Slab`] of [`EventSlot`]s that recycles
//! indices, with closures stored inline (up to [`ACTION_WORDS`] words)
//! so the steady-state schedule → fire → complete hot path performs no
//! heap allocation (bucket buffers circulate through the spare list).
//! Cancellation removes the slot (dropping the closure and its captures
//! eagerly) and leaves a 24-byte tombstone key that is skipped lazily on
//! pop and purged in bulk once tombstones outnumber live events — queue
//! occupancy stays O(live).

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

/// log2 of the wheel bucket width: 2^11 ns = 2.048 µs per bucket.
const BUCKET_SHIFT: u32 = 11;

/// Nanoseconds per wheel bucket (doc-visible mirror of [`BUCKET_SHIFT`]).
#[allow(dead_code)]
const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;

/// Number of wheel buckets; the wheel horizon is
/// `WHEEL_BUCKETS << BUCKET_SHIFT` ≈ 524 µs.
const WHEEL_BUCKETS: usize = 256;

/// Words in the occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;

/// Bulk-purge tombstones only past this floor, so tiny queues never pay
/// the rebuild.
const PURGE_FLOOR: usize = 64;

/// Emptied bucket buffers kept for reuse. Each step of the window hands
/// one back, so a steady schedule runs on a few of them.
const SPARE_BUFFERS: usize = 8;

/// A spare may keep capacity for this many keys, or for twice the queue's
/// resident keys if more: a burst's buffer is freed once the queue has
/// drained, instead of pinning the burst's size.
const SPARE_MIN_KEYS: usize = 64;

fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

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

/// The calendar queue. See the module docs for the tier invariants.
pub(crate) struct EventQueue {
    /// Payloads, recycled by index. Generation counts live in `gens`.
    slots: Slab<EventAction>,
    /// Per-slot generation, bumped on every removal so stale keys for a
    /// recycled slot never validate.
    gens: Vec<u32>,
    near: BinaryHeap<Reverse<EventKey>>,
    wheel: Vec<Vec<Reverse<EventKey>>>,
    occupied: [u64; WHEEL_WORDS],
    far: BinaryHeap<Reverse<EventKey>>,
    /// Empty buffers for the next buckets to fill.
    spare: Vec<Vec<Reverse<EventKey>>>,
    /// All `near` keys have bucket ≤ `cur_bucket`; wheel keys fall in
    /// `(cur_bucket, cur_bucket + WHEEL_BUCKETS)`; `far` keys beyond.
    cur_bucket: u64,
    live: usize,
    dead_keys: usize,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            slots: Slab::with_capacity(64),
            gens: Vec::with_capacity(64),
            near: BinaryHeap::with_capacity(64),
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            far: BinaryHeap::new(),
            spare: Vec::new(),
            cur_bucket: 0,
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

    fn push_key(&mut self, key: EventKey) {
        let b = bucket_of(key.at);
        if b <= self.cur_bucket {
            self.near.push(Reverse(key));
        } else if b < self.cur_bucket + WHEEL_BUCKETS as u64 {
            let idx = (b as usize) % WHEEL_BUCKETS;
            let bucket = &mut self.wheel[idx];
            if bucket.capacity() == 0 {
                if let Some(buf) = self.spare.pop() {
                    *bucket = buf;
                }
            }
            bucket.push(Reverse(key));
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            self.far.push(Reverse(key));
        }
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
        self.push_key(EventKey {
            at,
            seq,
            slot: slot as u32,
            gen,
        });
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

    /// Time of the earliest live event, skimming tombstones off `near`.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| at)
    }

    /// `(time, seq)` key of the earliest live event, skimming tombstones
    /// off `near`.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            self.prime();
            match self.near.peek() {
                None => return None,
                Some(Reverse(k)) if self.key_live(k) => return Some((k.at, k.seq)),
                Some(_) => {
                    self.near.pop();
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
    /// and tier refill once per event.
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Due {
        match self.peek_time() {
            Some(at) if at <= limit => {
                let Reverse(k) = self.near.pop().expect("peek_time saw a live key");
                debug_assert_eq!(k.at, at);
                let action = self
                    .slots
                    .remove(k.slot as usize)
                    .expect("live key points at an occupied slot");
                self.gens[k.slot as usize] = k.gen.wrapping_add(1);
                self.live -= 1;
                Due::Ready(at, action)
            }
            Some(_) => Due::Later,
            None => Due::Empty,
        }
    }

    /// Refills `near` from the wheel (next occupied bucket) or, once the
    /// whole wheel is empty, re-bases the window at the far minimum.
    ///
    /// Far keys were beyond the horizon *when inserted*; the window only
    /// marches forward, so step 1 pulls any that have since entered it
    /// before the wheel scan may advance `cur_bucket` past them.
    fn prime(&mut self) {
        while self.near.is_empty() {
            // 1. Migrate far keys now inside the window into near/wheel.
            let horizon = self.cur_bucket + WHEEL_BUCKETS as u64;
            let mut migrated = false;
            while let Some(&Reverse(k)) = self.far.peek() {
                if bucket_of(k.at) >= horizon {
                    break;
                }
                let Reverse(k) = self.far.pop().expect("just peeked");
                self.push_key(k);
                migrated = true;
            }
            if migrated {
                continue;
            }
            // 2. Advance to the next occupied wheel bucket — after step 1
            //    every remaining far key is ≥ horizon, hence later.
            if let Some(b) = self.next_wheel_bucket() {
                self.cur_bucket = b;
                let idx = (b as usize) % WHEEL_BUCKETS;
                self.occupied[idx / 64] &= !(1 << (idx % 64));
                // Keys are unique, so the heap pops them in the same order
                // however it was built.
                let bucket = BinaryHeap::from(std::mem::take(&mut self.wheel[idx]));
                let old = std::mem::replace(&mut self.near, bucket);
                self.recycle(old.into_vec());
                continue;
            }
            // 3. Wheel empty too: jump the window to the far minimum
            //    (≥ horizon > cur_bucket, so the window stays monotone);
            //    the next iteration's step 1 migrates it in.
            let Some(&Reverse(k)) = self.far.peek() else {
                return;
            };
            self.cur_bucket = bucket_of(k.at);
        }
    }

    /// Smallest occupied wheel bucket strictly after `cur_bucket`, found
    /// by scanning the occupancy bitmap in rotated word order.
    fn next_wheel_bucket(&self) -> Option<u64> {
        let start = ((self.cur_bucket as usize) + 1) % WHEEL_BUCKETS;
        let (sw, sb) = (start / 64, start % 64);
        let m = self.occupied[sw] & (!0u64 << sb);
        if m != 0 {
            return Some(self.abs_bucket(sw * 64 + m.trailing_zeros() as usize));
        }
        for step in 1..WHEEL_WORDS {
            let w = (sw + step) % WHEEL_WORDS;
            let m = self.occupied[w];
            if m != 0 {
                return Some(self.abs_bucket(w * 64 + m.trailing_zeros() as usize));
            }
        }
        let m = self.occupied[sw] & !(!0u64 << sb);
        if m != 0 {
            return Some(self.abs_bucket(sw * 64 + m.trailing_zeros() as usize));
        }
        None
    }

    /// Maps a wheel index back to its absolute bucket within the window
    /// `(cur_bucket, cur_bucket + WHEEL_BUCKETS)`.
    fn abs_bucket(&self, idx: usize) -> u64 {
        let w = WHEEL_BUCKETS as u64;
        let start = (self.cur_bucket + 1) % w;
        let delta = (idx as u64 + w - start) % w;
        self.cur_bucket + 1 + delta
    }

    /// Keeps an emptied bucket buffer for the next bucket to fill, unless
    /// the spare list is full or the buffer is large for the queue's
    /// current size.
    fn recycle(&mut self, buf: Vec<Reverse<EventKey>>) {
        debug_assert!(buf.is_empty(), "recycled a buffer still holding keys");
        let fits = buf.capacity() <= SPARE_MIN_KEYS.max(2 * self.key_count());
        if buf.capacity() > 0 && fits && self.spare.len() < SPARE_BUFFERS {
            self.spare.push(buf);
        }
    }

    /// Drops every tombstone key from all tiers; O(resident keys),
    /// amortized O(1) per cancellation by the `dead > live` trigger.
    fn purge(&mut self) {
        let gens = &self.gens;
        let live = |Reverse(k): &Reverse<EventKey>| gens.get(k.slot as usize) == Some(&k.gen);
        let mut v = std::mem::take(&mut self.near).into_vec();
        v.retain(live);
        self.near = BinaryHeap::from(v);
        self.occupied = [0; WHEEL_WORDS];
        for (idx, bucket) in self.wheel.iter_mut().enumerate() {
            bucket.retain(live);
            if bucket.is_empty() {
                *bucket = Vec::new();
            } else {
                self.occupied[idx / 64] |= 1 << (idx % 64);
            }
        }
        let mut fv = std::mem::take(&mut self.far).into_vec();
        fv.retain(live);
        self.far = BinaryHeap::from(fv);
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

    #[test]
    fn pops_in_time_then_seq_order_across_tiers() {
        let mut q = EventQueue::new();
        // Same time in near, wheel and far territory; seq breaks ties.
        let times = [
            0u64,
            1,
            1,
            BUCKET_NS * 3,
            BUCKET_NS * 3,
            BUCKET_NS * (WHEEL_BUCKETS as u64 + 10),
            BUCKET_NS * (WHEEL_BUCKETS as u64 + 10) + 1,
        ];
        for (seq, &ns) in times.iter().enumerate() {
            q.insert(t(ns), seq as u64, noop());
        }
        let mut got = Vec::new();
        while let Some(time) = q.peek_time() {
            let (at, _) = q.pop_first().unwrap();
            assert_eq!(at, time);
            got.push(at.as_nanos());
        }
        let mut want = times.to_vec();
        want.sort_unstable();
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

    /// Keys' worth of buffer capacity held by `near`, the wheel and the
    /// spare list.
    fn retained_keys(q: &EventQueue) -> usize {
        let held = |bufs: &[Vec<Reverse<EventKey>>]| bufs.iter().map(Vec::capacity).sum::<usize>();
        q.near.capacity() + held(&q.wheel) + held(&q.spare)
    }

    /// Addresses of every buffer `q` holds.
    fn buffers(q: &EventQueue) -> Vec<*const Reverse<EventKey>> {
        let held = q.wheel.iter().chain(&q.spare).filter(|b| b.capacity() > 0);
        let mut out: Vec<_> = held.map(|b| b.as_ptr()).collect();
        out.push(q.near.as_slice().as_ptr());
        out
    }

    fn empty_buckets_hold_nothing(q: &EventQueue) -> bool {
        q.wheel.iter().all(|b| !b.is_empty() || b.capacity() == 0)
    }

    #[test]
    fn burst_capacity_is_released_once_drained() {
        let mut q = EventQueue::new();
        // 10 000 keys in one bucket, then drained.
        let burst = BUCKET_NS * 5;
        for seq in 0..10_000u64 {
            q.insert(t(burst + seq % BUCKET_NS), seq, noop());
        }
        while q.pop_first().is_some() {}
        // A light load afterwards moves the window past the burst.
        let mut seq = 10_000;
        for i in 0..4 {
            q.insert(t(burst + BUCKET_NS + i * 500), seq, noop());
            seq += 1;
        }
        for _ in 0..200 {
            let (at, _) = q.pop_first().unwrap();
            q.insert(t(at.as_nanos() + 2_000), seq, noop());
            seq += 1;
        }
        assert!(empty_buckets_hold_nothing(&q));
        let bound = (SPARE_BUFFERS + 1 + q.key_count()) * SPARE_MIN_KEYS;
        let held = retained_keys(&q);
        assert!(
            held <= bound,
            "{held} keys of capacity held for {} live",
            q.live_len()
        );
    }

    #[test]
    fn periodic_schedule_recycles_bucket_buffers() {
        // 16 events, each re-armed one period after it fires: a run
        // loop's steady state. Once warm, every bucket the window reaches
        // must fill a buffer an earlier bucket handed back.
        const LIVE: u64 = 16;
        const PERIOD: u64 = 5_000;
        let mut q = EventQueue::new();
        for i in 0..LIVE {
            q.insert(t(i * PERIOD / LIVE), i, noop());
        }
        let mut seq = LIVE;
        let mut step = |q: &mut EventQueue| {
            let (at, _) = q.pop_first().unwrap();
            q.insert(t(at.as_nanos() + PERIOD), seq, noop());
            seq += 1;
        };
        for _ in 0..2_000 {
            step(&mut q);
        }
        let warm = buffers(&q);
        for i in 0..20_000 {
            step(&mut q);
            assert!(
                buffers(&q).iter().all(|b| warm.contains(b)),
                "step {i} allocated a bucket buffer"
            );
            assert!(empty_buckets_hold_nothing(&q), "step {i}");
        }
    }

    #[test]
    fn differential_fuzz_matches_reference_heap() {
        // Model-based check against a plain (time, seq) reference: random
        // schedules (spanning near/wheel/far and multiple window jumps),
        // random cancels, interleaved pops — the popped (time, seq)
        // stream, actions included, must match the model exactly.
        let sim = Sim::new(0);
        let fired: Rc<Cell<u64>> = Rc::new(Cell::new(u64::MAX));
        let tagged = |s: u64| {
            let fired = Rc::clone(&fired);
            EventAction::new(move |_| fired.set(s))
        };
        let mut rng = Xoshiro256::new(42);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, (u32, u32))> = Vec::new(); // (ns, seq, handle)
        let mut seq = 0u64;
        let mut clock = 0u64;
        for _ in 0..30_000 {
            match rng.gen_below(10) {
                0..=5 => {
                    // Deltas up to ~16M ns: thousands of buckets, so the
                    // wheel wraps and the far tier both get exercised.
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

    #[test]
    fn far_key_overtaken_by_window_still_pops_in_order() {
        // Regression: a key lands in `far` (beyond the horizon), then the
        // window marches forward through wheel activity until that key's
        // bucket is *inside* the window. The wheel scan must not advance
        // past it — it has to migrate in and pop before later wheel keys.
        let mut q = EventQueue::new();
        q.insert(t(0), 0, noop());
        assert_eq!(q.pop_first().unwrap().0, t(0));
        // Bucket 300: beyond the (0, 256) window → far tier.
        let far_ns = BUCKET_NS * 300;
        q.insert(t(far_ns), 1, noop());
        // Walk the window forward via a wheel key at bucket 100.
        q.insert(t(BUCKET_NS * 100), 2, noop());
        assert_eq!(q.pop_first().unwrap().0, t(BUCKET_NS * 100));
        // Window is now (100, 356): bucket 300 is inside it. A later
        // wheel key at bucket 310 must NOT pop before the far key.
        q.insert(t(BUCKET_NS * 310), 3, noop());
        assert_eq!(q.pop_first().unwrap().0, t(far_ns), "far key bypassed");
        assert_eq!(q.pop_first().unwrap().0, t(BUCKET_NS * 310));
        assert!(q.pop_first().is_none());
    }

    #[test]
    fn far_future_window_jumps_preserve_order() {
        let mut q = EventQueue::new();
        // Three clusters separated by many wheel horizons each.
        let horizon = BUCKET_NS * WHEEL_BUCKETS as u64;
        let mut want = Vec::new();
        for (i, base) in [0u64, horizon * 5, horizon * 1000].iter().enumerate() {
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
}
