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
//!
//! # Lanes
//!
//! Live virtual events are grouped into *lanes* of one period each, kept
//! in `(time, seq)` order as a cycle from the lane's front. A lane is a
//! FIFO: firing the front moves it to the back, so a firing is an in-place
//! update of the entry plus one step of the front pointer, with no
//! comparison against the other entries.
//!
//! That is exact because a lane's instants span at most one period. Let
//! the front fire at `at`: every other entry is at or before `at + period`,
//! and the successor `(at + period, seq)` takes the newest seq, so it sorts
//! after all of them — the back. Firing keeps the span within a period, as
//! does ending an event. Starting one keeps it too when the new event lands
//! within a period of the lane's instants, which holds for a parked core:
//! every entry is at or after `now`, and the core starts at
//! `now + period` with the newest seq, so it joins at the back. An event
//! started earlier than the back is linked in order, walking from the
//! back; one that would stretch the span past a period starts a lane of
//! its own. The idle-polling path takes neither branch, and one lane
//! holds every grid of a period.
//!
//! The run loop fires the lane fronts in `(time, seq)` order up to the
//! next real event. An entry alone in its lane fires in bulk: every period
//! strictly before the next instant anyone else holds, in one step, so a
//! lone parked core costs one step per real event however long it waits.
//!
//! Entries sit in one arena with stable indices — a [`VirtualEvent`] names
//! its entry and lane directly — and link to their lane neighbours, so
//! reading, ending or starting an event is O(1), a firing touches only its
//! own entry, and the arena holds at most as many entries as were ever
//! live at once.

use crate::SimTime;

/// "No entry": an empty lane's front, a free entry's neighbours.
const NIL: u32 = u32::MAX;

/// Handle to a live virtual periodic event. Not `Clone`: the owner ends
/// it exactly once, with [`Sim::materialize`](crate::Sim::materialize).
#[derive(Debug)]
pub struct VirtualEvent {
    slot: u32,
    lane: u32,
}

impl VirtualEvent {
    /// The arena slot naming this event among the live ones.
    #[cfg(debug_assertions)]
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }
}

/// One virtual event: its next firing's key, its first firing's instant
/// (the firings it made are the periods between the two), and its
/// neighbours in its lane's cycle.
struct Entry {
    at: SimTime,
    seq: u64,
    first: SimTime,
    prev: u32,
    next: u32,
}

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Live events of one period whose instants span at most that period, in
/// `(time, seq)` order from `front`. Lanes are never dropped: an empty
/// one takes the next event of its period.
struct Lane {
    period_ns: u64,
    front: u32,
    len: u32,
}

/// The live virtual events, in FIFO lanes.
#[derive(Default)]
pub(crate) struct VirtualQueue {
    entries: Vec<Entry>,
    free: Vec<u32>,
    lanes: Vec<Lane>,
    live: usize,
}

impl VirtualQueue {
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn insert(&mut self, at: SimTime, seq: u64, period_ns: u64) -> VirtualEvent {
        assert!(period_ns > 0, "virtual event period must be positive");
        let lane = match (0..self.lanes.len()).find(|&l| self.fits(l, at, period_ns)) {
            Some(l) => l,
            None => {
                self.lanes.push(Lane {
                    period_ns,
                    front: NIL,
                    len: 0,
                });
                self.lanes.len() - 1
            }
        };
        let entry = Entry {
            at,
            seq,
            first: at,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.live += 1;
        self.link_in_order(lane, slot);
        VirtualEvent {
            slot,
            lane: lane as u32,
        }
    }

    /// True if an event at `at` with period `period_ns` can join `lane`:
    /// same period, and the lane's instants still span at most one
    /// period with it.
    fn fits(&self, lane: usize, at: SimTime, period_ns: u64) -> bool {
        let l = &self.lanes[lane];
        if l.period_ns != period_ns {
            return false;
        }
        if l.front == NIL {
            return true;
        }
        let front = &self.entries[l.front as usize];
        let back = &self.entries[front.prev as usize];
        let (lo, hi) = (front.at.min(at), back.at.max(at));
        hi.as_nanos() - lo.as_nanos() <= period_ns
    }

    fn entry(&self, v: &VirtualEvent) -> &Entry {
        let e = &self.entries[v.slot as usize];
        assert!(e.next != NIL, "live virtual event");
        e
    }

    /// Ends `v`; returns its next `(time, seq)` key and the firings made.
    pub(crate) fn remove(&mut self, v: VirtualEvent) -> (SimTime, u64, u64) {
        let state = self.state(&v);
        self.unlink(v.lane as usize, v.slot);
        self.entries[v.slot as usize].next = NIL;
        self.free.push(v.slot);
        self.live -= 1;
        state
    }

    /// `v`'s next `(time, seq)` key and the firings it made.
    fn state(&self, v: &VirtualEvent) -> (SimTime, u64, u64) {
        let (at, seq) = self.key(v);
        (at, seq, self.fired(v))
    }

    /// `v`'s next `(time, seq)` key.
    pub(crate) fn key(&self, v: &VirtualEvent) -> (SimTime, u64) {
        self.entry(v).key()
    }

    /// The firings `v` made so far.
    pub(crate) fn fired(&self, v: &VirtualEvent) -> u64 {
        let e = self.entry(v);
        let period = self.lanes[v.lane as usize].period_ns;
        (e.at.as_nanos() - e.first.as_nanos()) / period
    }

    /// Fires, in `(time, seq)` order, every firing keyed before `next`
    /// (the next real event). Each firing takes the next value of `seq`
    /// for its successor, exactly as a self-rescheduling real event would.
    /// `fired` gets the slot of each event that fired, once per firing or
    /// once per bulk of them.
    pub(crate) fn fire_before(
        &mut self,
        next: (SimTime, u64),
        seq: &mut u64,
        fired: &mut impl FnMut(u32),
    ) {
        loop {
            // The lane whose front fires first, and the first key anyone
            // else holds: the real event or another lane's front.
            let mut first: Option<(usize, (SimTime, u64))> = None;
            let mut bound = next;
            for (i, lane) in self.lanes.iter().enumerate() {
                if lane.front == NIL {
                    continue;
                }
                let key = self.entries[lane.front as usize].key();
                match first {
                    Some((_, k)) if k < key => bound = bound.min(key),
                    _ => {
                        if let Some((_, k)) = first {
                            bound = bound.min(k);
                        }
                        first = Some((i, key));
                    }
                }
            }
            match first {
                Some((lane, key)) if key < next => self.fire_lane(lane, bound, seq, fired),
                _ => return,
            }
        }
    }

    /// Fires `lane`'s fronts keyed before `bound`.
    fn fire_lane(
        &mut self,
        lane: usize,
        bound: (SimTime, u64),
        seq: &mut u64,
        fired: &mut impl FnMut(u32),
    ) {
        let l = &mut self.lanes[lane];
        let period = l.period_ns;
        let entries = &mut self.entries;
        if l.len == 1 {
            fired(l.front);
            // Successor keys get fresh (larger) seqs, so they precede a key
            // at a later instant only: fire every period that lands
            // strictly before the bound's instant.
            let e = &mut entries[l.front as usize];
            let gap = bound.0.as_nanos().saturating_sub(e.at.as_nanos());
            let firings = 1 + gap.saturating_sub(1) / period;
            e.at = SimTime::from_nanos(e.at.as_nanos() + firings * period);
            e.seq = *seq + firings - 1;
            *seq += firings;
            return;
        }
        let (mut front, mut s) = (l.front, *seq);
        loop {
            let e = &mut entries[front as usize];
            if e.key() >= bound {
                break;
            }
            fired(front);
            e.at = SimTime::from_nanos(e.at.as_nanos() + period);
            e.seq = s;
            s += 1;
            // The fired front is the new back: its cycle predecessor.
            let (key, back) = (e.key(), e.prev);
            front = e.next;
            debug_assert!(
                entries[back as usize].key() < key,
                "virtual lane out of (time, seq) order"
            );
        }
        (l.front, *seq) = (front, s);
    }

    /// Links the unlinked entry `slot` into its lane in `(time, seq)`
    /// order: at the back unless a later entry is already there.
    fn link_in_order(&mut self, lane: usize, slot: u32) {
        let key = self.entries[slot as usize].key();
        let front = self.lanes[lane].front;
        if front == NIL {
            let e = &mut self.entries[slot as usize];
            (e.prev, e.next) = (slot, slot);
            self.lanes[lane].front = slot;
            self.lanes[lane].len = 1;
            return;
        }
        // Walk from the back to the first entry that sorts after `slot`.
        let mut succ = front;
        let mut before = self.entries[front as usize].prev;
        while self.entries[before as usize].key() > key {
            succ = before;
            if succ == front {
                break;
            }
            before = self.entries[succ as usize].prev;
        }
        let prev = self.entries[succ as usize].prev;
        self.entries[prev as usize].next = slot;
        self.entries[succ as usize].prev = slot;
        let e = &mut self.entries[slot as usize];
        (e.prev, e.next) = (prev, succ);
        let l = &mut self.lanes[lane];
        l.len += 1;
        if succ == front && key < self.entries[front as usize].key() {
            l.front = slot;
        }
        debug_assert!(
            self.in_order(lane, slot),
            "virtual lane out of (time, seq) order"
        );
    }

    /// Unlinks `slot` from its lane's cycle.
    fn unlink(&mut self, lane: usize, slot: u32) {
        let e = &self.entries[slot as usize];
        let (prev, next) = (e.prev, e.next);
        let l = &mut self.lanes[lane];
        l.len -= 1;
        if l.len == 0 {
            l.front = NIL;
            return;
        }
        if l.front == slot {
            l.front = next;
        }
        self.entries[prev as usize].next = next;
        self.entries[next as usize].prev = prev;
    }

    /// True if `slot` sorts after its predecessor and before its successor
    /// in the lane, counting the front as having no predecessor.
    fn in_order(&self, lane: usize, slot: u32) -> bool {
        let e = &self.entries[slot as usize];
        let front = self.lanes[lane].front;
        let after_prev = slot == front || self.entries[e.prev as usize].key() < e.key();
        let before_next = e.next == front || e.key() < self.entries[e.next as usize].key();
        after_prev && before_next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use std::collections::BTreeMap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// One event under test: its handle and what the reference says of
    /// it, `(at, seq, period, fired)`.
    type Live = (VirtualEvent, (SimTime, u64, u64, u64));

    /// The queue beside its reference: every live event in one map, fired
    /// one period at a time at the smallest `(time, seq)` key.
    #[derive(Default)]
    struct Pair {
        q: VirtualQueue,
        live: BTreeMap<usize, Live>,
        started: usize,
        seq: u64,
    }

    impl Pair {
        fn insert(&mut self, at: u64, period: u64) -> usize {
            let (at, seq) = (t(at), self.seq);
            self.seq += 1;
            let v = self.q.insert(at, seq, period);
            self.live.insert(self.started, (v, (at, seq, period, 0)));
            self.started += 1;
            self.started - 1
        }

        fn handle(&self, i: usize) -> &VirtualEvent {
            &self.live[&i].0
        }

        fn remove(&mut self, i: usize) -> (SimTime, u64, u64) {
            let (v, (at, seq, _, fired)) = self.live.remove(&i).expect("live");
            let got = self.q.remove(v);
            assert_eq!(got, (at, seq, fired), "materialize of event {i}");
            got
        }

        fn fire_before(&mut self, next: (SimTime, u64)) {
            let mut seq = self.seq;
            self.q.fire_before(next, &mut self.seq, &mut |_| {});
            loop {
                let min = self
                    .live
                    .values_mut()
                    .map(|(_, e)| e)
                    .min_by_key(|e| (e.0, e.1));
                match min {
                    Some(e) if (e.0, e.1) < next => {
                        *e = (t(e.0.as_nanos() + e.2), seq, e.2, e.3 + 1);
                        seq += 1;
                    }
                    _ => break,
                }
            }
            assert_eq!(seq, self.seq, "firings before {next:?}");
            self.check();
        }

        fn check(&self) {
            for (i, (v, (at, seq, _, fired))) in &self.live {
                assert_eq!(self.q.state(v), (*at, *seq, *fired), "event {i}");
            }
            assert_eq!(self.q.len(), self.live.len());
        }
    }

    #[test]
    fn two_lanes_interleave_at_equal_instants() {
        let mut p = Pair::default();
        let a = p.insert(100, 100);
        let b = p.insert(100, 150);
        // Both at 100: the older seq (a) fires first and takes seq 2.
        p.fire_before((t(101), 0));
        assert_eq!(p.q.entry(p.handle(a)).key(), (t(200), 2));
        assert_eq!(p.q.entry(p.handle(b)).key(), (t(250), 3));
        // The grids meet again at 400, 700 and 1000, all in one step.
        p.fire_before((t(1_050), 0));
        let (_, _, fired_a) = p.remove(a);
        let (_, _, fired_b) = p.remove(b);
        assert_eq!((fired_a, fired_b), (10, 7));
    }

    #[test]
    fn start_before_the_back_takes_the_ordered_path() {
        let mut p = Pair::default();
        p.insert(230, 230);
        p.insert(400, 230);
        // Earlier than the back, so linked in the middle...
        let mid = p.insert(300, 230);
        // ...and earlier than the front, so it becomes the front.
        let first = p.insert(200, 230);
        p.check();
        assert_eq!(p.q.lanes.len(), 1);
        let front = p.q.lanes[0].front;
        assert_eq!(front, p.handle(first).slot);
        assert_eq!(p.q.entries[front as usize].next, p.handle(0).slot);
        for end in (0..2_000).step_by(70) {
            p.fire_before((t(end), 0));
        }
        assert_eq!(p.q.key(p.handle(mid)).0, t(2_140));
    }

    #[test]
    fn start_over_a_period_ahead_takes_a_lane_of_its_own() {
        let mut p = Pair::default();
        p.insert(100, 100);
        let far = p.insert(1_000, 100);
        // So does one that would stretch either lane past one period.
        p.insert(850, 100);
        assert_eq!(p.q.lanes.len(), 3);
        p.fire_before((t(1_550), 0));
        assert_eq!(p.remove(far), (t(1_600), 29, 6));
    }

    #[test]
    fn materialize_front_middle_and_back() {
        let mut p = Pair::default();
        for at in [230, 300, 400, 460] {
            p.insert(at, 230);
        }
        p.fire_before((t(250), 0)); // front 230 -> back 460
        assert_eq!(p.remove(2), (t(400), 2, 0), "middle");
        assert_eq!(p.remove(1), (t(300), 1, 0), "front");
        assert_eq!(p.remove(0), (t(460), 4, 1), "back");
        p.fire_before((t(1_000), 0));
        assert_eq!(p.remove(3), (t(1_150), 7, 3), "last one, in bulk");
        assert_eq!(p.q.len(), 0);
        assert_eq!(p.q.lanes[0].front, NIL);
    }

    #[test]
    fn park_materialize_cycles_keep_storage_at_live() {
        let mut p = Pair::default();
        p.insert(230, 230);
        let mut now = 0;
        for i in 0..10_000 {
            let a = p.insert(now + 230, 230);
            let b = p.insert(now + 230, 230);
            p.remove(if i % 2 == 0 { a } else { b });
            now += 70;
            p.fire_before((t(now), 0));
            p.remove(if i % 2 == 0 { b } else { a });
        }
        p.check();
        assert_eq!(p.q.len(), 1);
        assert!(p.q.entries.len() <= 3, "{} entries", p.q.entries.len());
        assert_eq!(p.q.lanes.len(), 1);
    }

    #[test]
    fn random_starts_and_ends_match_the_reference() {
        for seed in 0..20 {
            let mut rng = Xoshiro256::new(seed);
            let mut p = Pair::default();
            let mut now = 0;
            for _ in 0..600 {
                match rng.gen_below(3) {
                    0 => {
                        let period = [100, 230, 230, 230, 500][rng.gen_below(5) as usize];
                        // Mostly `now + period`, as a parking core starts.
                        let at = match rng.gen_below(4) {
                            0 => now + rng.gen_below(3 * period),
                            _ => now + period,
                        };
                        p.insert(at, period);
                    }
                    1 => {
                        let n = p.live.len() as u64;
                        if n > 0 {
                            let i = *p.live.keys().nth(rng.gen_below(n) as usize).unwrap();
                            p.remove(i);
                        }
                    }
                    _ => {
                        now += 10 * rng.gen_below(60);
                        let tie = if rng.gen_bool(0.5) { 0 } else { u64::MAX };
                        p.fire_before((t(now), tie));
                    }
                }
            }
        }
    }
}
