//! A minimal slab allocator: stable `usize` keys, O(1) insert/remove.

/// Vec-backed slab with a free list.
///
/// Used throughout the simulator for tasks, requests, timers and NIC
/// descriptors: insertion returns a small dense key that stays valid until
/// removal, without the hashing cost of a map.
///
/// # Example
/// ```
/// use pm2_sim::Slab;
/// let mut slab = Slab::new();
/// let k = slab.insert("req");
/// assert_eq!(slab.get(k), Some(&"req"));
/// assert_eq!(slab.remove(k), Some("req"));
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Entry<T>>,
    free_head: Option<usize>,
    len: usize,
}

#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    Vacant { next_free: Option<usize> },
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// Creates an empty slab with space for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: None,
            len: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Entries the slab can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// True if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning its key.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        match self.free_head {
            Some(idx) => {
                let next = match self.slots[idx] {
                    Entry::Vacant { next_free } => next_free,
                    Entry::Occupied(_) => unreachable!("free list points at occupied slot"),
                };
                self.free_head = next;
                self.slots[idx] = Entry::Occupied(value);
                idx
            }
            None => {
                // Exact growth from one: a slab that ever holds a single
                // entry (one thread, one tasklet per rank) keeps a single
                // slot, where `push`'s first growth reserves four; past
                // that it doubles like `push`.
                if self.slots.len() == self.slots.capacity() {
                    self.slots.reserve_exact(self.slots.len().max(1));
                }
                self.slots.push(Entry::Occupied(value));
                self.slots.len() - 1
            }
        }
    }

    /// Removes and returns the value at `key`, if occupied.
    pub fn remove(&mut self, key: usize) -> Option<T> {
        match self.slots.get_mut(key) {
            Some(slot @ Entry::Occupied(_)) => {
                let old = std::mem::replace(
                    slot,
                    Entry::Vacant {
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(key);
                self.len -= 1;
                match old {
                    Entry::Occupied(v) => Some(v),
                    Entry::Vacant { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Shared access to the value at `key`.
    pub fn get(&self, key: usize) -> Option<&T> {
        match self.slots.get(key) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutable access to the value at `key`.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.slots.get_mut(key) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// True if `key` refers to an occupied entry.
    pub fn contains(&self, key: usize) -> bool {
        matches!(self.slots.get(key), Some(Entry::Occupied(_)))
    }

    /// Iterates over `(key, &value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i, v)),
            Entry::Vacant { .. } => None,
        })
    }

    /// Collects the keys of all occupied entries.
    pub fn keys(&self) -> Vec<usize> {
        self.iter().map(|(k, _)| k).collect()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn keys_are_reused() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        assert_eq!(a, b, "freed slot should be reused");
    }

    #[test]
    fn iter_skips_vacant() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let _b = s.insert(20);
        let c = s.insert(30);
        s.remove(a);
        s.remove(c);
        let items: Vec<_> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(items, vec![20]);
    }

    #[test]
    fn growth_is_exact_from_one_then_doubles() {
        let mut s = Slab::new();
        s.insert(0u64);
        assert_eq!(s.slots.capacity(), 1);
        let caps: Vec<usize> = (1..9)
            .map(|i| {
                s.insert(i);
                s.slots.capacity()
            })
            .collect();
        assert_eq!(caps, [2, 4, 4, 8, 8, 8, 8, 16]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut s = Slab::new();
        let k = s.insert(5);
        *s.get_mut(k).unwrap() += 1;
        assert_eq!(s.get(k), Some(&6));
    }

    #[test]
    fn stress_interleaved_ops_preserve_contents() {
        let mut s = Slab::new();
        let mut live = std::collections::HashMap::new();
        let mut rng = crate::rng::Xoshiro256::new(99);
        for i in 0..10_000u64 {
            if rng.gen_bool(0.6) || live.is_empty() {
                let k = s.insert(i);
                live.insert(k, i);
            } else {
                let keys: Vec<_> = live.keys().copied().collect();
                let k = keys[rng.gen_below(keys.len() as u64) as usize];
                assert_eq!(s.remove(k), live.remove(&k));
            }
        }
        assert_eq!(s.len(), live.len());
        for (k, v) in &live {
            assert_eq!(s.get(*k), Some(v));
        }
    }
}
