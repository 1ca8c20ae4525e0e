//! Registered-memory (pinning) cache.

use crate::params::FabricParams;
use pm2_sim::SimDuration;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Statistics of a [`MemoryRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Registration requests that found the buffer already pinned.
    pub hits: u64,
    /// Registration requests that had to pin pages.
    pub misses: u64,
    /// Registrations evicted to make room.
    pub evictions: u64,
}

/// Models the NIC registration cache used by the zero-copy rendezvous
/// path.
///
/// High-performance NICs can only DMA to/from *registered* (pinned)
/// memory. Registering is expensive (a kernel call walking page tables),
/// so MX-era stacks keep an LRU cache of registrations. The rendezvous
/// protocol registers the application buffer on both sides; a warm cache
/// makes repeated transfers from the same buffers cheap.
///
/// Buffers are identified by an opaque `(id, len)` pair supplied by the
/// caller (standing in for the virtual address range).
pub struct MemoryRegistry {
    params: Rc<FabricParams>,
    state: RefCell<RegistryState>,
}

struct RegistryState {
    /// LRU: most recently used at the back.
    entries: VecDeque<(u64, usize)>,
    bytes: usize,
    stats: RegistryStats,
}

impl MemoryRegistry {
    /// Creates an empty registry with the cache capacity from `params`
    /// (a session passes its rail's shared `Rc`).
    pub fn new(params: impl Into<Rc<FabricParams>>) -> Self {
        MemoryRegistry {
            params: params.into(),
            state: RefCell::new(RegistryState {
                entries: VecDeque::new(),
                bytes: 0,
                stats: RegistryStats::default(),
            }),
        }
    }

    /// Registers (or re-uses a registration of) buffer `id` of `len`
    /// bytes; returns the host CPU cost of the operation.
    pub fn register(&self, id: u64, len: usize) -> SimDuration {
        let mut st = self.state.borrow_mut();
        if let Some(pos) = st
            .entries
            .iter()
            .position(|&(eid, elen)| eid == id && elen >= len)
        {
            // Hit: refresh LRU position.
            let entry = st.entries.remove(pos).expect("position valid");
            st.entries.push_back(entry);
            st.stats.hits += 1;
            return self.params.reg_hit;
        }
        st.stats.misses += 1;
        // Evict until it fits (oversized buffers bypass the cache bound).
        while st.bytes + len > self.params.reg_cache_bytes && !st.entries.is_empty() {
            if let Some((_, elen)) = st.entries.pop_front() {
                st.bytes -= elen;
                st.stats.evictions += 1;
            }
        }
        st.entries.push_back((id, len));
        st.bytes += len;
        self.params.reg_miss_cost(len)
    }

    /// Explicitly forgets a buffer (e.g. the application freed it).
    pub fn deregister(&self, id: u64) {
        let mut st = self.state.borrow_mut();
        if let Some(pos) = st.entries.iter().position(|&(eid, _)| eid == id) {
            let (_, len) = st.entries.remove(pos).expect("position valid");
            st.bytes -= len;
        }
    }

    /// Bytes currently pinned.
    pub fn pinned_bytes(&self) -> usize {
        self.state.borrow().bytes
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RegistryStats {
        self.state.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(cache_bytes: usize) -> MemoryRegistry {
        let mut p = FabricParams::myri10g();
        p.reg_cache_bytes = cache_bytes;
        MemoryRegistry::new(p)
    }

    #[test]
    fn miss_then_hit() {
        let r = registry(1 << 20);
        let miss = r.register(1, 64 << 10);
        let hit = r.register(1, 64 << 10);
        assert!(miss > hit);
        assert_eq!(r.stats().hits, 1);
        assert_eq!(r.stats().misses, 1);
        assert_eq!(r.pinned_bytes(), 64 << 10);
    }

    #[test]
    fn smaller_reuse_is_a_hit_larger_is_a_miss() {
        let r = registry(1 << 20);
        r.register(1, 64 << 10);
        let hit = r.register(1, 32 << 10);
        assert_eq!(hit, FabricParams::myri10g().reg_hit);
        let miss = r.register(1, 128 << 10);
        assert!(miss > hit);
        assert_eq!(r.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let r = registry(100);
        r.register(1, 60);
        r.register(2, 60); // evicts 1
        assert_eq!(r.stats().evictions, 1);
        r.register(2, 60);
        assert_eq!(r.stats().hits, 1);
        r.register(1, 60); // 1 was evicted: miss again
        assert_eq!(r.stats().misses, 3);
    }

    #[test]
    fn deregister_frees_bytes() {
        let r = registry(1 << 20);
        r.register(7, 1000);
        r.deregister(7);
        assert_eq!(r.pinned_bytes(), 0);
        r.register(7, 1000);
        assert_eq!(r.stats().misses, 2);
    }

    #[test]
    fn hit_refreshes_lru_order() {
        let r = registry(120);
        r.register(1, 60);
        r.register(2, 60);
        r.register(1, 60); // hit: 1 becomes most-recent
        r.register(3, 60); // evicts 2, not 1
        assert_eq!(r.register(1, 60), FabricParams::myri10g().reg_hit);
    }
}
