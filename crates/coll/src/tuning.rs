//! Size×ranks algorithm auto-selection.
//!
//! The selection table (overridable per cluster via
//! `ClusterConfig::coll`, or wholesale through [`CollTuning::force`]):
//!
//! | collective | condition                          | algorithm   |
//! |------------|------------------------------------|-------------|
//! | barrier    | always                             | dissemination ([`crate::RecDoubleAlgo`]) |
//! | bcast      | always                             | binomial tree |
//! | reduce     | always                             | binomial tree |
//! | allreduce  | `len ≤ flat_small_max_bytes` and `flat_small_min_ranks ≤ P ≤ flat_small_max_ranks` | flat |
//! | allreduce  | `len ≤ rd_max_bytes` or `P < 3`    | recursive doubling |
//! | allreduce  | otherwise                          | ring (chunked) |
//! | gather     | `P ≥ tree_gather_min_ranks` and `len ≤ tree_gather_max_bytes` | binomial tree |
//! | gather     | otherwise                          | flat |
//! | alltoall   | always                             | flat |
//!
//! Rationale: tree/dissemination shapes dominate flat at every size
//! (`log P` vs `P-1` sequential rounds at the root); recursive doubling
//! is latency-optimal while ring is bandwidth-optimal, so payload size
//! picks between them; tree gather only wins when per-message overhead —
//! not the root's inbound bandwidth — dominates, i.e. many ranks and
//! small payloads. The flat window for tiny allreduces is measured, not
//! theoretical: at sub-latency payloads the root's serialized eager
//! receives are cheaper than `log P` *sequential* exchange rounds while
//! `P-1` stays small — on the simulated MYRI-10G testbed the crossover
//! brackets P ≈ 5…9 at ≤ 512 B (the original sweep:
//! `git show 88d2719:BENCH_coll.json`;
//! `tests/coll.rs::auto_selection_never_slower_than_flat` pins the table
//! against flat).

use crate::algo::AlgoKind;
use crate::plan::CollKind;

/// Tuning knobs of the collective engine.
#[derive(Debug, Clone)]
pub struct CollTuning {
    /// Ring-allreduce pipelining chunk (bytes). The default sits just
    /// above the 32 KiB rendezvous threshold so chunks take the zero-copy
    /// rendezvous path and successive ring rounds overlap their
    /// handshakes.
    pub ring_chunk_bytes: usize,
    /// Allreduce payloads at most this long use recursive doubling
    /// instead of the ring.
    pub rd_max_bytes: usize,
    /// Tiny-allreduce flat window: payloads at most this long…
    pub flat_small_max_bytes: usize,
    /// …on at least this many ranks…
    pub flat_small_min_ranks: usize,
    /// …and at most this many stay on the flat shape.
    pub flat_small_max_ranks: usize,
    /// Gather switches to the binomial tree at this many ranks…
    pub tree_gather_min_ranks: usize,
    /// …but only for payloads at most this long.
    pub tree_gather_max_bytes: usize,
    /// Force every collective through one algorithm (differential tests,
    /// benchmarks). `None` = auto-select.
    pub force: Option<AlgoKind>,
}

impl Default for CollTuning {
    fn default() -> Self {
        CollTuning {
            ring_chunk_bytes: 64 << 10,
            rd_max_bytes: 4 << 10,
            flat_small_max_bytes: 512,
            flat_small_min_ranks: 5,
            flat_small_max_ranks: 9,
            tree_gather_min_ranks: 8,
            tree_gather_max_bytes: 4 << 10,
            force: None,
        }
    }
}

impl CollTuning {
    /// Picks the algorithm for one collective call.
    pub fn select(&self, kind: &CollKind, len: usize, ranks: usize) -> AlgoKind {
        if let Some(forced) = self.force {
            return forced;
        }
        match kind {
            CollKind::Barrier => AlgoKind::RecDouble,
            CollKind::Bcast { .. } | CollKind::Reduce { .. } => AlgoKind::Tree,
            CollKind::Allreduce { .. } => {
                if len <= self.flat_small_max_bytes
                    && (self.flat_small_min_ranks..=self.flat_small_max_ranks).contains(&ranks)
                {
                    AlgoKind::Flat
                } else if len <= self.rd_max_bytes || ranks < 3 {
                    AlgoKind::RecDouble
                } else {
                    AlgoKind::Ring
                }
            }
            CollKind::Gather { .. } => {
                if ranks >= self.tree_gather_min_ranks && len <= self.tree_gather_max_bytes {
                    AlgoKind::Tree
                } else {
                    AlgoKind::Flat
                }
            }
            CollKind::Alltoall => AlgoKind::Flat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ReduceOp;

    #[test]
    fn size_splits_allreduce() {
        let t = CollTuning::default();
        let ar = CollKind::Allreduce {
            op: ReduceOp::SumU64,
        };
        assert_eq!(t.select(&ar, 1 << 10, 8), AlgoKind::RecDouble);
        assert_eq!(t.select(&ar, 1 << 20, 8), AlgoKind::Ring);
        assert_eq!(t.select(&ar, 1 << 20, 2), AlgoKind::RecDouble);
    }

    #[test]
    fn tiny_allreduce_window_stays_flat() {
        let t = CollTuning::default();
        let ar = CollKind::Allreduce {
            op: ReduceOp::SumU64,
        };
        assert_eq!(t.select(&ar, 256, 8), AlgoKind::Flat);
        assert_eq!(t.select(&ar, 256, 4), AlgoKind::RecDouble);
        assert_eq!(t.select(&ar, 256, 16), AlgoKind::RecDouble);
        assert_eq!(t.select(&ar, 1 << 10, 8), AlgoKind::RecDouble);
    }

    #[test]
    fn force_overrides_everything() {
        let t = CollTuning {
            force: Some(AlgoKind::Flat),
            ..CollTuning::default()
        };
        assert_eq!(t.select(&CollKind::Barrier, 0, 16), AlgoKind::Flat);
        assert_eq!(
            t.select(
                &CollKind::Allreduce {
                    op: ReduceOp::SumU64
                },
                1 << 20,
                8
            ),
            AlgoKind::Flat
        );
    }

    #[test]
    fn gather_needs_scale_and_small_payloads() {
        let t = CollTuning::default();
        let g = CollKind::Gather { root: 0 };
        assert_eq!(t.select(&g, 256, 16), AlgoKind::Tree);
        assert_eq!(t.select(&g, 256, 4), AlgoKind::Flat);
        assert_eq!(t.select(&g, 1 << 20, 16), AlgoKind::Flat);
    }
}
