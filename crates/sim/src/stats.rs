//! Measurement accumulators for the benchmark harness.

use std::fmt;

/// Streaming mean/variance/min/max (Welford's algorithm).
///
/// # Example
/// ```
/// use pm2_sim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// s.record(1.0);
/// s.record(3.0);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

/// Fixed-resolution histogram with percentile queries and an optional
/// geometric tail.
///
/// Buckets are linear at `resolution` width over the primary span. With
/// [`Histogram::new`] values beyond `resolution * buckets` land in the
/// overflow bucket and are clamped in percentile answers; with
/// [`Histogram::with_geometric_tail`] a run of geometrically widening
/// buckets extends the span first, so overload tails keep resolving
/// (coarsely) instead of saturating at the linear edge.
#[derive(Debug, Clone)]
pub struct Histogram {
    resolution: f64,
    counts: Vec<u64>,
    /// Ascending upper edges of the geometric tail buckets; empty for a
    /// purely linear histogram.
    tail_edges: Vec<f64>,
    tail: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` bins of width `resolution`.
    ///
    /// # Panics
    /// Panics if `resolution <= 0` or `buckets == 0`.
    pub fn new(resolution: f64, buckets: usize) -> Self {
        assert!(resolution > 0.0 && buckets > 0);
        Histogram {
            resolution,
            counts: vec![0; buckets],
            tail_edges: Vec::new(),
            tail: Vec::new(),
            overflow: 0,
            total: 0,
        }
    }

    /// Like [`Histogram::new`], plus `tail_buckets` geometric buckets past
    /// the linear span: tail bucket `i` has upper edge
    /// `resolution * buckets * growth^(i+1)`. Samples inside the linear
    /// span behave exactly as in a linear histogram; samples past it land
    /// in the first tail bucket whose edge covers them, and only samples
    /// past the last tail edge overflow (clamping to that edge).
    ///
    /// # Panics
    /// Panics if `resolution <= 0`, `buckets == 0`, `tail_buckets == 0`
    /// or `growth <= 1`.
    pub fn with_geometric_tail(
        resolution: f64,
        buckets: usize,
        tail_buckets: usize,
        growth: f64,
    ) -> Self {
        assert!(tail_buckets > 0 && growth > 1.0);
        let mut h = Histogram::new(resolution, buckets);
        let mut edge = resolution * buckets as f64;
        for _ in 0..tail_buckets {
            edge *= growth;
            h.tail_edges.push(edge);
        }
        h.tail = vec![0; tail_buckets];
        h
    }

    /// Largest value the histogram resolves before clamping (the upper
    /// edge of its final bucket, linear or tail).
    pub fn span(&self) -> f64 {
        match self.tail_edges.last() {
            Some(&e) => e,
            None => self.resolution * self.counts.len() as f64,
        }
    }

    /// Records one (non-negative) sample.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        let x = x.max(0.0);
        let idx = (x / self.resolution) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            let t = self.tail_edges.partition_point(|&e| e < x);
            if t < self.tail.len() {
                self.tail[t] += 1;
            } else {
                self.overflow += 1;
            }
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Value at percentile `p`, answered at the **upper edge** of the
    /// bucket holding the `ceil(p/100 * count)`-th smallest sample — a
    /// conservative (never under-reporting) estimate at `resolution`
    /// granularity.
    ///
    /// Edge conventions:
    /// - an empty histogram answers `0.0` for every `p`;
    /// - `p` is clamped into `[0, 100]`, so out-of-range queries behave
    ///   like the nearest valid percentile;
    /// - `p <= 0` answers `0.0`, the infimum of the (non-negative) sample
    ///   domain, rather than the edge of the first populated bucket;
    /// - overflow samples clamp to the histogram's [`Histogram::span`]
    ///   (the top linear edge, or the last tail edge when a geometric
    ///   tail is configured).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        if p <= 0.0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i + 1) as f64 * self.resolution;
            }
        }
        for (i, &c) in self.tail.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.tail_edges[i];
            }
        }
        self.span()
    }

    /// Median shortcut (bucket-upper-edge convention of
    /// [`Histogram::percentile`]).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 99th-percentile shortcut (bucket-upper-edge convention of
    /// [`Histogram::percentile`]).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// 99.9th-percentile shortcut (bucket-upper-edge convention of
    /// [`Histogram::percentile`]) — the tail the service-scenario SLOs
    /// are scored on.
    pub fn p999(&self) -> f64 {
        self.percentile(99.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_and_variance() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(1.0, 100);
        for i in 1..=100 {
            h.record(i as f64 - 0.5);
        }
        assert_eq!(h.count(), 100);
        assert!((h.p50() - 50.0).abs() < 1.01);
        assert!((h.p99() - 99.0).abs() < 1.01);
        assert!((h.percentile(100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_overflow_clamps() {
        let mut h = Histogram::new(1.0, 10);
        h.record(1e9);
        assert_eq!(h.percentile(100.0), 10.0);
    }

    #[test]
    fn p999_separates_the_tail_p99_misses() {
        // 999 fast samples and one straggler: p99 stays at the bulk edge
        // while p999 reaches the straggler's bucket.
        let mut h = Histogram::new(1.0, 100);
        for _ in 0..999 {
            h.record(0.5);
        }
        h.record(80.5);
        assert_eq!(h.p99(), 1.0);
        assert_eq!(h.p999(), 81.0);
    }

    #[test]
    fn p999_edge_cases_mirror_percentile_conventions() {
        // Empty: 0, like every other percentile.
        let empty = Histogram::new(1.0, 10);
        assert_eq!(empty.p999(), 0.0);
        // Single sample: the one bucket's upper edge.
        let mut one = Histogram::new(1.0, 10);
        one.record(2.5);
        assert_eq!(one.p999(), 3.0);
        assert_eq!(one.p999(), one.percentile(100.0));
        // Overflow: clamps to the top bucket edge.
        let mut over = Histogram::new(1.0, 10);
        over.record(1e9);
        assert_eq!(over.p999(), 10.0);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.percentile(100.0), 0.0);
    }

    #[test]
    fn percentile_zero_is_zero() {
        let mut h = Histogram::new(1.0, 10);
        h.record(2.5);
        // p = 0 asks for the infimum of the distribution; by the bucket
        // lower-bound convention that is 0, never a populated bucket edge.
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(-25.0), 0.0);
    }

    #[test]
    fn out_of_range_percentile_clamps_to_100() {
        let mut h = Histogram::new(1.0, 10);
        h.record(2.5);
        h.record(3.5);
        assert_eq!(h.percentile(150.0), h.percentile(100.0));
        assert_eq!(h.percentile(150.0), 4.0);
    }

    #[test]
    fn geometric_tail_matches_linear_inside_the_linear_span() {
        // Same samples, same answers: the tail only changes what happens
        // past the linear edge.
        let mut lin = Histogram::new(1.0, 100);
        let mut geo = Histogram::with_geometric_tail(1.0, 100, 16, 2.0);
        for i in 1..=100 {
            lin.record(i as f64 - 0.5);
            geo.record(i as f64 - 0.5);
        }
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(lin.percentile(p), geo.percentile(p));
        }
    }

    #[test]
    fn geometric_tail_resolves_past_the_linear_clamp() {
        // Linear span is 10; a sample at 70 saturates the linear
        // histogram but lands in a resolving tail bucket (edges
        // 20, 40, 80, 160).
        let mut lin = Histogram::new(1.0, 10);
        let mut geo = Histogram::with_geometric_tail(1.0, 10, 4, 2.0);
        lin.record(70.0);
        geo.record(70.0);
        assert_eq!(lin.percentile(100.0), 10.0, "old clamp behaviour");
        assert_eq!(geo.percentile(100.0), 80.0, "tail bucket upper edge");
        assert_eq!(geo.span(), 160.0);
    }

    #[test]
    fn geometric_tail_overflow_clamps_to_last_edge() {
        let mut geo = Histogram::with_geometric_tail(1.0, 10, 4, 2.0);
        geo.record(1e9);
        assert_eq!(geo.percentile(100.0), 160.0);
        assert_eq!(geo.p999(), 160.0);
    }

    #[test]
    fn geometric_tail_keeps_percentile_edge_conventions() {
        // Empty / p<=0 / clamp-to-100 behave exactly like the linear
        // histogram (PR-4/PR-7 conventions).
        let empty = Histogram::with_geometric_tail(1.0, 10, 4, 2.0);
        assert_eq!(empty.percentile(50.0), 0.0);
        let mut h = Histogram::with_geometric_tail(1.0, 10, 4, 2.0);
        h.record(15.0); // first tail bucket (edge 20)
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(-3.0), 0.0);
        assert_eq!(h.percentile(150.0), h.percentile(100.0));
        assert_eq!(h.percentile(100.0), 20.0);
    }

    #[test]
    fn p999_separates_tail_bucket_stragglers() {
        // Bulk in the linear span, one straggler deep in the tail: p99
        // answers the bulk edge, p999 reaches the straggler's tail edge.
        let mut h = Histogram::with_geometric_tail(1.0, 10, 4, 2.0);
        for _ in 0..999 {
            h.record(0.5);
        }
        h.record(100.0);
        assert_eq!(h.p99(), 1.0);
        assert_eq!(h.p999(), 160.0);
    }
}
