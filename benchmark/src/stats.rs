//! Order statistics over exact samples.
//!
//! The crates' own `Histogram` buckets at 1 µs; the benchmark keeps every
//! sample instead, so a virtual-clock percentile is an exact nanosecond
//! value that two runs of the same seed reproduce bit for bit.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples` ascending (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by linear interpolation (mean of the two middle samples for an
/// even count). Empty input gives 0.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` by linear interpolation between closest ranks
/// (the "inclusive" method): a single sample is all three, ties collapse.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let s = sorted(samples);
    let at = |q: f64| -> f64 {
        match s.len() {
            0 => 0.0,
            1 => s[0],
            n => {
                let pos = q * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
            }
        }
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Nearest-rank percentiles and the sample count of a latency sample in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub p999: f64,
}

/// Summarises nanosecond samples.
pub fn tail(samples_ns: &[u64]) -> Tail {
    let s = sorted(&samples_ns.iter().map(|&v| v as f64).collect::<Vec<_>>());
    Tail {
        count: s.len(),
        p50: percentile_sorted(&s, 0.50),
        p95: percentile_sorted(&s, 0.95),
        p99: percentile_sorted(&s, 0.99),
        p999: percentile_sorted(&s, 0.999),
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_zero_everywhere() {
        assert_eq!(percentile_sorted(&[], 0.99), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(tail(&[]), Tail::default());
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        assert_eq!(percentile_sorted(&[7.0], 0.0), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 1.0), 7.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        let t = tail(&[7]);
        assert_eq!(
            (t.count, t.p50, t.p95, t.p99, t.p999),
            (1, 7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    fn ties_collapse() {
        assert_eq!(quartiles(&[5.0; 9]), (5.0, 5.0, 5.0));
        assert_eq!(percentile_sorted(&[5.0; 9], 0.99), 5.0);
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 0.999), 100.0);
        assert_eq!(percentile_sorted(&s, 2.0), 100.0);
        assert_eq!(percentile_sorted(&s, -1.0), 1.0);
    }

    #[test]
    fn quartiles_interpolate_and_ignore_input_order() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.5, 2.0, 2.5));
        assert_eq!(median(&[10.0, 30.0]), 20.0);
    }
}
