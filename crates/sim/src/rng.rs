//! Deterministic pseudo-random numbers (xoshiro256**).
//!
//! The simulator must be reproducible bit-for-bit, so it carries its own
//! small PRNG rather than depending on ambient entropy. xoshiro256** is the
//! standard all-purpose generator of the xoshiro family: fast (a handful of
//! arithmetic ops), 256-bit state, passes BigCrush.

/// xoshiro256** generator.
///
/// # Example
/// ```
/// use pm2_sim::rng::Xoshiro256;
/// let mut a = Xoshiro256::new(7);
/// let mut b = Xoshiro256::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// assert!(a.gen_below(10) < 10);
/// ```
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator; the seed is expanded with SplitMix64 so that
    /// small or zero seeds still yield well-mixed state.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64 { state: seed };
        Xoshiro256 {
            s: [sm.next(), sm.next(), sm.next(), sm.next()],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    /// Panics if `bound` is 0.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        lo + self.gen_below(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256::new(123);
        let mut b = Xoshiro256::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut r = Xoshiro256::new(0);
        let vals: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn gen_below_is_in_bounds_and_covers() {
        let mut r = Xoshiro256::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Xoshiro256::new(9);
        for _ in 0..1000 {
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "gen_below(0)")]
    fn gen_below_zero_panics() {
        Xoshiro256::new(1).gen_below(0);
    }
}
