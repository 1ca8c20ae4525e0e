//! The engine's one backoff schedule.
//!
//! Its one caller is NewMadeleine's retransmit timer, whose spacing
//! between retries grows by [`exp_factor`].

#![warn(missing_docs)]

/// Bounded exponential growth factor: `2^min(attempt, cap)`.
///
/// The shift is additionally clamped to 63, so the result never
/// overflows a `u64` whatever `cap` the caller configured.
#[inline]
pub fn exp_factor(attempt: u32, cap: u32) -> u64 {
    1u64 << attempt.min(cap).min(63)
}

#[cfg(test)]
mod tests {
    use super::exp_factor;

    #[test]
    fn exp_factor_doubles_then_saturates() {
        assert_eq!(exp_factor(0, 6), 1);
        assert_eq!(exp_factor(6, 6), 64);
        assert_eq!(exp_factor(9, 6), 64);
        assert_eq!(exp_factor(200, 200), 1 << 63);
    }
}
