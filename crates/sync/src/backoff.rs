//! Exponential backoff for spin loops.

use crate::exp_factor;
use std::sync::atomic::{compiler_fence, Ordering};

/// Maximum exponent before [`Backoff::snooze`] starts yielding to the OS.
const SPIN_LIMIT: u32 = 6;
/// Maximum exponent; beyond this the backoff saturates.
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff helper for contended spin loops.
///
/// Repeatedly failing to acquire a contended atomic wastes inter-core
/// bandwidth (cache-line ping-pong). `Backoff` spins with
/// [`std::hint::spin_loop`] [`exp_factor`]`(step, SPIN_LIMIT)` times, and —
/// once the contention appears persistent — yields the CPU to the OS
/// scheduler so another thread (possibly the lock holder) can run.
///
/// # Example
/// ```
/// use pm2_sync::Backoff;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true); // pretend another thread will clear it
/// flag.store(false, Ordering::Release);
/// let backoff = Backoff::new();
/// while flag.load(Ordering::Acquire) {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

impl Backoff {
    /// Creates a backoff counter in its initial (no-wait) state.
    #[inline]
    pub const fn new() -> Self {
        Backoff {
            step: std::cell::Cell::new(0),
        }
    }

    /// Resets the counter, e.g. after a successful acquisition.
    #[inline]
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Backs off using only busy spinning; suitable inside lock-free
    /// retry loops where the other party is guaranteed to be running.
    #[inline]
    pub fn spin(&self) {
        for _ in 0..exp_factor(self.step.get(), SPIN_LIMIT) {
            std::hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
        compiler_fence(Ordering::SeqCst);
    }

    /// Backs off, escalating from busy spinning to `thread::yield_now`.
    ///
    /// Use this while waiting for another thread that might be descheduled
    /// (e.g. a lock holder); on an oversubscribed machine pure spinning
    /// could otherwise starve it.
    #[inline]
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..exp_factor(step, SPIN_LIMIT) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// Returns `true` once the backoff has escalated past spinning and
    /// yielding; a waiter expecting a long wait should park at that point.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_and_saturates() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn spin_does_not_trip_completion() {
        let b = Backoff::new();
        for _ in 0..64 {
            b.spin();
        }
        // `spin` never escalates past SPIN_LIMIT + 1, so completion (which
        // is about parking) is never signalled by pure spinning.
        assert!(!b.is_completed());
    }
}
