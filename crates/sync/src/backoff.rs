//! Exponential backoff for spin loops.

use crate::primitives::{compiler_fence, Ordering};

/// Maximum exponent before [`Backoff::snooze`] starts yielding to the OS.
#[cfg(not(loom))]
const SPIN_LIMIT: u32 = 6;
/// Maximum exponent; beyond this the backoff saturates.
#[cfg(not(loom))]
const YIELD_LIMIT: u32 = 10;

// Under the model checker every spin iteration is a schedule point, so the
// exponential schedule would only inflate the state space; shrink it to the
// minimum that still exercises the spin → yield → park escalation.
#[cfg(loom)]
const SPIN_LIMIT: u32 = 0;
#[cfg(loom)]
const YIELD_LIMIT: u32 = 1;

/// Bounded exponential growth factor: `2^min(attempt, cap)`.
///
/// The schedule shared by every backoff in the engine — [`Backoff`] uses
/// it (with `SPIN_LIMIT`) to pace contended spin loops, and the
/// reliability layer's retransmit timers use it to space retries of an
/// unacknowledged frame.
#[inline]
pub fn exp_factor(attempt: u32, cap: u32) -> u64 {
    1u64 << attempt.min(cap).min(63)
}

/// Exponential backoff helper for contended spin loops.
///
/// Repeatedly failing to acquire a contended atomic wastes inter-core
/// bandwidth (cache-line ping-pong). `Backoff` spins with
/// [`std::hint::spin_loop`] an exponentially growing number of times, and —
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
        let step = self.step.get().min(SPIN_LIMIT);
        for _ in 0..(1u32 << step) {
            crate::primitives::spin_loop();
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
            for _ in 0..(1u32 << step) {
                crate::primitives::spin_loop();
            }
        } else {
            crate::primitives::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// Returns `true` once the backoff has escalated past pure spinning;
    /// callers waiting on a completion should switch to parking
    /// (see [`crate::EventCount`]) at that point.
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
