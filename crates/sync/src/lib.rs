//! The engine's one backoff schedule, and the light locks of §2.1 as
//! native reference code.
//!
//! Every exponential wait in PM2-RS — NewMadeleine's retransmit timers
//! and PIOMAN's driver-quarantine windows — grows by [`exp_factor`], so
//! the two layers cannot drift apart.
//!
//! The paper's §2.1 argues that an event-driven engine can replace a
//! library-wide mutex with light per-event locks:
//!
//! > "As the communication processing runs for a very short period of time,
//! > the synchronization can be achieved by using light primitives such as
//! > spinlocks."
//!
//! The engine models that claim in virtual time (`pioman::LockModel`,
//! the `abl_lock` experiment); the simulator runs on one host thread and
//! never touches the types below. They are the same locks as real
//! multi-threaded Rust, stress-tested on OS threads:
//!
//! * [`SpinLock`] — test-and-test-and-set lock with exponential backoff;
//! * [`TicketLock`] — fair FIFO spinlock;
//! * [`Backoff`] and [`CachePadded`] — their supporting utilities.

#![warn(missing_docs)]

mod backoff;
mod cache_padded;
mod spin;
mod ticket;

pub use backoff::Backoff;
pub use cache_padded::CachePadded;
pub use spin::{SpinLock, SpinLockGuard};
pub use ticket::{TicketLock, TicketLockGuard};

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
