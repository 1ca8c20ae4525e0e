//! Fair FIFO ticket spinlock.

use crate::{Backoff, CachePadded};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fair spinlock: threads acquire in strict arrival order.
///
/// A plain test-and-set lock ([`crate::SpinLock`]) lets a core that just
/// released the lock immediately re-acquire it (its cache still owns the
/// line), starving remote waiters. Where fairness between communication
/// flows matters, a ticket lock serves them in order: `next_ticket` is
/// fetch-incremented on entry and each waiter spins until `now_serving`
/// equals its ticket.
///
/// The two counters live on separate cache lines ([`CachePadded`]) so that
/// arriving threads (writing `next_ticket`) do not disturb spinning threads
/// (reading `now_serving`).
///
/// # Example
/// ```
/// use pm2_sync::TicketLock;
/// let l = TicketLock::new(String::new());
/// l.lock().push_str("fifo");
/// assert_eq!(&*l.lock(), "fifo");
/// ```
pub struct TicketLock<T: ?Sized> {
    next_ticket: CachePadded<AtomicUsize>,
    now_serving: CachePadded<AtomicUsize>,
    data: UnsafeCell<T>,
}

// SAFETY: mutual exclusion is guaranteed by the ticket discipline.
unsafe impl<T: ?Sized + Send> Sync for TicketLock<T> {}
unsafe impl<T: ?Sized + Send> Send for TicketLock<T> {}

impl<T> TicketLock<T> {
    /// Creates an unlocked ticket lock protecting `value`.
    pub const fn new(value: T) -> Self {
        TicketLock {
            next_ticket: CachePadded::new(AtomicUsize::new(0)),
            now_serving: CachePadded::new(AtomicUsize::new(0)),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> TicketLock<T> {
    /// Acquires the lock, waiting in FIFO order.
    pub fn lock(&self) -> TicketLockGuard<'_, T> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let backoff = Backoff::new();
        while self.now_serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        TicketLockGuard { lock: self }
    }

    /// Attempts to acquire the lock only if no one is waiting or holding.
    pub fn try_lock(&self) -> Option<TicketLockGuard<'_, T>> {
        let serving = self.now_serving.load(Ordering::Acquire);
        // Only take a ticket if we'd be served immediately; otherwise we
        // would be *obliged* to wait (tickets cannot be returned).
        if self
            .next_ticket
            .compare_exchange(serving, serving + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            Some(TicketLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Number of threads waiting or holding the lock (approximate).
    pub fn queue_len(&self) -> usize {
        self.next_ticket
            .load(Ordering::Relaxed)
            .wrapping_sub(self.now_serving.load(Ordering::Relaxed))
    }

    /// Returns a mutable reference to the protected value without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for TicketLock<T> {
    fn default() -> Self {
        TicketLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TicketLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("TicketLock").field("data", &&*g).finish(),
            None => f.write_str("TicketLock(<locked>)"),
        }
    }
}

/// RAII guard for [`TicketLock`]; serves the next ticket on drop.
#[must_use = "if unused the TicketLock will immediately unlock"]
pub struct TicketLockGuard<'a, T: ?Sized> {
    lock: &'a TicketLock<T>,
}

impl<T: ?Sized> Deref for TicketLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: holding the guard implies we own the serving ticket.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for TicketLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: holding the guard implies we own the serving ticket.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for TicketLockGuard<'_, T> {
    fn drop(&mut self) {
        // Release our critical section to the next ticket holder.
        let serving = self.lock.now_serving.load(Ordering::Relaxed);
        self.lock
            .now_serving
            .store(serving.wrapping_add(1), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let l = TicketLock::new(1);
        {
            let mut g = l.lock();
            *g += 1;
            assert!(l.try_lock().is_none());
        }
        assert_eq!(*l.lock(), 2);
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn hammer() {
        const THREADS: usize = 4;
        const ITERS: usize = 5_000;
        let l = Arc::new(TicketLock::new(0usize));
        let hs: Vec<_> = (0..THREADS)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        *l.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*l.lock(), THREADS * ITERS);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let l = TicketLock::new(());
        let g = l.lock();
        assert!(l.try_lock().is_none());
        drop(g);
        assert!(l.try_lock().is_some());
    }
}
