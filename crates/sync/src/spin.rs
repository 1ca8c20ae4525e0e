//! Test-and-test-and-set spinlock with exponential backoff.

use crate::Backoff;
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// A light mutual-exclusion lock that busy-waits.
///
/// This is the "light primitive" the paper proposes for serializing the
/// processing of individual communication events (§2.1): critical sections
/// are a few hundred nanoseconds (enqueue a request, flip a state machine),
/// so parking the thread through the OS would cost more than the wait
/// itself.
///
/// The implementation follows the classic test-and-test-and-set pattern:
/// the fast path is a single `compare_exchange`; under contention waiters
/// spin on a *plain load* (the shared line stays in the S state of the
/// coherence protocol) and only attempt the RMW when the lock looks free,
/// with exponential [`Backoff`] to bound bandwidth waste.
///
/// # Memory ordering
/// `Acquire` on lock, `Release` on unlock — everything written inside the
/// critical section happens-before the next acquisition.
///
/// # When *not* to use it
/// Long critical sections or oversubscribed systems: use a parking mutex.
/// The `abl_lock` experiment in `pm2-bench` quantifies this trade-off in
/// virtual time.
///
/// # Example
/// ```
/// use pm2_sync::SpinLock;
/// let counter = SpinLock::new(0);
/// *counter.lock() += 1;
/// assert_eq!(*counter.lock(), 1);
/// assert!(counter.try_lock().is_some());
/// ```
pub struct SpinLock<T: ?Sized> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: SpinLock provides mutual exclusion, so it is Sync as long as the
// protected value can be sent between threads.
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Creates an unlocked spinlock protecting `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquires the lock, spinning until it becomes available.
    #[inline]
    pub fn lock(&self) -> SpinLockGuard<'_, T> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return SpinLockGuard { lock: self };
        }
        self.lock_slow()
    }

    #[cold]
    fn lock_slow(&self) -> SpinLockGuard<'_, T> {
        let backoff = Backoff::new();
        loop {
            // Test: spin on a read-only load while the lock is held.
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
            // Test-and-set: race for it.
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinLockGuard { lock: self };
            }
        }
    }

    /// Attempts to acquire the lock without spinning.
    #[inline]
    pub fn try_lock(&self) -> Option<SpinLockGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns `true` if the lock is currently held by some thread.
    ///
    /// Only a hint: the answer may be stale by the time it is observed.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    /// Returns a mutable reference to the protected value.
    ///
    /// No locking is needed: the `&mut self` receiver proves exclusivity.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("SpinLock").field("data", &&*g).finish(),
            None => f.write_str("SpinLock(<locked>)"),
        }
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        SpinLock::new(T::default())
    }
}

/// RAII guard: the lock is released when the guard is dropped.
#[must_use = "if unused the SpinLock will immediately unlock"]
pub struct SpinLockGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T: ?Sized> Deref for SpinLockGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinLockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusive access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SpinLockGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SpinLockGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_mutual_exclusion() {
        let lock = SpinLock::new(0u32);
        {
            let mut g = lock.lock();
            *g += 1;
            assert!(lock.try_lock().is_none());
            assert!(lock.is_locked());
        }
        assert!(!lock.is_locked());
        assert_eq!(*lock.lock(), 1);
    }

    #[test]
    fn get_mut_bypasses_lock() {
        let mut lock = SpinLock::new(5);
        *lock.get_mut() = 7;
        assert_eq!(lock.into_inner(), 7);
    }

    #[test]
    fn hammer_counter() {
        const THREADS: usize = 4;
        const ITERS: usize = 10_000;
        let lock = Arc::new(SpinLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), THREADS * ITERS);
    }

    #[test]
    fn debug_formats() {
        let lock = SpinLock::new(3);
        assert!(format!("{lock:?}").contains('3'));
        let _g = lock.lock();
        assert!(format!("{lock:?}").contains("locked"));
    }
}
