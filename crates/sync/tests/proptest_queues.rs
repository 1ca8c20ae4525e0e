//! Counter-exactness stress tests for the native locks: increments made
//! under the lock by several OS threads are never lost, for a spread of
//! thread counts and iteration counts.

use pm2_sync::{SpinLock, TicketLock};
use std::sync::Arc;

/// Spinlock-protected counter increments are never lost.
#[test]
fn spinlock_counter_exact() {
    for (threads, iters) in [(1usize, 1999usize), (2, 500), (3, 1500)] {
        let lock = Arc::new(SpinLock::new(0usize));
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), threads * iters);
    }
}

/// Ticket lock is exact too.
#[test]
fn ticketlock_counter_exact() {
    for (threads, iters) in [(1usize, 1999usize), (2, 500), (3, 1500)] {
        let lock = Arc::new(TicketLock::new(0usize));
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), threads * iters);
    }
}
