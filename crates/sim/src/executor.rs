//! Task storage and waker plumbing for the single-threaded executor.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex}; // sync-allow: Waker must be Send + Sync
use std::task::{Wake, Waker};

/// Identifier of a simulated activity (an async block owned by the sim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Raw slab index (diagnostics only).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A stored task: boxed future plus bookkeeping.
pub(crate) struct TaskSlot {
    /// Taken out while being polled to avoid aliasing the slab borrow.
    pub(crate) future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    /// Debug label.
    pub(crate) name: Option<String>,
    /// Built at the first poll and cloned for every later one, so every
    /// poll hands out the same waker and [`Waker::will_wake`] can dedupe
    /// them.
    pub(crate) waker: Option<Waker>,
}

/// Wake-ups posted by [`Waker`]s; drained by the run loop.
///
/// Wakers must be `Send + Sync` by signature even though this simulator is
/// single-threaded, so the wake list sits behind a std `Mutex` (uncontended
/// in practice).
#[derive(Default)]
pub(crate) struct WakeList {
    pending: Mutex<Vec<usize>>,
}

impl WakeList {
    pub(crate) fn post(&self, id: usize) {
        self.pending.lock().expect("wake list poisoned").push(id);
    }

    /// Moves all pending wake-ups into `out`, preserving post order and
    /// keeping both buffers' capacity (no steady-state allocation).
    pub(crate) fn drain_into(&self, out: &mut Vec<usize>) {
        out.append(&mut self.pending.lock().expect("wake list poisoned"));
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.lock().expect("wake list poisoned").is_empty()
    }
}

struct TaskWaker {
    id: usize,
    wakes: Arc<WakeList>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wakes.post(self.id);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.wakes.post(self.id);
    }
}

/// Builds a waker that re-queues `id` on the shared wake list.
pub(crate) fn waker_for(id: usize, wakes: &Arc<WakeList>) -> Waker {
    Waker::from(Arc::new(TaskWaker {
        id,
        wakes: Arc::clone(wakes),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_list_accumulates_and_drains() {
        let wl = Arc::new(WakeList::default());
        assert!(wl.is_empty());
        let w1 = waker_for(3, &wl);
        let w2 = waker_for(5, &wl);
        w1.wake_by_ref();
        w2.wake();
        w1.wake();
        let mut out = vec![9];
        wl.drain_into(&mut out);
        assert_eq!(out, vec![9, 3, 5, 3], "appends in post order");
        assert!(wl.is_empty());
    }
}
