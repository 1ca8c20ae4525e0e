//! Peak live heap bytes of the calling thread, counted at the allocator.
//!
//! The memory metric has to repeat: `VmHWM` does not on processes this
//! small (see `peak_rss_mib` in `main.rs`), while the number of bytes the
//! program holds at its fullest moment is a count — identical for two runs
//! of one seed, and it moves when a change makes the simulator hold more
//! (a task leaked per message, a payload copied once more).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with two statistics counters in front.
struct Counting;

// Per-thread plain cells, not atomics: the benchmark runs on one thread,
// and two locked read-modify-writes per allocation cost a measurable share
// of `host_ops_per_s`. Const-initialised and without destructors, so
// touching them from inside the allocator can neither allocate nor fail.
// Memory freed by another thread than the one that allocated it would
// wrap `LIVE` on the freeing thread; nothing here does that.
thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.get().wrapping_add(bytes);
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get().wrapping_sub(bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers returned or the memory they cover.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`,
        // and `new_size` obeys the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Starts a measurement: forgets earlier peaks and returns the bytes live
/// right now. What an earlier rep failed to free (dropping a `Cluster`
/// does not always free it: on about half the seeds an `Rc` cycle through
/// the leaked watcher tasks pins the whole simulation) is thereby charged
/// to that rep's successors neither as baseline nor as peak.
pub fn mark() -> usize {
    let live = LIVE.get();
    PEAK.set(live);
    live
}

/// Most heap bytes live at one moment since [`mark`] returned `mark`,
/// above that baseline.
pub fn peak_since(mark: usize) -> usize {
    PEAK.get().saturating_sub(mark)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_counted_above_the_mark_and_survives_the_free() {
        let held = vec![1u8; 8 << 20];
        let m = mark();
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(big);
        let small = std::hint::black_box(vec![1u8; 1 << 10]);
        let peak = peak_since(m);
        // The counters are per thread: only the test harness's own small
        // allocations on this thread come on top.
        assert!((64 << 20..65 << 20).contains(&peak), "peak {peak}");
        drop((small, held));
    }
}
