//! Counting global allocator.
//!
//! Always compiled in, so both sides of an A/B comparison pay the same (tiny)
//! cost.  Counts live in const-initialised thread-locals: no lazy
//! initialisation, hence no allocation from inside the allocator, and no
//! atomic traffic on the hot path (every workload runs on one thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

#[inline]
fn note(size: usize) {
    // `try_with`: the allocator is still called while a thread's locals are
    // being torn down.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only this thread's counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls on this thread so far (the cheap read the per-callback
/// decorator uses).
#[inline]
pub fn count_now() -> u64 {
    COUNT.with(Cell::get)
}

/// Allocation calls and bytes requested on this thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub count: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn now() -> Self {
        AllocSnapshot {
            count: COUNT.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// Allocations made since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
