//! Benchmark-local allocation counting.
//!
//! `dpbench` installs [`CountingAlloc`] as its global allocator. With
//! counting off (every untraced pass) the wrapper costs one relaxed
//! load per allocation; the traced pass turns it on around the engine's
//! timed window to report `netfx.pool.allocs_per_packet`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a gated event counter (`alloc`,
/// `alloc_zeroed`, `realloc`; frees are not events).
pub struct CountingAlloc;

#[inline]
fn note() {
    // Relaxed: a statistic that publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every operation is forwarded verbatim to `System`; the only
// addition is a relaxed atomic load and increment, which allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off process-wide.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation events counted so far (monotonic; diff two reads).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
