//! The workspace's one counting allocator.
//!
//! "This path does not allocate" is a claim that has to be *measured*:
//! E12's steady state, the tenant tick, a delta snapshot record. A test
//! or experiment binary installs [`CountingAlloc`] —
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;` — and
//! diffs a counter across its window. This crate defines the type and
//! never installs it: a build that does not ask for counting pays
//! nothing, and every counter reads `0`.
//!
//! [`events`], [`bytes`] and [`recent_sizes`] are process-wide, so an
//! allocation smuggled onto *any* thread of a measured window shows;
//! [`thread_events`] counts the calling thread alone, so tests sharing a
//! process do not see each other. Frees are not counted — the claims
//! are about *acquiring* memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static RECENT_SIZES: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];

thread_local! {
    // Const-initialised and destructor-free: reading it registers
    // nothing and allocates nothing, even on a thread's first call.
    static THREAD_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    let n = EVENTS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    RECENT_SIZES[(n % 8) as usize].store(size as u64, Ordering::Relaxed);
    THREAD_EVENTS.set(THREAD_EVENTS.get() + 1);
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`.
pub struct CountingAlloc;

// SAFETY: every operation is forwarded verbatim to `System`; the only
// additions are relaxed atomic stores and a bump of a const-initialised,
// destructor-free thread-local `Cell`, none of which allocates or can
// be re-entered.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation events since process start, on any thread. Monotonic;
/// diff two reads to count the events inside a window.
pub fn events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// Bytes handed out since process start, on any thread.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Allocation events on the calling thread since it started.
pub fn thread_events() -> u64 {
    THREAD_EVENTS.get()
}

/// Byte sizes of the most recent allocations (a ring indexed by the
/// event count, in no particular order). A diagnostic: when a window
/// that should be quiet is not, the sizes often name the culprit.
pub fn recent_sizes() -> [u64; 8] {
    std::array::from_fn(|i| RECENT_SIZES[i].load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static COUNTED: CountingAlloc = CountingAlloc;

    #[test]
    fn a_thread_counts_its_own_events_and_the_process_counts_all() {
        let (mine, all, handed_out) = (thread_events(), events(), bytes());
        let theirs = std::thread::spawn(|| {
            let before = thread_events();
            drop(std::hint::black_box(vec![0u8; 4_096]));
            thread_events() - before
        })
        .join()
        .expect("counting thread");
        assert_eq!(theirs, 1, "one Vec, one event");
        assert!(events() - all > theirs, "the spawn itself allocates too");
        assert!(bytes() - handed_out >= 4_096);
        assert!(thread_events() > mine, "spawning allocates on this thread");
    }
}
