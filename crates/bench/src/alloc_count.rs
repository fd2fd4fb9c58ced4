//! Process-wide allocation counting for the zero-allocation claim.
//!
//! `e12_hotpath` asserts that the steady-state data path — pool take,
//! packet build, dispatch, pipeline, recycle, pool put — touches the
//! global allocator exactly zero times. A claim like that cannot be
//! trusted to code review; it has to be *measured*. A binary that wants
//! it measured installs [`rbs_core::alloc_count::CountingAlloc`] as its
//! global allocator — the `experiments` binary does under `--features
//! alloc-count`, the `hotpath_records` test always — and the experiment
//! diffs the counter across its measured window.
//!
//! The counter is process-wide and thread-global on purpose: worker
//! threads, the supervisor, and the driver all share one allocator, so
//! an allocation smuggled in *anywhere* on the hot path shows up. The
//! cost is that the measured window must be quiet — `e12_hotpath` runs
//! it around a dispatch→drain→reclaim cycle with nothing else going on
//! in the process, which is why `hotpath_records` is the only test in
//! its binary.
//!
//! Without a counting allocator the module still works (so experiment
//! code needs no `cfg` spaghetti); [`enabled`] reports `false` and the
//! counter never moves.

pub use rbs_core::alloc_count::recent_sizes;

/// Whether this process counts allocations: a probe that allocates one
/// box and sees whether the counter moved, so any binary that installs
/// `CountingAlloc` counts, whichever feature it was built with.
pub fn enabled() -> bool {
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u8)));
    allocations() != before
}

/// Allocation events since process start. Monotonic; diff two reads to
/// count the events inside a window. Always `0` when [`enabled`] is
/// `false`.
pub fn allocations() -> u64 {
    rbs_core::alloc_count::events()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_and_tracks_the_probe() {
        let before = allocations();
        let v: Vec<u64> = (0..64).collect();
        let after = allocations();
        assert!(after >= before, "counter never goes backwards");
        if enabled() {
            assert!(after > before, "a fresh Vec must be counted");
        } else {
            assert_eq!(after, 0, "without a counting allocator the counter is dead");
        }
        drop(v);
        assert!(allocations() >= after, "frees are not subtracted");
    }
}
