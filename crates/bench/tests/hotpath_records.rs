//! The committed `BENCH_hotpath.json`, replayed with allocations counted.
//!
//! e12's zero-allocation claim is measured only in a process that
//! counts allocations, so this file is its own test binary and installs
//! `CountingAlloc`. The counter is process-wide, and a second test
//! running beside this one would allocate inside e12's windows, so the
//! binary holds exactly one test.
//!
//! It renders e12 at the committed sizes, compares every stable line
//! with the committed file as `stable_records` does for e10–e15, then
//! asserts the claims themselves on the typed results.

mod common;

use common::{assert_replays, require};
use rbs_bench::{alloc_count, e12_hotpath};
use rbs_core::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn e12_hotpath_replays_its_committed_records_and_pooled_paths_never_allocate() {
    let results = e12_hotpath::measure(e12_hotpath::ROUNDS);
    assert_replays("BENCH_hotpath.json", &e12_hotpath::to_json(&results));

    // Lane steady states never call the allocator.
    require(results.alloc_counting, || {
        "e12: allocations not counted".into()
    });
    for p in &results.lane_points {
        let ok = p.conservation_ok && p.pool_balanced && p.zero_alloc() == Some(true);
        require(ok, || {
            format!(
                "e12 {p:?}\n recent allocation sizes {:?}",
                alloc_count::recent_sizes()
            )
        });
    }
}
