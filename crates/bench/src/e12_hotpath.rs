//! E12 — the zero-allocation hot path: pooled buffers end to end.
//!
//! The claim under test is DPDK's, transplanted into safe Rust: once a
//! lane's [`PacketPool`](rbs_netfx::pool::PacketPool) is warm, the
//! steady-state data path — pool take → packet build → pipeline inside
//! the lane's domain → pool put — touches the global allocator **zero**
//! times per packet. Ownership is the only synchronization: the buffer
//! a lane hands its pipeline is the buffer that comes back, and the
//! borrow checker rules out "recycled but still referenced", so there
//! are no refcounts or locks to pay for.
//!
//! Three measurements per lane count, on the run-to-completion lane
//! engine ([`LaneRuntime`]):
//!
//! 1. **Throughput** — Mpps over the measured window. Unlike E9, packet
//!    *generation* is inside the window: that is the point — buffers
//!    cycle pool → pipeline → pool without ever visiting the allocator.
//! 2. **Allocations** — when the process installs a counting global
//!    allocator (the `experiments` binary built with `--features
//!    alloc-count`, or the `hotpath_records` test), it is diffed across
//!    the window, and the count must be exactly zero.
//! 3. **Conservation** — every generated packet handled exactly once on
//!    the lane ledgers, and every buffer taken from a lane pool returned
//!    to one (no faults here, so nothing may leak).
//!
//! Results land in `BENCH_hotpath.json` as one record per line, each
//! tagged `"kind": "stable"` (byte-identical across runs on any host)
//! or `"kind": "timing"` (wall-clock dependent). The tier-1 test
//! `crates/bench/tests/hotpath_records.rs` renders the committed sizes
//! and compares every stable line with the committed file.

use std::time::Instant;

use rbs_core::table::{fmt_f64, Table};
use rbs_netfx::operators::{MacSwap, NullFilter, TtlDecrement};
use rbs_netfx::pktgen::TrafficConfig;
use rbs_netfx::PipelineSpec;
use rbs_runtime::{LaneConfig, LaneRuntime};

use crate::alloc_count;

/// Byte capacity of each pooled slab — comfortably above the ~120-byte
/// frames the generator emits, mirroring a real NIC mempool's fixed
/// mbuf size.
const SLAB_BYTES: usize = 2048;

/// Whole-mix batches each fleet runs before the measured window opens:
/// long enough for every shell and buffer in circulation to reach its
/// high-water capacity.
const WARMUP_ROUNDS: usize = 64;

/// Packets per generated batch.
const BATCH_SIZE: usize = 256;

/// The representative NF pipeline (E9's, minus the poison stage — this
/// experiment is about the clean path).
fn spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(NullFilter::new)
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
}

/// One lane-mode (run-to-completion) configuration: each lane generates
/// its RSS slice from its own pool, processes it in its own domain and
/// recycles locally — the whole packet lifecycle never leaves the lane
/// thread, so the zero-allocation claim covers generation too.
///
/// Stealing is off here by design: a thief recycles stolen buffers into
/// its *own* pool, so buffers migrate between pools and a receiving
/// pool's free list can outgrow its prewarm — an allocation that is the
/// price of stealing, not of the steady path. E9's skew cell measures
/// that price; this cell isolates the claim the pool exists for.
#[derive(Debug, Clone)]
pub struct LanePoint {
    /// Lane (= thread) count.
    pub lanes: usize,
    /// Packets per generated batch.
    pub batch_size: usize,
    /// Whole-mix batches in the measured window.
    pub rounds: usize,
    /// Packets generated inside the measured window.
    pub packets: u64,
    /// Wall-clock nanoseconds of the measured window.
    pub elapsed_ns: u128,
    /// Million packets per second over the window.
    pub mpps: f64,
    /// Allocation events inside the window (`None` without a counting
    /// allocator).
    pub allocs_steady: Option<u64>,
    /// Ledger balance: every generated packet handled exactly once.
    pub conservation_ok: bool,
    /// Every buffer taken from a lane pool was returned to one.
    pub pool_balanced: bool,
}

impl LanePoint {
    /// True when the zero-allocation claim was measured and held.
    pub fn zero_alloc(&self) -> Option<bool> {
        self.allocs_steady.map(|n| n == 0)
    }
}

/// Runs one lane-mode configuration. The warmup rendezvous brackets the
/// window exactly: every lane finishes its warmup quota and parks, the
/// allocator counter is read, the fleet is released, and the counter is
/// read again only after every lane has parked on the exit rendezvous.
pub fn measure_lane_point(lanes: usize, batch_size: usize, rounds: usize) -> LanePoint {
    let rt = LaneRuntime::start(
        spec(),
        LaneConfig {
            lanes,
            traffic: TrafficConfig {
                flows: 4096,
                payload_len: 64,
                seed: 0x0E12,
                ..Default::default()
            },
            total_batches: rounds as u64,
            batch_size,
            steal_batch: 0,
            pool_slab_bytes: SLAB_BYTES,
            warmup_batches: Some(WARMUP_ROUNDS as u64),
            ..LaneConfig::default()
        },
    );
    rt.wait_warmed();
    // ---- measured window: nothing below may allocate ----
    let allocs_before = alloc_count::allocations();
    let start = Instant::now();
    rt.release_warm();
    rt.wait_done();
    let elapsed = start.elapsed();
    let allocs_after = alloc_count::allocations();
    // ---- end of measured window ----
    rt.release_exit();
    let report = rt.join();

    let packets = (rounds * batch_size) as u64;
    let offered_total = ((rounds + WARMUP_ROUNDS) * batch_size) as u64;
    assert_eq!(report.offered(), offered_total, "full quota generated");
    assert!(report.lanes.iter().all(|l| !l.dead), "no lane died");
    let allocs_steady = alloc_count::enabled().then(|| allocs_after - allocs_before);
    LanePoint {
        lanes,
        batch_size,
        rounds,
        packets,
        elapsed_ns: elapsed.as_nanos(),
        mpps: packets as f64 / elapsed.as_secs_f64() / 1e6,
        allocs_steady,
        conservation_ok: report.unaccounted_packets() == 0,
        pool_balanced: report.outstanding_buffers() == 0,
    }
}

/// The full experiment result set.
#[derive(Debug, Clone)]
pub struct HotpathResults {
    /// Host parallelism the run actually had available.
    pub host_cpus: usize,
    /// Whether a counting allocator was installed.
    pub alloc_counting: bool,
    /// One point per lane count.
    pub lane_points: Vec<LanePoint>,
}

/// Runs the sweep: 1, 2 and 4 lanes.
pub fn measure(rounds: usize) -> HotpathResults {
    HotpathResults {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        alloc_counting: alloc_count::enabled(),
        lane_points: [1usize, 2, 4]
            .into_iter()
            .map(|n| measure_lane_point(n, BATCH_SIZE, rounds))
            .collect(),
    }
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |n| n.to_string())
}

/// Renders the result set as the `BENCH_hotpath.json` payload: one
/// record per line, tagged stable/timing.
pub fn to_json(r: &HotpathResults) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e12_hotpath\",\n");
    out.push_str(&format!(
        "  \"alloc_counting\": {},\n  \"slab_bytes\": {SLAB_BYTES},\n  \"warmup_rounds\": {WARMUP_ROUNDS},\n",
        r.alloc_counting
    ));
    out.push_str("  \"records\": [\n");
    let m = r.lane_points.len();
    for (i, p) in r.lane_points.iter().enumerate() {
        let zero = p
            .zero_alloc()
            .map_or_else(|| "null".into(), |b| b.to_string());
        out.push_str(&format!(
            "    {{\"kind\": \"stable\", \"mode\": \"lane\", \"lanes\": {}, \"batch_size\": {}, \"rounds\": {}, \"packets\": {}, \"conservation_ok\": {}, \"pool_balanced\": {}, \"zero_alloc_steady\": {}, \"allocs_steady\": {}}},\n",
            p.lanes,
            p.batch_size,
            p.rounds,
            p.packets,
            p.conservation_ok,
            p.pool_balanced,
            zero,
            fmt_opt_u64(p.allocs_steady),
        ));
        out.push_str(&format!(
            "    {{\"kind\": \"timing\", \"mode\": \"lane\", \"lanes\": {}, \"batch_size\": {}, \"elapsed_ns\": {}, \"mpps\": {:.4}}}{}\n",
            p.lanes,
            p.batch_size,
            p.elapsed_ns,
            p.mpps,
            if i + 1 < m { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Measured whole-mix batches per point behind the committed
/// `BENCH_hotpath.json`.
pub const ROUNDS: usize = 1_024;
/// Measured batches per point under `--quick`.
const QUICK_ROUNDS: usize = 128;

/// Regenerates the hot-path table, writing `BENCH_hotpath.json` beside
/// it.
pub fn run(quick: bool) -> String {
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };
    let results = measure(rounds);

    let mut out = format!(
        "E12 — zero-allocation hot path ({} CPUs available; allocation counting {})\n",
        results.host_cpus,
        if results.alloc_counting {
            "ON"
        } else {
            "OFF — build with --features alloc-count"
        },
    );
    out.push_str("lane mode (run-to-completion, stealing off):\n");
    let mut lt = Table::new(&["lanes", "batch", "Mpps", "allocs", "balanced"]);
    for p in &results.lane_points {
        lt.row_owned(vec![
            p.lanes.to_string(),
            p.batch_size.to_string(),
            fmt_f64(p.mpps, 3),
            p.allocs_steady
                .map_or_else(|| "n/a".into(), |n| n.to_string()),
            p.pool_balanced.to_string(),
        ]);
    }
    out.push_str(&lt.render());
    for p in &results.lane_points {
        assert!(p.conservation_ok, "lane ledger must balance");
        assert!(p.pool_balanced, "lane pools must balance");
    }
    if results.alloc_counting {
        for p in results
            .lane_points
            .iter()
            .filter(|p| p.zero_alloc() == Some(false))
        {
            out.push_str(&format!(
                "WARNING: {} allocs in lane steady state at lanes={} batch={}\n",
                p.allocs_steady.unwrap_or(0),
                p.lanes,
                p.batch_size,
            ));
        }
    }

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    match std::fs::write(json_path, to_json(&results)) {
        Ok(()) => out.push_str(&format!("\nwrote {json_path}\n")),
        Err(e) => out.push_str(&format!("\ncould not write {json_path}: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_point_conserves_and_balances() {
        let p = measure_lane_point(2, 64, 24);
        assert_eq!(p.packets, 24 * 64);
        assert!(p.conservation_ok, "every generated packet handled once");
        assert!(p.pool_balanced, "every buffer returned to a lane pool");
        assert!(p.mpps > 0.0);
    }

    #[test]
    fn json_separates_stable_from_timing() {
        let r = HotpathResults {
            host_cpus: 1,
            alloc_counting: true,
            lane_points: vec![LanePoint {
                lanes: 2,
                batch_size: 256,
                rounds: 10,
                packets: 2560,
                elapsed_ns: 1000,
                mpps: 1.0,
                allocs_steady: Some(0),
                conservation_ok: true,
                pool_balanced: true,
            }],
        };
        let j = to_json(&r);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // Every wall-clock-dependent field lives on a line the replay drops.
        for line in j.lines() {
            if line.contains("mpps") || line.contains("elapsed_ns") {
                assert!(
                    line.contains("\"kind\": \"timing\""),
                    "timing field on a stable line: {line}"
                );
            }
            if line.contains("zero_alloc_steady") {
                assert!(line.contains("\"kind\": \"stable\""));
            }
        }
        let stable: String = j
            .lines()
            .filter(|l| !l.contains("\"kind\": \"timing\""))
            .collect();
        assert!(stable.contains("\"zero_alloc_steady\": true"));
        assert!(!stable.contains("mpps"));
    }
}
