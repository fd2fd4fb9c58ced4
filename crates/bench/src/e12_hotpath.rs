//! E12 — the zero-allocation hot path: pooled buffers end to end.
//!
//! The claim under test is DPDK's, transplanted into safe Rust: once the
//! [`PacketPool`] is warm, the steady-state data path — pool take →
//! packet build → single-pass dispatch → pipeline → recycle give → pool
//! put — touches the global allocator **zero** times per packet.
//! Ownership transfer is the only synchronization on the recycle ring
//! (workers give spent batches back over an `sfi` channel; the borrow
//! checker rules out "recycled but still referenced"), so there are no
//! refcounts or locks to pay for either.
//!
//! Three measurements per (workers × batch-size) point:
//!
//! 1. **Throughput** — Mpps over the measured window (generation from
//!    the pool, dispatch, full drain, final reclaim). Unlike E9, packet
//!    *generation* is inside the window: that is the point — buffers
//!    cycle driver → worker → driver without ever visiting the
//!    allocator.
//! 2. **Allocations per packet** — when the process installs a counting
//!    global allocator (the `experiments` binary built with `--features
//!    alloc-count`, or the `hotpath_records` test), it is diffed across
//!    the window. With the pool enabled the count must be exactly zero;
//!    a pool-disabled baseline point documents what the allocator would
//!    otherwise charge.
//! 3. **Conservation** — `offered == packets_in + lost + shed` on the
//!    runtime ledger, and `taken == returned + outstanding` with
//!    `outstanding == 0` on the pool's (no faults here, so nothing may
//!    leak).
//!
//! Results land in `BENCH_hotpath.json` as one record per line, each
//! tagged `"kind": "stable"` (byte-identical across runs on any host)
//! or `"kind": "timing"` (wall-clock dependent). The tier-1 test
//! `crates/bench/tests/hotpath_records.rs` renders the committed sizes
//! and compares every stable line with the committed file.

use std::time::{Duration, Instant};

use rbs_core::table::{fmt_f64, Table};
use rbs_netfx::operators::{MacSwap, NullFilter, TtlDecrement};
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::pool::PacketPool;
use rbs_netfx::PipelineSpec;
use rbs_runtime::{LaneConfig, LaneRuntime, RuntimeConfig, ShardedRuntime};

use crate::alloc_count;

/// Byte capacity of each pooled slab — comfortably above the ~120-byte
/// frames the generator emits, mirroring a real NIC mempool's fixed
/// mbuf size.
const SLAB_BYTES: usize = 2048;

/// Per-worker input queue depth, in batches.
const QUEUE_CAPACITY: usize = 64;

/// Rounds dispatched before the measured window opens: long enough for
/// every shell and scratch batch in circulation to reach its high-water
/// capacity and for every thread to have parked once.
const WARMUP_ROUNDS: usize = 64;

/// The representative NF pipeline (E9's, minus the poison stage — this
/// experiment is about the clean path).
fn spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(NullFilter::new)
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
}

fn generator() -> PacketGen {
    PacketGen::new(TrafficConfig {
        flows: 4096,
        payload_len: 64,
        seed: 0x0E12,
        ..Default::default()
    })
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct HotpathPoint {
    /// Worker (= shard) count.
    pub workers: usize,
    /// Packets per generated batch.
    pub batch_size: usize,
    /// Batches dispatched inside the measured window.
    pub rounds: usize,
    /// Whether the packet pool + recycle path were enabled.
    pub pooled: bool,
    /// Packets offered inside the measured window (= rounds × batch).
    pub packets: u64,
    /// Wall-clock nanoseconds for the measured window.
    pub elapsed_ns: u128,
    /// Million packets per second over the window.
    pub mpps: f64,
    /// Median per-batch processing cycles inside the workers.
    pub cycles_per_batch_p50: Option<f64>,
    /// Allocation events inside the window (`None` without a counting
    /// allocator).
    pub allocs_steady: Option<u64>,
    /// Allocations per packet (`None` without a counting allocator).
    pub allocs_per_packet: Option<f64>,
    /// Runtime ledger balance: offered == packets_in + lost + shed.
    pub conservation_ok: bool,
    /// Pool ledger balance at quiescence: taken == returned exactly
    /// (vacuously true when the pool is disabled).
    pub pool_balanced: bool,
    /// Pool take hits inside the whole run (warmup included).
    pub pool_hits: u64,
    /// Pool takes that had to allocate.
    pub pool_misses: u64,
    /// Output batches the workers gave back through the recycle path.
    pub recycled_batches: u64,
    /// Gives dropped on a full/revoked recycle path.
    pub recycle_drops: u64,
}

impl HotpathPoint {
    /// True when the zero-allocation claim was measured and held.
    pub fn zero_alloc(&self) -> Option<bool> {
        self.allocs_steady.map(|n| n == 0)
    }
}

/// Drains the recycle path until at least `need` buffers sit free in the
/// pool (driver backpressure: never generate faster than buffers come
/// back). Gives up after `deadline` — the caller's miss counters will
/// show it.
fn wait_for_buffers(
    rt: &mut ShardedRuntime,
    pool: &mut PacketPool,
    need: usize,
    deadline: Duration,
) {
    let until = Instant::now() + deadline;
    loop {
        // Reclaim unconditionally — even when buffers are plentiful the
        // dispatcher's shell bank needs its per-burst refill, and letting
        // the recycle channel accumulate only defers the work.
        rt.reclaim_buffers(pool);
        if pool.free_buffers() >= need || Instant::now() >= until {
            return;
        }
        std::thread::yield_now();
    }
}

/// Runs one configuration: warmup rounds (unmeasured), then `rounds`
/// batches through generate→dispatch→drain→reclaim with the allocation
/// counter diffed across the measured window.
pub fn measure_point(
    workers: usize,
    batch_size: usize,
    rounds: usize,
    pooled: bool,
) -> HotpathPoint {
    let mut rt = ShardedRuntime::new(
        spec(),
        RuntimeConfig {
            workers,
            queue_capacity: QUEUE_CAPACITY,
            recycle_capacity: if pooled {
                workers * QUEUE_CAPACITY + 32
            } else {
                0
            },
            scratch_capacity: batch_size,
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction");
    // Buffer prewarm doubles as the pacing bound: the backpressure loop
    // keeps at most `inflight_rounds` generator batches outstanding.
    // Every in-flight round can fan out into up to `workers` shard
    // batches, each holding a shell, so the worst-case shell demand is
    // inflight_rounds * workers (in flight) + workers + 2 (dispatcher
    // bank) + 1 (generator). Clamping the depth keeps that demand
    // inside the pool's fixed shell reservoir, which is what makes the
    // zero-allocation claim deterministic rather than timing-lucky.
    let inflight_rounds = (workers + 4).min(48 / workers);
    let prewarm = batch_size * inflight_rounds;
    let mut pool = PacketPool::new(SLAB_BYTES, prewarm);
    let mut gen = generator();
    if pooled {
        pool.prewarm(prewarm);
        pool.prewarm_shells(inflight_rounds * workers + workers + 3, batch_size);
    }

    let reclaim_deadline = Duration::from_secs(30);
    let offer = |rt: &mut ShardedRuntime, pool: &mut PacketPool, gen: &mut PacketGen| {
        let batch = if pooled {
            wait_for_buffers(rt, pool, batch_size, reclaim_deadline);
            gen.next_batch_from_pool(batch_size, pool)
        } else {
            gen.next_batch(batch_size)
        };
        rt.dispatch(batch).expect("clean dispatch");
    };

    for _ in 0..WARMUP_ROUNDS {
        offer(&mut rt, &mut pool, &mut gen);
    }
    // Deliberately NO drain here: a drain would reset the system to a
    // burst-start transient (the dispatcher outruns the workers until
    // buffer backpressure engages, and during that gap no shells flow
    // back). Warmup ends with the ring at its paced equilibrium, which
    // is exactly the state "steady state" means.

    // ---- measured window: nothing below may allocate in pooled mode ----
    let allocs_before = alloc_count::allocations();
    let start = Instant::now();
    for _ in 0..rounds {
        offer(&mut rt, &mut pool, &mut gen);
    }
    let drained = rt.drain(Duration::from_secs(60));
    rt.reclaim_buffers(&mut pool);
    let elapsed = start.elapsed();
    let allocs_after = alloc_count::allocations();
    // ---- end of measured window ----

    assert!(drained, "measured window drains within a minute");
    let report = rt.shutdown();
    let packets = (rounds * batch_size) as u64;
    let offered_total = ((rounds + WARMUP_ROUNDS) * batch_size) as u64;
    assert_eq!(
        report.offered_packets, offered_total,
        "dispatcher saw every packet"
    );
    let conservation_ok =
        report.offered_packets == report.packets_in + report.lost_packets + report.shed_packets;
    let stats = pool.stats();
    let pool_balanced = !pooled || pool.outstanding() == 0;
    let allocs_steady = alloc_count::enabled().then(|| allocs_after - allocs_before);
    HotpathPoint {
        workers,
        batch_size,
        rounds,
        pooled,
        packets,
        elapsed_ns: elapsed.as_nanos(),
        mpps: packets as f64 / elapsed.as_secs_f64() / 1e6,
        cycles_per_batch_p50: report.cycles.as_ref().map(|s| s.p50),
        allocs_steady,
        allocs_per_packet: allocs_steady.map(|n| n as f64 / packets as f64),
        conservation_ok,
        pool_balanced,
        pool_hits: stats.hits,
        pool_misses: stats.misses,
        recycled_batches: report.recycled_batches,
        recycle_drops: report.recycle_drops,
    }
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
    /// Pooled sweep points plus the unpooled baseline (last).
    pub points: Vec<HotpathPoint>,
    /// Lane-mode (run-to-completion) points.
    pub lane_points: Vec<LanePoint>,
}

/// Runs the sweep: every worker count × batch size with the pool on,
/// plus one pool-off baseline at (4, 256) for the allocator comparison.
pub fn measure(rounds: usize, batch_sizes: &[usize]) -> HotpathResults {
    let mut points = Vec::new();
    for &batch in batch_sizes {
        for workers in [1usize, 2, 4, 8] {
            points.push(measure_point(workers, batch, rounds, true));
        }
    }
    points.push(measure_point(4, 256, rounds, false));
    HotpathResults {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        alloc_counting: alloc_count::enabled(),
        points,
        lane_points: [1usize, 2, 4]
            .into_iter()
            .map(|n| measure_lane_point(n, 256, rounds))
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
    let n = r.points.len();
    for (i, p) in r.points.iter().enumerate() {
        let zero = p
            .zero_alloc()
            .map_or_else(|| "null".into(), |b| b.to_string());
        out.push_str(&format!(
            "    {{\"kind\": \"stable\", \"workers\": {}, \"batch_size\": {}, \"pooled\": {}, \"rounds\": {}, \"packets\": {}, \"conservation_ok\": {}, \"pool_balanced\": {}, \"zero_alloc_steady\": {}, \"allocs_steady\": {}}},\n",
            p.workers,
            p.batch_size,
            p.pooled,
            p.rounds,
            p.packets,
            p.conservation_ok,
            p.pool_balanced,
            zero,
            fmt_opt_u64(p.allocs_steady),
        ));
        out.push_str(&format!(
            "    {{\"kind\": \"timing\", \"workers\": {}, \"batch_size\": {}, \"pooled\": {}, \"elapsed_ns\": {}, \"mpps\": {:.4}, \"cycles_per_batch_p50\": {}, \"pool_hits\": {}, \"pool_misses\": {}, \"recycled_batches\": {}, \"recycle_drops\": {}}}{}\n",
            p.workers,
            p.batch_size,
            p.pooled,
            p.elapsed_ns,
            p.mpps,
            p.cycles_per_batch_p50
                .map_or_else(|| "null".to_string(), |c| format!("{c:.0}")),
            p.pool_hits,
            p.pool_misses,
            p.recycled_batches,
            p.recycle_drops,
            if i + 1 < n || !r.lane_points.is_empty() {
                ","
            } else {
                ""
            },
        ));
    }
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

/// Measured rounds per point behind the committed `BENCH_hotpath.json`.
pub const ROUNDS: usize = 1_024;
/// Batch sizes behind the committed `BENCH_hotpath.json`.
pub const BATCH_SIZES: &[usize] = &[64, 256, 512];
/// Measured rounds per point under `--quick`.
const QUICK_ROUNDS: usize = 128;
/// Batch sizes under `--quick`.
const QUICK_BATCH_SIZES: &[usize] = &[64, 256];

/// Regenerates the hot-path table, writing `BENCH_hotpath.json` beside
/// it.
pub fn run(quick: bool) -> String {
    let (rounds, batch_sizes) = if quick {
        (QUICK_ROUNDS, QUICK_BATCH_SIZES)
    } else {
        (ROUNDS, BATCH_SIZES)
    };
    let results = measure(rounds, batch_sizes);

    let mut t = Table::new(&[
        "workers",
        "batch",
        "pooled",
        "Mpps",
        "p50 cyc/batch",
        "allocs/pkt",
        "misses",
    ]);
    for p in &results.points {
        t.row_owned(vec![
            p.workers.to_string(),
            p.batch_size.to_string(),
            p.pooled.to_string(),
            fmt_f64(p.mpps, 3),
            p.cycles_per_batch_p50
                .map_or_else(|| "-".into(), |c| fmt_f64(c, 0)),
            p.allocs_per_packet
                .map_or_else(|| "n/a".into(), |a| fmt_f64(a, 4)),
            p.pool_misses.to_string(),
        ]);
    }

    let mut out = format!(
        "E12 — zero-allocation hot path ({} CPUs available; allocation counting {})\n",
        results.host_cpus,
        if results.alloc_counting {
            "ON"
        } else {
            "OFF — build with --features alloc-count"
        },
    );
    out.push_str(&t.render());

    // Document the scaling ratio the acceptance gate asks about.
    let ratio = |batch: usize| {
        let at = |w: usize| {
            results
                .points
                .iter()
                .find(|p| p.pooled && p.workers == w && p.batch_size == batch)
                .map(|p| p.mpps)
        };
        match (at(1), at(8)) {
            (Some(one), Some(eight)) if one > 0.0 => Some(eight / one),
            _ => None,
        }
    };
    for &batch in batch_sizes {
        if let Some(x) = ratio(batch) {
            out.push_str(&format!(
                "8-worker vs 1-worker Mpps at batch {batch}: {:.2}x\n",
                x
            ));
        }
    }
    out.push_str("\nlane mode (run-to-completion, stealing off):\n");
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
    for p in &results.points {
        assert!(p.conservation_ok, "packet ledger must balance");
        assert!(p.pool_balanced, "pool ledger must balance");
    }
    for p in &results.lane_points {
        assert!(p.conservation_ok, "lane ledger must balance");
        assert!(p.pool_balanced, "lane pools must balance");
    }
    if results.alloc_counting {
        let dirty: Vec<_> = results
            .points
            .iter()
            .filter(|p| p.pooled && p.zero_alloc() == Some(false))
            .collect();
        if dirty.is_empty() {
            out.push_str(
                "steady-state allocations with pool enabled: 0 per packet at every point\n",
            );
        } else {
            for p in &dirty {
                out.push_str(&format!(
                    "WARNING: {} allocs in steady state at workers={} batch={}\n",
                    p.allocs_steady.unwrap_or(0),
                    p.workers,
                    p.batch_size,
                ));
            }
        }
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
    fn pooled_point_conserves_and_balances() {
        let p = measure_point(2, 64, 24, true);
        assert_eq!(p.packets, 24 * 64);
        assert!(p.conservation_ok, "offered == in + lost + shed");
        assert!(p.pool_balanced, "every taken buffer came back");
        assert!(p.mpps > 0.0);
        assert!(p.recycled_batches > 0, "workers fed the recycle path");
    }

    #[test]
    fn unpooled_point_still_conserves() {
        let p = measure_point(2, 64, 12, false);
        assert!(p.conservation_ok);
        assert!(p.pool_balanced, "vacuous without a pool");
        assert_eq!(p.pool_hits + p.pool_misses, 0, "the pool was never touched");
        assert_eq!(p.recycled_batches, 0, "no recycle path configured");
    }

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
        let point = HotpathPoint {
            workers: 4,
            batch_size: 256,
            rounds: 10,
            pooled: true,
            packets: 2560,
            elapsed_ns: 1000,
            mpps: 1.0,
            cycles_per_batch_p50: None,
            allocs_steady: Some(0),
            allocs_per_packet: Some(0.0),
            conservation_ok: true,
            pool_balanced: true,
            pool_hits: 100,
            pool_misses: 0,
            recycled_batches: 10,
            recycle_drops: 0,
        };
        let r = HotpathResults {
            host_cpus: 1,
            alloc_counting: true,
            points: vec![point],
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
            if line.contains("mpps") || line.contains("elapsed_ns") || line.contains("pool_hits") {
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
