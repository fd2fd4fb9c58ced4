//! E9 — scaling: run-to-completion lanes.
//!
//! Three questions about the lane engine ([`rbs_runtime::LaneRuntime`]):
//!
//! 1. **Lane scaling** — aggregate throughput of the same pipeline at 1,
//!    2, 4 and 8 run-to-completion lanes, identical whole-mix offered
//!    load. Each lane generates its own RSS slice, processes it in its
//!    own domain and recycles locally — no central hand-off on the
//!    steady path, so on a many-core host the
//!    curve rises monotonically up to the core count. The run reports
//!    the host's *logical and physical* core counts next to the numbers
//!    and flags every oversubscribed point (more lanes than cores), so a
//!    flat curve on a small host reads as honest, not broken.
//! 2. **Skew and stealing** — the same fleet under a Zipf(1.2) flow mix
//!    loads lanes unevenly. With work stealing off, the hottest lane's
//!    quota dominates the wall clock; with work stealing on, idle
//!    lanes pull batches from loaded deques (paying the isolation
//!    crossing tax per stolen batch) and the gap closes. The cell
//!    reports both runs and the speedup.
//! 3. **Recovery under load** — a scripted fault crashes one lane's
//!    pipeline halfway through its quota; the report proves containment
//!    (no other lane faults) and rejoin (the victim rebuilds its domain
//!    and finishes its quota).
//!
//! The curve of the retired central dispatcher at the same points is a
//! frozen table in EXPERIMENTS.md (E9). Results are also emitted as
//! `BENCH_scaling.json` in the repo root for machine consumption.

use std::time::Instant;

use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::{fmt_f64, Table};
use rbs_netfx::flow::FiveTuple;
use rbs_netfx::operators::{ChaosPoint, MacSwap, NullFilter, TtlDecrement};
use rbs_netfx::pktgen::{FlowDistribution, TrafficConfig};
use rbs_netfx::{Operator, PacketBatch, PipelineSpec};
use rbs_runtime::{LaneConfig, LaneRuntime};

use crate::harness::silence_panics;

/// Destination port that trips the poison operator.
const POISON_PORT: u16 = 0xDEAD;

/// Packets per generated batch.
const BATCH_SIZE: usize = 256;

/// Zipf exponent of the skew cell (heavy-tailed Internet-like mix).
const ZIPF_S: f64 = 1.2;

/// Lanes in the skew cell.
const SKEW_LANES: usize = 4;

/// Panics the moment it sees a packet addressed to [`POISON_PORT`]: a
/// per-packet header inspection, kept so the lane curve runs the same
/// pipeline as the frozen dispatcher table (generated traffic never
/// carries that port).
struct PoisonPort;

impl Operator for PoisonPort {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        for p in batch.iter() {
            if let Ok(t) = FiveTuple::of(p) {
                assert_ne!(t.dst_port, POISON_PORT, "poison packet");
            }
        }
        batch
    }

    fn name(&self) -> &str {
        "poison-port"
    }
}

/// The representative NF pipeline every experiment variant runs.
fn spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(NullFilter::new)
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
        .stage(|| PoisonPort)
}

fn uniform_traffic() -> TrafficConfig {
    TrafficConfig {
        flows: 4096,
        payload_len: 64,
        seed: 0xE9,
        ..Default::default()
    }
}

/// What the run actually had to scale onto.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPUs (hardware threads) visible to the process.
    pub logical_cores: usize,
    /// Physical cores behind them (unique `(physical id, core id)`
    /// pairs from `/proc/cpuinfo`; falls back to the logical count when
    /// the file is absent or unparsable).
    pub physical_cores: usize,
}

impl HostInfo {
    pub fn detect() -> Self {
        let logical = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            logical_cores: logical,
            physical_cores: physical_cores_from(
                &std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default(),
            )
            .unwrap_or(logical),
        }
    }
}

/// Counts unique `(physical id, core id)` pairs in `/proc/cpuinfo` text.
/// `None` when the fields are missing (ARM, containers with masked
/// cpuinfo) — caller falls back to the logical count.
fn physical_cores_from(text: &str) -> Option<usize> {
    let mut pairs = std::collections::HashSet::new();
    let (mut phys, mut core) = (None, None);
    let mut flush = |phys: &mut Option<usize>, core: &mut Option<usize>| {
        if let (Some(p), Some(c)) = (phys.take(), core.take()) {
            pairs.insert((p, c));
        }
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            flush(&mut phys, &mut core);
            continue;
        }
        let (key, val) = match line.split_once(':') {
            Some((k, v)) => (k.trim(), v.trim()),
            None => continue,
        };
        match key {
            "physical id" => phys = val.parse().ok(),
            "core id" => core = val.parse().ok(),
            _ => {}
        }
    }
    flush(&mut phys, &mut core);
    if pairs.is_empty() {
        None
    } else {
        Some(pairs.len())
    }
}

/// One point on the lane scaling curve.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Lane count (`"workers"` in the record).
    pub workers: usize,
    /// Packets pushed through the runtime in the measured window.
    pub packets: u64,
    /// Wall-clock nanoseconds of the measured window.
    pub elapsed_ns: u128,
    /// Aggregate throughput in million packets per second.
    pub mpps: f64,
    /// Median per-batch processing cycles, when any batch ran.
    pub cycles_per_batch_p50: Option<f64>,
    /// Batches that changed lanes via stealing (lane mode only).
    pub stolen_batches: u64,
    /// More lanes than logical cores: the point measures
    /// oversubscription, not scaling.
    pub oversubscribed: bool,
}

/// One run of the skew cell (stealing on or off).
#[derive(Debug, Clone)]
pub struct SkewRun {
    /// Whether stealing was enabled (`steal_batch > 0`).
    pub steal: bool,
    /// Packets through the fleet in the measured window.
    pub packets: u64,
    /// Wall-clock nanoseconds of the measured window.
    pub elapsed_ns: u128,
    /// Aggregate throughput in million packets per second.
    pub mpps: f64,
    /// Batches executed by a lane other than their origin.
    pub stolen_batches: u64,
    /// Wire bytes charged as the steal crossing tax.
    pub steal_bytes: u64,
    /// Largest per-lane share of the whole mix (the hot lane).
    pub max_share: f64,
}

/// Outcome of the crash-one-lane-mid-run experiment.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Lane count of the run.
    pub workers: usize,
    /// The lane whose pipeline was crashed.
    pub victim: usize,
    /// Contained panics observed (must be exactly 1).
    pub faults: u64,
    /// Domain rebuilds the lanes performed.
    pub respawns: u64,
    /// Batches lost with the crash (the one in flight).
    pub lost_batches: u64,
    /// Batches the victim executed — across the crash, so more than its
    /// pre-crash half proves it rejoined.
    pub victim_processed: u64,
    /// Fewest batches processed by any survivor (all of its share).
    pub survivor_processed_min: u64,
    /// Faults on survivors (must be 0).
    pub survivor_faults: u64,
    /// Packets processed end to end.
    pub packets: u64,
    /// Deepest any lane's deque got during the run.
    pub queue_depth_hwm: u64,
}

/// The full experiment result set.
#[derive(Debug, Clone)]
pub struct ScalingResults {
    /// Batches offered per point.
    pub batches: usize,
    /// Detected host topology.
    pub host: HostInfo,
    /// Lane-mode (run-to-completion) throughput at 1/2/4/8 lanes.
    pub lane_points: Vec<ScalingPoint>,
    /// The Zipf(1.2) skew cell, stealing off then on.
    pub skew: Vec<SkewRun>,
    /// The recovery-under-load run (4 lanes).
    pub recovery: RecoveryOutcome,
}

impl ScalingResults {
    /// True when the lane curve never went down from each point to the
    /// next, over the points that fit in the host's cores (capped at 4).
    /// Trivially true on a single-core host.
    pub fn lane_curve_monotone(&self) -> bool {
        let cap = self.host.logical_cores.min(4);
        let in_cap: Vec<_> = self
            .lane_points
            .iter()
            .filter(|p| p.workers <= cap)
            .collect();
        in_cap.windows(2).all(|w| w[1].mpps >= w[0].mpps * 0.95)
    }
}

/// Runs an `n`-lane fleet over the whole-mix `traffic` and measures the
/// steady-state window (warmup batches excluded via the rendezvous).
fn measure_lane_run(
    n: usize,
    batches: usize,
    traffic: TrafficConfig,
    steal_batch: usize,
) -> (u64, u128, u64, u64, f64, Option<f64>) {
    let warmup = (batches as u64 / 10).clamp(n as u64, 64);
    let rt = LaneRuntime::start(
        spec(),
        LaneConfig {
            lanes: n,
            traffic,
            total_batches: batches as u64,
            batch_size: BATCH_SIZE,
            steal_batch,
            warmup_batches: Some(warmup),
            ..LaneConfig::default()
        },
    );
    rt.wait_warmed();
    let start = Instant::now();
    rt.release_warm();
    rt.wait_done();
    let elapsed = start.elapsed();
    rt.release_exit();
    let report = rt.join();

    assert_eq!(report.unaccounted_packets(), 0, "lane conservation");
    assert_eq!(report.outstanding_buffers(), 0, "every buffer came home");
    assert!(report.lanes.iter().all(|l| !l.dead), "no lane died");
    assert_eq!(report.lost(), 0, "fault-free run");
    let measured = (batches * BATCH_SIZE) as u64;
    assert_eq!(
        report.offered(),
        measured + warmup * BATCH_SIZE as u64,
        "full quota generated"
    );
    let stolen: u64 = report.lanes.iter().map(|l| l.stolen_in_batches).sum();
    let steal_bytes: u64 = report.lanes.iter().map(|l| l.steal_bytes).sum();
    let max_share = report.lanes.iter().map(|l| l.share).fold(0.0, f64::max);
    let cycles_p50 = report.cycles().map(|s| s.p50);
    (
        measured,
        elapsed.as_nanos(),
        stolen,
        steal_bytes,
        max_share,
        cycles_p50,
    )
}

/// One lane-mode point on the uniform-mix scaling curve.
pub fn measure_lane_point(n: usize, batches: usize, host: &HostInfo) -> ScalingPoint {
    let (packets, elapsed_ns, stolen, _, _, cycles_p50) = measure_lane_run(
        n,
        batches,
        uniform_traffic(),
        LaneConfig::default().steal_batch,
    );
    ScalingPoint {
        workers: n,
        packets,
        elapsed_ns,
        mpps: packets as f64 / (elapsed_ns as f64 / 1e9) / 1e6,
        cycles_per_batch_p50: cycles_p50,
        stolen_batches: stolen,
        oversubscribed: n > host.logical_cores,
    }
}

/// One skew-cell run: `SKEW_LANES` lanes, Zipf(`ZIPF_S`) mix.
pub fn measure_skew_run(batches: usize, steal: bool) -> SkewRun {
    let mix = TrafficConfig {
        flows: 4096,
        distribution: FlowDistribution::Zipf(ZIPF_S),
        payload_len: 64,
        seed: 0xE9_5EED,
        ..Default::default()
    };
    let steal_batch = if steal { 2 } else { 0 };
    let (packets, elapsed_ns, stolen, steal_bytes, max_share, _) =
        measure_lane_run(SKEW_LANES, batches, mix, steal_batch);
    SkewRun {
        steal,
        packets,
        elapsed_ns,
        mpps: packets as f64 / (elapsed_ns as f64 / 1e9) / 1e6,
        stolen_batches: stolen,
        steal_bytes,
        max_share,
    }
}

/// Lanes in the recovery run.
const RECOVERY_LANES: usize = 4;

/// The lane whose pipeline the recovery run crashes.
const VICTIM: usize = 1;

/// Crashes one of `RECOVERY_LANES` lanes halfway through its quota
/// and verifies containment + rejoin. Stealing is off, so every lane
/// runs exactly its own slice and the fault lands on the victim's
/// `batches / (2 × lanes)`-th batch.
pub fn measure_recovery(batches: usize) -> RecoveryOutcome {
    silence_panics();
    let half = (batches / (2 * RECOVERY_LANES)) as u64;
    let plan = FaultPlan::new(0xE9).inject_window(
        FaultSite::Operator(0),
        FaultKind::Panic,
        VICTIM as u64,
        half,
        half + 1,
    );
    let report = LaneRuntime::run(
        spec().stage(|| ChaosPoint::new(0)),
        LaneConfig {
            lanes: RECOVERY_LANES,
            traffic: uniform_traffic(),
            total_batches: batches as u64,
            batch_size: BATCH_SIZE,
            steal_batch: 0,
            faults: Some(Arc::new(plan)),
            ..LaneConfig::default()
        },
    );
    assert_eq!(report.unaccounted_packets(), 0, "lane conservation");
    let survivors = || report.lanes.iter().filter(|l| l.lane != VICTIM);
    RecoveryOutcome {
        workers: RECOVERY_LANES,
        victim: VICTIM,
        faults: report.lanes.iter().map(|l| l.faults).sum(),
        respawns: report.lanes.iter().map(|l| u64::from(l.respawns)).sum(),
        lost_batches: report.lost() / BATCH_SIZE as u64,
        victim_processed: report.lanes[VICTIM].executed_batches,
        survivor_processed_min: survivors().map(|l| l.executed_batches).min().unwrap_or(0),
        survivor_faults: survivors().map(|l| l.faults).sum(),
        packets: report.processed(),
        queue_depth_hwm: (report.lanes.iter())
            .map(|l| l.deque_hwm as u64)
            .max()
            .unwrap_or(0),
    }
}

/// Runs the full experiment.
pub fn measure(batches: usize) -> ScalingResults {
    let host = HostInfo::detect();
    let counts = [1usize, 2, 4, 8];
    ScalingResults {
        batches,
        lane_points: counts
            .into_iter()
            .map(|n| measure_lane_point(n, batches, &host))
            .collect(),
        skew: vec![
            measure_skew_run(batches, false),
            measure_skew_run(batches, true),
        ],
        recovery: measure_recovery(batches),
        host,
    }
}

fn point_json(p: &ScalingPoint, last: bool) -> String {
    format!(
        "    {{\"workers\": {}, \"packets\": {}, \"elapsed_ns\": {}, \"mpps\": {:.4}, \"cycles_per_batch_p50\": {}, \"stolen_batches\": {}, \"oversubscribed\": {}}}{}\n",
        p.workers,
        p.packets,
        p.elapsed_ns,
        p.mpps,
        p.cycles_per_batch_p50
            .map_or_else(|| "null".to_string(), |c| format!("{c:.0}")),
        p.stolen_batches,
        p.oversubscribed,
        if last { "" } else { "," },
    )
}

/// Renders the result set as the `BENCH_scaling.json` payload.
pub fn to_json(r: &ScalingResults) -> String {
    let oversub: Vec<String> = r
        .lane_points
        .iter()
        .filter(|p| p.oversubscribed)
        .map(|p| p.workers.to_string())
        .collect();
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e9_scaling\",\n");
    out.push_str(&format!(
        "  \"host\": {{\"logical_cores\": {}, \"physical_cores\": {}, \"oversubscribed_points\": [{}], \"warning\": {}}},\n",
        r.host.logical_cores,
        r.host.physical_cores,
        oversub.join(", "),
        if oversub.is_empty() {
            "null".to_string()
        } else {
            format!(
                "\"points at {} workers exceed the {} logical cores: they measure oversubscription, not scaling\"",
                oversub.join("/"),
                r.host.logical_cores
            )
        },
    ));
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"batches_per_point\": {},\n", r.batches));
    out.push_str(
        "  \"pipeline\": [\"null-filter\", \"ttl-decrement\", \"mac-swap\", \"poison-port\"],\n",
    );
    out.push_str(&format!(
        "  \"lane_curve_monotone_within_cores\": {},\n",
        r.lane_curve_monotone()
    ));
    out.push_str("  \"lane_points\": [\n");
    for (i, p) in r.lane_points.iter().enumerate() {
        out.push_str(&point_json(p, i + 1 == r.lane_points.len()));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"skew\": {{\"lanes\": {SKEW_LANES}, \"zipf_s\": {ZIPF_S}, \"runs\": [\n"
    ));
    for (i, s) in r.skew.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"steal\": {}, \"packets\": {}, \"elapsed_ns\": {}, \"mpps\": {:.4}, \"stolen_batches\": {}, \"steal_bytes\": {}, \"max_share\": {:.4}}}{}\n",
            s.steal,
            s.packets,
            s.elapsed_ns,
            s.mpps,
            s.stolen_batches,
            s.steal_bytes,
            s.max_share,
            if i + 1 < r.skew.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]},\n");
    let rec = &r.recovery;
    out.push_str(&format!(
        "  \"recovery_under_load\": {{\"workers\": {}, \"victim\": {}, \"faults\": {}, \"respawns\": {}, \"lost_batches\": {}, \"victim_processed\": {}, \"survivor_processed_min\": {}, \"survivor_faults\": {}, \"packets\": {}, \"queue_depth_hwm\": {}}}\n",
        rec.workers,
        rec.victim,
        rec.faults,
        rec.respawns,
        rec.lost_batches,
        rec.victim_processed,
        rec.survivor_processed_min,
        rec.survivor_faults,
        rec.packets,
        rec.queue_depth_hwm,
    ));
    out.push_str("}\n");
    out
}

/// Regenerates the scaling table, writing `BENCH_scaling.json` beside it.
pub fn run(quick: bool) -> String {
    let batches = if quick { 200 } else { 2_000 };
    let results = measure(batches);

    let render_curve = |label: &str, points: &[ScalingPoint]| {
        let mut t = Table::new(&["workers", "packets", "elapsed ms", "Mpps", "note"]);
        for p in points {
            t.row_owned(vec![
                p.workers.to_string(),
                p.packets.to_string(),
                fmt_f64(p.elapsed_ns as f64 / 1e6, 2),
                fmt_f64(p.mpps, 3),
                if p.oversubscribed {
                    "oversubscribed".into()
                } else if p.stolen_batches > 0 {
                    format!("{} stolen", p.stolen_batches)
                } else {
                    "-".into()
                },
            ]);
        }
        format!("{label}\n{}", t.render())
    };

    let mut out = format!(
        "E9 — scaling: run-to-completion lanes ({} logical / {} physical cores; scaling needs >1)\n",
        results.host.logical_cores, results.host.physical_cores
    );
    out.push_str(&render_curve(
        "lane mode (run-to-completion):",
        &results.lane_points,
    ));

    out.push_str(&format!(
        "\nskew cell ({SKEW_LANES} lanes, Zipf({ZIPF_S})):\n"
    ));
    for s in &results.skew {
        out.push_str(&format!(
            "  steal={}: {} Mpps, {} batches stolen, {} steal bytes (hot lane share {:.2})\n",
            if s.steal { "on " } else { "off" },
            fmt_f64(s.mpps, 3),
            s.stolen_batches,
            s.steal_bytes,
            s.max_share,
        ));
    }

    let rec = &results.recovery;
    out.push_str(&format!(
        "\nrecovery under load ({} lanes): victim={} faults={} respawns={} \
         lost_batches={} victim_processed={} survivor_min={} survivor_faults={} queue_hwm={}\n",
        rec.workers,
        rec.victim,
        rec.faults,
        rec.respawns,
        rec.lost_batches,
        rec.victim_processed,
        rec.survivor_processed_min,
        rec.survivor_faults,
        rec.queue_depth_hwm,
    ));

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
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
    fn lane_points_conserve_packets() {
        let host = HostInfo::detect();
        let p = measure_lane_point(2, 20, &host);
        assert_eq!(p.workers, 2);
        // Conservation, buffer return, and full-quota generation are
        // asserted inside measure_lane_run.
        assert_eq!(p.packets, 20 * BATCH_SIZE as u64);
        assert!(p.mpps > 0.0);
    }

    #[test]
    fn skew_cell_steals_only_when_enabled() {
        let off = measure_skew_run(24, false);
        assert_eq!(off.stolen_batches, 0);
        assert_eq!(off.steal_bytes, 0);
        let on = measure_skew_run(24, true);
        assert!(on.max_share > 1.0 / SKEW_LANES as f64, "mix is skewed");
        // On a single-core host stealing may not fire in a short run;
        // when it does, the tax must be metered.
        if on.stolen_batches > 0 {
            assert!(on.steal_bytes > 0, "steal crossings were charged");
        }
    }

    #[test]
    fn physical_core_parse_counts_unique_pairs() {
        let text = "processor: 0\nphysical id: 0\ncore id: 0\n\n\
                    processor: 1\nphysical id: 0\ncore id: 1\n\n\
                    processor: 2\nphysical id: 0\ncore id: 0\n\n\
                    processor: 3\nphysical id: 0\ncore id: 1\n";
        assert_eq!(physical_cores_from(text), Some(2));
        assert_eq!(physical_cores_from("model name: weird\n"), None);
    }

    #[test]
    fn recovery_under_load_is_contained() {
        let rec = measure_recovery(40);
        assert_eq!(rec.faults, 1, "exactly the scripted panic");
        assert_eq!(rec.respawns, 1, "the lane rebuilt its domain once");
        assert_eq!(rec.survivor_faults, 0, "no fault leaked");
        assert_eq!(rec.lost_batches, 1, "only the faulted batch died");
        assert!(
            rec.victim_processed > (40 / (2 * RECOVERY_LANES)) as u64,
            "the victim rejoined and finished its quota"
        );
        assert!(
            rec.survivor_processed_min > 0,
            "every survivor kept processing"
        );
        assert!(rec.queue_depth_hwm >= 1, "queue depth was sampled");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let point = ScalingPoint {
            workers: 1,
            packets: 256,
            elapsed_ns: 1000,
            mpps: 0.5,
            cycles_per_batch_p50: None,
            stolen_batches: 0,
            oversubscribed: false,
        };
        let lane_point = ScalingPoint {
            cycles_per_batch_p50: Some(124.0),
            ..point.clone()
        };
        let r = ScalingResults {
            batches: 1,
            host: HostInfo {
                logical_cores: 1,
                physical_cores: 1,
            },
            lane_points: vec![point, lane_point],
            skew: vec![SkewRun {
                steal: true,
                packets: 256,
                elapsed_ns: 1000,
                mpps: 0.5,
                stolen_batches: 3,
                steal_bytes: 300,
                max_share: 0.6,
            }],
            recovery: RecoveryOutcome {
                workers: 4,
                victim: 0,
                faults: 1,
                respawns: 1,
                lost_batches: 1,
                victim_processed: 2,
                survivor_processed_min: 3,
                survivor_faults: 0,
                packets: 1024,
                queue_depth_hwm: 5,
            },
        };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"e9_scaling\""));
        // A point without a histogram and one with — both renderings
        // must survive.
        assert!(j.contains("\"cycles_per_batch_p50\": null"));
        assert!(j.contains("\"cycles_per_batch_p50\": 124"));
        assert!(j.contains("\"lane_points\""));
        assert!(j.contains("\"skew\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
