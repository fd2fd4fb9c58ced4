//! E13 — the isolation-tax spectrum: what does a domain crossing cost?
//!
//! The paper's argument is that language-based isolation moves the
//! protection boundary from hardware into the type system, making the
//! per-crossing cost *zero* — no page-table switch, no copy, no
//! serialization. This experiment measures that claim against the
//! alternatives by running the same pipelines on three interchangeable
//! [`rbs_sfi::IsolationBackend`]s:
//!
//! - **typed-sfi** — the paper's model: ownership transfer over linear
//!   types. Crossing hooks compile to one predictable branch; the
//!   backend records nothing.
//! - **mpk-sim** — an Intel MPK-style protection-key switch, simulated
//!   by spinning the calibrated per-crossing cycle cost (`wrpkru` plus
//!   the hardened entry/exit gate) at every boundary.
//! - **copy-boundary** — classic process-style isolation cost: every
//!   crossing pays a real `memcpy` of the payload in both directions.
//!
//! The *mechanism* is identical in all three (same channels, same
//! reference tables, same fault semantics — pinned by the
//! `backend_invariants` proptests in `rbs-sfi`); only the per-crossing
//! cost model differs. Each point runs the tenant engine
//! ([`TenantLaneRuntime`]) on one lane, so every tenant batch executes
//! on the calling thread in a fixed order. Each (backend × workload ×
//! batch-size) point reports:
//!
//! 1. **Crossing census** — crossings and boundary bytes observed from
//!    the first offer to the end of the measured window. Deterministic:
//!    Maglev steering and the seeded generator fix how many tenant
//!    batches exist, and each one costs exactly one call into its
//!    tenant's domain and one return of the batch. The batch moves by
//!    ownership, so the return carries the batch handle, not its
//!    payload. typed-sfi records zero by design (its hooks are compiled
//!    out of the hot path).
//! 2. **Modeled tax** — `model_cycles` from the backend's cost model, a
//!    pure function of the census, so byte-stable across runs and hosts.
//!    The spectrum `typed-sfi ≤ mpk-sim ≤ copy-boundary` is asserted.
//! 3. **End-to-end throughput** — wall-clock Mpps, the timing record.
//!
//! Results land in `BENCH_isolation.json`, one record per line, tagged
//! `"kind": "stable"` (byte-identical across runs) or `"kind":
//! "timing"`. The tier-1 test `stable_records` holds every stable line
//! to the committed file and asserts the spectrum is ordered.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use rbs_core::table::{fmt_f64, Table};
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_netfx::operators::NullFilter;
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{FlowTracker, PipelineSpec};
use rbs_runtime::{BackendKind, TenantLaneConfig, TenantLaneRuntime, TenantSpec};

/// Tenant (= domain) count for every point. Two is the smallest count
/// that exercises the steering split, keeping the crossing census
/// non-trivial without drowning the tax in scheduling noise.
const TENANTS: usize = 2;

/// Lanes every point runs on: one, so no batch is stolen and the census
/// is a function of the traffic alone.
const LANES: usize = 1;

/// Rounds (one offered wave and one tick each) before the measured
/// window opens.
const WARMUP_ROUNDS: usize = 32;

/// Firewall rules in the stateful workload's trie.
const RULES: usize = 64;

/// The two workloads: the cheapest possible pipeline (pure crossing
/// tax) and a representative stateful NF chain (tax amortized over
/// real per-packet work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single pass-through stage — the crossing cost is the workload.
    NullFilter,
    /// Firewall (trie lookup) + flow tracker (stateful table).
    FirewallFlowtrack,
}

impl Workload {
    /// Both workloads, in sweep order.
    pub const ALL: [Workload; 2] = [Workload::NullFilter, Workload::FirewallFlowtrack];

    /// Stable identifier used in records and tables.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NullFilter => "null-filter",
            Workload::FirewallFlowtrack => "fw-flowtrack",
        }
    }

    fn spec(self) -> PipelineSpec {
        match self {
            Workload::NullFilter => PipelineSpec::new().stage(NullFilter::new),
            Workload::FirewallFlowtrack => PipelineSpec::new()
                .stage(|| FirewallOp::new(rule_db(), Action::Allow))
                .stage(|| FlowTracker::new(100_000)),
        }
    }
}

/// Small aliased rule database for the stateful workload (shape borrowed
/// from E11's, shrunk — the rules are scenery here, not the subject).
fn rule_db() -> FwTrie {
    let mut t = FwTrie::new();
    for i in 0..RULES {
        let base = Ipv4Addr::from(0x0D00_0000u32 | ((i as u32) << 8));
        let rule = Rule::new(
            i as u32,
            format!("e13 rule {i}"),
            base,
            24,
            if i % 4 == 0 {
                Action::Deny
            } else {
                Action::Allow
            },
        );
        t.insert(rule);
    }
    t
}

fn generator() -> PacketGen {
    PacketGen::new(TrafficConfig {
        flows: 4096,
        payload_len: 64,
        seed: 0x0E13,
        ..Default::default()
    })
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct IsolationPoint {
    /// Which isolation backend ran the domains.
    pub backend: BackendKind,
    /// Which pipeline processed the packets.
    pub workload: Workload,
    /// Packets per generated batch.
    pub batch_size: usize,
    /// Waves offered inside the measured window.
    pub rounds: usize,
    /// Packets offered inside the measured window.
    pub packets: u64,
    /// Boundary crossings the backend observed (warmup included —
    /// crossings are charged from the first tick; still deterministic
    /// because the warmup schedule is too).
    pub crossings: u64,
    /// Payload bytes carried across those crossings.
    pub boundary_bytes: u64,
    /// Modeled cycle cost of the crossings — deterministic, unlike
    /// wall-clock time.
    pub model_cycles: u64,
    /// Every tenant ledger balances: offered == processed + lost + shed.
    pub conservation_ok: bool,
    /// Wall-clock nanoseconds for the measured window.
    pub elapsed_ns: u128,
    /// Million packets per second over the window.
    pub mpps: f64,
}

impl IsolationPoint {
    /// Modeled per-crossing cost in cycles (0 for a zero-cost backend).
    pub fn model_cycles_per_crossing(&self) -> f64 {
        if self.crossings == 0 {
            0.0
        } else {
            self.model_cycles as f64 / self.crossings as f64
        }
    }

    /// Modeled isolation tax per packet, in cycles.
    pub fn model_cycles_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.model_cycles as f64 / self.packets as f64
        }
    }
}

/// Runs one (backend × workload × batch size) point: warmup rounds,
/// then `rounds` measured waves, census capture, finish.
pub fn measure_point(
    backend: BackendKind,
    workload: Workload,
    batch_size: usize,
    rounds: usize,
) -> IsolationPoint {
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        // Admission and the lane high-water mark never shed: every
        // crossing in the census is a data-path crossing.
        tenants: (0..TENANTS)
            .map(|i| TenantSpec::new(format!("t{i}")).rate(4_096, 8_192))
            .collect(),
        lanes: LANES,
        backend,
        chain: Some(Arc::new(move |_, _| workload.spec())),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction");
    let mut gen = generator();
    for _ in 0..WARMUP_ROUNDS {
        rt.offer(gen.next_batch(batch_size));
        rt.step();
    }

    let start = Instant::now();
    for _ in 0..rounds {
        rt.offer(gen.next_batch(batch_size));
        rt.step();
    }
    let elapsed = start.elapsed();

    // Census BEFORE finish: finish reads every chain's state inside its
    // domain, which is a crossing of its own.
    let totals = rt.backend_totals();
    let report = rt.finish();
    let packets = (rounds * batch_size) as u64;
    IsolationPoint {
        backend,
        workload,
        batch_size,
        rounds,
        packets,
        crossings: totals.crossings,
        boundary_bytes: totals.bytes,
        model_cycles: totals.model_cycles,
        conservation_ok: report.unaccounted_packets() == 0
            && report.tenants.iter().all(|t| t.ledger.shed() == 0),
        elapsed_ns: elapsed.as_nanos(),
        mpps: packets as f64 / elapsed.as_secs_f64() / 1e6,
    }
}

/// The full experiment result set.
#[derive(Debug, Clone)]
pub struct IsolationResults {
    /// Host parallelism the run actually had available.
    pub host_cpus: usize,
    /// Batches per measured window.
    pub rounds: usize,
    /// Sweep points: backend-major, workload, then batch size.
    pub points: Vec<IsolationPoint>,
}

impl IsolationResults {
    fn find(&self, b: BackendKind, w: Workload, batch: usize) -> Option<&IsolationPoint> {
        self.points
            .iter()
            .find(|p| p.backend == b && p.workload == w && p.batch_size == batch)
    }

    /// True when `typed-sfi ≤ mpk-sim ≤ copy-boundary` holds on modeled
    /// cycles at every (workload × batch) cell.
    pub fn spectrum_ordered(&self, batch_sizes: &[usize]) -> bool {
        Workload::ALL.iter().all(|&w| {
            batch_sizes.iter().all(|&batch| {
                match (
                    self.find(BackendKind::TypedSfi, w, batch),
                    self.find(BackendKind::MpkSim, w, batch),
                    self.find(BackendKind::CopyBoundary, w, batch),
                ) {
                    (Some(t), Some(m), Some(c)) => {
                        t.model_cycles <= m.model_cycles && m.model_cycles <= c.model_cycles
                    }
                    _ => false,
                }
            })
        })
    }
}

/// Runs the sweep: every backend × workload × batch size.
pub fn measure(rounds: usize, batch_sizes: &[usize]) -> IsolationResults {
    let mut points = Vec::new();
    for backend in BackendKind::ALL {
        for workload in Workload::ALL {
            for &batch in batch_sizes {
                points.push(measure_point(backend, workload, batch, rounds));
            }
        }
    }
    IsolationResults {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rounds,
        points,
    }
}

/// Renders the result set as the `BENCH_isolation.json` payload: one
/// record per line, tagged stable/timing.
pub fn to_json(r: &IsolationResults, batch_sizes: &[usize]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e13_isolation\",\n");
    out.push_str(&format!(
        "  \"tenants\": {TENANTS},\n  \"lanes\": {LANES},\n  \"warmup_rounds\": {WARMUP_ROUNDS},\n  \"rounds\": {},\n",
        r.rounds
    ));
    out.push_str(&format!(
        "  \"spectrum_ordered\": {},\n",
        r.spectrum_ordered(batch_sizes)
    ));
    out.push_str("  \"records\": [\n");
    let n = r.points.len();
    for (i, p) in r.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kind\": \"stable\", \"backend\": \"{}\", \"workload\": \"{}\", \"batch_size\": {}, \"rounds\": {}, \"packets\": {}, \"crossings\": {}, \"boundary_bytes\": {}, \"model_cycles\": {}, \"model_cycles_per_crossing\": {:.2}, \"model_cycles_per_packet\": {:.2}, \"conservation_ok\": {}}},\n",
            p.backend,
            p.workload.name(),
            p.batch_size,
            p.rounds,
            p.packets,
            p.crossings,
            p.boundary_bytes,
            p.model_cycles,
            p.model_cycles_per_crossing(),
            p.model_cycles_per_packet(),
            p.conservation_ok,
        ));
        out.push_str(&format!(
            "    {{\"kind\": \"timing\", \"backend\": \"{}\", \"workload\": \"{}\", \"batch_size\": {}, \"elapsed_ns\": {}, \"mpps\": {:.4}}}{}\n",
            p.backend,
            p.workload.name(),
            p.batch_size,
            p.elapsed_ns,
            p.mpps,
            if i + 1 < n { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Measured rounds per cell behind the committed `BENCH_isolation.json`.
pub const ROUNDS: usize = 512;
/// Batch sizes behind the committed `BENCH_isolation.json`.
pub const BATCH_SIZES: &[usize] = &[64, 256, 512];
/// Measured rounds per cell under `--quick`.
const QUICK_ROUNDS: usize = 64;
/// Batch sizes under `--quick`.
const QUICK_BATCH_SIZES: &[usize] = &[64, 256];

/// Regenerates the isolation-tax table, writing `BENCH_isolation.json`
/// beside it.
pub fn run(quick: bool) -> String {
    let (rounds, batch_sizes) = if quick {
        (QUICK_ROUNDS, QUICK_BATCH_SIZES)
    } else {
        (ROUNDS, BATCH_SIZES)
    };
    let results = measure(rounds, batch_sizes);

    let mut t = Table::new(&[
        "backend",
        "workload",
        "batch",
        "crossings",
        "bytes",
        "cyc/crossing",
        "cyc/pkt tax",
        "Mpps",
    ]);
    for p in &results.points {
        t.row_owned(vec![
            p.backend.to_string(),
            p.workload.name().to_string(),
            p.batch_size.to_string(),
            p.crossings.to_string(),
            p.boundary_bytes.to_string(),
            fmt_f64(p.model_cycles_per_crossing(), 1),
            fmt_f64(p.model_cycles_per_packet(), 2),
            fmt_f64(p.mpps, 3),
        ]);
    }

    let mut out = format!(
        "E13 — isolation-tax spectrum ({} CPUs available; {TENANTS} tenants on {LANES} lane, {} rounds)\n",
        results.host_cpus, results.rounds,
    );
    out.push_str(&t.render());

    for p in &results.points {
        assert!(p.conservation_ok, "packet ledger must balance");
    }
    // The census must be a property of the traffic, not the backend: the
    // two charging backends see identical crossings and bytes at every
    // cell, and typed-sfi sees none (its hooks are compiled out).
    for &w in &Workload::ALL {
        for &batch in batch_sizes {
            let typed = results.find(BackendKind::TypedSfi, w, batch).unwrap();
            let mpk = results.find(BackendKind::MpkSim, w, batch).unwrap();
            let copy = results.find(BackendKind::CopyBoundary, w, batch).unwrap();
            assert_eq!(typed.crossings, 0, "typed-sfi records no crossings");
            assert_eq!(typed.model_cycles, 0, "typed-sfi charges no cycles");
            assert_eq!(
                (mpk.crossings, mpk.boundary_bytes),
                (copy.crossings, copy.boundary_bytes),
                "census diverged between charging backends at {} batch {batch}",
                w.name()
            );
        }
    }
    assert!(
        results.spectrum_ordered(batch_sizes),
        "modeled tax must order typed-sfi <= mpk-sim <= copy-boundary"
    );
    out.push_str(
        "isolation tax (modeled cycles): typed-sfi <= mpk-sim <= copy-boundary at every point\n",
    );

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_isolation.json");
    match std::fs::write(json_path, to_json(&results, batch_sizes)) {
        Ok(()) => out.push_str(&format!("\nwrote {json_path}\n")),
        Err(e) => out.push_str(&format!("\ncould not write {json_path}: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_sfi_point_is_zero_cost_and_conserves() {
        let p = measure_point(BackendKind::TypedSfi, Workload::NullFilter, 64, 12);
        assert_eq!(p.packets, 12 * 64);
        assert!(p.conservation_ok);
        assert_eq!(p.crossings, 0, "zero-cost backend records nothing");
        assert_eq!(p.model_cycles, 0);
        assert!(p.mpps > 0.0);
    }

    #[test]
    fn charging_point_census_is_deterministic() {
        let a = measure_point(BackendKind::CopyBoundary, Workload::NullFilter, 64, 12);
        let b = measure_point(BackendKind::CopyBoundary, Workload::NullFilter, 64, 12);
        assert!(a.crossings > 0, "charging backend observed the data path");
        assert!(a.boundary_bytes > 0);
        assert_eq!(
            (a.crossings, a.boundary_bytes, a.model_cycles),
            (b.crossings, b.boundary_bytes, b.model_cycles),
            "census must replay identically"
        );
    }

    #[test]
    fn spectrum_orders_on_a_small_sweep() {
        let batch_sizes = &[64usize];
        let mut points = Vec::new();
        for backend in BackendKind::ALL {
            points.push(measure_point(backend, Workload::NullFilter, 64, 8));
            points.push(measure_point(backend, Workload::FirewallFlowtrack, 64, 8));
        }
        let r = IsolationResults {
            host_cpus: 1,
            rounds: 8,
            points,
        };
        assert!(r.spectrum_ordered(batch_sizes));
        let j = to_json(&r, batch_sizes);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        for line in j.lines() {
            if line.contains("mpps") || line.contains("elapsed_ns") {
                assert!(
                    line.contains("\"kind\": \"timing\""),
                    "timing field on a stable line: {line}"
                );
            }
            if line.contains("crossings") {
                assert!(line.contains("\"kind\": \"stable\""));
            }
        }
        let stable: String = j
            .lines()
            .filter(|l| !l.contains("\"kind\": \"timing\""))
            .collect();
        assert!(stable.contains("\"spectrum_ordered\": true"));
        assert!(!stable.contains("mpps"));
    }
}
