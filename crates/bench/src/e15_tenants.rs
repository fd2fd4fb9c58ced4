//! E15 — tenant blast-radius containment at wall-clock scale:
//! multi-tenant SLA under aggressor traffic, breaker churn, warm
//! recovery, and priority-aware cross-tenant work stealing on real lane
//! threads.
//!
//! Every cell places N tenant domains onto four [`TenantLaneRuntime`]
//! lane *threads* by the weighted placement policy and turns tenant 1
//! into an aggressor while the rest carry steady traffic:
//!
//! - **flood** — the aggressor's flow population offers a large multiple
//!   of its share against a tight admission contract. Containment is
//!   the token bucket: the flood sheds at ingress (`shed_admission`)
//!   and never reaches a lane.
//! - **fault-loop** — the aggressor's chain panics on every batch.
//!   Containment is the circuit breaker: strikes throttle then open it
//!   (domain destroyed, ingress shed at zero cost), half-open probes
//!   keep re-testing, and the loop keeps re-opening it.
//! - **slow-operator** — the aggressor's chain costs 8× per packet.
//!   Containment is the work budget: over-budget ticks strike the
//!   breaker exactly like faults do.
//!
//! All cells run the full storm besides the aggressor: background chaos
//! panics (any tenant), snapshot-cadence warm recovery, and mid-run
//! tenant churn — the last tenant is removed at ⅓ of the run and
//! re-added at ⅔, forcing two live Maglev rebuilds whose remap counts
//! the report records. The SLA gate asserted in every cell: **every
//! non-aggressor tenant keeps ≥ 99% goodput**, with per-tenant
//! conservation exact (`offered == processed + lost + shed`) including
//! steal credits, and **zero priority inversions** across every
//! schedule the lane threads happen to take.
//!
//! Results are also emitted as `BENCH_tenant.json` in the repo root.
//! Records are split into stable lines (tick-clock and ledger derived —
//! byte-identical across runs of the same build) and `"kind": "timing"`
//! lines (wall-clock throughput and who-stole-what, which depend on
//! scheduling). The tier-1 test `stable_records` holds every stable line
//! to the committed file and asserts each cell's SLA and ledgers.

use std::sync::Arc;
use std::time::Instant;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::Table;
use rbs_netfx::flow::FiveTuple;
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_runtime::{
    LaneOccupancy, TenantLaneConfig, TenantLaneRuntime, TenantOutcome, TenantReport, TenantSpec,
};

use crate::harness::silence_panics;

/// Baseline packets per tenant per tick (the wave scales with N so the
/// per-tenant load is comparable at 8 and at 64 tenants).
const WAVE_PER_TENANT: usize = 24;

/// Extra aggressor packets per tick in flood cells.
const FLOOD_EXTRA: usize = 256;

/// Distinct flows in the baseline population.
const FLOWS: usize = 4096;

/// The one seed behind every cell.
const SEED: u64 = 0x0E15;

/// Background chaos rate applied to every tenant's batches, in ppm.
const CHAOS_PPM: u32 = 400;

/// The tenant that misbehaves (always index 1).
const AGGRESSOR: usize = 1;

/// Lane threads per cell.
const LANES: usize = 4;

/// Maglev table size (prime).
const TABLE_SIZE: usize = 251;

/// Per-tenant admission contract for well-behaved tenants.
const BASE_RATE: u64 = 400;
const BASE_BURST: u64 = 800;

/// The flood cell's aggressor contract: tokens per tick and burst.
const FLOOD_RATE: u64 = 25;
const FLOOD_BURST: u64 = 50;

/// Per-packet work cost of the slow aggressor's chain.
const SLOW_COST: u64 = 8;

/// Per-tick work budget in slow-operator cells: three times the heaviest
/// *innocent* tenant's expected draw, so legitimate heavy traffic never
/// strikes while the 8×-cost hog overruns every tick. An operator sets
/// this from the contracted loads; the matrix derives it the same way.
fn work_budget(wave: usize, specs: &[TenantSpec]) -> u64 {
    let total_w: u64 = specs.iter().map(|s| u64::from(s.weight)).sum();
    let max_innocent_w = specs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != AGGRESSOR)
        .map(|(_, s)| u64::from(s.weight))
        .max()
        .unwrap_or(1);
    3 * (wave as u64) * max_innocent_w / total_w.max(1)
}

/// How tenant load is skewed across the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Every tenant weighted equally in the steering table.
    Uniform,
    /// Zipf-like integer weights (8, 5, 3, 2, 1, 1, ...): a few heavy
    /// tenants, a long light tail.
    Zipf,
}

impl Skew {
    /// Stable name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Skew::Uniform => "uniform",
            Skew::Zipf => "zipf",
        }
    }

    /// The Maglev weight of tenant `i` under this skew.
    fn weight(self, i: usize) -> u32 {
        match self {
            Skew::Uniform => 1,
            Skew::Zipf => match i {
                0 => 8,
                1 => 5,
                2 => 3,
                3 => 2,
                _ => 1,
            },
        }
    }
}

/// What tenant 1 does to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggressor {
    /// Offers far more than its admission contract.
    Flood,
    /// Panics on every executed batch.
    FaultLoop,
    /// Costs 8× lane work per packet.
    SlowOperator,
}

impl Aggressor {
    /// Every profile, in report order.
    pub const ALL: [Aggressor; 3] = [
        Aggressor::Flood,
        Aggressor::FaultLoop,
        Aggressor::SlowOperator,
    ];

    /// Stable name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Aggressor::Flood => "flood",
            Aggressor::FaultLoop => "fault-loop",
            Aggressor::SlowOperator => "slow-operator",
        }
    }
}

/// A tenant's role in the cell.
fn role(idx: usize, tenants: usize) -> &'static str {
    if idx == AGGRESSOR {
        "aggressor"
    } else if idx == tenants - 1 {
        "churn"
    } else {
        "victim"
    }
}

/// One tenant's row in a cell's result.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// `"victim"`, `"aggressor"`, or `"churn"`.
    pub role: &'static str,
    /// The runtime's full outcome for this tenant.
    pub outcome: TenantOutcome,
    /// The tenant's Maglev weight in this cell.
    pub weight: u32,
}

/// One (tenants × skew × aggressor) cell of the matrix.
#[derive(Debug, Clone)]
pub struct TenantCell {
    /// Tenant count.
    pub tenants: usize,
    /// Load skew.
    pub skew: Skew,
    /// Aggressor profile.
    pub aggressor: Aggressor,
    /// Ticks of offered traffic (the drain at shutdown adds more).
    pub ticks: u64,
    /// Per-tenant rows, index order.
    pub rows: Vec<TenantRow>,
    /// Maglev entries remapped when the churn tenant left.
    pub remap_entries_out: usize,
    /// Maglev entries remapped when it returned (equal by determinism).
    pub remap_entries_back: usize,
    /// Batches shed by the lane high-water mark.
    pub hwm_sheds: u64,
    /// Times the aggressor's breaker opened.
    pub aggressor_opens: u64,
    /// The SLA gate: every non-aggressor kept ≥ 99% goodput.
    pub victims_contained: bool,
    /// Per-lane placement and steal observability from the report.
    pub occupancy: Vec<LaneOccupancy>,
    /// Total packets offered across tenants.
    pub offered: u64,
    /// Wall-clock time of the offered-traffic loop, nanoseconds.
    pub elapsed_ns: u128,
}

impl TenantCell {
    /// Stable cell name, e.g. `t8-zipf-fault-loop`.
    pub fn name(&self) -> String {
        format!(
            "t{}-{}-{}",
            self.tenants,
            self.skew.name(),
            self.aggressor.name()
        )
    }

    /// Lowest goodput among non-aggressor tenants, in ppm.
    pub fn worst_victim_goodput_ppm(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.role != "aggressor")
            .map(|r| r.outcome.ledger.goodput_ppm())
            .min()
            .unwrap_or(1_000_000)
    }

    /// Offered throughput over the traffic loop, in Mpps (wall-clock —
    /// a timing quantity, never part of the stable record).
    pub fn mpps(&self) -> f64 {
        self.offered as f64 / (self.elapsed_ns as f64 / 1e9) / 1e6
    }

    /// Work items stolen across lanes (scheduling-dependent).
    pub fn steals(&self) -> u64 {
        self.occupancy.iter().map(|l| l.steals_in).sum()
    }

    /// Wire bytes charged as the steal tax (scheduling-dependent).
    pub fn steal_bytes(&self) -> u64 {
        self.occupancy.iter().map(|l| l.steal_bytes).sum()
    }

    /// Packets credited to origin-tenant `stolen` ledgers.
    pub fn stolen_packets(&self) -> u64 {
        self.rows.iter().map(|r| r.outcome.ledger.stolen).sum()
    }

    /// Priority inversions observed by the steal audit (must be zero).
    pub fn priority_inversions(&self) -> u64 {
        self.occupancy.iter().map(|l| l.priority_inversions).sum()
    }
}

/// Builds the cell's tenant population.
fn population(tenants: usize, skew: Skew, aggressor: Aggressor) -> Vec<TenantSpec> {
    (0..tenants)
        .map(|i| {
            let mut spec = TenantSpec::new(format!("tenant-{i}"))
                .weight(skew.weight(i))
                .rate(BASE_RATE, BASE_BURST)
                .priority(if i == AGGRESSOR { 1 } else { 2 });
            if i == AGGRESSOR {
                match aggressor {
                    Aggressor::Flood => spec = spec.rate(FLOOD_RATE, FLOOD_BURST),
                    Aggressor::SlowOperator => spec = spec.cost_per_packet(SLOW_COST),
                    Aggressor::FaultLoop => {}
                }
            }
            spec
        })
        .collect()
}

/// The cell's fault plan: background chaos for everyone, plus the
/// scripted permanent loop on the aggressor's stream in fault-loop
/// cells.
fn plan(aggressor: Aggressor) -> FaultPlan {
    let plan = FaultPlan::new(SEED).inject(FaultSite::Operator(0), FaultKind::Panic, CHAOS_PPM);
    match aggressor {
        Aggressor::FaultLoop => plan.inject_window(
            FaultSite::Operator(0),
            FaultKind::Panic,
            AGGRESSOR as u64,
            0,
            u64::MAX,
        ),
        _ => plan,
    }
}

/// Runs one cell: `ticks` waves of steered traffic on four lane threads
/// with the aggressor active throughout, churn at ⅓ and ⅔, chaos and
/// snapshots on cadence. The wave scales with the tenant count so the
/// per-tenant load is the same at every scale.
pub fn measure_cell(tenants: usize, skew: Skew, aggressor: Aggressor, ticks: u64) -> TenantCell {
    silence_panics();
    assert!(tenants >= 4, "cells need victims, an aggressor, and churn");
    let wave = WAVE_PER_TENANT * tenants;
    let specs = population(tenants, skew, aggressor);
    let config = TenantLaneConfig {
        lanes: LANES,
        table_size: TABLE_SIZE,
        queue_hwm: 4 * tenants,
        work_budget_per_tick: match aggressor {
            Aggressor::SlowOperator => work_budget(wave, &specs),
            _ => 0,
        },
        tenants: specs,
        snapshot_every_ticks: 4,
        snapshot_full_every: 4,
        faults: Some(Arc::new(plan(aggressor))),
        ..TenantLaneConfig::default()
    };
    let weights: Vec<u32> = config.tenants.iter().map(|t| t.weight).collect();
    let mut rt = TenantLaneRuntime::new(config).expect("tenant lane runtime");

    let traffic = TrafficConfig {
        flows: FLOWS,
        payload_len: 64,
        seed: SEED ^ ((tenants as u64) << 8),
        ..Default::default()
    };
    // The flood draws only from flows that steer to the aggressor, so
    // the extra load lands squarely on its admission contract.
    let mut flood_gen = match aggressor {
        Aggressor::Flood => {
            let table = rt.table();
            Some(PacketGen::subset(
                traffic.clone(),
                0x0F_100D,
                |t: &FiveTuple| table.lookup(t.stable_hash()) == AGGRESSOR,
            ))
        }
        _ => None,
    };
    let mut gen = PacketGen::new(traffic);

    let churn_tenant = tenants - 1;
    let (leave_at, return_at) = (ticks / 3, 2 * ticks / 3);
    let mut remap_out = 0;
    let mut remap_back = 0;
    let start = Instant::now();
    for tick in 0..ticks {
        if tick == leave_at {
            remap_out = rt.remove_tenant(churn_tenant).expect("churn remove");
        }
        if tick == return_at {
            remap_back = rt.add_tenant(churn_tenant).expect("churn add");
        }
        // Two half-waves per tick: a chaos panic costs its tenant half
        // a tick's traffic, so the blast a single background fault can
        // do stays well inside the 1% SLA at every tenant scale.
        rt.offer(gen.next_batch(wave / 2));
        rt.offer(gen.next_batch(wave - wave / 2));
        if let Some(flood) = flood_gen.as_mut() {
            rt.offer(flood.next_batch(FLOOD_EXTRA));
        }
        rt.step();
    }
    let elapsed_ns = start.elapsed().as_nanos();
    let report = rt.finish();
    cell_from_report(
        tenants, skew, aggressor, ticks, weights, remap_out, remap_back, elapsed_ns, report,
    )
}

/// Audits the report against the cell's containment contract and folds
/// it into a [`TenantCell`].
#[allow(clippy::too_many_arguments)]
fn cell_from_report(
    tenants: usize,
    skew: Skew,
    aggressor: Aggressor,
    ticks: u64,
    weights: Vec<u32>,
    remap_entries_out: usize,
    remap_entries_back: usize,
    elapsed_ns: u128,
    report: TenantReport,
) -> TenantCell {
    let churn_tenant = tenants - 1;
    let rows: Vec<TenantRow> = report
        .tenants
        .iter()
        .enumerate()
        .map(|(i, outcome)| TenantRow {
            role: role(i, tenants),
            outcome: outcome.clone(),
            weight: weights[i],
        })
        .collect();
    let aggressor_opens = report.tenants[AGGRESSOR].opens;
    let victims_contained = rows
        .iter()
        .filter(|r| r.role != "aggressor")
        .all(|r| r.outcome.ledger.goodput_ppm() >= 990_000);
    let cell = TenantCell {
        tenants,
        skew,
        aggressor,
        ticks,
        offered: report.offered(),
        rows,
        remap_entries_out,
        remap_entries_back,
        hwm_sheds: report.hwm_sheds,
        aggressor_opens,
        victims_contained,
        occupancy: report.occupancy.clone(),
        elapsed_ns,
    };

    // Exact conservation, per tenant and in aggregate, with steal
    // credits a subset of processed work.
    assert_eq!(
        report.unaccounted_packets(),
        0,
        "{}: packets vanished",
        cell.name()
    );
    for row in &cell.rows {
        assert_eq!(
            row.outcome.ledger.unaccounted(),
            0,
            "{}: {} leaks packets",
            cell.name(),
            row.outcome.name
        );
        assert!(
            row.outcome.ledger.stolen <= row.outcome.ledger.processed,
            "{}: {} credited more steals than work",
            cell.name(),
            row.outcome.name
        );
    }
    // The steal audit: no schedule may claim work past a higher band,
    // and the executor and origin views must describe the same thefts.
    assert_eq!(
        cell.priority_inversions(),
        0,
        "{}: priority inverted",
        cell.name()
    );
    let by_origin: u64 = cell
        .occupancy
        .iter()
        .flat_map(|l| l.stolen_from.iter().map(|&(_, n)| n))
        .sum();
    assert_eq!(cell.steals(), by_origin, "{}", cell.name());
    // The SLA gate: non-aggressors keep ≥ 99% goodput and never trip
    // their own breakers.
    for row in cell.rows.iter().filter(|r| r.role != "aggressor") {
        assert!(
            row.outcome.ledger.goodput_ppm() >= 990_000,
            "{}: {} ({}) dropped to {} ppm",
            cell.name(),
            row.outcome.name,
            row.role,
            row.outcome.ledger.goodput_ppm()
        );
        assert_eq!(
            row.outcome.opens,
            0,
            "{}: non-aggressor {} breaker opened",
            cell.name(),
            row.outcome.name
        );
        assert_eq!(
            row.outcome.ledger.shed(),
            0,
            "{}: non-aggressor {} was shed",
            cell.name(),
            row.outcome.name
        );
    }
    assert!(cell.victims_contained);
    // Churn ran: two rebuilds, reversed exactly, fresh epoch.
    assert_eq!(report.rebuilds.len(), 2, "{}", cell.name());
    assert_eq!(remap_entries_out, remap_entries_back, "{}", cell.name());
    assert!(remap_entries_out > 0, "{}", cell.name());
    assert_eq!(report.tenants[churn_tenant].epoch, 1, "{}", cell.name());
    // The profile-specific containment signal.
    let aggr = &report.tenants[AGGRESSOR];
    match aggressor {
        Aggressor::Flood => assert!(
            aggr.ledger.shed_admission > 0,
            "{}: the flood never hit its bucket",
            cell.name()
        ),
        Aggressor::FaultLoop => {
            assert!(aggr.opens >= 1, "{}: the loop never opened", cell.name());
            assert!(aggr.ledger.shed_open > 0, "{}", cell.name());
        }
        Aggressor::SlowOperator => assert!(
            aggr.opens >= 1,
            "{}: the work budget never opened the hog",
            cell.name()
        ),
    }
    cell
}

/// The full tenants × skew × aggressor matrix.
#[derive(Debug, Clone)]
pub struct TenantResults {
    /// Ticks per cell.
    pub ticks: u64,
    /// The 12 cells, tenants-major.
    pub cells: Vec<TenantCell>,
}

/// Runs every cell: small-population and large-population tenant scale
/// on the same four lane threads.
pub fn measure(ticks: u64) -> TenantResults {
    let mut cells = Vec::new();
    for tenants in [8usize, 64] {
        for skew in [Skew::Uniform, Skew::Zipf] {
            for aggressor in Aggressor::ALL {
                cells.push(measure_cell(tenants, skew, aggressor, ticks));
            }
        }
    }
    TenantResults { ticks, cells }
}

/// Renders the result set as the `BENCH_tenant.json` payload.
///
/// Stable lines are integer-only, derived from the tick clock and the
/// ledgers: two runs of the same build produce them byte-identically.
/// Lines tagged `"kind": "timing"` carry wall-clock throughput and
/// steal attribution, which depend on scheduling; `stable_records`
/// drops them before comparing with the committed file.
pub fn to_json(r: &TenantResults) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e15_tenants\",\n");
    out.push_str("  \"engine\": \"tenant-lanes-threaded\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"wave_per_tenant\": {WAVE_PER_TENANT},\n"));
    out.push_str(&format!("  \"flood_extra\": {FLOOD_EXTRA},\n"));
    out.push_str(&format!("  \"flows\": {FLOWS},\n"));
    out.push_str(&format!("  \"lanes\": {LANES},\n"));
    out.push_str(&format!("  \"chaos_ppm\": {CHAOS_PPM},\n"));
    out.push_str(&format!("  \"ticks\": {},\n", r.ticks));
    out.push_str("  \"cells\": [\n");
    for (i, c) in r.cells.iter().enumerate() {
        let placement: Vec<String> = c
            .occupancy
            .iter()
            .map(|l| {
                format!(
                    "[{}]",
                    l.residents
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"cell\": \"{}\", \"tenants\": {}, \"skew\": \"{}\", \"aggressor\": \"{}\", \"ticks\": {}, \"remap_entries_out\": {}, \"remap_entries_back\": {}, \"hwm_sheds\": {}, \"aggressor_opens\": {}, \"worst_victim_goodput_ppm\": {}, \"victims_contained\": {}, \"priority_inversions\": {}, \"placement\": [{}], \"rows\": [\n",
            c.name(),
            c.tenants,
            c.skew.name(),
            c.aggressor.name(),
            c.ticks,
            c.remap_entries_out,
            c.remap_entries_back,
            c.hwm_sheds,
            c.aggressor_opens,
            c.worst_victim_goodput_ppm(),
            c.victims_contained,
            c.priority_inversions(),
            placement.join(", "),
        ));
        for (j, row) in c.rows.iter().enumerate() {
            let o = &row.outcome;
            let l = &o.ledger;
            out.push_str(&format!(
                "      {{\"tenant\": \"{}\", \"role\": \"{}\", \"priority\": {}, \"weight\": {}, \"offered\": {}, \"processed\": {}, \"out\": {}, \"drops\": {}, \"lost\": {}, \"shed_admission\": {}, \"shed_open\": {}, \"shed_backpressure\": {}, \"shed_removed\": {}, \"goodput_ppm\": {}, \"p99_delay_ticks\": {}, \"max_delay_ticks\": {}, \"faults\": {}, \"opens\": {}, \"throttles\": {}, \"respawns\": {}, \"warm_restores\": {}, \"cold_restores\": {}, \"state_items_restored\": {}, \"final_state_items\": {}, \"epoch\": {}, \"unaccounted\": {}}}{}\n",
                o.name,
                row.role,
                o.priority,
                row.weight,
                l.offered,
                l.processed,
                l.out,
                l.drops,
                l.lost,
                l.shed_admission,
                l.shed_open,
                l.shed_backpressure,
                l.shed_removed,
                l.goodput_ppm(),
                o.p99_delay_ticks,
                o.max_delay_ticks,
                o.faults,
                o.opens,
                o.throttles,
                o.respawns,
                o.warm_restores,
                o.cold_restores,
                o.state_items_restored,
                o.final_state_items,
                o.epoch,
                l.unaccounted(),
                if j + 1 < c.rows.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < r.cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"timing\": [\n");
    for (i, c) in r.cells.iter().enumerate() {
        let by_lane: Vec<String> = c
            .occupancy
            .iter()
            .map(|l| {
                format!(
                    "{{\"lane\": {}, \"executed_batches\": {}, \"executed_packets\": {}, \"steals_in\": {}, \"steal_bytes\": {}}}",
                    l.lane, l.executed_batches, l.executed_packets, l.steals_in, l.steal_bytes
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"kind\": \"timing\", \"cell\": \"{}\", \"elapsed_ns\": {}, \"mpps\": {:.4}, \"steals\": {}, \"steal_bytes\": {}, \"stolen_packets\": {}, \"lanes\": [{}]}}{}\n",
            c.name(),
            c.elapsed_ns,
            c.mpps(),
            c.steals(),
            c.steal_bytes(),
            c.stolen_packets(),
            by_lane.join(", "),
            if i + 1 < r.cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Ticks per cell behind the committed `BENCH_tenant.json`.
pub const TICKS: u64 = 120;
/// Ticks per cell under `--quick`.
const QUICK_TICKS: u64 = 96;

/// Regenerates the tenant containment matrix, writing
/// `BENCH_tenant.json` beside it.
pub fn run(quick: bool) -> String {
    let ticks = if quick { QUICK_TICKS } else { TICKS };
    let results = measure(ticks);

    let mut t = Table::new(&[
        "cell",
        "Mpps",
        "aggr goodput %",
        "worst victim %",
        "aggr opens",
        "steals",
        "remap",
        "contained",
    ]);
    for c in &results.cells {
        let aggr = &c.rows[AGGRESSOR].outcome.ledger;
        t.row_owned(vec![
            c.name(),
            format!("{:.2}", c.mpps()),
            format!("{:.2}", aggr.goodput_ppm() as f64 / 10_000.0),
            format!("{:.2}", c.worst_victim_goodput_ppm() as f64 / 10_000.0),
            c.aggressor_opens.to_string(),
            c.steals().to_string(),
            c.remap_entries_out.to_string(),
            c.victims_contained.to_string(),
        ]);
    }

    let mut out = String::from(
        "E15 — tenant blast-radius containment on threaded lanes: breakers, admission, and priority-aware stealing under aggressor load\n",
    );
    out.push_str(&t.render());
    out.push_str(
        "\nEvery cell places its tenants onto four lane threads, churns one tenant out and back\n\
         mid-run (two live Maglev rebuilds) with background chaos and warm recovery active;\n\
         non-aggressor tenants keep >= 99% goodput in every cell, every per-tenant ledger\n\
         balances exactly (steal credits included), and the steal audit observed zero\n\
         priority inversions.\n",
    );

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tenant.json");
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
    fn flood_cell_contains_the_flood_at_admission() {
        let c = measure_cell(8, Skew::Uniform, Aggressor::Flood, 24);
        assert!(c.victims_contained);
        let aggr = &c.rows[AGGRESSOR].outcome.ledger;
        assert!(aggr.shed_admission > 0);
        // The flood's goodput collapses; nobody else's does.
        assert!(aggr.goodput_ppm() < 500_000);
    }

    #[test]
    fn fault_loop_cell_opens_the_breaker() {
        let c = measure_cell(8, Skew::Zipf, Aggressor::FaultLoop, 24);
        assert!(c.victims_contained);
        let aggr = &c.rows[AGGRESSOR].outcome;
        assert!(aggr.opens >= 1);
        assert!(aggr.ledger.shed_open > aggr.ledger.lost);
    }

    #[test]
    fn slow_operator_cell_trips_the_work_budget() {
        let c = measure_cell(8, Skew::Uniform, Aggressor::SlowOperator, 24);
        assert!(c.victims_contained);
        assert!(c.rows[AGGRESSOR].outcome.opens >= 1);
        assert_eq!(
            c.rows[AGGRESSOR].outcome.faults, 0,
            "the hog never faults — the budget alone contains it"
        );
    }

    #[test]
    fn tenant_scale_cell_holds_the_sla() {
        // The scale point of the matrix: 64 tenants on 4 lane threads.
        // measure_cell asserts the SLA, conservation, and the inversion
        // audit in-cell; this pins the placement shape on top.
        let c = measure_cell(64, Skew::Uniform, Aggressor::FaultLoop, 24);
        assert!(c.victims_contained);
        assert_eq!(c.occupancy.len(), LANES);
        let placed: usize = c.occupancy.iter().map(|l| l.residents.len()).sum();
        assert_eq!(placed, 64, "every tenant has a home lane");
        assert_eq!(c.priority_inversions(), 0);
    }

    /// Everything but scheduling must replay byte-identically: the
    /// stable JSON (ledgers, events-derived counters, placement) is
    /// compared after stripping `"kind": "timing"` lines, as
    /// `stable_records` does.
    #[test]
    fn cells_are_deterministic() {
        let a = measure_cell(8, Skew::Zipf, Aggressor::FaultLoop, 24);
        let b = measure_cell(8, Skew::Zipf, Aggressor::FaultLoop, 24);
        let key = |c: &TenantCell| {
            c.rows
                .iter()
                .map(|r| {
                    let mut ledger = r.outcome.ledger;
                    ledger.stolen = 0; // scheduling-dependent
                    (
                        ledger,
                        r.outcome.faults,
                        r.outcome.opens,
                        r.outcome.p99_delay_ticks,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.remap_entries_out, b.remap_entries_out);
        let stable = |r: &TenantResults| {
            to_json(r)
                .lines()
                .filter(|l| !l.contains("\"kind\": \"timing\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            stable(&TenantResults {
                ticks: 24,
                cells: vec![a]
            }),
            stable(&TenantResults {
                ticks: 24,
                cells: vec![b]
            })
        );
    }

    #[test]
    fn json_separates_stable_from_timing() {
        let c = measure_cell(8, Skew::Uniform, Aggressor::Flood, 12);
        let j = to_json(&TenantResults {
            ticks: 12,
            cells: vec![c],
        });
        assert!(j.contains("\"experiment\": \"e15_tenants\""));
        assert!(j.contains("\"role\": \"aggressor\""));
        assert!(j.contains("\"victims_contained\": true"));
        assert!(j.contains("\"placement\": ["));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Every wall-clock field lives on a line the replay drops before
        // diffing; every other line is byte-stable by construction.
        for line in j.lines() {
            if line.contains("\"mpps\"")
                || line.contains("\"elapsed_ns\"")
                || line.contains("\"steals\"")
            {
                assert!(
                    line.contains("\"kind\": \"timing\""),
                    "timing field on a stable line: {line}"
                );
            }
        }
    }
}
