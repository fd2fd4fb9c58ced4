//! E10 — chaos experiment: goodput retained and recovery latency under
//! deterministic fault injection.
//!
//! Three scenarios against the tenant engine ([`TenantLaneRuntime`]),
//! all driven by a seeded [`FaultPlan`] so every number here replays
//! bit-identically:
//!
//! 1. **Fault-rate sweep** — the same chain and offered load at injected
//!    fault rates from 0 to 5%, mixing panics inside each tenant's domain
//!    with micro-delays. Reported per rate: goodput retained, unserved
//!    packets (lost + shed), recovery latency percentiles in ticks, and
//!    breaker activity. The acceptance bar — ≥ 90% goodput at a 1% fault
//!    rate with zero unaccounted packets — is asserted, not just printed.
//! 2. **Crash loop** — a tenant whose chain dies on every batch must trip
//!    its breaker within the strike budget, probe after the open timer,
//!    and reopen when the probe dies, while its peer keeps full goodput.
//! 3. **Budget overrun** — a tenant that spends more than
//!    `work_budget_per_tick` on every tick is struck like a faulting one
//!    and contained by the same breaker, with no packet lost.
//!
//! Results are also emitted as `BENCH_chaos.json` in the repo root. All
//! JSON fields are integers derived from the logical tick clock and the
//! per-tenant ledgers — never wall time — which is what makes two runs
//! of the same seed byte-identical.

use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::{fmt_f64, Table};
use rbs_netfx::operators::{MacSwap, TtlDecrement};
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{PacketBatch, PipelineSpec};
use rbs_runtime::{
    BreakerPolicy, TenantEventKind, TenantLaneConfig, TenantLaneRuntime, TenantReport, TenantSpec,
};

use crate::harness::silence_panics;

/// Packets per offered wave (one per tick).
const BATCH_SIZE: usize = 256;

/// Tenants in the sweep runtime.
const TENANTS: usize = 4;

/// Lanes every scenario runs on: the ledgers are the same at any count.
const LANES: usize = 1;

/// The one seed behind every scenario.
const SEED: u64 = 0x10_CA05;

/// Admission rate per tenant and tick: well above a tenant's share of a
/// wave even when throttled, so admission never sheds and every unserved
/// packet is the breaker's doing.
const RATE_PER_TICK: u64 = 4_096;

/// Ticks of the crash-loop and budget-overrun scenarios: open at tick 2,
/// half-open probe at tick 8, reopen at tick 9.
const SCRIPTED_TICKS: usize = 12;

/// Work units per tick the budget-overrun scenario allows a tenant.
const WORK_BUDGET: u64 = 512;

/// Per-packet cost of the overrunning tenant: ~128 packets a tick cost
/// it 2 048 units, four times the budget.
const HOG_COST: u64 = 16;

/// The representative chain: two real header-rewriting stages. The
/// engine injects `Operator(0)` faults around the whole chain.
fn spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
}

/// The breaker under test: a tight strike budget and a short open timer.
fn policy() -> BreakerPolicy {
    BreakerPolicy {
        throttle_after_strikes: 2,
        open_after_strikes: 3,
        open_ticks: 6,
        half_open_probes: 2,
        throttle_divisor: 4,
    }
}

fn runtime(tenants: Vec<TenantSpec>, work_budget: u64, plan: FaultPlan) -> TenantLaneRuntime {
    TenantLaneRuntime::new(TenantLaneConfig {
        tenants,
        lanes: LANES,
        breaker: policy(),
        work_budget_per_tick: work_budget,
        chain: Some(Arc::new(|_, _| spec())),
        faults: Some(Arc::new(plan)),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction")
}

fn tenants(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec::new(format!("t{i}")).rate(RATE_PER_TICK, 2 * RATE_PER_TICK))
        .collect()
}

fn traffic(batches: usize) -> Vec<PacketBatch> {
    let mut g = PacketGen::new(TrafficConfig {
        flows: 4096,
        payload_len: 64,
        seed: SEED,
        ..Default::default()
    });
    (0..batches).map(|_| g.next_batch(BATCH_SIZE)).collect()
}

/// Offers one wave per tick, then drains the runtime into its report.
fn drive(mut rt: TenantLaneRuntime, waves: Vec<PacketBatch>) -> TenantReport {
    for wave in waves {
        rt.offer(wave);
        rt.step();
    }
    rt.finish()
}

/// Delivered packets in ppm of offered — exact, so it is comparable
/// byte-for-byte across runs.
fn goodput_ppm(out: u64, offered: u64) -> u64 {
    (out * 1_000_000).checked_div(offered).unwrap_or(1_000_000)
}

/// Per-tenant fault → respawn tick deltas from the journal: 0 for a
/// fault respawned on the spot, the open timer for one that opened the
/// breaker (its respawn is the half-open probe's).
fn recovery_latencies(report: &TenantReport) -> Vec<u64> {
    let mut out = Vec::new();
    for t in 0..report.tenants.len() {
        let mut opened: Option<u64> = None;
        for e in report.events.iter().filter(|e| e.tenant == t) {
            match e.kind {
                TenantEventKind::Opened { .. } | TenantEventKind::Reopened => {
                    opened.get_or_insert(e.tick);
                }
                TenantEventKind::Respawned { .. } => {
                    out.push(e.tick - opened.take().unwrap_or(e.tick));
                }
                _ => {}
            }
        }
    }
    out.sort_unstable();
    out
}

fn percentile(sorted: &[u64], tenths: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * tenths / 10).min(sorted.len() - 1)]
}

/// Tick of tenant `idx`'s first breaker opening.
fn first_open(report: &TenantReport, idx: usize) -> u64 {
    report
        .events
        .iter()
        .find(|e| e.tenant == idx && matches!(e.kind, TenantEventKind::Opened { .. }))
        .expect("the breaker opened")
        .tick
}

/// One point of the fault-rate sweep.
#[derive(Debug, Clone)]
pub struct ChaosPoint10 {
    /// Injected fault rate at the panic site, in ppm.
    pub rate_ppm: u32,
    /// Packets offered to the runtime.
    pub offered: u64,
    /// Packets that made it out of a chain.
    pub packets_out: u64,
    /// Goodput in ppm of offered (integer-exact).
    pub goodput_ppm: u64,
    /// Packets lost to faults or shed by an open breaker.
    pub unserved: u64,
    /// Contained panics.
    pub faults: u64,
    /// Chain rebuilds (on the spot and half-open probes).
    pub respawns: u64,
    /// Breaker openings.
    pub breaker_opens: u64,
    /// Fault → respawn latency percentiles, in ticks.
    pub recovery_ticks_p50: u64,
    /// 90th percentile of the same.
    pub recovery_ticks_p90: u64,
    /// Worst case of the same.
    pub recovery_ticks_max: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// Crash-loop scenario outcome.
#[derive(Debug, Clone)]
pub struct CrashLoopOutcome {
    /// Tick at which the breaker first opened.
    pub ticks_to_open: u64,
    /// Strikes that open the breaker: one fault per tick, so it must
    /// open before tick `budget_faults`.
    pub budget_faults: u32,
    /// Total breaker openings (≥ 2: the half-open probe died too).
    pub breaker_opens: u64,
    /// Half-open probes started.
    pub breaker_half_opens: u64,
    /// Packets the victim shed while its breaker was open.
    pub victim_shed_open: u64,
    /// Goodput in ppm of the healthy peer.
    pub peer_goodput_ppm: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// Budget-overrun scenario outcome.
#[derive(Debug, Clone)]
pub struct BudgetOverrunOutcome {
    /// Work units per tick a tenant may spend.
    pub work_budget: u64,
    /// The overrunning tenant's per-packet cost.
    pub hog_cost: u64,
    /// Tick at which its breaker first opened.
    pub ticks_to_open: u64,
    /// Its breaker openings (≥ 2: the half-open probe overran too).
    pub breaker_opens: u64,
    /// Packets it lost: 0, an overrun is not a fault.
    pub hog_lost: u64,
    /// Goodput in ppm of the healthy peer.
    pub peer_goodput_ppm: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// The full experiment result set.
#[derive(Debug, Clone)]
pub struct ChaosResults {
    /// Ticks carrying traffic per sweep point.
    pub rounds: usize,
    /// Sweep over injected fault rates.
    pub sweep: Vec<ChaosPoint10>,
    /// The scripted crash loop.
    pub crash_loop: CrashLoopOutcome,
    /// The scripted work-budget overrun.
    pub budget_overrun: BudgetOverrunOutcome,
}

/// The sweep plan at `rate_ppm`: panics, and micro-delays alongside.
fn sweep_plan(rate_ppm: u32) -> FaultPlan {
    FaultPlan::new(SEED)
        .inject(FaultSite::Operator(0), FaultKind::Panic, rate_ppm)
        .inject(
            FaultSite::Operator(0),
            FaultKind::Delay { micros: 50 },
            rate_ppm,
        )
}

/// Runs one sweep point: `rounds` ticks of the same pre-generated
/// traffic under `rate_ppm` injection.
pub fn measure_sweep_point(rate_ppm: u32, rounds: usize) -> ChaosPoint10 {
    silence_panics();
    let rt = runtime(tenants(TENANTS), 0, sweep_plan(rate_ppm));
    let report = drive(rt, traffic(rounds));
    let latencies = recovery_latencies(&report);
    let sum = |f: fn(&rbs_runtime::TenantOutcome) -> u64| report.tenants.iter().map(f).sum();
    let point = ChaosPoint10 {
        rate_ppm,
        offered: report.offered(),
        packets_out: report.out(),
        goodput_ppm: goodput_ppm(report.out(), report.offered()),
        unserved: sum(|t| t.ledger.lost + t.ledger.shed()),
        faults: sum(|t| t.faults),
        respawns: sum(|t| t.respawns),
        breaker_opens: sum(|t| t.opens),
        recovery_ticks_p50: percentile(&latencies, 5),
        recovery_ticks_p90: percentile(&latencies, 9),
        recovery_ticks_max: latencies.last().copied().unwrap_or(0),
        unaccounted: report.unaccounted_packets() as i64,
    };
    assert_eq!(point.unaccounted, 0, "packets vanished at {rate_ppm} ppm");
    point
}

/// Scripted crash loop: tenant 0 dies on every batch; the breaker must
/// open within the strike budget while tenant 1 keeps full goodput.
pub fn measure_crash_loop() -> CrashLoopOutcome {
    silence_panics();
    const VICTIM: usize = 0;
    let plan = FaultPlan::new(SEED).inject_window(
        FaultSite::Operator(0),
        FaultKind::Panic,
        VICTIM as u64,
        0,
        u64::MAX,
    );
    let report = drive(runtime(tenants(2), 0, plan), traffic(SCRIPTED_TICKS));
    let (victim, peer) = (&report.tenants[VICTIM], &report.tenants[1]);
    let out = CrashLoopOutcome {
        ticks_to_open: first_open(&report, VICTIM),
        budget_faults: policy().open_after_strikes,
        breaker_opens: victim.opens,
        breaker_half_opens: (report.events.iter())
            .filter(|e| e.tenant == VICTIM && e.kind == TenantEventKind::HalfOpened)
            .count() as u64,
        victim_shed_open: victim.ledger.shed_open,
        peer_goodput_ppm: peer.ledger.goodput_ppm(),
        unaccounted: report.unaccounted_packets() as i64,
    };
    assert_eq!(out.unaccounted, 0, "crash loop lost packets");
    assert_eq!(
        out.peer_goodput_ppm, 1_000_000,
        "the healthy peer never notices the crash loop"
    );
    out
}

/// Scripted overrun: tenant 0 costs four times the work budget every
/// tick; the breaker contains it without a fault while tenant 1 keeps
/// full goodput.
pub fn measure_budget_overrun() -> BudgetOverrunOutcome {
    const HOG: usize = 0;
    let mut specs = tenants(2);
    specs[HOG] = specs[HOG].clone().cost_per_packet(HOG_COST);
    let rt = runtime(specs, WORK_BUDGET, FaultPlan::new(SEED));
    let report = drive(rt, traffic(SCRIPTED_TICKS));
    let (hog, peer) = (&report.tenants[HOG], &report.tenants[1]);
    let out = BudgetOverrunOutcome {
        work_budget: WORK_BUDGET,
        hog_cost: HOG_COST,
        ticks_to_open: first_open(&report, HOG),
        breaker_opens: hog.opens,
        hog_lost: hog.ledger.lost,
        peer_goodput_ppm: peer.ledger.goodput_ppm(),
        unaccounted: report.unaccounted_packets() as i64,
    };
    assert_eq!(out.unaccounted, 0, "budget overrun lost packets");
    assert_eq!(out.hog_lost, 0, "an overrun is contained, not a fault");
    assert_eq!(
        out.peer_goodput_ppm, 1_000_000,
        "the peer never pays for the hog"
    );
    out
}

/// Runs the full experiment. The 1% point must retain ≥ 90% goodput.
pub fn measure(rounds: usize) -> ChaosResults {
    let rates = [0u32, 2_500, 10_000, 50_000];
    let sweep: Vec<ChaosPoint10> = rates
        .into_iter()
        .map(|r| measure_sweep_point(r, rounds))
        .collect();
    let one_percent = sweep
        .iter()
        .find(|p| p.rate_ppm == 10_000)
        .expect("1% point is in the sweep");
    assert!(
        one_percent.goodput_ppm >= 900_000,
        "goodput at 1% faults fell to {} ppm",
        one_percent.goodput_ppm
    );
    ChaosResults {
        rounds,
        sweep,
        crash_loop: measure_crash_loop(),
        budget_overrun: measure_budget_overrun(),
    }
}

/// Renders the result set as the `BENCH_chaos.json` payload.
///
/// Integer-only by construction: two runs of the same build and seed
/// must produce byte-identical output, which the tier-1 test
/// `stable_records` holds to the committed file.
pub fn to_json(r: &ChaosResults) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e10_chaos\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"tenants\": {TENANTS},\n"));
    out.push_str(&format!("  \"lanes\": {LANES},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"rounds\": {},\n", r.rounds));
    let p = policy();
    out.push_str(&format!(
        "  \"policy\": {{\"throttle_after_strikes\": {}, \"open_after_strikes\": {}, \"open_ticks\": {}, \"half_open_probes\": {}, \"throttle_divisor\": {}}},\n",
        p.throttle_after_strikes,
        p.open_after_strikes,
        p.open_ticks,
        p.half_open_probes,
        p.throttle_divisor,
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, s) in r.sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rate_ppm\": {}, \"offered\": {}, \"packets_out\": {}, \"goodput_ppm\": {}, \"unserved\": {}, \"faults\": {}, \"respawns\": {}, \"breaker_opens\": {}, \"recovery_ticks_p50\": {}, \"recovery_ticks_p90\": {}, \"recovery_ticks_max\": {}, \"unaccounted\": {}}}{}\n",
            s.rate_ppm,
            s.offered,
            s.packets_out,
            s.goodput_ppm,
            s.unserved,
            s.faults,
            s.respawns,
            s.breaker_opens,
            s.recovery_ticks_p50,
            s.recovery_ticks_p90,
            s.recovery_ticks_max,
            s.unaccounted,
            if i + 1 < r.sweep.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let c = &r.crash_loop;
    out.push_str(&format!(
        "  \"crash_loop\": {{\"ticks_to_open\": {}, \"budget_faults\": {}, \"breaker_opens\": {}, \"breaker_half_opens\": {}, \"victim_shed_open\": {}, \"peer_goodput_ppm\": {}, \"unaccounted\": {}}},\n",
        c.ticks_to_open,
        c.budget_faults,
        c.breaker_opens,
        c.breaker_half_opens,
        c.victim_shed_open,
        c.peer_goodput_ppm,
        c.unaccounted,
    ));
    let b = &r.budget_overrun;
    out.push_str(&format!(
        "  \"budget_overrun\": {{\"work_budget\": {}, \"hog_cost\": {}, \"ticks_to_open\": {}, \"breaker_opens\": {}, \"hog_lost\": {}, \"peer_goodput_ppm\": {}, \"unaccounted\": {}}}\n",
        b.work_budget,
        b.hog_cost,
        b.ticks_to_open,
        b.breaker_opens,
        b.hog_lost,
        b.peer_goodput_ppm,
        b.unaccounted,
    ));
    out.push_str("}\n");
    out
}

/// Ticks per sweep point behind the committed `BENCH_chaos.json`.
pub const ROUNDS: usize = 150;
/// Ticks per sweep point under `--quick`.
const QUICK_ROUNDS: usize = 40;

/// Regenerates the chaos table, writing `BENCH_chaos.json` beside it.
pub fn run(quick: bool) -> String {
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };
    let results = measure(rounds);

    let mut t = Table::new(&[
        "fault rate",
        "offered",
        "goodput %",
        "unserved",
        "faults",
        "respawns",
        "opens",
        "rec p50/p90 (ticks)",
    ]);
    for s in &results.sweep {
        t.row_owned(vec![
            format!("{:.2}%", s.rate_ppm as f64 / 10_000.0),
            s.offered.to_string(),
            fmt_f64(s.goodput_ppm as f64 / 10_000.0, 2),
            s.unserved.to_string(),
            s.faults.to_string(),
            s.respawns.to_string(),
            s.breaker_opens.to_string(),
            format!("{}/{}", s.recovery_ticks_p50, s.recovery_ticks_p90),
        ]);
    }

    let mut out = String::from("E10 — chaos: goodput and recovery under injected faults\n");
    out.push_str(&t.render());
    let c = &results.crash_loop;
    out.push_str(&format!(
        "\ncrash loop: breaker opened at tick {} (budget {} strikes), reopened after the \
         half-open probe died; victim shed {} packets, peer goodput {:.2}%\n",
        c.ticks_to_open,
        c.budget_faults,
        c.victim_shed_open,
        c.peer_goodput_ppm as f64 / 10_000.0,
    ));
    let b = &results.budget_overrun;
    out.push_str(&format!(
        "budget overrun: a tenant costing {} units a packet against a {}-unit budget opened \
         at tick {} ({} opens, {} lost); peer goodput {:.2}%\n",
        b.hog_cost,
        b.work_budget,
        b.ticks_to_open,
        b.breaker_opens,
        b.hog_lost,
        b.peer_goodput_ppm as f64 / 10_000.0,
    ));

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
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
    fn clean_point_has_full_goodput() {
        let p = measure_sweep_point(0, 10);
        assert_eq!(p.goodput_ppm, 1_000_000);
        assert_eq!(p.faults, 0);
        assert_eq!(p.unserved, 0);
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn one_percent_point_retains_goodput() {
        let p = measure_sweep_point(10_000, 25);
        assert!(p.goodput_ppm >= 900_000, "goodput {} ppm", p.goodput_ppm);
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn five_percent_point_is_deterministic() {
        let a = measure_sweep_point(50_000, 25);
        let b = measure_sweep_point(50_000, 25);
        assert!(a.faults > 0, "5% over 25 ticks injects something");
        assert!(a.respawns > 0, "the breaker healed");
        // Bit-stability of every reported field.
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.packets_out, b.packets_out);
        assert_eq!(a.goodput_ppm, b.goodput_ppm);
        assert_eq!(a.unserved, b.unserved);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.respawns, b.respawns);
        assert_eq!(a.breaker_opens, b.breaker_opens);
        assert_eq!(a.recovery_ticks_p50, b.recovery_ticks_p50);
        assert_eq!(a.recovery_ticks_p90, b.recovery_ticks_p90);
        assert_eq!(a.recovery_ticks_max, b.recovery_ticks_max);
    }

    #[test]
    fn crash_loop_trips_breaker_on_schedule() {
        let c = measure_crash_loop();
        assert!(
            c.ticks_to_open < u64::from(c.budget_faults),
            "opened at tick {}",
            c.ticks_to_open
        );
        assert!(c.breaker_opens >= 2);
        assert_eq!(c.breaker_half_opens, 1);
        assert!(c.victim_shed_open > 0);
        // And the schedule replays.
        let d = measure_crash_loop();
        assert_eq!(c.ticks_to_open, d.ticks_to_open);
        assert_eq!(c.victim_shed_open, d.victim_shed_open);
    }

    #[test]
    fn budget_overrun_scenario_is_clean() {
        let b = measure_budget_overrun();
        assert!(b.ticks_to_open < u64::from(policy().open_after_strikes));
        assert!(b.breaker_opens >= 2, "the half-open probe overran too");
        assert_eq!(b.hog_lost, 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = ChaosResults {
            rounds: 1,
            sweep: vec![ChaosPoint10 {
                rate_ppm: 10_000,
                offered: 256,
                packets_out: 250,
                goodput_ppm: 976_562,
                unserved: 6,
                faults: 1,
                respawns: 1,
                breaker_opens: 0,
                recovery_ticks_p50: 0,
                recovery_ticks_p90: 0,
                recovery_ticks_max: 6,
                unaccounted: 0,
            }],
            crash_loop: CrashLoopOutcome {
                ticks_to_open: 2,
                budget_faults: 3,
                breaker_opens: 2,
                breaker_half_opens: 1,
                victim_shed_open: 700,
                peer_goodput_ppm: 1_000_000,
                unaccounted: 0,
            },
            budget_overrun: BudgetOverrunOutcome {
                work_budget: 512,
                hog_cost: 16,
                ticks_to_open: 2,
                breaker_opens: 2,
                hog_lost: 0,
                peer_goodput_ppm: 1_000_000,
                unaccounted: 0,
            },
        };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"e10_chaos\""));
        assert!(j.contains("\"rate_ppm\": 10000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
