//! E14 — live upgrade: every tenant's chain swapped between two ticks.
//!
//! Every cell runs the tenant engine over a stateful chain (firewall
//! rules + a per-flow tracker) under sustained traffic, then upgrades
//! every tenant at once with a wave still queued. Three upgrade shapes ×
//! three isolation backends:
//!
//! 1. **Operator bugfix** — same chain, same state schema (a tracker
//!    capacity bump). State restores directly; the upgrade must account
//!    **exactly zero** lost and shed packets.
//! 2. **Rule push** — a new firewall rule database. The state schema
//!    changes; a [`StageStateMap`] migrator rebuilds the firewall slot
//!    fresh (new rules) while carrying every tracked flow across.
//! 3. **Chain reshape** — a counter stage spliced into the chain. The
//!    migrator remaps both the firewall and tracker slots into their
//!    new positions.
//!
//! Two chaos cells per backend then kill the upgrade — once at the
//! [`UpgradeQuiesce`](FaultSite::UpgradeQuiesce) site (inside a tenant's
//! live domain, while its state is sealed), once at
//! [`UpgradeRestore`](FaultSite::UpgradeRestore) (inside the fresh
//! domain the first target is built in) — and assert that every staged
//! target is discarded: the fleet stays **uniform** on the old chain and
//! every ledger balances.
//!
//! Results are also emitted as `BENCH_upgrade.json` in the repo root.
//! All JSON fields are integers derived from the logical tick clock and
//! the packet/state ledgers — never wall time — so two runs of the same
//! seed are byte-identical. The tier-1 test `stable_records` holds them
//! to the committed file and asserts each cell's outcome.

use std::net::Ipv4Addr;
use std::sync::Arc;

use rbs_checkpoint::StateMigrator;
use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::Table;
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_netfx::operators::{ChaosPoint, Counter};
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{FlowTracker, PipelineSpec, StageStateMap};
use rbs_runtime::{
    BackendKind, TenantChainFactory, TenantLaneConfig, TenantLaneRuntime, TenantReport, TenantSpec,
    UpgradeOutcome,
};

use crate::harness::silence_panics;

/// Packets offered per tick.
const BATCH_SIZE: usize = 256;

/// Tenants in every cell's runtime.
const TENANTS: usize = 4;

/// Lanes the tenants are placed onto: the caller plus one helper, so
/// every upgrade runs with a helper parked on the tick barrier.
const LANES: usize = 2;

/// Distinct flows in the traffic population.
const FLOWS: usize = 512;

/// The one seed behind every cell.
const SEED: u64 = 0x14_06AD;

/// The tenant the quiesce chaos cell kills mid-upgrade.
const CHAOS_TENANT: u64 = 2;

/// Builds a small firewall rule database; `generation` changes the rule
/// set so a rule push is observable as different state, not a no-op.
fn rule_db(generation: u32) -> FwTrie {
    let mut t = FwTrie::new();
    for i in 0..16u32 {
        let base = Ipv4Addr::from(0x0E00_0000u32 | (i << 8) | (generation << 20));
        t.insert(Rule::new(
            i,
            format!("e14 g{generation} rule {i}"),
            base,
            24,
            if i % 4 == 0 {
                Action::Deny
            } else {
                Action::Allow
            },
        ));
    }
    t
}

/// The running chain: chaos point → firewall (generation-1 rules) →
/// flow tracker. Schema 1.
fn spec_v1() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FirewallOp::new(rule_db(1), Action::Allow))
        .stage(|| FlowTracker::new(100_000))
        .with_state_schema(1)
}

/// The same chain for every tenant.
fn every_tenant(spec: fn() -> PipelineSpec) -> TenantChainFactory {
    Arc::new(move |_, _| spec())
}

/// The five upgrade cells run against every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Same schema: tracker capacity bump, direct restore.
    OperatorBugfix,
    /// New rule database (schema 2): firewall slot rebuilt fresh, flows
    /// migrated across.
    RulePush,
    /// Counter stage spliced in (schema 3): firewall *and* tracker
    /// slots remapped into their new positions.
    ChainReshape,
    /// The bugfix upgrade with one tenant killed while its state is
    /// sealed.
    ChaosQuiesce,
    /// The bugfix upgrade with the first target killed while it builds.
    ChaosRestore,
}

impl Scenario {
    /// Every cell, in report order.
    pub const ALL: [Scenario; 5] = [
        Scenario::OperatorBugfix,
        Scenario::RulePush,
        Scenario::ChainReshape,
        Scenario::ChaosQuiesce,
        Scenario::ChaosRestore,
    ];

    /// Stable name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::OperatorBugfix => "operator-bugfix",
            Scenario::RulePush => "rule-push",
            Scenario::ChainReshape => "chain-reshape",
            Scenario::ChaosQuiesce => "chaos-quiesce",
            Scenario::ChaosRestore => "chaos-restore",
        }
    }

    /// True when the cell is expected to commit (no chaos).
    pub fn expects_commit(self) -> bool {
        !matches!(self, Scenario::ChaosQuiesce | Scenario::ChaosRestore)
    }

    /// True when the cell changes the state schema.
    pub fn migrates(self) -> bool {
        matches!(self, Scenario::RulePush | Scenario::ChainReshape)
    }

    /// The chain every tenant upgrades to.
    fn target(self) -> TenantChainFactory {
        match self {
            Scenario::OperatorBugfix | Scenario::ChaosQuiesce | Scenario::ChaosRestore => {
                every_tenant(|| {
                    PipelineSpec::new()
                        .stage(|| ChaosPoint::new(0))
                        .stage(|| FirewallOp::new(rule_db(1), Action::Allow))
                        .stage(|| FlowTracker::new(200_000))
                        .with_state_schema(1)
                })
            }
            Scenario::RulePush => every_tenant(|| {
                PipelineSpec::new()
                    .stage(|| ChaosPoint::new(0))
                    .stage(|| FirewallOp::new(rule_db(2), Action::Allow))
                    .stage(|| FlowTracker::new(100_000))
                    .with_state_schema(2)
            }),
            Scenario::ChainReshape => every_tenant(|| {
                PipelineSpec::new()
                    .stage(|| ChaosPoint::new(0))
                    .stage(|| FirewallOp::new(rule_db(1), Action::Allow))
                    .stage(Counter::new)
                    .stage(|| FlowTracker::new(100_000))
                    .with_state_schema(3)
            }),
        }
    }

    /// The migrator: schema-changing cells carry a stage-state map;
    /// same-schema cells need none.
    fn migrator(self) -> Option<Arc<dyn StateMigrator>> {
        match self {
            Scenario::OperatorBugfix | Scenario::ChaosQuiesce | Scenario::ChaosRestore => None,
            // Old stages: 0 chaos, 1 firewall, 2 tracker. The firewall
            // slot goes fresh (the push is the point); flows carry.
            Scenario::RulePush => Some(Arc::new(StageStateMap::new(
                1,
                2,
                vec![None, None, Some(2)],
            ))),
            // The reshape keeps the firewall state and moves the
            // tracker down one slot past the inserted counter.
            Scenario::ChainReshape => Some(Arc::new(StageStateMap::new(
                1,
                3,
                vec![None, Some(1), None, Some(2)],
            ))),
        }
    }

    /// The chaos plan for this cell, if any.
    fn plan(self) -> Option<FaultPlan> {
        match self {
            Scenario::ChaosQuiesce => Some(FaultPlan::new(SEED).inject_window(
                FaultSite::UpgradeQuiesce,
                FaultKind::Panic,
                CHAOS_TENANT,
                0,
                1,
            )),
            Scenario::ChaosRestore => Some(FaultPlan::new(SEED).inject_window(
                FaultSite::UpgradeRestore,
                FaultKind::Panic,
                0,
                0,
                1,
            )),
            _ => None,
        }
    }
}

/// One (backend × scenario) cell of the matrix.
#[derive(Debug, Clone)]
pub struct UpgradeCell {
    /// Isolation backend the domains ran on.
    pub backend: BackendKind,
    /// Which upgrade shape ran.
    pub scenario: Scenario,
    /// "committed" or "rolled-back".
    pub outcome: &'static str,
    /// Tenants whose targets were installed (committed) or discarded
    /// (rolled back).
    pub tenants_staged: u64,
    /// State items the migrator carried across a schema change.
    pub state_items_migrated: u64,
    /// Packets offered over the whole run.
    pub offered: u64,
    /// Packets lost to domain faults.
    pub lost_packets: u64,
    /// Packets shed, all reasons.
    pub shed_packets: u64,
    /// Domain faults absorbed, the quiesce kill included.
    pub faults: u64,
    /// Goodput in ppm of offered (integer-exact).
    pub goodput_ppm: u64,
    /// The spec generation each tenant ended on, in tenant order.
    pub generations: Vec<u64>,
    /// Live state items summed over tenants at the end.
    pub final_state_items: u64,
    /// Conservation residue.
    pub unaccounted: i128,
}

/// Runs one cell: `rounds` ticks of traffic, the upgrade with one more
/// wave queued across it, then `rounds` more ticks to show the fleet
/// keeps processing.
pub fn measure_cell(backend: BackendKind, scenario: Scenario, rounds: usize) -> UpgradeCell {
    silence_panics();
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec::new(format!("e14-{i}")))
            .collect(),
        lanes: LANES,
        snapshot_every_ticks: 2,
        snapshot_full_every: 1,
        backend,
        chain: Some(every_tenant(spec_v1)),
        faults: scenario.plan().map(Arc::new),
        ..TenantLaneConfig::default()
    })
    .expect("tenant runtime construction");
    let mut gen = PacketGen::new(TrafficConfig {
        flows: FLOWS,
        payload_len: 64,
        seed: SEED,
        ..Default::default()
    });
    for _ in 0..rounds {
        rt.offer(gen.next_batch(BATCH_SIZE));
        rt.step();
    }
    rt.offer(gen.next_batch(BATCH_SIZE));
    let outcome = rt
        .upgrade(scenario.target(), scenario.migrator())
        .expect("upgrade accepted");
    rt.step();
    for _ in 0..rounds {
        rt.offer(gen.next_batch(BATCH_SIZE));
        rt.step();
    }
    cell(backend, scenario, outcome, &rt.finish())
}

/// Reduces a finished run to its cell, asserting what every cell of its
/// kind must show.
fn cell(
    backend: BackendKind,
    scenario: Scenario,
    outcome: UpgradeOutcome,
    report: &TenantReport,
) -> UpgradeCell {
    let (tenants_staged, state_items_migrated) = match outcome {
        UpgradeOutcome::Committed {
            tenants,
            state_items_migrated,
        } => (tenants, state_items_migrated),
        UpgradeOutcome::RolledBack { discarded, .. } => (discarded, 0),
    };
    let sum = |f: fn(&rbs_runtime::TenantOutcome) -> u64| report.tenants.iter().map(f).sum::<u64>();
    let cell = UpgradeCell {
        backend,
        scenario,
        outcome: outcome.name(),
        tenants_staged: tenants_staged as u64,
        state_items_migrated,
        offered: report.offered(),
        lost_packets: sum(|t| t.ledger.lost),
        shed_packets: sum(|t| t.ledger.shed()),
        faults: sum(|t| t.faults),
        goodput_ppm: (report.out() * 1_000_000)
            .checked_div(report.offered())
            .unwrap_or(1_000_000),
        generations: report.tenants.iter().map(|t| t.generation).collect(),
        final_state_items: sum(|t| t.final_state_items),
        unaccounted: report.unaccounted_packets(),
    };
    let name = scenario.name();
    assert_eq!(cell.unaccounted, 0, "{name}: packets vanished on {backend}");
    let generation = u64::from(scenario.expects_commit());
    assert!(
        cell.generations.iter().all(|&g| g == generation),
        "{name}: the fleet is not uniform on generation {generation}: {:?}",
        cell.generations
    );
    if scenario.expects_commit() {
        assert_eq!(cell.outcome, "committed", "{name}");
        assert_eq!(cell.lost_packets, 0, "{name}: an upgrade loses nothing");
        assert_eq!(cell.shed_packets, 0, "{name}: an upgrade sheds nothing");
        assert_eq!(cell.tenants_staged, TENANTS as u64, "{name}");
    } else {
        assert_eq!(cell.outcome, "rolled-back", "{name}");
    }
    if scenario.migrates() {
        assert!(
            cell.state_items_migrated > 0,
            "{name}: the migrator carried the flow tables"
        );
    }
    cell
}

/// The full backend × scenario matrix.
#[derive(Debug, Clone)]
pub struct UpgradeResults {
    /// Ticks before and after the upgrade in each cell.
    pub rounds: usize,
    /// Cells, backend-major then scenario order.
    pub cells: Vec<UpgradeCell>,
}

/// Runs every cell.
pub fn measure(rounds: usize) -> UpgradeResults {
    let mut cells = Vec::new();
    for backend in BackendKind::ALL {
        for scenario in Scenario::ALL {
            cells.push(measure_cell(backend, scenario, rounds));
        }
    }
    UpgradeResults { rounds, cells }
}

/// Renders the result set as the `BENCH_upgrade.json` payload.
///
/// Integer-only by construction: two runs of the same build and seed
/// must produce byte-identical output, which the tier-1 test
/// `stable_records` holds to the committed file.
pub fn to_json(r: &UpgradeResults) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e14_upgrade\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"tenants\": {TENANTS},\n"));
    out.push_str(&format!("  \"lanes\": {LANES},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"flows\": {FLOWS},\n"));
    out.push_str(&format!("  \"rounds\": {},\n", r.rounds));
    out.push_str("  \"cells\": [\n");
    for (i, c) in r.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"scenario\": \"{}\", \"outcome\": \"{}\", \"tenants_staged\": {}, \"state_items_migrated\": {}, \"offered\": {}, \"lost_packets\": {}, \"shed_packets\": {}, \"faults\": {}, \"goodput_ppm\": {}, \"generations\": {:?}, \"final_state_items\": {}, \"unaccounted\": {}}}{}\n",
            c.backend,
            c.scenario.name(),
            c.outcome,
            c.tenants_staged,
            c.state_items_migrated,
            c.offered,
            c.lost_packets,
            c.shed_packets,
            c.faults,
            c.goodput_ppm,
            c.generations,
            c.final_state_items,
            c.unaccounted,
            if i + 1 < r.cells.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Ticks before and after the upgrade behind the committed
/// `BENCH_upgrade.json`.
pub const ROUNDS: usize = 40;
/// The same under `--quick`.
const QUICK_ROUNDS: usize = 12;

/// Regenerates the upgrade matrix, writing `BENCH_upgrade.json` beside
/// it.
pub fn run(quick: bool) -> String {
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };
    let results = measure(rounds);

    let mut t = Table::new(&[
        "backend",
        "scenario",
        "outcome",
        "staged",
        "migrated",
        "lost",
        "shed",
        "faults",
        "goodput %",
        "gen",
    ]);
    for c in &results.cells {
        t.row_owned(vec![
            c.backend.to_string(),
            c.scenario.name().to_owned(),
            c.outcome.to_owned(),
            c.tenants_staged.to_string(),
            c.state_items_migrated.to_string(),
            c.lost_packets.to_string(),
            c.shed_packets.to_string(),
            c.faults.to_string(),
            format!("{:.2}", c.goodput_ppm as f64 / 10_000.0),
            c.generations[0].to_string(),
        ]);
    }

    let mut out = String::from(
        "E14 — live upgrade: every tenant's chain swapped between two ticks, by backend and upgrade shape\n",
    );
    out.push_str(&t.render());
    out.push_str(
        "\nCompatible cells commit with exactly 0 lost and 0 shed packets; chaos cells\n\
         discard every staged target and leave a uniform generation-0 fleet with\n\
         every packet accounted.\n",
    );

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_upgrade.json");
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
    fn bugfix_upgrade_commits_zero_loss() {
        let c = measure_cell(BackendKind::TypedSfi, Scenario::OperatorBugfix, 8);
        assert_eq!(c.outcome, "committed");
        assert_eq!((c.lost_packets, c.shed_packets, c.faults), (0, 0, 0));
        assert_eq!(c.state_items_migrated, 0, "same schema: direct restore");
        assert!(c.final_state_items > 0, "the flow tables came across");
    }

    #[test]
    fn rule_push_migrates_flows() {
        let c = measure_cell(BackendKind::CopyBoundary, Scenario::RulePush, 8);
        assert_eq!(c.outcome, "committed");
        assert_eq!(c.lost_packets, 0);
        assert!(c.state_items_migrated > 0);
    }

    #[test]
    fn chaos_cells_roll_back_uniform() {
        let q = measure_cell(BackendKind::TypedSfi, Scenario::ChaosQuiesce, 8);
        assert_eq!(q.outcome, "rolled-back");
        assert_eq!(q.generations, vec![0; TENANTS]);
        assert_eq!(q.tenants_staged, CHAOS_TENANT, "tenants 0 and 1 discarded");
        assert_eq!(q.faults, 1, "the kill is one fault on the sealed tenant");
        assert_eq!(q.lost_packets, 0, "no batch was in the chain");
        let r = measure_cell(BackendKind::TypedSfi, Scenario::ChaosRestore, 8);
        assert_eq!(r.outcome, "rolled-back");
        assert_eq!(r.generations, vec![0; TENANTS]);
        assert_eq!((r.tenants_staged, r.faults), (0, 0), "no live domain died");
    }

    #[test]
    fn cells_are_deterministic() {
        let a = measure_cell(BackendKind::MpkSim, Scenario::ChainReshape, 8);
        let b = measure_cell(BackendKind::MpkSim, Scenario::ChainReshape, 8);
        let json = |c: UpgradeCell| {
            to_json(&UpgradeResults {
                rounds: 8,
                cells: vec![c],
            })
        };
        assert_eq!(json(a), json(b));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = UpgradeResults {
            rounds: 1,
            cells: vec![UpgradeCell {
                backend: BackendKind::TypedSfi,
                scenario: Scenario::OperatorBugfix,
                outcome: "committed",
                tenants_staged: 4,
                state_items_migrated: 0,
                offered: 4096,
                lost_packets: 0,
                shed_packets: 0,
                faults: 0,
                goodput_ppm: 1_000_000,
                generations: vec![1; TENANTS],
                final_state_items: 512,
                unaccounted: 0,
            }],
        };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"e14_upgrade\""));
        assert!(j.contains("\"scenario\": \"operator-bugfix\""));
        assert!(j.contains("\"generations\": [1, 1, 1, 1]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
