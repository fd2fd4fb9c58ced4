//! E14 — live upgrade: zero-downtime rolling reconfiguration under load.
//!
//! Every cell runs a sharded stateful pipeline (firewall rules + a
//! per-flow tracker) under sustained traffic, then walks a rolling
//! upgrade through the fleet one worker at a time while the load keeps
//! coming. Three upgrade shapes × three isolation backends:
//!
//! 1. **Operator bugfix** — same chain, same state schema (a tracker
//!    capacity bump). State restores directly; the compatible path must
//!    account **exactly zero** lost packets.
//! 2. **Rule push** — a new firewall rule database. The state schema
//!    changes; a [`StageStateMap`] migrator rebuilds the firewall slot
//!    fresh (new rules) while carrying every tracked flow across.
//! 3. **Chain reshape** — a counter stage spliced into the chain. The
//!    migrator remaps both the firewall and tracker slots into their
//!    new positions.
//!
//! Two chaos cells per backend then kill a worker mid-upgrade — once at
//! the [`UpgradeQuiesce`](FaultSite::UpgradeQuiesce) site, once at
//! [`UpgradeRestore`](FaultSite::UpgradeRestore) — and assert the walk
//! reverses: already-upgraded workers return to the old spec from their
//! latest snapshots and the fleet ends **uniform**, never mixed.
//!
//! Results are also emitted as `BENCH_upgrade.json` in the repo root.
//! All JSON fields are integers derived from the logical supervision
//! clock and the packet/state ledgers — never wall time — so two runs
//! of the same seed are byte-identical. The tier-1 test
//! `stable_records` holds them to the committed file and asserts that
//! the chaos cells roll back with every packet accounted for.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::Table;
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_netfx::operators::{ChaosPoint, Counter};
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{FlowTracker, PipelineSpec, StageStateMap};
use rbs_runtime::{
    BackendKind, RestartPolicy, RuntimeConfig, RuntimeReport, ShardedRuntime, UpgradeOutcome,
    UpgradePolicy,
};

use crate::harness::silence_panics;

/// Packets per dispatched batch.
const BATCH_SIZE: usize = 256;

/// Workers in every cell's runtime.
const WORKERS: usize = 4;

/// Distinct flows in the traffic population.
const FLOWS: usize = 512;

/// The one seed behind every cell.
const SEED: u64 = 0x14_06AD;

/// The worker the chaos cells kill mid-upgrade.
const CHAOS_WORKER: u64 = 2;

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

/// The running pipeline: chaos point → firewall (generation-1 rules) →
/// flow tracker. Schema 1.
fn spec_v1() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FirewallOp::new(rule_db(1), Action::Allow))
        .stage(|| FlowTracker::new(100_000))
        .with_state_schema(1)
}

/// The five upgrade cells run against every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Same schema: tracker capacity bump, direct restore both ways.
    OperatorBugfix,
    /// New rule database (schema 2): firewall slot rebuilt fresh, flows
    /// migrated across.
    RulePush,
    /// Counter stage spliced in (schema 3): firewall *and* tracker
    /// slots remapped into their new positions.
    ChainReshape,
    /// The bugfix upgrade with the target worker killed at its quiesce.
    ChaosQuiesce,
    /// The bugfix upgrade with the first worker killed at its restore.
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

    /// The spec the fleet upgrades to.
    fn target(self) -> PipelineSpec {
        match self {
            Scenario::OperatorBugfix | Scenario::ChaosQuiesce | Scenario::ChaosRestore => {
                PipelineSpec::new()
                    .stage(|| ChaosPoint::new(0))
                    .stage(|| FirewallOp::new(rule_db(1), Action::Allow))
                    .stage(|| FlowTracker::new(200_000))
                    .with_state_schema(1)
            }
            Scenario::RulePush => PipelineSpec::new()
                .stage(|| ChaosPoint::new(0))
                .stage(|| FirewallOp::new(rule_db(2), Action::Allow))
                .stage(|| FlowTracker::new(100_000))
                .with_state_schema(2),
            Scenario::ChainReshape => PipelineSpec::new()
                .stage(|| ChaosPoint::new(0))
                .stage(|| FirewallOp::new(rule_db(1), Action::Allow))
                .stage(Counter::new)
                .stage(|| FlowTracker::new(100_000))
                .with_state_schema(3),
        }
    }

    /// The upgrade policy: schema-changing cells carry a stage-state
    /// migrator; same-schema cells need none.
    fn policy(self) -> UpgradePolicy {
        match self {
            Scenario::OperatorBugfix | Scenario::ChaosQuiesce | Scenario::ChaosRestore => {
                UpgradePolicy::default()
            }
            // Old stages: 0 chaos, 1 firewall, 2 tracker. The firewall
            // slot goes fresh (the push is the point); flows carry.
            Scenario::RulePush => UpgradePolicy::default().with_migrator(Arc::new(
                StageStateMap::new(1, 2, vec![None, None, Some(2)]),
            )),
            // The reshape keeps the firewall state and moves the
            // tracker down one slot past the inserted counter.
            Scenario::ChainReshape => UpgradePolicy::default().with_migrator(Arc::new(
                StageStateMap::new(1, 3, vec![None, Some(1), None, Some(2)]),
            )),
        }
    }

    /// The chaos plan for this cell, if any.
    fn plan(self) -> Option<FaultPlan> {
        match self {
            Scenario::ChaosQuiesce => Some(FaultPlan::new(SEED).inject_window(
                FaultSite::UpgradeQuiesce,
                FaultKind::Panic,
                CHAOS_WORKER,
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
    /// Workers walked (upgraded on commit, swapped back on rollback).
    pub workers_walked: u64,
    /// Supervision ticks worker ingress was paused, fleet total.
    pub pause_ticks: u64,
    /// Packets drained from paused queues after ingress stopped.
    pub drained_packets: u64,
    /// State items carried across a schema change by the migrator.
    pub state_items_migrated: u64,
    /// Packets offered to the dispatcher over the whole run.
    pub offered: u64,
    /// Packets lost — asserted zero on every compatible path.
    pub lost_packets: u64,
    /// Packets shed with accounting (chaos cells only).
    pub shed_packets: u64,
    /// Packets rerouted off paused shards by the degradation machinery.
    pub redistributed_packets: u64,
    /// Goodput in ppm of offered (integer-exact).
    pub goodput_ppm: u64,
    /// Spec generation every worker ended on (uniform by assertion).
    pub spec_generation: u64,
    /// Live state items summed over workers at shutdown.
    pub final_state_items: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

fn goodput_ppm(report: &RuntimeReport) -> u64 {
    if report.offered_packets == 0 {
        return 1_000_000;
    }
    report.packets_out * 1_000_000 / report.offered_packets
}

/// Runs one cell: `rounds` pre-upgrade rounds of lockstep traffic, the
/// rolling walk under continued load, then `rounds` more to show the
/// new fleet keeps processing.
pub fn measure_cell(backend: BackendKind, scenario: Scenario, rounds: usize) -> UpgradeCell {
    silence_panics();
    let mut rt = ShardedRuntime::new(
        spec_v1(),
        RuntimeConfig {
            workers: WORKERS,
            queue_capacity: 64,
            restart: RestartPolicy::default(),
            supervisor_seed: SEED,
            snapshot_interval_ticks: 2,
            snapshot_full_every: 1,
            backend,
            faults: scenario.plan().map(Arc::new),
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction");
    let mut gen = PacketGen::new(TrafficConfig {
        flows: FLOWS,
        payload_len: 64,
        seed: SEED,
        ..Default::default()
    });
    let mut step = |rt: &mut ShardedRuntime| {
        rt.dispatch(gen.next_batch(BATCH_SIZE)).expect("dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "every round drains");
    };
    for _ in 0..rounds {
        step(&mut rt);
    }
    rt.upgrade_pipeline(scenario.target(), scenario.policy())
        .expect("upgrade accepted");
    let mut guard = 0;
    while rt.upgrade_in_progress() {
        step(&mut rt);
        guard += 1;
        assert!(guard < 64, "{} walk failed to terminate", scenario.name());
    }
    for _ in 0..rounds {
        step(&mut rt);
    }

    let report = rt.shutdown();
    let outcome = *report
        .upgrades
        .last()
        .expect("the walk recorded an outcome");
    let (outcome_name, workers_walked) = match outcome {
        UpgradeOutcome::Committed { workers, .. } => ("committed", workers as u64),
        UpgradeOutcome::RolledBack {
            workers_rolled_back,
            ..
        } => ("rolled-back", workers_rolled_back as u64),
    };
    let generations: Vec<u64> = report.workers.iter().map(|w| w.spec_generation).collect();
    assert!(
        generations.iter().all(|&g| g == generations[0]),
        "{}: fleet ended mixed: {generations:?}",
        scenario.name()
    );
    let cell = UpgradeCell {
        backend,
        scenario,
        outcome: outcome_name,
        workers_walked,
        pause_ticks: report.upgrade_pause_ticks,
        drained_packets: report.upgrade_drained_packets,
        state_items_migrated: report.state_items_migrated,
        offered: report.offered_packets,
        lost_packets: report.lost_packets,
        shed_packets: report.shed_packets,
        redistributed_packets: report.redistributed_packets,
        goodput_ppm: goodput_ppm(&report),
        spec_generation: generations[0],
        final_state_items: report.workers.iter().map(|w| w.state_items).sum(),
        unaccounted: report.unaccounted_packets(),
    };
    assert_eq!(
        cell.unaccounted,
        0,
        "{}: packets vanished on {backend}",
        scenario.name()
    );
    if scenario.expects_commit() {
        assert_eq!(cell.outcome, "committed");
        assert_eq!(
            cell.lost_packets,
            0,
            "{}: a compatible upgrade loses nothing",
            scenario.name()
        );
        assert_eq!(cell.shed_packets, 0, "peers absorbed every paused shard");
        assert_eq!(cell.spec_generation, 1);
        assert_eq!(cell.workers_walked, WORKERS as u64);
    } else {
        assert_eq!(cell.outcome, "rolled-back");
        assert_eq!(
            cell.spec_generation,
            0,
            "{}: rollback returns the whole fleet to the old spec",
            scenario.name()
        );
    }
    if matches!(scenario, Scenario::RulePush | Scenario::ChainReshape) {
        assert!(
            cell.state_items_migrated > 0,
            "{}: the migrator carried the flow tables",
            scenario.name()
        );
    }
    cell
}

/// The full backend × scenario matrix.
#[derive(Debug, Clone)]
pub struct UpgradeResults {
    /// Pre- and post-upgrade rounds per cell.
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
    out.push_str(&format!("  \"workers\": {WORKERS},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"flows\": {FLOWS},\n"));
    out.push_str(&format!("  \"rounds\": {},\n", r.rounds));
    out.push_str("  \"cells\": [\n");
    for (i, c) in r.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"scenario\": \"{}\", \"outcome\": \"{}\", \"workers_walked\": {}, \"pause_ticks\": {}, \"drained_packets\": {}, \"state_items_migrated\": {}, \"offered\": {}, \"lost_packets\": {}, \"shed_packets\": {}, \"redistributed_packets\": {}, \"goodput_ppm\": {}, \"spec_generation\": {}, \"final_state_items\": {}, \"unaccounted\": {}}}{}\n",
            c.backend,
            c.scenario.name(),
            c.outcome,
            c.workers_walked,
            c.pause_ticks,
            c.drained_packets,
            c.state_items_migrated,
            c.offered,
            c.lost_packets,
            c.shed_packets,
            c.redistributed_packets,
            c.goodput_ppm,
            c.spec_generation,
            c.final_state_items,
            c.unaccounted,
            if i + 1 < r.cells.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Rounds per cell behind the committed `BENCH_upgrade.json`.
pub const ROUNDS: usize = 40;
/// Rounds per cell under `--quick`.
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
        "walked",
        "pause ticks",
        "drained",
        "migrated",
        "lost",
        "shed",
        "goodput %",
        "gen",
    ]);
    for c in &results.cells {
        t.row_owned(vec![
            c.backend.to_string(),
            c.scenario.name().to_owned(),
            c.outcome.to_owned(),
            c.workers_walked.to_string(),
            c.pause_ticks.to_string(),
            c.drained_packets.to_string(),
            c.state_items_migrated.to_string(),
            c.lost_packets.to_string(),
            c.shed_packets.to_string(),
            format!("{:.2}", c.goodput_ppm as f64 / 10_000.0),
            c.spec_generation.to_string(),
        ]);
    }

    let mut out = String::from(
        "E14 — live upgrade: rolling reconfiguration under load, by backend and upgrade shape\n",
    );
    out.push_str(&t.render());
    out.push_str(
        "\nCompatible cells commit with exactly 0 lost packets; chaos cells roll the fleet\n\
         back to a uniform generation-0 spec with every packet accounted.\n",
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
        assert_eq!(c.lost_packets, 0);
        assert_eq!(c.shed_packets, 0);
        assert!(c.drained_packets > 0, "pause-tick batches drained");
        assert!(c.redistributed_packets > 0, "paused shards redistributed");
        assert_eq!(c.state_items_migrated, 0, "same schema: direct restore");
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
        assert_eq!(q.spec_generation, 0);
        assert_eq!(q.unaccounted, 0);
        let r = measure_cell(BackendKind::TypedSfi, Scenario::ChaosRestore, 8);
        assert_eq!(r.outcome, "rolled-back");
        assert_eq!(r.spec_generation, 0);
        assert_eq!(r.lost_packets, 0, "the drain finished before the kill");
    }

    #[test]
    fn cells_are_deterministic() {
        let a = measure_cell(BackendKind::MpkSim, Scenario::ChainReshape, 8);
        let b = measure_cell(BackendKind::MpkSim, Scenario::ChainReshape, 8);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.goodput_ppm, b.goodput_ppm);
        assert_eq!(a.pause_ticks, b.pause_ticks);
        assert_eq!(a.drained_packets, b.drained_packets);
        assert_eq!(a.state_items_migrated, b.state_items_migrated);
        assert_eq!(a.final_state_items, b.final_state_items);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = UpgradeResults {
            rounds: 1,
            cells: vec![UpgradeCell {
                backend: BackendKind::TypedSfi,
                scenario: Scenario::OperatorBugfix,
                outcome: "committed",
                workers_walked: 4,
                pause_ticks: 8,
                drained_packets: 120,
                state_items_migrated: 0,
                offered: 4096,
                lost_packets: 0,
                shed_packets: 0,
                redistributed_packets: 96,
                goodput_ppm: 1_000_000,
                spec_generation: 1,
                final_state_items: 512,
                unaccounted: 0,
            }],
        };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"e14_upgrade\""));
        assert!(j.contains("\"scenario\": \"operator-bugfix\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
