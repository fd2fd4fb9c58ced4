//! The committed `BENCH_*.json` records, replayed.
//!
//! Every line of these files except the `"kind": "timing"` ones is a
//! deterministic function of the code, so rendering each experiment at
//! its committed size must reproduce the committed file byte for byte
//! once those lines are dropped. A change meant to move a record
//! regenerates the file with `experiments eN`; any other change that
//! moves one fails here, naming the file and its first differing line.
//! Each test then asserts the experiment's headline claims on the typed
//! results it rendered.
//!
//! Each test renders with the module's `to_json(&measure(..))` and never
//! calls `run`, so it writes no file. e12 replays in `hotpath_records`,
//! its own test binary because it counts allocations process-wide. e9
//! stays out: its record carries the host's core count.

mod common;

use common::{assert_replays, require};
use rbs_bench::{e10_chaos, e11_recovery, e13_isolation, e14_upgrade, e15_tenants};

#[test]
fn e10_chaos_replays_its_committed_records() {
    let results = e10_chaos::measure(e10_chaos::ROUNDS);
    assert_replays("BENCH_chaos.json", &e10_chaos::to_json(&results));
}

#[test]
fn e11_recovery_replays_its_committed_records() {
    let results = e11_recovery::measure(e11_recovery::ROUNDS);
    assert_replays("BENCH_recovery.json", &e11_recovery::to_json(&results));
}

#[test]
fn e13_isolation_replays_its_committed_records() {
    let results = e13_isolation::measure(e13_isolation::ROUNDS, e13_isolation::BATCH_SIZES);
    let json = e13_isolation::to_json(&results, e13_isolation::BATCH_SIZES);
    assert_replays("BENCH_isolation.json", &json);

    require(results.spectrum_ordered(e13_isolation::BATCH_SIZES), || {
        "e13: modeled cycles break typed-sfi <= mpk-sim <= copy-boundary".into()
    });
}

#[test]
fn e14_upgrade_replays_its_committed_records() {
    let results = e14_upgrade::measure(e14_upgrade::ROUNDS);
    assert_replays("BENCH_upgrade.json", &e14_upgrade::to_json(&results));

    // On every backend: a compatible cell commits with nothing lost or
    // shed, every ledger balanced and every tenant on generation 1, and
    // a schema-changing one carries state; a chaos cell rolls back and
    // leaves every tenant on generation 0.
    require(results.cells.len() == 15, || {
        format!("e14: {} cells", results.cells.len())
    });
    for cell in &results.cells {
        let scenario = cell.scenario;
        let uniform_on = |generation| cell.generations.iter().all(|&g| g == generation);
        let held = if scenario.expects_commit() {
            cell.outcome == "committed"
                && (cell.lost_packets, cell.shed_packets, cell.unaccounted) == (0, 0, 0)
                && uniform_on(1)
                && (!scenario.migrates() || cell.state_items_migrated > 0)
        } else {
            cell.outcome == "rolled-back" && cell.unaccounted == 0 && uniform_on(0)
        };
        require(held, || {
            format!(
                "e14 {:?}/{scenario:?} broke its claim: {cell:?}",
                cell.backend
            )
        });
    }

    // What a migration carries is what lands: rule-push drops the
    // firewall's slot, which chain-reshape moves, so it carries less.
    for backend in results.cells.iter().map(|c| c.backend) {
        let migrated = |scenario| {
            (results.cells.iter())
                .find(|c| c.backend == backend && c.scenario == scenario)
                .map_or(0, |c| c.state_items_migrated)
        };
        let (push, reshape) = (
            migrated(e14_upgrade::Scenario::RulePush),
            migrated(e14_upgrade::Scenario::ChainReshape),
        );
        require(push < reshape, || {
            format!("e14 {backend:?}: rule-push migrated {push} items, chain-reshape {reshape}")
        });
    }
}

#[test]
fn e15_tenants_replays_its_committed_records() {
    let results = e15_tenants::measure(e15_tenants::TICKS);
    assert_replays("BENCH_tenant.json", &e15_tenants::to_json(&results));

    // Every cell contains its aggressor, and every ledger balances; the
    // six 64-tenant cells also hold the goodput floor with no priority
    // inversion on any of their four lanes.
    let cells = &results.cells;
    let scale_cells = cells.iter().filter(|c| c.tenants == 64).count();
    require(cells.len() == 12 && scale_cells == 6, || {
        format!("e15: {} cells, {scale_cells} at 64 tenants", cells.len())
    });
    for cell in cells {
        let leaks = (cell.rows.iter()).any(|r| r.outcome.ledger.unaccounted() != 0);
        let inverted = cell.occupancy.iter().any(|l| l.priority_inversions != 0);
        let floor = cell.worst_victim_goodput_ppm() >= 990_000;
        let scale_ok = cell.tenants != 64 || (floor && !inverted);
        require(cell.victims_contained && !leaks && scale_ok, || {
            format!("e15 {}: SLA or ledger breached\n{cell:#?}", cell.name())
        });
    }
}
