//! Live-upgrade tests. The tenant engine swaps every tenant's chain
//! between two ticks: a compatible upgrade under load loses exactly zero
//! packets and carries operator state across the swap; a
//! schema-changing upgrade migrates state through the
//! [`StateMigrator`](rbs_checkpoint::StateMigrator) it is handed instead
//! of starting cold; an incompatible target is refused up front, typed,
//! with no tenant touched; chaos kills at the quiesce and restore sites
//! discard every staged target and leave a uniform old-spec fleet; and a
//! tenant whose breaker is open, or that was removed, comes back on the
//! new spec.

use std::net::Ipv4Addr;
use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::operators::{ChaosPoint, Counter, DstPortFilter};
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec, StageStateMap};
use rbs_runtime::{
    BreakerPhase, TenantChainFactory, TenantEventKind, TenantLaneConfig, TenantLaneRuntime,
    TenantReport, TenantSpec, UpgradeError, UpgradeOutcome,
};

/// Flows per round; every round's flows are distinct, so tracked-flow
/// counts are exactly predictable.
const FLOWS_PER_ROUND: u16 = 24;

fn udp(src_port: u16, dst_port: u16) -> Packet {
    let mut p = Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        src_port,
        dst_port,
        16,
    );
    p.set_cached_flow_hash(packet_flow_hash(&p));
    p
}

fn wave(round: usize) -> PacketBatch {
    (0..FLOWS_PER_ROUND)
        .map(|i| udp(2000 + (round as u16) * FLOWS_PER_ROUND + i, 80))
        .collect()
}

/// One firewall rule, so the firewall stage carries state of its own.
fn rules() -> FwTrie {
    let mut t = FwTrie::new();
    t.insert(Rule::new(
        0,
        "deny 14.0.0.0/24",
        Ipv4Addr::new(14, 0, 0, 0),
        24,
        Action::Deny,
    ));
    t
}

/// The running chain: a chaos point, a firewall and a flow tracker
/// whose table is the state that must survive the upgrade.
fn spec_v1() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FirewallOp::new(rules(), Action::Allow))
        .stage(|| FlowTracker::new(100_000))
        .with_state_schema(1)
}

/// The operator-bugfix upgrade: same shape, same schema (a capacity
/// bump), so state restores directly.
fn spec_v1_fixed() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FirewallOp::new(rules(), Action::Allow))
        .stage(|| FlowTracker::new(200_000))
        .with_state_schema(1)
}

/// The chain-reshape upgrade: a counter stage inserted ahead of the
/// tracker, new schema — restoring needs a migrator.
fn spec_v2_reshaped() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FirewallOp::new(rules(), Action::Allow))
        .stage(Counter::new)
        .stage(|| FlowTracker::new(100_000))
        .with_state_schema(2)
}

/// A port-53 filter spliced in where the reshape puts its counter: it
/// drops every packet these tests send (port 80), so a tenant's ledger
/// shows which chain it runs.
fn spec_v2_dns_only() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FirewallOp::new(rules(), Action::Allow))
        .stage(|| DstPortFilter::new(vec![53]))
        .stage(|| FlowTracker::new(100_000))
        .with_state_schema(2)
}

/// Old stage 1 (the firewall) stays at 1 and old stage 2 (the tracker)
/// becomes new stage 3; the inserted counter and the chaos point start
/// fresh.
fn reshape_migrator() -> Arc<StageStateMap> {
    Arc::new(StageStateMap::new(1, 2, vec![None, Some(1), None, Some(2)]))
}

fn every_tenant(spec: fn() -> PipelineSpec) -> TenantChainFactory {
    Arc::new(move |_, _| spec())
}

fn runtime(tenants: usize, lanes: usize, plan: Option<FaultPlan>) -> TenantLaneRuntime {
    TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..tenants)
            .map(|i| TenantSpec::new(format!("t{i}")))
            .collect(),
        lanes,
        snapshot_every_ticks: 2,
        snapshot_full_every: 1,
        chain: Some(every_tenant(spec_v1)),
        faults: plan.map(Arc::new),
        ..TenantLaneConfig::default()
    })
    .unwrap()
}

/// Offers a fresh wave of flows and runs the tick, `rounds` times.
fn drive(rt: &mut TenantLaneRuntime, round: &mut usize, rounds: usize) {
    for _ in 0..rounds {
        rt.offer(wave(*round));
        rt.step();
        *round += 1;
    }
}

fn assert_conserved(report: &TenantReport) {
    assert_eq!(report.unaccounted_packets(), 0, "{report:#?}");
    for t in &report.tenants {
        let l = t.ledger;
        assert_eq!(l.processed, l.out + l.drops, "{}", t.name);
    }
}

fn generations(report: &TenantReport) -> Vec<u64> {
    report.tenants.iter().map(|t| t.generation).collect()
}

/// Every flow offered is tracked by some tenant's chain.
fn tracked_flows(report: &TenantReport, rounds: usize) -> bool {
    let items: u64 = report.tenants.iter().map(|t| t.final_state_items).sum();
    let rules = report.tenants.len() as u64;
    items == rules + u64::from(FLOWS_PER_ROUND) * rounds as u64
}

/// A compatible upgrade under sustained load commits with exactly zero
/// lost and zero shed packets, every tenant on the new generation and
/// every flow table carried across the swap, at one lane and with a
/// helper lane parked on the tick barrier.
#[test]
fn compatible_rolling_upgrade_is_zero_loss_under_load() {
    for lanes in [1, 2] {
        let mut rt = runtime(4, lanes, None);
        let mut round = 0;
        drive(&mut rt, &mut round, 6);
        // A wave queued across the upgrade runs on the new chains.
        rt.offer(wave(round));
        let outcome = rt.upgrade(every_tenant(spec_v1_fixed), None).unwrap();
        assert_eq!(
            outcome,
            UpgradeOutcome::Committed {
                tenants: 4,
                state_items_migrated: 0
            },
            "{lanes} lanes"
        );
        rt.step();
        round += 1;
        drive(&mut rt, &mut round, 4);

        let report = rt.finish();
        assert_conserved(&report);
        for t in &report.tenants {
            assert_eq!((t.ledger.lost, t.ledger.shed()), (0, 0), "{}", t.name);
            assert_eq!((t.faults, t.respawns), (0, 0), "{}", t.name);
        }
        assert_eq!(generations(&report), [1; 4], "{lanes} lanes");
        assert!(tracked_flows(&report, round), "{lanes} lanes: state lost");
    }
}

/// A schema-changing upgrade with a capable migrator carries the flow
/// tables and the firewall rules into the reshaped chain instead of
/// starting cold.
#[test]
fn schema_migration_carries_state_across_reshape() {
    let mut rt = runtime(2, 2, None);
    let mut round = 0;
    drive(&mut rt, &mut round, 4);
    let outcome = rt
        .upgrade(every_tenant(spec_v2_reshaped), Some(reshape_migrator()))
        .unwrap();
    let UpgradeOutcome::Committed {
        tenants: 2,
        state_items_migrated,
    } = outcome
    else {
        panic!("expected a commit, got {outcome:?}");
    };
    // Each tenant's seal held its rule and its flows.
    assert_eq!(
        state_items_migrated,
        2 + u64::from(FLOWS_PER_ROUND) * round as u64
    );
    drive(&mut rt, &mut round, 2);

    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(generations(&report), [1, 1]);
    assert!(
        tracked_flows(&report, round),
        "the carried tables kept growing"
    );
}

/// An incompatible target — a schema change with no migrator, or with
/// one that cannot carry the pair — is refused before any tenant is
/// touched: typed, with the journal unchanged.
#[test]
fn incompatible_schema_is_rejected_up_front() {
    let mut rt = runtime(2, 1, None);
    let mut round = 0;
    drive(&mut rt, &mut round, 2);

    let err = rt
        .upgrade(every_tenant(spec_v2_reshaped), None)
        .unwrap_err();
    assert_eq!(err, UpgradeError::IncompatibleSchema { from: 1, to: 2 });
    let wrong_way = Arc::new(StageStateMap::new(2, 1, vec![None, Some(2)]));
    let err = rt
        .upgrade(every_tenant(spec_v2_reshaped), Some(wrong_way))
        .unwrap_err();
    assert_eq!(err, UpgradeError::IncompatibleSchema { from: 1, to: 2 });
    drive(&mut rt, &mut round, 2);

    let report = rt.finish();
    assert_conserved(&report);
    assert!(report.events.is_empty(), "{:?}", report.events);
    assert_eq!(generations(&report), [0, 0]);
    assert!(tracked_flows(&report, round));
}

/// A tenant killed at the quiesce site — inside its live domain, while
/// its state is sealed — fails the upgrade: the target already staged
/// for tenant 0 is discarded, the kill is one fault on tenant 1's
/// breaker, recovered warm on the old chain, and the fleet stays uniform
/// on generation 0 with exact ledgers.
#[test]
fn chaos_kill_at_quiesce_rolls_back_to_uniform_fleet() {
    std::panic::set_hook(Box::new(|_| {}));
    let plan =
        FaultPlan::new(21).inject_window(FaultSite::UpgradeQuiesce, FaultKind::Panic, 1, 0, 1);
    let mut rt = runtime(3, 2, Some(plan));
    let mut round = 0;
    drive(&mut rt, &mut round, 4);
    let outcome = rt.upgrade(every_tenant(spec_v1_fixed), None).unwrap();
    assert_eq!(
        outcome,
        UpgradeOutcome::RolledBack {
            failed_tenant: 1,
            discarded: 1
        }
    );
    drive(&mut rt, &mut round, 2);

    let report = rt.finish();
    let _ = std::panic::take_hook();
    assert_conserved(&report);
    assert_eq!(generations(&report), [0, 0, 0], "never mixed");
    let faults: Vec<u64> = report.tenants.iter().map(|t| t.faults).collect();
    assert_eq!(faults, [0, 1, 0]);
    assert!(report.tenants.iter().all(|t| t.ledger.lost == 0));
    assert!(report
        .events
        .iter()
        .any(|e| e.tenant == 1 && matches!(e.kind, TenantEventKind::Respawned { warm: true, .. })));
    // The fleet kept running after the rollback.
    assert!(report
        .tenants
        .iter()
        .all(|t| t.final_phase == BreakerPhase::Running));
}

/// A kill at the restore site dies in the fresh domain the first target
/// builds in: nothing was installed, no live chain is touched, and every
/// tenant keeps its state on the old chain.
#[test]
fn chaos_kill_at_restore_rolls_back_warm() {
    std::panic::set_hook(Box::new(|_| {}));
    let plan =
        || FaultPlan::new(22).inject_window(FaultSite::UpgradeRestore, FaultKind::Panic, 0, 0, 1);
    let mut rt = runtime(2, 2, Some(plan()));
    let mut round = 0;
    drive(&mut rt, &mut round, 4);
    let outcome = rt.upgrade(every_tenant(spec_v1_fixed), None).unwrap();
    assert_eq!(
        outcome,
        UpgradeOutcome::RolledBack {
            failed_tenant: 0,
            discarded: 0
        }
    );
    drive(&mut rt, &mut round, 2);

    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(generations(&report), [0, 0], "never mixed");
    assert!(report.events.is_empty(), "no live domain died");
    assert!(tracked_flows(&report, round), "no state was lost");

    // A retry is the sites' next occurrence: it commits.
    let mut rt = runtime(2, 1, Some(plan()));
    let outcome = rt.upgrade(every_tenant(spec_v1_fixed), None).unwrap();
    assert_eq!(outcome.name(), "rolled-back");
    let outcome = rt.upgrade(every_tenant(spec_v1_fixed), None).unwrap();
    assert_eq!(outcome.name(), "committed");
    let _ = std::panic::take_hook();
}

/// A tenant whose breaker is open when the upgrade runs migrates its
/// latest snapshot and probes back warm on the new chain; a tenant
/// removed before the upgrade comes back on it when re-added.
#[test]
fn open_breaker_and_removed_tenants_come_back_on_the_new_spec() {
    std::panic::set_hook(Box::new(|_| {}));
    // Tenant 1 seals state over its first four batches, then panics on
    // the next six.
    let plan = FaultPlan::new(23).inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 4, 10);
    let mut rt = runtime(3, 2, Some(plan));
    let mut round = 0;
    while rt.phase(1) != BreakerPhase::Open {
        drive(&mut rt, &mut round, 1);
    }
    rt.remove_tenant(2).unwrap();
    let drops_before: Vec<u64> = (0..3).map(|idx| rt.ledger(idx).drops).collect();
    assert_eq!(drops_before, [0, 0, 0], "the old chain drops nothing");
    let outcome = rt
        .upgrade(every_tenant(spec_v2_dns_only), Some(reshape_migrator()))
        .unwrap();
    assert!(
        matches!(outcome, UpgradeOutcome::Committed { tenants: 2, .. }),
        "{outcome:?}"
    );
    rt.add_tenant(2).unwrap();
    while rt.phase(1) != BreakerPhase::Running {
        drive(&mut rt, &mut round, 1);
        assert!(round < 200, "tenant 1 never closed");
    }
    drive(&mut rt, &mut round, 2);

    let report = rt.finish();
    let _ = std::panic::take_hook();
    assert_conserved(&report);
    assert_eq!(generations(&report), [1, 1, 1]);
    for t in &report.tenants {
        assert!(t.ledger.drops > 0, "{} never ran the new chain", t.name);
    }
    let probe = report
        .events
        .iter()
        .rposition(|e| e.tenant == 1 && e.kind == TenantEventKind::HalfOpened)
        .expect("tenant 1 half-opened");
    assert!(
        matches!(
            report.events[probe + 1].kind,
            TenantEventKind::Respawned {
                warm: true,
                items: 2..
            }
        ),
        "the probe restored the migrated snapshot: {:?}",
        report.events[probe + 1]
    );
}
