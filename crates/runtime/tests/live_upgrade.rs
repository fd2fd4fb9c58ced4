//! Live-upgrade tests: a compatible rolling upgrade under load loses
//! exactly zero packets and carries operator state across the swap; a
//! schema-changing upgrade migrates state through the policy's
//! [`StateMigrator`](rbs_checkpoint::StateMigrator) instead of falling
//! back cold; incompatible upgrades are rejected up front, typed, with
//! no worker touched; chaos kills at the quiesce and restore sites roll
//! the fleet back to a consistent (never mixed) spec; the dispatcher
//! never wedges on a quiescing shard; and a cadence snapshot never
//! collides with the quiesce's final snapshot on the same tick.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::operators::{ChaosPoint, Counter};
use rbs_netfx::pool::PacketPool;
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec, StageStateMap};
use rbs_runtime::{
    BreakerState, RestartPolicy, RuntimeConfig, RuntimeError, RuntimeReport, ShardedRuntime,
    SupervisorEventKind, UpgradeError, UpgradeOutcome, UpgradePolicy,
};

/// Flows per round; every round's flows are distinct, so tracked-flow
/// counts are exactly predictable.
const FLOWS_PER_ROUND: u16 = 24;

fn udp(src_port: u16, dst_port: u16) -> Packet {
    Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        src_port,
        dst_port,
        16,
    )
}

fn wave(round: usize) -> PacketBatch {
    (0..FLOWS_PER_ROUND)
        .map(|i| udp(2000 + (round as u16) * FLOWS_PER_ROUND + i, 80))
        .collect()
}

/// The running pipeline: a chaos point in front of a flow tracker whose
/// table is the state that must survive the upgrade.
fn spec_v1() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FlowTracker::new(100_000))
        .with_state_schema(1)
}

/// The operator-bugfix upgrade: same shape, same schema (a capacity
/// bump), so state restores directly in both directions.
fn spec_v1_fixed() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FlowTracker::new(200_000))
        .with_state_schema(1)
}

/// The chain-reshape upgrade: a counter stage inserted ahead of the
/// tracker, new schema — restoring needs a migrator.
fn spec_v2_reshaped() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(Counter::new)
        .stage(|| FlowTracker::new(100_000))
        .with_state_schema(2)
}

fn config(workers: usize, plan: Option<FaultPlan>) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        queue_capacity: 8,
        snapshot_interval_ticks: 2,
        snapshot_full_every: 1,
        restart: RestartPolicy::default(),
        faults: plan.map(Arc::new),
        ..RuntimeConfig::default()
    }
}

fn assert_conserved(report: &RuntimeReport) {
    assert_eq!(
        report.unaccounted_packets(),
        0,
        "offered == packets_in + lost + shed must hold: {report:#?}"
    );
    assert_eq!(report.packets_in, report.packets_out + report.drops);
}

/// Drives dispatch+drain rounds until the upgrade walk finishes,
/// feeding a fresh wave of flows every tick (sustained load).
fn walk_upgrade(rt: &mut ShardedRuntime, mut round: usize) -> usize {
    let mut guard = 0;
    while rt.upgrade_in_progress() {
        rt.dispatch(wave(round)).expect("dispatch during upgrade");
        assert!(rt.drain(Duration::from_secs(30)), "drained during upgrade");
        round += 1;
        guard += 1;
        assert!(guard < 64, "upgrade walk failed to terminate");
    }
    round
}

/// The tentpole acceptance: a compatible rolling upgrade under
/// sustained load commits with exactly zero lost packets, zero shed
/// packets, every worker on the new spec generation, and every worker's
/// flow table carried warm across the swap.
#[test]
fn compatible_rolling_upgrade_is_zero_loss_under_load() {
    let mut rt = ShardedRuntime::new(spec_v1(), config(4, None)).unwrap();
    let mut round = 0;
    for _ in 0..6 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }
    rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default())
        .expect("same-schema upgrade accepted");
    assert!(rt.upgrade_in_progress());
    round = walk_upgrade(&mut rt, round);
    // Keep the load up after the commit too.
    for _ in 0..4 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }

    assert_eq!(rt.spec_generation(), 1, "fleet committed to generation 1");
    match rt.last_upgrade() {
        Some(UpgradeOutcome::Committed {
            workers,
            drained_packets,
            pause_ticks,
            ..
        }) => {
            assert_eq!(*workers, 4);
            assert!(
                *drained_packets > 0,
                "each worker drains its pause-tick batch"
            );
            assert!(*pause_ticks >= 4, "every worker paused at least one tick");
        }
        other => panic!("expected a committed upgrade, got {other:?}"),
    }

    let upgraded: Vec<_> = rt
        .events()
        .iter()
        .filter(|e| matches!(e.kind, SupervisorEventKind::WorkerUpgraded { .. }))
        .map(|e| e.worker)
        .collect();
    assert_eq!(upgraded, vec![0, 1, 2, 3], "one worker at a time, in order");
    let warm = rt
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            SupervisorEventKind::WarmRestore {
                items_restored,
                items_lost,
                ..
            } => Some((items_restored, items_lost)),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(warm.len(), 4, "every swap restored from a snapshot");
    for (restored, lost) in warm {
        assert!(restored > 0, "state carried across the swap");
        assert_eq!(lost, 0, "the quiesce snapshot captured the drained state");
    }

    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.lost_packets, 0, "compatible upgrade loses nothing");
    assert_eq!(report.shed_packets, 0, "peers absorbed every paused shard");
    assert!(
        report.redistributed_packets > 0,
        "paused shards redistributed"
    );
    assert_eq!(report.upgrades_committed, 1);
    assert_eq!(report.upgrades_rolled_back, 0);
    assert!(report.upgrade_drained_packets > 0);
    for w in &report.workers {
        assert_eq!(w.spec_generation, 1, "never-mixed: worker {}", w.index);
    }
}

/// Satellite: a schema-changing upgrade with a capable migrator carries
/// the flow table into the reshaped chain instead of starting cold.
#[test]
fn schema_migration_carries_state_across_reshape() {
    let mut rt = ShardedRuntime::new(spec_v1(), config(2, None)).unwrap();
    let mut round = 0;
    for _ in 0..4 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }
    // Old stage 1 (the tracker) becomes new stage 2; the inserted
    // counter (new stage 1) and the chaos point start fresh.
    let migrator = Arc::new(StageStateMap::new(1, 2, vec![None, None, Some(1)]));
    rt.upgrade_pipeline(
        spec_v2_reshaped(),
        UpgradePolicy::default().with_migrator(migrator),
    )
    .expect("migrated upgrade accepted");
    round = walk_upgrade(&mut rt, round);
    for _ in 0..2 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }

    let migrated: Vec<_> = rt
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            SupervisorEventKind::StateMigrated { from, to, items } => Some((from, to, items)),
            _ => None,
        })
        .collect();
    assert_eq!(migrated.len(), 2, "each worker's snapshot was migrated");
    for (from, to, items) in migrated {
        assert_eq!((from, to), (1, 2));
        assert!(items > 0, "the flow table crossed the schema change");
    }

    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.lost_packets, 0);
    assert_eq!(report.upgrades_committed, 1);
    assert!(report.state_items_migrated > 0);
    assert_eq!(report.cold_restores, 0, "migration, not a cold fallback");
    // The carried flow tables kept growing under the new spec: every
    // flow ever offered is tracked somewhere.
    let tracked: u64 = report.workers.iter().map(|w| w.state_items).sum();
    assert_eq!(tracked, u64::from(FLOWS_PER_ROUND) * round as u64);
}

/// Satellite: an incompatible upgrade (schema change, no migrator) is
/// rejected before any worker is touched — typed, not a panic, not a
/// half-started walk.
#[test]
fn incompatible_schema_is_rejected_up_front() {
    let mut rt = ShardedRuntime::new(spec_v1(), config(2, None)).unwrap();
    rt.dispatch(wave(0)).unwrap();
    assert!(rt.drain(Duration::from_secs(30)));
    let events_before = rt.events().len();

    let err = rt
        .upgrade_pipeline(spec_v2_reshaped(), UpgradePolicy::default())
        .unwrap_err();
    assert_eq!(err, UpgradeError::IncompatibleSchema { from: 1, to: 2 });
    assert!(!rt.upgrade_in_progress());
    assert_eq!(
        rt.events().len(),
        events_before,
        "rejection journals nothing — no worker was touched"
    );

    // A wrong-direction migrator is just as incompatible.
    let wrong_way = Arc::new(StageStateMap::new(2, 1, vec![None, Some(2)]));
    let err = rt
        .upgrade_pipeline(
            spec_v2_reshaped(),
            UpgradePolicy::default().with_migrator(wrong_way),
        )
        .unwrap_err();
    assert_eq!(err, UpgradeError::IncompatibleSchema { from: 1, to: 2 });

    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.upgrades_committed + report.upgrades_rolled_back, 0);
    for w in &report.workers {
        assert_eq!(w.spec_generation, 0);
    }
}

/// Starting a second upgrade while one is walking is refused, and the
/// targeted send path refuses to touch a quiescing slot instead of
/// healing it out from under the walk.
#[test]
fn concurrent_upgrade_and_targeted_send_are_refused() {
    let mut rt = ShardedRuntime::new(spec_v1(), config(2, None)).unwrap();
    rt.dispatch(wave(0)).unwrap();
    assert!(rt.drain(Duration::from_secs(30)));
    rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default())
        .unwrap();
    assert_eq!(
        rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default()),
        Err(UpgradeError::InProgress)
    );
    // One dispatch begins worker 0's quiesce (pause at end of tick).
    rt.dispatch(wave(1)).unwrap();
    match rt.send_to(0, wave(2)) {
        Err(RuntimeError::WorkerUpgrading { worker: 0 }) => {}
        other => panic!("expected WorkerUpgrading for the quiescing slot, got {other:?}"),
    }
    walk_upgrade(&mut rt, 3);
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.upgrades_committed, 1);
}

/// Satellite (bounded-wait regression): with zero scratch headroom and
/// with the pooled zero-allocation configuration, dispatch into a
/// pipeline mid-upgrade keeps flowing — the paused shard's packets
/// redistribute within the send deadline, the dispatcher never wedges.
#[test]
fn quiesce_path_never_wedges_dispatcher_scratch_zero_and_pooled() {
    // scratch_capacity = 0: shells grow organically, the configuration
    // most sensitive to a send path that blocks.
    let mut rt = ShardedRuntime::new(
        spec_v1(),
        RuntimeConfig {
            send_deadline: Duration::from_millis(200),
            scratch_capacity: 0,
            ..config(2, None)
        },
    )
    .unwrap();
    rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default())
        .unwrap();
    let round = walk_upgrade(&mut rt, 0);
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.lost_packets, 0);
    assert_eq!(report.send_timeouts, 0, "no send ever waited out a pause");
    assert!(round > 0);

    // Pooled configuration: recycling on, batches drawn from the pool.
    let mut rt = ShardedRuntime::new(
        spec_v1(),
        RuntimeConfig {
            send_deadline: Duration::from_millis(200),
            recycle_capacity: 32,
            scratch_capacity: FLOWS_PER_ROUND as usize,
            ..config(2, None)
        },
    )
    .unwrap();
    let mut pool = PacketPool::new(256, 64);
    rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default())
        .unwrap();
    let mut round = 0;
    let mut guard = 0;
    while rt.upgrade_in_progress() {
        rt.reclaim_buffers(&mut pool);
        rt.dispatch(wave(round)).expect("pooled dispatch");
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
        guard += 1;
        assert!(guard < 64, "pooled upgrade walk failed to terminate");
    }
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.lost_packets, 0);
    assert_eq!(report.send_timeouts, 0);
    assert_eq!(report.upgrades_committed, 1);
}

/// Satellite (tick-clock collision): with a snapshot every tick, the
/// cadence snapshot is skipped on the quiesce tick — exactly one
/// snapshot (the authoritative final one, containing the drained
/// pause-tick batch) lands on that tick, and the double-buffered store
/// is never torn.
#[test]
fn cadence_snapshot_never_collides_with_quiesce_snapshot() {
    let mut rt = ShardedRuntime::new(
        spec_v1(),
        RuntimeConfig {
            snapshot_interval_ticks: 1,
            ..config(1, None)
        },
    )
    .unwrap();
    // Ticks 1..=3: one cadence snapshot each (3 total).
    for round in 0..3 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
    }
    rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default())
        .unwrap();
    // Tick 4 is the pause tick: its wave routes to worker 0 *before*
    // the pause lands, so those flows are in the quiesce snapshot.
    rt.dispatch(wave(3)).unwrap();
    assert!(rt.drain(Duration::from_secs(30)));
    // Ticks 5.. walk the swap and the commit; no new flows.
    let mut guard = 0;
    while rt.upgrade_in_progress() {
        rt.dispatch(PacketBatch::new()).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        guard += 1;
        assert!(guard < 16, "single-worker walk failed to terminate");
    }

    // The swap restored the final quiesce snapshot: all 4 waves (96
    // flows), zero items lost — proof the drained batch made it into
    // exactly one, untorn, authoritative snapshot.
    let warm: Vec<_> = rt
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            SupervisorEventKind::WarmRestore {
                epoch,
                age_ticks,
                items_restored,
                items_lost,
            } => Some((epoch, age_ticks, items_restored, items_lost)),
            _ => None,
        })
        .collect();
    assert_eq!(
        warm,
        vec![(4, 1, 4 * u64::from(FLOWS_PER_ROUND), 0)],
        "restored the tick-4 quiesce snapshot (epoch 4), one tick old, \
         all 96 flows, nothing lost"
    );

    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.lost_packets, 0);
    // Cadence @1,2,3 + quiesce @4 (cadence skipped) + tick 5 skipped
    // (slot still quiescing at supervise time) + cadence @6 + the
    // shutdown snapshot: 6 — a tick-4 collision would make it 7.
    assert_eq!(report.snapshots_taken, 6, "exactly one snapshot per tick");
}

/// Chaos: a worker killed at the quiesce site rolls the whole upgrade
/// back — the already-upgraded worker returns to the old spec from its
/// latest snapshot, the fleet ends uniform on generation 0, and every
/// packet is accounted.
#[test]
fn chaos_kill_at_quiesce_rolls_back_to_uniform_fleet() {
    // Worker 1 dies at its first quiesce (occurrence 0); worker 0 has
    // already upgraded by then.
    let plan =
        FaultPlan::new(21).inject_window(FaultSite::UpgradeQuiesce, FaultKind::Panic, 1, 0, 1);
    let mut rt = ShardedRuntime::new(spec_v1(), config(3, Some(plan))).unwrap();
    let mut round = 0;
    for _ in 0..4 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }
    rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default())
        .unwrap();
    round = walk_upgrade(&mut rt, round);
    for _ in 0..2 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }

    match rt.last_upgrade() {
        Some(UpgradeOutcome::RolledBack {
            failed_worker,
            workers_rolled_back,
            ..
        }) => {
            assert_eq!(*failed_worker, 1);
            assert_eq!(
                *workers_rolled_back, 2,
                "worker 0 (already upgraded) plus the failed worker 1"
            );
        }
        other => panic!("expected a rollback, got {other:?}"),
    }
    assert!(rt
        .events()
        .iter()
        .any(|e| e.worker == 1 && matches!(e.kind, SupervisorEventKind::UpgradeAborted)));

    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(rt_generation(&report), vec![0, 0, 0], "never mixed");
    assert_eq!(report.upgrades_rolled_back, 1);
    assert_eq!(report.upgrades_committed, 0);
    // The fleet kept running after the rollback.
    for w in &report.workers {
        assert_eq!(w.breaker, BreakerState::Running);
    }
}

/// Chaos: a worker killed at the restore site (after a clean drain)
/// rolls back immediately — its own latest snapshot brings the old spec
/// back warm, and the fleet stays uniform.
#[test]
fn chaos_kill_at_restore_rolls_back_warm() {
    let plan =
        FaultPlan::new(22).inject_window(FaultSite::UpgradeRestore, FaultKind::Panic, 0, 0, 1);
    let mut rt = ShardedRuntime::new(spec_v1(), config(2, Some(plan))).unwrap();
    let mut round = 0;
    for _ in 0..4 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }
    rt.upgrade_pipeline(spec_v1_fixed(), UpgradePolicy::default())
        .unwrap();
    round = walk_upgrade(&mut rt, round);
    for _ in 0..2 {
        rt.dispatch(wave(round)).unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        round += 1;
    }

    match rt.last_upgrade() {
        Some(UpgradeOutcome::RolledBack {
            failed_worker,
            workers_rolled_back,
            ..
        }) => {
            assert_eq!(*failed_worker, 0);
            assert_eq!(*workers_rolled_back, 1, "no other worker was ever touched");
        }
        other => panic!("expected a rollback, got {other:?}"),
    }

    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(
        report.lost_packets, 0,
        "the drain completed before the kill"
    );
    assert_eq!(rt_generation(&report), vec![0, 0], "never mixed");
    assert!(
        report.warm_restores > 0,
        "rollback restored the quiesce snapshot, not a cold start"
    );
    assert_eq!(report.upgrades_rolled_back, 1);
}

fn rt_generation(report: &RuntimeReport) -> Vec<u64> {
    report.workers.iter().map(|w| w.spec_generation).collect()
}

// ---------------------------------------------------------------------------
// Lane-mode upgrades: the run-to-completion engine's per-lane protocol
// (close steals → drain stolen-in → seal snapshot → commit) under a
// skewed mix with stealing active, so upgrade requests land on lanes
// that are mid-theft.
// ---------------------------------------------------------------------------

use rbs_runtime::{LaneConfig, LaneEvent, LaneRuntime, LaneUpgradeOutcome};

/// Asserts a lane's journal shows the upgrade protocol in order. The
/// drain-before-seal ordering is the steals-closed semantics: once a
/// lane stops advertising its deque, every batch it already stole must
/// go through the *old* pipeline before the state snapshot is taken —
/// otherwise the snapshot would miss flows the old generation handled.
fn assert_lane_protocol_order(events: &[LaneEvent]) {
    let pos = |p: fn(&LaneEvent) -> bool| events.iter().position(p);
    let closed = pos(|e| matches!(e, LaneEvent::StealsClosed));
    let drained = pos(|e| matches!(e, LaneEvent::StolenDrained { .. }));
    let sealed = pos(|e| matches!(e, LaneEvent::SnapshotSealed { .. }));
    let committed = pos(|e| matches!(e, LaneEvent::UpgradeCommitted { .. }));
    match (closed, drained, sealed, committed) {
        (Some(c), Some(d), Some(s), Some(u)) => {
            assert!(
                c < d && d < s && s < u,
                "protocol order violated: {events:?}"
            );
        }
        _ => panic!("upgrade protocol events missing: {events:?}"),
    }
}

#[test]
fn lane_upgrade_mid_steal_drains_stolen_batches_before_snapshot() {
    // Zipf skew concentrates the quota on few lanes; aggressive
    // stealing keeps batches crossing lanes while the upgrade walks.
    let cfg = LaneConfig {
        lanes: 4,
        total_batches: 4000,
        batch_size: 32,
        steal_batch: 4,
        traffic: rbs_netfx::pktgen::TrafficConfig {
            flows: 512,
            distribution: rbs_netfx::pktgen::FlowDistribution::Zipf(1.2),
            ..Default::default()
        },
        ..LaneConfig::default()
    };
    let rt = LaneRuntime::start(spec_v1(), cfg);
    let outcomes = rt.upgrade(spec_v1_fixed()).expect("equal-schema upgrade");
    assert_eq!(outcomes.len(), 4);
    let report = rt.join();

    // Conservation survives upgrades interleaved with steals: every
    // packet still handled exactly once, per origin and in aggregate.
    for (origin, ledger) in report.ledgers.iter().enumerate() {
        assert_eq!(ledger.unaccounted(), 0, "origin lane {origin} leaked");
    }
    assert_eq!(report.unaccounted_packets(), 0);
    assert_eq!(report.lost(), 0, "no faults were injected");
    assert_eq!(report.shed(), 0, "no lane died");

    let mut protocol_runs = 0;
    for lane in &report.lanes {
        if lane
            .events
            .iter()
            .any(|e| matches!(e, LaneEvent::StealsClosed))
        {
            assert_lane_protocol_order(&lane.events);
            protocol_runs += 1;
        }
    }
    let finished = outcomes
        .iter()
        .filter(|o| matches!(o, LaneUpgradeOutcome::Finished { .. }))
        .count();
    assert!(
        protocol_runs + finished == 4 && protocol_runs >= 1,
        "expected live lanes to walk the protocol: {outcomes:?}"
    );

    // The mix was skewed and stealing was on: work crossed lanes, and
    // each theft paid the metered crossing.
    let stolen: u64 = report.lanes.iter().map(|l| l.stolen_in_batches).sum();
    if stolen > 0 {
        let steal_bytes: u64 = report.lanes.iter().map(|l| l.steal_bytes).sum();
        assert!(steal_bytes > 0, "steals must be charged to the thief");
    }
}
