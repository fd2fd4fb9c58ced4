//! Warm-recovery tests: crashed workers resume from verified snapshots
//! with exact, bounded state loss; corrupted snapshots are detected and
//! never restored (the chain falls back latest → previous → cold); an
//! injected encode fault cannot poison the store; and a clean shutdown
//! seals a final snapshot equal to the live state.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::operators::ChaosPoint;
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    Buffered, RestartPolicy, RuntimeConfig, RuntimeReport, ShardedRuntime, SupervisorEventKind,
};

/// Flows per round. Every round's flows are distinct, so a worker's
/// tracked-flow count grows by exactly this much per processed batch —
/// which makes state loss exactly countable.
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

/// The stateful pipeline under test: a chaos point in front of a flow
/// tracker whose table is the state that must survive crashes.
fn stateful_spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FlowTracker::new(100_000))
}

fn config(workers: usize, interval: u64, full_every: u32, plan: FaultPlan) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        queue_capacity: 8,
        snapshot_interval_ticks: interval,
        snapshot_full_every: full_every,
        restart: RestartPolicy::default(),
        faults: Some(Arc::new(plan)),
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

fn run_rounds(rt: &mut ShardedRuntime, rounds: std::ops::Range<usize>) {
    for round in rounds {
        rt.dispatch(wave(round)).expect("dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "round {round} drained");
    }
}

/// The acceptance scenario: a worker crashing on a scripted batch
/// recovers through a snapshot restore, and the state it loses is
/// exactly the flows accumulated since that snapshot — bounded by the
/// snapshot interval, never the whole table.
#[test]
fn crash_recovers_warm_with_exactly_bounded_state_loss() {
    const INTERVAL: u64 = 2;
    // One worker so every round's 24 flows land in one table. The 3rd
    // batch of each generation (occurrence 2) panics.
    let plan = FaultPlan::new(7).inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, 2, 3);
    let mut rt = ShardedRuntime::new(stateful_spec(), config(1, INTERVAL, 2, plan)).unwrap();

    // Rounds 0..2: batch 0 (24 flows), snapshot@tick2 (24 flows),
    // batch 1 (48), batch 2 → panic at occurrence 2; gauge froze at 48.
    run_rounds(&mut rt, 0..3);

    // The next dispatch heals the slot. The newest snapshot (tick 2,
    // 24 flows) verifies; the 24 flows of batch 1 are the exact loss.
    rt.dispatch(PacketBatch::new()).unwrap();
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
        vec![(1, 2, 24, 24)],
        "restored epoch 1 (24 flows, 2 ticks old), lost exactly batch 1's 24 flows"
    );

    // Loss is bounded by the snapshot cadence: at most
    // interval × flows-per-tick flows can postdate the restored image
    // (plus the heal lag, visible in age_ticks).
    for &(_, age_ticks, _, items_lost) in &warm {
        assert!(
            items_lost <= age_ticks * u64::from(FLOWS_PER_ROUND),
            "loss {items_lost} exceeds the {age_ticks}-tick staleness bound"
        );
    }

    // Keep running: the replacement continues from the restored table.
    // Two rounds only — the scripted window fires at occurrence 2 of
    // *every* generation, and the replacement should outlive the test.
    run_rounds(&mut rt, 3..5);
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.warm_restores, 1);
    assert_eq!(report.cold_restores, 0);
    assert_eq!(report.snapshot_rejects, 0);
    assert_eq!(report.state_items_lost, 24);
    assert_eq!(report.import_failures, 0);
    // Final state: 24 restored + rounds 3..5 (batch 2's packets were
    // lost with the crash, batch 1's flows were the accounted loss).
    let w = &report.workers[0];
    assert_eq!(w.state_items, 24 + 2 * u64::from(FLOWS_PER_ROUND));
    let latest = w.latest_snapshot.expect("final snapshot sealed");
    assert_eq!(
        latest.items, w.state_items,
        "shutdown sealed the live state"
    );
}

/// Scripted corruption of the newest snapshot: the checksum rejects it,
/// recovery falls back to the previous buffer, and the extra staleness
/// is accounted as extra loss.
#[test]
fn corrupt_latest_falls_back_to_previous() {
    // Snapshot every tick, all full images; crash at occurrence 3
    // (batch 3).
    let plan = FaultPlan::new(7).inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, 3, 4);
    let mut rt = ShardedRuntime::new(stateful_spec(), config(1, 1, 1, plan)).unwrap();

    // tick1: snap(0 flows), batch0→24. tick2: snap(24), batch1→48.
    // tick3: snap(48), batch2→72. tick4: snap(72), batch3 → panic.
    run_rounds(&mut rt, 0..4);
    assert!(
        rt.corrupt_snapshot(0, Buffered::Latest),
        "latest buffer holds the tick-4 snapshot"
    );

    rt.dispatch(PacketBatch::new()).unwrap();
    let kinds: Vec<_> = rt
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            SupervisorEventKind::SnapshotRejected { which, reason } => {
                Some(format!("reject {which}: {reason}"))
            }
            SupervisorEventKind::WarmRestore {
                epoch,
                age_ticks,
                items_restored,
                items_lost,
            } => Some(format!(
                "warm epoch={epoch} age={age_ticks} restored={items_restored} lost={items_lost}"
            )),
            SupervisorEventKind::ColdRestore { items_lost } => Some(format!("cold {items_lost}")),
            _ => None,
        })
        .collect();
    assert_eq!(
        kinds,
        vec![
            "reject latest: checksum-mismatch".to_owned(),
            // Previous buffer: tick-3 image, 48 flows; the crash gauge
            // held 72, so the extra tick of staleness costs 24 more.
            "warm epoch=3 age=2 restored=48 lost=24".to_owned(),
        ],
        "fallback chain: latest rejected, previous restored"
    );

    run_rounds(&mut rt, 4..6);
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.snapshot_rejects, 1);
    assert_eq!(report.warm_restores, 1);
    assert_eq!(report.cold_restores, 0);
}

/// Both buffers corrupted: nothing restorable survives verification, so
/// recovery is cold — with the entire live table accounted as lost.
/// A corrupted snapshot is *never* restored.
#[test]
fn corrupt_both_buffers_falls_back_to_cold() {
    let plan = FaultPlan::new(7).inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, 3, 4);
    let mut rt = ShardedRuntime::new(stateful_spec(), config(1, 1, 1, plan)).unwrap();

    run_rounds(&mut rt, 0..4);
    assert!(rt.corrupt_snapshot(0, Buffered::Latest));
    assert!(rt.corrupt_snapshot(0, Buffered::Previous));

    rt.dispatch(PacketBatch::new()).unwrap();
    let rejects = rt
        .events()
        .iter()
        .filter(|e| matches!(e.kind, SupervisorEventKind::SnapshotRejected { .. }))
        .count();
    let cold: Vec<_> = rt
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            SupervisorEventKind::ColdRestore { items_lost } => Some(items_lost),
            _ => None,
        })
        .collect();
    assert_eq!(rejects, 2, "both buffers rejected");
    assert_eq!(cold, vec![72], "the whole live table was lost");
    assert!(
        !rt.events()
            .iter()
            .any(|e| matches!(e.kind, SupervisorEventKind::WarmRestore { .. })),
        "corrupted snapshots were never restored"
    );

    // The cold worker starts an empty table and keeps serving.
    run_rounds(&mut rt, 4..6);
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.cold_restores, 1);
    assert_eq!(report.state_items_lost, 72);
    assert_eq!(
        report.workers[0].state_items,
        2 * u64::from(FLOWS_PER_ROUND),
        "post-recovery rounds only"
    );
}

/// The `CheckpointEncode` fault site, end to end: a panic injected into
/// snapshot serialization kills the worker at the domain boundary, but
/// the store's seal-before-commit discipline means both buffers still
/// hold the *previous* verified snapshot — recovery is warm from it,
/// and no garbage is ever restored.
#[test]
fn encode_fault_cannot_poison_the_store() {
    // Snapshot every tick; the second encode (occurrence 1) of the
    // first generation panics mid-snapshot.
    let plan =
        FaultPlan::new(7).inject_window(FaultSite::CheckpointEncode, FaultKind::Panic, 0, 1, 2);
    let mut rt = ShardedRuntime::new(stateful_spec(), config(1, 1, 1, plan)).unwrap();

    // tick1: snap ok (epoch 1, 0 flows), batch0→24.
    // tick2: snap → encode panic → worker dies; batch1 dies with it
    // (lost or shed, conservation covers both).
    run_rounds(&mut rt, 0..1);
    rt.dispatch(wave(1)).unwrap();
    assert!(rt.drain(Duration::from_secs(30)));

    // Heal: the failed snapshot never reached a buffer; epoch 1
    // verifies and restores.
    rt.dispatch(PacketBatch::new()).unwrap();
    let warm: Vec<_> = rt
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            SupervisorEventKind::WarmRestore {
                epoch,
                items_restored,
                ..
            } => Some((epoch, items_restored)),
            _ => None,
        })
        .collect();
    assert_eq!(
        warm,
        vec![(1, 0)],
        "restored the pre-fault snapshot, not a half-written one"
    );
    assert_eq!(
        rt.events()
            .iter()
            .filter(|e| matches!(e.kind, SupervisorEventKind::SnapshotRejected { .. }))
            .count(),
        0,
        "nothing in the store ever failed verification"
    );

    // The window fires at encode occurrence 1 of every generation, so
    // later generations crash mid-snapshot too — but each one's *first*
    // snapshot succeeded, so every recovery stays warm and verified.
    run_rounds(&mut rt, 2..5);
    let report = rt.shutdown();
    assert_conserved(&report);
    assert!(report.faults >= 1, "the encode fault was a real fault");
    assert!(report.warm_restores >= 1);
    assert_eq!(report.cold_restores, 0);
    assert_eq!(report.snapshot_rejects, 0);
}

/// Clean shutdown's final act is sealing one more snapshot, so the
/// newest buffered image always equals the last live state — on every
/// worker, with no faults involved.
#[test]
fn clean_shutdown_seals_live_state() {
    let plan = FaultPlan::new(0); // no faults
    let mut rt = ShardedRuntime::new(stateful_spec(), config(2, 4, 2, plan)).unwrap();
    run_rounds(&mut rt, 0..5);

    let live: Vec<u64> = rt.snapshots().iter().map(|w| w.state_items).collect();
    let final_tick = rt.tick();
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.warm_restores + report.cold_restores, 0);
    let mut total = 0;
    for (w, live_items) in report.workers.iter().zip(live) {
        let latest = w
            .latest_snapshot
            .expect("every worker sealed a final snapshot");
        assert_eq!(latest.items, live_items, "worker {}", w.index);
        assert_eq!(latest.items, w.state_items, "worker {}", w.index);
        assert_eq!(latest.tick, final_tick, "worker {}", w.index);
        total += latest.items;
    }
    assert_eq!(total, 5 * u64::from(FLOWS_PER_ROUND), "all flows tracked");
    assert!(report.snapshots_taken >= 2, "cadence snapshots plus finals");
}

/// With snapshotting disabled (the default), the journal carries no
/// restore events at all — recovery behaves exactly as it did before
/// warm recovery existed, so existing seeded chaos runs replay
/// unchanged.
#[test]
fn disabled_snapshots_leave_the_journal_unchanged() {
    let plan = FaultPlan::new(7).inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, 1, 2);
    let mut rt = ShardedRuntime::new(stateful_spec(), config(1, 0, 2, plan)).unwrap();
    run_rounds(&mut rt, 0..3);
    rt.dispatch(PacketBatch::new()).unwrap();
    run_rounds(&mut rt, 3..5);
    let report = rt.shutdown();
    assert_conserved(&report);
    assert!(report.respawns >= 1, "the crash was healed");
    assert_eq!(report.snapshots_taken, 0);
    assert_eq!(report.warm_restores + report.cold_restores, 0);
    assert!(report.workers[0].latest_snapshot.is_none());
    assert!(!report.events.iter().any(|e| matches!(
        e.kind,
        SupervisorEventKind::WarmRestore { .. }
            | SupervisorEventKind::ColdRestore { .. }
            | SupervisorEventKind::SnapshotRejected { .. }
    )));
}

/// Determinism across the whole recovery machinery: same seed, same
/// snapshot cadence → identical restore journals and identical state
/// accounting, run to run.
#[test]
fn warm_recovery_replays_identically() {
    let run = || {
        let plan = FaultPlan::new(0xBEEF)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 50_000)
            .inject(FaultSite::CheckpointEncode, FaultKind::Panic, 30_000);
        let mut rt = ShardedRuntime::new(stateful_spec(), config(3, 2, 3, plan)).unwrap();
        run_rounds(&mut rt, 0..12);
        rt.shutdown()
    };
    let (a, b) = (run(), run());
    assert_conserved(&a);
    assert_conserved(&b);
    let restores = |r: &RuntimeReport| {
        let mut v: Vec<_> = r
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    SupervisorEventKind::WarmRestore { .. }
                        | SupervisorEventKind::ColdRestore { .. }
                        | SupervisorEventKind::SnapshotRejected { .. }
                )
            })
            .map(|e| (e.tick, e.worker, e.kind))
            .collect();
        v.sort_by_key(|(tick, worker, kind)| (*tick, *worker, kind.name()));
        v
    };
    assert_eq!(restores(&a), restores(&b), "restore journals diverged");
    assert_eq!(a.warm_restores, b.warm_restores);
    assert_eq!(a.cold_restores, b.cold_restores);
    assert_eq!(a.snapshot_rejects, b.snapshot_rejects);
    assert_eq!(a.state_items_lost, b.state_items_lost);
    assert_eq!(a.snapshots_taken, b.snapshots_taken);
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.state_items, wb.state_items, "worker {}", wa.index);
        assert_eq!(
            wa.latest_snapshot, wb.latest_snapshot,
            "worker {}",
            wa.index
        );
    }
}
