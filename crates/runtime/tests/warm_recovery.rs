//! Warm-recovery tests on the tenant engine: a crashed chain resumes
//! from a verified snapshot with exact, bounded state loss; a corrupted
//! snapshot is detected and never restored (the respawn falls back
//! latest → previous → cold); a seal that faults cannot poison the
//! store; and the cadence seals the live state.
//!
//! Every scenario runs one tenant whose chain is a flow tracker fed 24
//! new one-packet flows per tick, so state is exactly countable.

use std::net::Ipv4Addr;
use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    Buffered, TenantEventKind, TenantLaneConfig, TenantLaneRuntime, TenantReport, TenantSpec,
};

/// Flows per round. Every round's flows are distinct, so a chain's
/// tracked-flow count grows by exactly this much per processed batch —
/// which makes state loss exactly countable.
const FLOWS_PER_ROUND: u16 = 24;
const FLOWS: u64 = FLOWS_PER_ROUND as u64;

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

/// `tenants` flow-tracking tenants sealing every `interval` ticks (0 =
/// never), a full image every `full_every` seals.
fn runtime(
    tenants: usize,
    lanes: usize,
    interval: u64,
    full_every: u32,
    plan: FaultPlan,
) -> TenantLaneRuntime {
    TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..tenants)
            .map(|i| TenantSpec::new(format!("t{i}")))
            .collect(),
        lanes,
        snapshot_every_ticks: interval,
        snapshot_full_every: full_every,
        chain: Some(Arc::new(|_, _| {
            PipelineSpec::new().stage(|| FlowTracker::new(100_000))
        })),
        faults: Some(Arc::new(plan)),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction")
}

fn run_rounds(rt: &mut TenantLaneRuntime, rounds: std::ops::Range<usize>) {
    for round in rounds {
        rt.offer(wave(round));
        rt.step();
    }
}

/// Tenant 0's chain dies on its `n`-th batch (0-based).
fn crash_on_batch(n: u64) -> FaultPlan {
    FaultPlan::new(7).inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, n, n + 1)
}

/// Tenant 0's journal, in order.
fn journal(report: &TenantReport) -> Vec<TenantEventKind> {
    (report.events.iter())
        .filter(|e| e.tenant == 0)
        .map(|e| e.kind)
        .collect()
}

/// Every respawn in the journal, in order, as `(tick, warm, items)`.
fn respawns(report: &TenantReport) -> Vec<(u64, bool, u64)> {
    (report.events.iter())
        .filter_map(|e| match e.kind {
            TenantEventKind::Respawned { warm, items } => Some((e.tick, warm, items)),
            _ => None,
        })
        .collect()
}

fn assert_conserved(report: &TenantReport) {
    assert_eq!(report.unaccounted_packets(), 0, "{report:#?}");
    for t in &report.tenants {
        assert_eq!(t.ledger.processed, t.ledger.out + t.ledger.drops);
    }
}

/// The acceptance scenario: a chain crashing on a scripted batch
/// respawns from its latest snapshot, and the state it loses is exactly
/// the flows accumulated since that snapshot — bounded by the cadence,
/// never the whole table.
#[test]
fn crash_recovers_warm_with_exactly_bounded_state_loss() {
    const INTERVAL: u64 = 2;
    let mut rt = runtime(1, 1, INTERVAL, 2, crash_on_batch(3));

    // Ticks 0..3: 24, 48 (sealed at tick 1), 72 flows live.
    run_rounds(&mut rt, 0..3);
    let live_at_crash = rt.state_items(0);
    assert_eq!(live_at_crash, 3 * FLOWS);
    // Tick 3: batch 3 dies; the respawn restores the tick-1 image.
    run_rounds(&mut rt, 3..4);
    assert_eq!(rt.state_items(0), 2 * FLOWS, "restored the 48-flow image");
    let lost = live_at_crash - rt.state_items(0);
    assert_eq!(
        lost, FLOWS,
        "exactly batch 2's flows, sealed after the image"
    );
    assert!(lost <= INTERVAL * FLOWS, "loss bounded by the cadence");

    // Keep running: the replacement continues from the restored table.
    run_rounds(&mut rt, 4..6);
    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(respawns(&report), vec![(3, true, 2 * FLOWS)]);
    let t = &report.tenants[0];
    assert_eq!((t.warm_restores, t.cold_restores), (1, 0));
    assert_eq!(t.state_items_restored, 2 * FLOWS);
    assert_eq!(
        t.ledger.lost, FLOWS,
        "batch 3's packets died with the chain"
    );
    assert_eq!(
        t.final_state_items,
        4 * FLOWS,
        "48 restored + rounds 4 and 5"
    );
}

/// Scripted corruption of the newest snapshot: the checksum rejects it,
/// the journal records the rejection, the respawn falls back to the
/// previous buffer, and the extra staleness is the extra loss.
#[test]
fn corrupt_latest_falls_back_to_previous() {
    // A full image every tick: 24, 48, 72 flows; batch 3 dies.
    let mut rt = runtime(1, 1, 1, 1, crash_on_batch(3));
    run_rounds(&mut rt, 0..3);
    assert!(
        rt.corrupt_snapshot(0, Buffered::Latest),
        "latest buffer holds the 72-flow image"
    );
    run_rounds(&mut rt, 3..6);
    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(
        respawns(&report),
        vec![(3, true, 2 * FLOWS)],
        "the previous 48-flow image restored, never the corrupted 72-flow one"
    );
    assert_eq!(
        journal(&report),
        vec![
            TenantEventKind::Faulted {
                site: FaultSite::Operator(0)
            },
            TenantEventKind::SnapshotRejected {
                which: Buffered::Latest,
                reason: "checksum-mismatch"
            },
            TenantEventKind::Respawned {
                warm: true,
                items: 2 * FLOWS
            },
        ]
    );
    let t = &report.tenants[0];
    assert_eq!((t.warm_restores, t.cold_restores), (1, 0));
    assert_eq!(t.final_state_items, 4 * FLOWS);
}

/// Both buffers corrupted: nothing restorable survives verification, so
/// the journal records two rejections, the respawn is cold and the whole
/// live table is lost. A corrupted snapshot is *never* restored.
#[test]
fn corrupt_both_buffers_falls_back_to_cold() {
    let mut rt = runtime(1, 1, 1, 1, crash_on_batch(3));
    run_rounds(&mut rt, 0..3);
    assert!(rt.corrupt_snapshot(0, Buffered::Latest));
    assert!(rt.corrupt_snapshot(0, Buffered::Previous));
    run_rounds(&mut rt, 3..6);
    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(
        respawns(&report),
        vec![(3, false, 0)],
        "a cold, empty chain"
    );
    let rejected = |which| TenantEventKind::SnapshotRejected {
        which,
        reason: "checksum-mismatch",
    };
    assert_eq!(
        journal(&report),
        vec![
            TenantEventKind::Faulted {
                site: FaultSite::Operator(0)
            },
            rejected(Buffered::Latest),
            rejected(Buffered::Previous),
            TenantEventKind::Respawned {
                warm: false,
                items: 0
            },
        ]
    );
    let t = &report.tenants[0];
    assert_eq!((t.warm_restores, t.cold_restores), (0, 1));
    assert_eq!(t.state_items_restored, 0);
    assert_eq!(t.final_state_items, 2 * FLOWS, "post-recovery rounds only");
}

/// The `CheckpointEncode` site, end to end: a panic in a tenant's seal
/// kills its domain at the boundary and counts as that tenant's fault,
/// but the seal committed nothing, so the store still holds the previous
/// verified image and the respawn restores it. The fault costs the
/// flows since that image, never a packet.
#[test]
fn encode_fault_cannot_poison_the_store() {
    // The second seal (attempt 1, tick 1) dies.
    let plan =
        FaultPlan::new(7).inject_window(FaultSite::CheckpointEncode, FaultKind::Panic, 0, 1, 2);
    let mut rt = runtime(1, 1, 1, 1, plan);
    run_rounds(&mut rt, 0..5);
    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(
        respawns(&report),
        vec![(1, true, FLOWS)],
        "restored the tick-0 image, not a half-written one"
    );
    let t = &report.tenants[0];
    assert_eq!(t.faults, 1, "the seal fault was a real fault");
    assert_eq!((t.warm_restores, t.cold_restores), (1, 0));
    assert_eq!(t.ledger.lost, 0, "the batch had already left the chain");
    assert_eq!(t.ledger.out, 5 * FLOWS);
    assert_eq!(t.snapshots_taken, 4, "every other seal committed");
    assert_eq!(t.final_state_items, 4 * FLOWS, "batch 1's flows went");
}

/// A cadence of one seals the live state every tick: a crash on the
/// next batch restores exactly what was live when the last tick ended.
#[test]
fn cadence_seals_the_live_state() {
    let mut rt = runtime(2, 2, 1, 2, crash_on_batch(5));
    run_rounds(&mut rt, 0..5);
    let live = rt.state_items(0);
    assert_eq!(rt.snapshots_taken(0), 5);
    run_rounds(&mut rt, 5..6);
    let report = rt.finish();
    assert_conserved(&report);
    let restored = respawns(&report);
    assert_eq!(
        restored,
        vec![(5, true, live)],
        "the last seal was the live state"
    );
    let sealed: u64 = report.tenants.iter().map(|t| t.snapshots_taken).sum();
    assert!(sealed >= 10, "both tenants sealed every tick they ran");
}

/// With snapshotting disabled (the default), nothing is sealed and every
/// respawn is cold: recovery behaves as it did before warm recovery
/// existed.
#[test]
fn disabled_snapshots_leave_the_journal_unchanged() {
    let mut rt = runtime(1, 1, 0, 2, crash_on_batch(1));
    run_rounds(&mut rt, 0..5);
    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(respawns(&report), vec![(1, false, 0)]);
    let t = &report.tenants[0];
    assert_eq!(t.snapshots_taken, 0);
    assert_eq!((t.warm_restores, t.cold_restores), (0, 1));
    assert_eq!(
        t.final_state_items,
        3 * FLOWS,
        "rounds after the crash only"
    );
}

/// Determinism across the whole recovery machinery: same seed, same
/// cadence → identical journals and identical state accounting, at one
/// lane and at two.
#[test]
fn warm_recovery_replays_identically() {
    let run = |lanes| {
        let plan = FaultPlan::new(0xBEEF)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 50_000)
            .inject(FaultSite::CheckpointEncode, FaultKind::Panic, 30_000);
        let mut rt = runtime(3, lanes, 2, 3, plan);
        run_rounds(&mut rt, 0..24);
        rt.finish()
    };
    let (a, b) = (run(1), run(2));
    assert_conserved(&a);
    assert_conserved(&b);
    assert!(
        a.tenants.iter().map(|t| t.warm_restores).sum::<u64>() > 0,
        "the plan exercised warm recovery"
    );
    assert_eq!(a.events, b.events, "journals diverged");
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.warm_restores, tb.warm_restores, "{}", ta.name);
        assert_eq!(ta.cold_restores, tb.cold_restores, "{}", ta.name);
        assert_eq!(ta.state_items_restored, tb.state_items_restored);
        assert_eq!(ta.snapshots_taken, tb.snapshots_taken, "{}", ta.name);
        assert_eq!(ta.final_state_items, tb.final_state_items, "{}", ta.name);
    }
}
