//! E11 — warm recovery: checkpoint-backed state survival under chaos.
//!
//! Three scenarios against the `rbs-runtime` snapshot/restore machinery,
//! all driven by seeded [`FaultPlan`]s so every number replays
//! bit-identically:
//!
//! 1. **Interval × fault-rate sweep** — a stateful pipeline (firewall
//!    rules + a per-flow tracker) under injected crashes, swept over
//!    snapshot cadences (0 = snapshotting off, the cold baseline) and
//!    fault rates. Each point also carries one *scripted* crash so every
//!    cadence demonstrably restores. Reported per point: goodput, warm
//!    vs. cold recoveries, snapshots taken, and exact state-loss
//!    accounting (items lost to each crash, summed).
//! 2. **Corruption fallback** — a scripted crash whose newest snapshot
//!    is then bit-flipped: verification must reject it and restore from
//!    the previous buffer; with *both* buffers corrupted, recovery must
//!    go cold. A corrupted snapshot is never restored.
//! 3. **Encode fault** — the `CheckpointEncode` chaos site fires inside
//!    snapshot serialization. The worker dies at the domain boundary,
//!    but seal-before-commit means the store still holds the previous
//!    verified snapshot, and recovery stays warm.
//!
//! Results are also emitted as `BENCH_recovery.json` in the repo root.
//! All JSON fields are integers derived from the logical supervision
//! clock and the state-item ledgers — never wall time — which is what
//! makes two runs of the same seed byte-identical.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::Table;
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::operators::ChaosPoint;
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    Buffered, RestartPolicy, RuntimeConfig, RuntimeReport, ShardedRuntime, SupervisorEventKind,
};

use crate::harness::silence_panics;

/// Packets per dispatched batch in the sweep.
const BATCH_SIZE: usize = 256;

/// Workers in the sweep runtime.
const WORKERS: usize = 4;

/// Distinct flows in the sweep's traffic population — the upper bound on
/// tracked state per run.
const FLOWS: usize = 512;

/// Firewall rules seeded into every worker's trie (baseline state that
/// must also survive restores).
const RULES: usize = 16;

/// The one seed behind every scenario.
const SEED: u64 = 0x11_4EC0;

/// Rule database carried by each pipeline replica: small, with aliased
/// prefixes so restored tries exercise shared-node rebuilding.
fn rule_db() -> FwTrie {
    let mut t = FwTrie::new();
    for i in 0..RULES {
        let base = Ipv4Addr::from(0x0B00_0000u32 | ((i as u32) << 8));
        let rule = Rule::new(
            i as u32,
            format!("e11 rule {i}"),
            base,
            24,
            if i % 4 == 0 {
                Action::Deny
            } else {
                Action::Allow
            },
        );
        let handle = t.insert(rule);
        let alias_net = Ipv4Addr::from(0xC0A8_0B00u32 | i as u32);
        t.alias_at(alias_net, 32, handle);
    }
    t
}

/// The stateful pipeline under test: chaos point → firewall → flow
/// tracker. Both the rule trie and the flow table are checkpointed
/// state; the flow table is what a crash actually loses.
fn spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FirewallOp::new(rule_db(), Action::Allow))
        .stage(|| FlowTracker::new(100_000))
}

fn policy() -> RestartPolicy {
    RestartPolicy {
        max_consecutive_faults: 3,
        backoff_base_ticks: 1,
        backoff_cap_ticks: 8,
        breaker_cooldown_ticks: 6,
        backoff_jitter_ticks: 2,
    }
}

fn traffic(batches: usize) -> Vec<PacketBatch> {
    let mut g = PacketGen::new(TrafficConfig {
        flows: FLOWS,
        payload_len: 64,
        seed: SEED,
        ..Default::default()
    });
    (0..batches).map(|_| g.next_batch(BATCH_SIZE)).collect()
}

fn goodput_ppm(report: &RuntimeReport) -> u64 {
    if report.offered_packets == 0 {
        return 1_000_000;
    }
    report.packets_out * 1_000_000 / report.offered_packets
}

/// One point of the interval × fault-rate sweep.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Snapshot cadence in supervision ticks (0 = snapshotting off).
    pub interval: u64,
    /// Injected fault rate at the pipeline site, in ppm.
    pub rate_ppm: u32,
    /// Packets offered to the dispatcher.
    pub offered: u64,
    /// Goodput in ppm of offered (integer-exact).
    pub goodput_ppm: u64,
    /// Contained panics (pipeline + encode faults).
    pub faults: u64,
    /// Supervisor respawns.
    pub respawns: u64,
    /// Snapshots sealed into stores.
    pub snapshots_taken: u64,
    /// Crashes recovered from a verified snapshot.
    pub warm_restores: u64,
    /// Crashes recovered with no usable snapshot.
    pub cold_restores: u64,
    /// Buffered snapshots that failed verification at restore time.
    pub snapshot_rejects: u64,
    /// State items (rules + flows) lost across all crashes — the cost
    /// the snapshot cadence is buying down.
    pub state_items_lost: u64,
    /// Live state items summed over workers at shutdown.
    pub final_state_items: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// Corruption-fallback scenario outcome.
#[derive(Debug, Clone)]
pub struct CorruptionOutcome {
    /// Rejections with only the latest buffer corrupted (1: latest).
    pub single_rejects: u64,
    /// Epoch restored after the single corruption (the previous buffer).
    pub single_restored_epoch: u64,
    /// Items carried back by that restore.
    pub single_items_restored: u64,
    /// Items lost to the extra staleness of the previous buffer.
    pub single_items_lost: u64,
    /// Rejections with both buffers corrupted (2: latest and previous).
    pub double_rejects: u64,
    /// Cold restores after the double corruption (1).
    pub double_cold_restores: u64,
    /// The whole live table, lost cold.
    pub double_items_lost: u64,
}

/// Encode-fault scenario outcome.
#[derive(Debug, Clone)]
pub struct EncodeFaultOutcome {
    /// Contained faults (≥ 1: the encode panic).
    pub faults: u64,
    /// Warm restores — every recovery found a prior verified snapshot.
    pub warm_restores: u64,
    /// Cold restores (0).
    pub cold_restores: u64,
    /// Snapshots rejected at restore (0: a failed encode commits
    /// nothing, so nothing unverifiable ever enters the store).
    pub snapshot_rejects: u64,
    /// Epoch of the first restore (1: the pre-fault snapshot).
    pub first_restored_epoch: u64,
}

/// The full experiment result set.
#[derive(Debug, Clone)]
pub struct RecoveryResults {
    /// Traffic rounds per sweep point.
    pub rounds: usize,
    /// Interval × fault-rate sweep.
    pub sweep: Vec<RecoveryPoint>,
    /// Scripted snapshot corruption.
    pub corruption: CorruptionOutcome,
    /// Scripted encode fault.
    pub encode: EncodeFaultOutcome,
}

/// The sweep plan: probabilistic pipeline panics and encode faults at
/// `rate_ppm` (and a fifth of it), plus one scripted crash — worker 1's
/// sixth batch of each generation — so even the 0-rate points exercise
/// restore.
fn sweep_plan(rate_ppm: u32) -> FaultPlan {
    FaultPlan::new(SEED)
        .inject(FaultSite::Operator(0), FaultKind::Panic, rate_ppm)
        .inject(FaultSite::CheckpointEncode, FaultKind::Panic, rate_ppm / 5)
        .inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 5, 6)
}

/// Runs one sweep point: `rounds` lockstep dispatch+drain rounds of the
/// same pre-generated traffic at (`interval`, `rate_ppm`).
pub fn measure_sweep_point(interval: u64, rate_ppm: u32, rounds: usize) -> RecoveryPoint {
    silence_panics();
    let mut rt = ShardedRuntime::new(
        spec(),
        RuntimeConfig {
            workers: WORKERS,
            queue_capacity: 64,
            restart: policy(),
            supervisor_seed: SEED,
            snapshot_interval_ticks: interval,
            snapshot_full_every: 4,
            faults: Some(Arc::new(sweep_plan(rate_ppm))),
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction");
    for batch in traffic(rounds) {
        rt.dispatch(batch).expect("dispatch under chaos");
        assert!(
            rt.drain(Duration::from_secs(30)),
            "every round drains, faults included"
        );
    }
    let report = rt.shutdown();
    let point = RecoveryPoint {
        interval,
        rate_ppm,
        offered: report.offered_packets,
        goodput_ppm: goodput_ppm(&report),
        faults: report.faults,
        respawns: report.respawns,
        snapshots_taken: report.snapshots_taken,
        warm_restores: report.warm_restores,
        cold_restores: report.cold_restores,
        snapshot_rejects: report.snapshot_rejects,
        state_items_lost: report.state_items_lost,
        final_state_items: report.workers.iter().map(|w| w.state_items).sum(),
        unaccounted: report.unaccounted_packets(),
    };
    assert_eq!(
        point.unaccounted, 0,
        "packets vanished at interval {interval}, {rate_ppm} ppm"
    );
    assert_eq!(
        point.snapshot_rejects, 0,
        "an uncorrupted store never fails verification"
    );
    if interval == 0 {
        assert_eq!(point.snapshots_taken, 0, "interval 0 disables snapshots");
        assert_eq!(
            point.warm_restores + point.cold_restores,
            0,
            "interval 0 disables the restore chain"
        );
    } else {
        assert!(
            point.warm_restores >= 1,
            "the scripted crash must recover warm at interval {interval}"
        );
    }
    point
}

/// 24 distinct single-packet flows per round, so state loss is exactly
/// countable in the scripted scenarios.
fn scripted_wave(round: usize) -> PacketBatch {
    (0..24u16)
        .map(|i| {
            Packet::build_udp(
                MacAddr::ZERO,
                MacAddr::ZERO,
                Ipv4Addr::new(10, 9, 0, 1),
                Ipv4Addr::new(10, 9, 0, 2),
                3000 + (round as u16) * 24 + i,
                443,
                16,
            )
        })
        .collect()
}

/// A single-worker runtime with a flow tracker only (exact item counts)
/// snapshotting every tick, full images only.
fn scripted_runtime(plan: FaultPlan) -> ShardedRuntime {
    ShardedRuntime::new(
        PipelineSpec::new()
            .stage(|| ChaosPoint::new(0))
            .stage(|| FlowTracker::new(100_000)),
        RuntimeConfig {
            workers: 1,
            queue_capacity: 8,
            restart: RestartPolicy::default(),
            supervisor_seed: SEED,
            snapshot_interval_ticks: 1,
            snapshot_full_every: 1,
            faults: Some(Arc::new(plan)),
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction")
}

/// Drives a scripted run to its crash (batch 3 panics, 72 flows live,
/// snapshots at 0/24/48/72 flows buffered), corrupts `targets`, then
/// heals and returns the runtime for event inspection.
fn crash_and_corrupt(targets: &[Buffered]) -> ShardedRuntime {
    silence_panics();
    let plan =
        FaultPlan::new(SEED).inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, 3, 4);
    let mut rt = scripted_runtime(plan);
    for round in 0..4 {
        rt.dispatch(scripted_wave(round)).expect("dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "round {round} drained");
    }
    for &t in targets {
        assert!(rt.corrupt_snapshot(0, t), "buffer {} present", t.name());
    }
    // The next supervision pass heals the slot through the fallback
    // chain.
    rt.dispatch(PacketBatch::new()).expect("heal tick");
    rt
}

/// Scripted corruption: latest rejected → previous restores; both
/// rejected → cold. Never a corrupted restore.
pub fn measure_corruption() -> CorruptionOutcome {
    let single = crash_and_corrupt(&[Buffered::Latest]);
    let mut single_rejects = 0;
    let mut single_restored = (0, 0, 0);
    for e in single.events() {
        match e.kind {
            SupervisorEventKind::SnapshotRejected { .. } => single_rejects += 1,
            SupervisorEventKind::WarmRestore {
                epoch,
                items_restored,
                items_lost,
                ..
            } => single_restored = (epoch, items_restored, items_lost),
            SupervisorEventKind::ColdRestore { .. } => {
                panic!("single corruption must not go cold")
            }
            _ => {}
        }
    }
    drop(single.shutdown());

    let double = crash_and_corrupt(&[Buffered::Latest, Buffered::Previous]);
    let mut double_rejects = 0;
    let mut double_cold = 0;
    let mut double_lost = 0;
    for e in double.events() {
        match e.kind {
            SupervisorEventKind::SnapshotRejected { .. } => double_rejects += 1,
            SupervisorEventKind::ColdRestore { items_lost } => {
                double_cold += 1;
                double_lost = items_lost;
            }
            SupervisorEventKind::WarmRestore { .. } => {
                panic!("a corrupted snapshot must never restore")
            }
            _ => {}
        }
    }
    drop(double.shutdown());

    let out = CorruptionOutcome {
        single_rejects,
        single_restored_epoch: single_restored.0,
        single_items_restored: single_restored.1,
        single_items_lost: single_restored.2,
        double_rejects,
        double_cold_restores: double_cold,
        double_items_lost: double_lost,
    };
    assert_eq!(out.single_rejects, 1, "only latest was corrupted");
    assert_eq!(out.double_rejects, 2, "both buffers rejected");
    assert_eq!(out.double_cold_restores, 1, "double corruption goes cold");
    out
}

/// Scripted encode fault: the second snapshot's serialization panics;
/// the store still holds the first, and recovery restores it.
pub fn measure_encode_fault() -> EncodeFaultOutcome {
    silence_panics();
    let plan =
        FaultPlan::new(SEED).inject_window(FaultSite::CheckpointEncode, FaultKind::Panic, 0, 1, 2);
    let mut rt = scripted_runtime(plan);
    // tick1: snapshot ok (epoch 1). tick2: snapshot → encode panic.
    for round in 0..2 {
        rt.dispatch(scripted_wave(round)).expect("dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "round {round} drained");
    }
    rt.dispatch(PacketBatch::new()).expect("heal tick");
    let first_epoch = rt
        .events()
        .iter()
        .find_map(|e| match e.kind {
            SupervisorEventKind::WarmRestore { epoch, .. } => Some(epoch),
            _ => None,
        })
        .expect("the encode fault led to a warm restore");
    let report = rt.shutdown();
    let out = EncodeFaultOutcome {
        faults: report.faults,
        warm_restores: report.warm_restores,
        cold_restores: report.cold_restores,
        snapshot_rejects: report.snapshot_rejects,
        first_restored_epoch: first_epoch,
    };
    assert!(out.faults >= 1, "the encode fault was contained as a fault");
    assert_eq!(out.cold_restores, 0, "recovery stayed warm");
    assert_eq!(out.snapshot_rejects, 0, "nothing unverifiable was stored");
    assert_eq!(out.first_restored_epoch, 1, "the pre-fault snapshot won");
    out
}

/// Runs the full experiment.
pub fn measure(rounds: usize) -> RecoveryResults {
    let intervals = [0u64, 1, 2, 4];
    let rates = [0u32, 10_000, 50_000];
    let mut sweep = Vec::new();
    for interval in intervals {
        for rate in rates {
            sweep.push(measure_sweep_point(interval, rate, rounds));
        }
    }
    RecoveryResults {
        rounds,
        sweep,
        corruption: measure_corruption(),
        encode: measure_encode_fault(),
    }
}

/// Renders the result set as the `BENCH_recovery.json` payload.
///
/// Integer-only by construction: two runs of the same build and seed
/// must produce byte-identical output, which the tier-1 test
/// `stable_records` holds to the committed file.
pub fn to_json(r: &RecoveryResults) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e11_recovery\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"workers\": {WORKERS},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"flows\": {FLOWS},\n"));
    out.push_str(&format!("  \"rules\": {RULES},\n"));
    out.push_str(&format!("  \"rounds\": {},\n", r.rounds));
    out.push_str("  \"sweep\": [\n");
    for (i, s) in r.sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"interval\": {}, \"rate_ppm\": {}, \"offered\": {}, \"goodput_ppm\": {}, \"faults\": {}, \"respawns\": {}, \"snapshots_taken\": {}, \"warm_restores\": {}, \"cold_restores\": {}, \"snapshot_rejects\": {}, \"state_items_lost\": {}, \"final_state_items\": {}, \"unaccounted\": {}}}{}\n",
            s.interval,
            s.rate_ppm,
            s.offered,
            s.goodput_ppm,
            s.faults,
            s.respawns,
            s.snapshots_taken,
            s.warm_restores,
            s.cold_restores,
            s.snapshot_rejects,
            s.state_items_lost,
            s.final_state_items,
            s.unaccounted,
            if i + 1 < r.sweep.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let c = &r.corruption;
    out.push_str(&format!(
        "  \"corruption\": {{\"single_rejects\": {}, \"single_restored_epoch\": {}, \"single_items_restored\": {}, \"single_items_lost\": {}, \"double_rejects\": {}, \"double_cold_restores\": {}, \"double_items_lost\": {}}},\n",
        c.single_rejects,
        c.single_restored_epoch,
        c.single_items_restored,
        c.single_items_lost,
        c.double_rejects,
        c.double_cold_restores,
        c.double_items_lost,
    ));
    let e = &r.encode;
    out.push_str(&format!(
        "  \"encode_fault\": {{\"faults\": {}, \"warm_restores\": {}, \"cold_restores\": {}, \"snapshot_rejects\": {}, \"first_restored_epoch\": {}}}\n",
        e.faults, e.warm_restores, e.cold_restores, e.snapshot_rejects, e.first_restored_epoch,
    ));
    out.push_str("}\n");
    out
}

/// Rounds per sweep point behind the committed `BENCH_recovery.json`.
pub const ROUNDS: usize = 80;
/// Rounds per sweep point under `--quick`.
const QUICK_ROUNDS: usize = 24;

/// Regenerates the recovery table, writing `BENCH_recovery.json` beside
/// it.
pub fn run(quick: bool) -> String {
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };
    let results = measure(rounds);

    let mut t = Table::new(&[
        "interval",
        "fault rate",
        "goodput %",
        "faults",
        "snapshots",
        "warm",
        "cold",
        "state lost",
        "final state",
    ]);
    for s in &results.sweep {
        t.row_owned(vec![
            if s.interval == 0 {
                "off".to_owned()
            } else {
                s.interval.to_string()
            },
            format!("{:.2}%", f64::from(s.rate_ppm) / 10_000.0),
            format!("{:.2}", s.goodput_ppm as f64 / 10_000.0),
            s.faults.to_string(),
            s.snapshots_taken.to_string(),
            s.warm_restores.to_string(),
            s.cold_restores.to_string(),
            s.state_items_lost.to_string(),
            s.final_state_items.to_string(),
        ]);
    }

    let mut out =
        String::from("E11 — warm recovery: state survival across crashes, by snapshot cadence\n");
    out.push_str(&t.render());
    let c = &results.corruption;
    out.push_str(&format!(
        "\ncorruption: latest rejected ({} reject) → previous restored epoch {} with {} items \
         ({} lost to staleness); both corrupted → {} rejects, cold restart, {} items lost\n",
        c.single_rejects,
        c.single_restored_epoch,
        c.single_items_restored,
        c.single_items_lost,
        c.double_rejects,
        c.double_items_lost,
    ));
    let e = &results.encode;
    out.push_str(&format!(
        "encode fault: {} faults contained, {} warm restores from epoch {}, {} rejects — \
         a failed encode commits nothing\n",
        e.faults, e.warm_restores, e.first_restored_epoch, e.snapshot_rejects,
    ));

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
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
    fn snapshotting_off_is_the_cold_baseline() {
        let p = measure_sweep_point(0, 10_000, 12);
        assert_eq!(p.snapshots_taken, 0);
        assert_eq!(p.warm_restores + p.cold_restores, 0);
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn one_percent_point_recovers_warm() {
        let p = measure_sweep_point(2, 10_000, 12);
        assert!(p.warm_restores >= 1, "no warm restore at 1% faults");
        assert!(p.snapshots_taken >= 1);
        assert_eq!(p.snapshot_rejects, 0);
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn sweep_points_are_deterministic() {
        let a = measure_sweep_point(2, 50_000, 12);
        let b = measure_sweep_point(2, 50_000, 12);
        assert!(a.faults > 0, "5% over 12 rounds injects something");
        assert_eq!(a.goodput_ppm, b.goodput_ppm);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.respawns, b.respawns);
        assert_eq!(a.snapshots_taken, b.snapshots_taken);
        assert_eq!(a.warm_restores, b.warm_restores);
        assert_eq!(a.cold_restores, b.cold_restores);
        assert_eq!(a.state_items_lost, b.state_items_lost);
        assert_eq!(a.final_state_items, b.final_state_items);
    }

    #[test]
    fn corruption_outcome_is_exact() {
        let c = measure_corruption();
        // The previous buffer held the tick-3 image (48 flows); the
        // gauge at crash held 72, so the staleness costs exactly 24.
        assert_eq!(c.single_restored_epoch, 3);
        assert_eq!(c.single_items_restored, 48);
        assert_eq!(c.single_items_lost, 24);
        assert_eq!(c.double_items_lost, 72);
    }

    #[test]
    fn encode_fault_outcome_is_exact() {
        let e = measure_encode_fault();
        assert_eq!(e.first_restored_epoch, 1);
        assert!(e.warm_restores >= 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = RecoveryResults {
            rounds: 1,
            sweep: vec![RecoveryPoint {
                interval: 2,
                rate_ppm: 10_000,
                offered: 256,
                goodput_ppm: 980_000,
                faults: 1,
                respawns: 1,
                snapshots_taken: 4,
                warm_restores: 1,
                cold_restores: 0,
                snapshot_rejects: 0,
                state_items_lost: 12,
                final_state_items: 300,
                unaccounted: 0,
            }],
            corruption: CorruptionOutcome {
                single_rejects: 1,
                single_restored_epoch: 3,
                single_items_restored: 48,
                single_items_lost: 24,
                double_rejects: 2,
                double_cold_restores: 1,
                double_items_lost: 72,
            },
            encode: EncodeFaultOutcome {
                faults: 1,
                warm_restores: 1,
                cold_restores: 0,
                snapshot_rejects: 0,
                first_restored_epoch: 1,
            },
        };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"e11_recovery\""));
        assert!(j.contains("\"interval\": 2"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
