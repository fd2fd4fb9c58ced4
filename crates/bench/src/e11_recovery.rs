//! E11 — warm recovery: checkpoint-backed state survival under chaos.
//!
//! Three scenarios against the tenant engine's snapshot/restore
//! machinery ([`TenantLaneRuntime`]), all driven by seeded
//! [`FaultPlan`]s so every number replays bit-identically:
//!
//! 1. **Interval × fault-rate sweep** — a stateful chain (firewall
//!    rules + a per-flow tracker) under injected crashes and seal
//!    faults, swept over snapshot cadences (0 = snapshotting off, the
//!    cold baseline) and fault rates. Each point also carries one
//!    *scripted* crash so every cadence demonstrably restores. Reported
//!    per point: goodput, warm vs. cold respawns, snapshots taken, and
//!    the state items the warm respawns carried back.
//! 2. **Corruption fallback** — the newest snapshot is bit-flipped before
//!    a scripted crash: the respawn must reject it and restore from the
//!    previous buffer; with *both* buffers corrupted it must build cold.
//!    A corrupted snapshot is never restored.
//! 3. **Encode fault** — the `CheckpointEncode` site fires inside a
//!    tenant's seal. The seal dies at the domain boundary as a fault of
//!    that tenant, but it committed nothing, so the store still holds the
//!    previous verified snapshot and the respawn stays warm.
//!
//! Results are also emitted as `BENCH_recovery.json` in the repo root.
//! All JSON fields are integers derived from the logical tick clock and
//! the state-item ledgers — never wall time — which is what makes two
//! runs of the same seed byte-identical.

use std::net::Ipv4Addr;
use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::Table;
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    BreakerPolicy, Buffered, TenantEventKind, TenantLaneConfig, TenantLaneRuntime, TenantReport,
    TenantSpec,
};

use crate::harness::silence_panics;

/// Packets per offered wave in the sweep (one wave per tick).
const BATCH_SIZE: usize = 256;

/// Tenants in the sweep runtime.
const TENANTS: usize = 4;

/// Lanes every scenario runs on: the ledgers are the same at any count.
const LANES: usize = 1;

/// Distinct flows in the sweep's traffic population — the upper bound on
/// tracked state per run.
const FLOWS: usize = 512;

/// Firewall rules seeded into every tenant's trie (baseline state that
/// must also survive restores).
const RULES: usize = 16;

/// The one seed behind every scenario.
const SEED: u64 = 0x11_4EC0;

/// Rule database carried by each chain: small, with aliased prefixes so
/// restored tries exercise shared-node rebuilding.
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

/// The stateful chain under test: firewall → flow tracker. Both the
/// rule trie and the flow table are checkpointed state; the flow table
/// is what a crash actually loses. The engine injects `Operator(0)`
/// faults around the whole chain.
fn spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| FirewallOp::new(rule_db(), Action::Allow))
        .stage(|| FlowTracker::new(100_000))
}

/// E10's breaker: three strikes open it for six ticks.
fn policy() -> BreakerPolicy {
    BreakerPolicy {
        throttle_after_strikes: 2,
        open_after_strikes: 3,
        open_ticks: 6,
        half_open_probes: 2,
        throttle_divisor: 4,
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

/// One point of the interval × fault-rate sweep.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Snapshot cadence in ticks (0 = snapshotting off).
    pub interval: u64,
    /// Injected fault rate at the chain site, in ppm.
    pub rate_ppm: u32,
    /// Packets offered to the runtime.
    pub offered: u64,
    /// Goodput in ppm of offered (integer-exact).
    pub goodput_ppm: u64,
    /// Contained panics (chain and seal faults).
    pub faults: u64,
    /// Chain rebuilds.
    pub respawns: u64,
    /// Snapshots sealed into stores.
    pub snapshots_taken: u64,
    /// Respawns restored from a verified snapshot.
    pub warm_restores: u64,
    /// Respawns with no usable snapshot.
    pub cold_restores: u64,
    /// State items (rules + flows) the warm respawns carried back — what
    /// the snapshot cadence is buying.
    pub state_items_restored: u64,
    /// Live state items summed over tenants at the end.
    pub final_state_items: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// Corruption-fallback scenario outcome.
#[derive(Debug, Clone)]
pub struct CorruptionOutcome {
    /// Warm respawns with only the latest buffer corrupted (1: from the
    /// previous buffer).
    pub single_warm_restores: u64,
    /// Items carried back by that respawn: the previous image's.
    pub single_items_restored: u64,
    /// Items lost to the extra staleness of the previous buffer.
    pub single_items_lost: u64,
    /// Cold respawns with both buffers corrupted (1).
    pub double_cold_restores: u64,
    /// The whole live table, lost cold.
    pub double_items_lost: u64,
}

/// Encode-fault scenario outcome.
#[derive(Debug, Clone)]
pub struct EncodeFaultOutcome {
    /// Contained faults (1: the seal that died).
    pub faults: u64,
    /// Warm respawns — the store held a prior verified snapshot.
    pub warm_restores: u64,
    /// Cold respawns (0).
    pub cold_restores: u64,
    /// Items the first respawn carried back: the pre-fault snapshot's.
    pub first_restored_items: u64,
    /// Seals that committed.
    pub snapshots_taken: u64,
}

/// The full experiment result set.
#[derive(Debug, Clone)]
pub struct RecoveryResults {
    /// Traffic ticks per sweep point.
    pub rounds: usize,
    /// Interval × fault-rate sweep.
    pub sweep: Vec<RecoveryPoint>,
    /// Scripted snapshot corruption.
    pub corruption: CorruptionOutcome,
    /// Scripted encode fault.
    pub encode: EncodeFaultOutcome,
}

/// The sweep plan: chain panics at `rate_ppm` and seal faults at a fifth
/// of it, plus one scripted crash — tenant 1's sixth batch — so even the
/// 0-rate points exercise restore.
fn sweep_plan(rate_ppm: u32) -> FaultPlan {
    FaultPlan::new(SEED)
        .inject(FaultSite::Operator(0), FaultKind::Panic, rate_ppm)
        .inject(FaultSite::CheckpointEncode, FaultKind::Panic, rate_ppm / 5)
        .inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 5, 6)
}

/// Runs one sweep point: `rounds` ticks of the same pre-generated traffic
/// at (`interval`, `rate_ppm`).
pub fn measure_sweep_point(interval: u64, rate_ppm: u32, rounds: usize) -> RecoveryPoint {
    silence_panics();
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec::new(format!("t{i}")).rate(4_096, 8_192))
            .collect(),
        lanes: LANES,
        breaker: policy(),
        snapshot_every_ticks: interval,
        snapshot_full_every: 4,
        chain: Some(Arc::new(|_, _| spec())),
        faults: Some(Arc::new(sweep_plan(rate_ppm))),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction");
    for wave in traffic(rounds) {
        rt.offer(wave);
        rt.step();
    }
    let report = rt.finish();
    let sum = |f: fn(&rbs_runtime::TenantOutcome) -> u64| report.tenants.iter().map(f).sum();
    let point = RecoveryPoint {
        interval,
        rate_ppm,
        offered: report.offered(),
        goodput_ppm: (report.out() * 1_000_000)
            .checked_div(report.offered())
            .unwrap_or(1_000_000),
        faults: sum(|t| t.faults),
        respawns: sum(|t| t.respawns),
        snapshots_taken: sum(|t| t.snapshots_taken),
        warm_restores: sum(|t| t.warm_restores),
        cold_restores: sum(|t| t.cold_restores),
        state_items_restored: sum(|t| t.state_items_restored),
        final_state_items: sum(|t| t.final_state_items),
        unaccounted: report.unaccounted_packets() as i64,
    };
    assert_eq!(
        point.unaccounted, 0,
        "packets vanished at interval {interval}, {rate_ppm} ppm"
    );
    if interval == 0 {
        assert_eq!(point.snapshots_taken, 0, "interval 0 disables snapshots");
        assert_eq!(point.warm_restores, 0, "nothing to restore from");
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

/// A one-tenant runtime with a flow tracker only (exact item counts)
/// sealing a full image every tick.
fn scripted_runtime(plan: FaultPlan) -> TenantLaneRuntime {
    TenantLaneRuntime::new(TenantLaneConfig {
        tenants: vec![TenantSpec::new("scripted")],
        lanes: LANES,
        snapshot_every_ticks: 1,
        snapshot_full_every: 1,
        chain: Some(Arc::new(|_, _| {
            PipelineSpec::new().stage(|| FlowTracker::new(100_000))
        })),
        faults: Some(Arc::new(plan)),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction")
}

fn scripted_round(rt: &mut TenantLaneRuntime, round: usize) {
    rt.offer(scripted_wave(round));
    rt.step();
}

/// The tenant's respawns, in order, as `(warm, items)`.
fn respawns(report: &TenantReport) -> Vec<(bool, u64)> {
    (report.events.iter())
        .filter_map(|e| match e.kind {
            TenantEventKind::Respawned { warm, items } => Some((warm, items)),
            _ => None,
        })
        .collect()
}

/// Seals images of 24/48/72 flows, corrupts `targets`, then crashes
/// the chain on its fourth batch. Returns the one respawn it caused and
/// the 72 items live at the crash.
fn crash_after_corrupting(targets: &[Buffered]) -> ((bool, u64), u64) {
    silence_panics();
    let plan =
        FaultPlan::new(SEED).inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, 3, 4);
    let mut rt = scripted_runtime(plan);
    for round in 0..3 {
        scripted_round(&mut rt, round);
    }
    for &t in targets {
        assert!(rt.corrupt_snapshot(0, t), "buffer {} present", t.name());
    }
    let live = rt.state_items(0);
    scripted_round(&mut rt, 3);
    let respawned = respawns(&rt.finish());
    assert_eq!(respawned.len(), 1, "one crash, one respawn");
    (respawned[0], live)
}

/// Scripted corruption: latest rejected → previous restores; both
/// rejected → cold. Never a corrupted restore.
pub fn measure_corruption() -> CorruptionOutcome {
    let ((single_warm, single_items), live) = crash_after_corrupting(&[Buffered::Latest]);
    let ((double_warm, double_items), double_live) =
        crash_after_corrupting(&[Buffered::Latest, Buffered::Previous]);
    let out = CorruptionOutcome {
        single_warm_restores: u64::from(single_warm),
        single_items_restored: single_items,
        single_items_lost: live - single_items,
        double_cold_restores: u64::from(!double_warm),
        double_items_lost: double_live - double_items,
    };
    assert_eq!(out.single_warm_restores, 1, "the previous buffer restores");
    assert!(
        out.single_items_restored < live,
        "the corrupted latest image was not restored"
    );
    assert_eq!(out.double_cold_restores, 1, "double corruption goes cold");
    assert_eq!(double_items, 0, "a cold chain starts empty");
    out
}

/// Scripted encode fault: the second seal panics; the store still holds
/// the first, and the respawn restores it.
pub fn measure_encode_fault() -> EncodeFaultOutcome {
    silence_panics();
    let plan =
        FaultPlan::new(SEED).inject_window(FaultSite::CheckpointEncode, FaultKind::Panic, 0, 1, 2);
    let mut rt = scripted_runtime(plan);
    // Tick 0 seals 24 flows; tick 1's seal (48 flows) dies.
    for round in 0..4 {
        scripted_round(&mut rt, round);
    }
    let report = rt.finish();
    let t = &report.tenants[0];
    let out = EncodeFaultOutcome {
        faults: t.faults,
        warm_restores: t.warm_restores,
        cold_restores: t.cold_restores,
        first_restored_items: respawns(&report)
            .first()
            .expect("the seal fault respawned")
            .1,
        snapshots_taken: t.snapshots_taken,
    };
    assert_eq!(out.faults, 1, "the seal fault was contained as a fault");
    assert_eq!(out.cold_restores, 0, "recovery stayed warm");
    assert_eq!(out.first_restored_items, 24, "the pre-fault snapshot won");
    assert_eq!(report.unaccounted_packets(), 0);
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
    out.push_str(&format!("  \"tenants\": {TENANTS},\n"));
    out.push_str(&format!("  \"lanes\": {LANES},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"flows\": {FLOWS},\n"));
    out.push_str(&format!("  \"rules\": {RULES},\n"));
    out.push_str(&format!("  \"rounds\": {},\n", r.rounds));
    out.push_str("  \"sweep\": [\n");
    for (i, s) in r.sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"interval\": {}, \"rate_ppm\": {}, \"offered\": {}, \"goodput_ppm\": {}, \"faults\": {}, \"respawns\": {}, \"snapshots_taken\": {}, \"warm_restores\": {}, \"cold_restores\": {}, \"state_items_restored\": {}, \"final_state_items\": {}, \"unaccounted\": {}}}{}\n",
            s.interval,
            s.rate_ppm,
            s.offered,
            s.goodput_ppm,
            s.faults,
            s.respawns,
            s.snapshots_taken,
            s.warm_restores,
            s.cold_restores,
            s.state_items_restored,
            s.final_state_items,
            s.unaccounted,
            if i + 1 < r.sweep.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let c = &r.corruption;
    out.push_str(&format!(
        "  \"corruption\": {{\"single_warm_restores\": {}, \"single_items_restored\": {}, \"single_items_lost\": {}, \"double_cold_restores\": {}, \"double_items_lost\": {}}},\n",
        c.single_warm_restores,
        c.single_items_restored,
        c.single_items_lost,
        c.double_cold_restores,
        c.double_items_lost,
    ));
    let e = &r.encode;
    out.push_str(&format!(
        "  \"encode_fault\": {{\"faults\": {}, \"warm_restores\": {}, \"cold_restores\": {}, \"first_restored_items\": {}, \"snapshots_taken\": {}}}\n",
        e.faults, e.warm_restores, e.cold_restores, e.first_restored_items, e.snapshots_taken,
    ));
    out.push_str("}\n");
    out
}

/// Ticks per sweep point behind the committed `BENCH_recovery.json`.
pub const ROUNDS: usize = 80;
/// Ticks per sweep point under `--quick`.
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
        "state restored",
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
            s.state_items_restored.to_string(),
            s.final_state_items.to_string(),
        ]);
    }

    let mut out =
        String::from("E11 — warm recovery: state survival across crashes, by snapshot cadence\n");
    out.push_str(&t.render());
    let c = &results.corruption;
    out.push_str(&format!(
        "\ncorruption: latest corrupted → previous restored {} items ({} lost to staleness); \
         both corrupted → cold restart, {} items lost\n",
        c.single_items_restored, c.single_items_lost, c.double_items_lost,
    ));
    let e = &results.encode;
    out.push_str(&format!(
        "encode fault: {} fault contained, {} warm respawns from the {}-item snapshot — \
         a failed seal commits nothing\n",
        e.faults, e.warm_restores, e.first_restored_items,
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
        assert_eq!(p.warm_restores, 0);
        assert_eq!(p.cold_restores, p.respawns, "every respawn is cold");
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn one_percent_point_recovers_warm() {
        let p = measure_sweep_point(2, 10_000, 12);
        assert!(p.warm_restores >= 1, "no warm restore at 1% faults");
        assert!(p.snapshots_taken >= 1);
        assert!(p.state_items_restored > 0);
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn sweep_points_are_deterministic() {
        let a = measure_sweep_point(2, 50_000, 12);
        let b = measure_sweep_point(2, 50_000, 12);
        assert!(a.faults > 0, "5% over 12 ticks injects something");
        assert_eq!(a.goodput_ppm, b.goodput_ppm);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.respawns, b.respawns);
        assert_eq!(a.snapshots_taken, b.snapshots_taken);
        assert_eq!(a.warm_restores, b.warm_restores);
        assert_eq!(a.cold_restores, b.cold_restores);
        assert_eq!(a.state_items_restored, b.state_items_restored);
        assert_eq!(a.final_state_items, b.final_state_items);
    }

    #[test]
    fn corruption_outcome_is_exact() {
        let c = measure_corruption();
        // The previous buffer held the tick-1 image (48 flows); 72 were
        // live at the crash, so the staleness costs exactly 24.
        assert_eq!(c.single_items_restored, 48);
        assert_eq!(c.single_items_lost, 24);
        assert_eq!(c.double_items_lost, 72);
    }

    #[test]
    fn encode_fault_outcome_is_exact() {
        let e = measure_encode_fault();
        assert_eq!(e.first_restored_items, 24);
        assert_eq!(e.warm_restores, 1);
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
                state_items_restored: 120,
                final_state_items: 300,
                unaccounted: 0,
            }],
            corruption: CorruptionOutcome {
                single_warm_restores: 1,
                single_items_restored: 48,
                single_items_lost: 24,
                double_cold_restores: 1,
                double_items_lost: 72,
            },
            encode: EncodeFaultOutcome {
                faults: 1,
                warm_restores: 1,
                cold_restores: 0,
                first_restored_items: 24,
                snapshots_taken: 3,
            },
        };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"e11_recovery\""));
        assert!(j.contains("\"interval\": 2"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
