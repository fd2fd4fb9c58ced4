//! Chaos tests on the tenant engine: randomized fault interleavings
//! never lose packet accounting, a scripted crash loop trips the breaker
//! within its strike budget, a work-budget overrun is contained by the
//! same breaker, and a fixed seed replays the whole journal identically
//! at one lane and two and on every backend.
//!
//! ```text
//! cargo test -p rbs-runtime --test chaos_accounting
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    BackendKind, BreakerPhase, BreakerPolicy, TenantEventKind, TenantLaneConfig, TenantLaneRuntime,
    TenantReport, TenantSpec,
};

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

/// One round's traffic: 24 one-packet flows, distinct across rounds so
/// every round exercises a deterministic (but varied) tenant spread.
fn wave(round: usize) -> PacketBatch {
    (0..24u16)
        .map(|i| udp(2000 + (round as u16) * 24 + i, 80))
        .collect()
}

/// A tight breaker: two strikes open it for three ticks.
fn tight() -> BreakerPolicy {
    BreakerPolicy {
        throttle_after_strikes: 1,
        open_after_strikes: 2,
        open_ticks: 3,
        half_open_probes: 1,
        throttle_divisor: 2,
    }
}

/// One chaos run's knobs.
struct Run {
    plan: FaultPlan,
    tenants: usize,
    lanes: usize,
    rounds: usize,
    breaker: BreakerPolicy,
    snapshot_every_ticks: u64,
    backend: BackendKind,
}

/// Runs `rounds` ticks of [`wave`] traffic through flow-tracking tenant
/// chains under `plan` and returns the report. `snapshot_every_ticks` >
/// 0 turns on snapshots and warm respawns. The whole engine runs on
/// `backend`: conservation must hold whichever cost model the boundary
/// charges.
fn run_chaos(run: Run) -> TenantReport {
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..run.tenants)
            .map(|i| TenantSpec::new(format!("t{i}")))
            .collect(),
        lanes: run.lanes,
        breaker: run.breaker,
        snapshot_every_ticks: run.snapshot_every_ticks,
        snapshot_full_every: 2,
        backend: run.backend,
        chain: Some(Arc::new(|_, _| {
            PipelineSpec::new().stage(|| FlowTracker::new(100_000))
        })),
        faults: Some(Arc::new(run.plan)),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction");
    for round in 0..run.rounds {
        rt.offer(wave(round));
        rt.step();
    }
    rt.finish()
}

/// The conservation identities every chaos run must satisfy, whatever
/// was injected: nothing vanishes and nothing is double counted.
fn assert_conserved(report: &TenantReport) {
    assert_eq!(report.unaccounted_packets(), 0, "{report:#?}");
    for t in &report.tenants {
        let l = t.ledger;
        assert_eq!(
            l.processed,
            l.out + l.drops,
            "chain conservation, {}",
            t.name
        );
        assert_eq!(l.unaccounted(), 0, "ledger of {}", t.name);
    }
}

/// Everything a replay must reproduce: the journal and every outcome
/// field except what depends on which lane ran a batch (`stolen`).
fn history(report: &TenantReport) -> Vec<String> {
    let mut lines: Vec<String> = report.events.iter().map(|e| format!("{e:?}")).collect();
    for t in &report.tenants {
        let ledger = rbs_runtime::TenantLedger {
            stolen: 0,
            ..t.ledger
        };
        lines.push(format!(
            "{} {:?} {:?} faults={} respawns={} opens={} warm={} cold={} restored={} \
             final={} snaps={}",
            t.name,
            ledger,
            t.final_phase,
            t.faults,
            t.respawns,
            t.opens,
            t.warm_restores,
            t.cold_restores,
            t.state_items_restored,
            t.final_state_items,
            t.snapshots_taken,
        ));
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fault interleavings never lose accounting. Panics, short
    /// stalls, delays and seal faults are mixed at random rates, at one
    /// lane or two; after the run every tenant's
    /// `offered == processed + lost + shed` holds exactly.
    #[test]
    fn random_fault_interleavings_conserve_packets(
        seed in any::<u64>(),
        panic_ppm in 0u32..80_000,
        stall_ppm in 0u32..40_000,
        delay_ppm in 0u32..60_000,
        encode_ppm in 0u32..40_000,
        snapshot_interval in 0u64..4,
        rounds in 3usize..8,
        lanes in 1usize..3,
        copy_backend in any::<bool>(),
    ) {
        let plan = FaultPlan::new(seed)
            .inject(FaultSite::Operator(0), FaultKind::Panic, panic_ppm)
            .inject(FaultSite::Operator(0), FaultKind::Delay { micros: 2_000 }, stall_ppm)
            .inject(FaultSite::Operator(0), FaultKind::Delay { micros: 50 }, delay_ppm)
            .inject(FaultSite::CheckpointEncode, FaultKind::Panic, encode_ppm);
        // Conservation is proven backend-independent: half the cases run
        // on the copy-in/copy-out strawman instead of zero-cost SFI.
        let backend = if copy_backend {
            BackendKind::CopyBoundary
        } else {
            BackendKind::TypedSfi
        };
        let report = run_chaos(Run {
            plan,
            tenants: 3,
            lanes,
            rounds,
            breaker: tight(),
            snapshot_every_ticks: snapshot_interval,
            backend,
        });
        assert_conserved(&report);
        prop_assert_eq!(report.offered(), (rounds as u64) * 24, "every offered packet was counted");
        if snapshot_interval == 0 {
            let sealed: u64 = report.tenants.iter().map(|t| t.snapshots_taken).sum();
            let warm: u64 = report.tenants.iter().map(|t| t.warm_restores).sum();
            prop_assert_eq!(sealed, 0);
            prop_assert_eq!(warm, 0);
        }
    }
}

/// A scripted crash loop (tenant 0's chain dies on every batch) must
/// open the breaker within `open_after_strikes` faults, probe after the
/// open timer, and reopen when the probe dies too — all on schedule —
/// while the peer keeps full goodput.
#[test]
fn crash_loop_opens_breaker_within_budget() {
    const VICTIM: usize = 0;
    let breaker = BreakerPolicy {
        throttle_after_strikes: 2,
        open_after_strikes: 3,
        open_ticks: 8,
        half_open_probes: 2,
        throttle_divisor: 4,
    };
    let plan = FaultPlan::new(11).inject_window(
        FaultSite::Operator(0),
        FaultKind::Panic,
        VICTIM as u64,
        0,
        u64::MAX,
    );
    let report = run_chaos(Run {
        plan,
        tenants: 2,
        lanes: 2,
        rounds: 12,
        breaker,
        snapshot_every_ticks: 0,
        backend: BackendKind::TypedSfi,
    });
    assert_conserved(&report);
    let victim_events: Vec<_> = (report.events.iter())
        .filter(|e| e.tenant == VICTIM)
        .map(|e| (e.tick, e.kind))
        .collect();
    // Three faults, one a tick: respawn, throttle + respawn, open.
    let opened_at = victim_events
        .iter()
        .find(|(_, k)| matches!(k, TenantEventKind::Opened { .. }))
        .expect("the breaker opened")
        .0;
    assert_eq!(opened_at, 2, "the third fault opens it");
    assert!(victim_events.contains(&(2, TenantEventKind::Opened { strikes: 3 })));
    // The open timer expires at tick 10; the probe dies at tick 11.
    assert!(victim_events.contains(&(10, TenantEventKind::HalfOpened)));
    assert!(victim_events.contains(&(11, TenantEventKind::Reopened)));

    let (victim, peer) = (&report.tenants[VICTIM], &report.tenants[1]);
    assert_eq!(victim.opens, 2);
    assert_eq!(victim.final_phase, BreakerPhase::Open);
    assert!(victim.ledger.shed_open > 0, "an open breaker is never fed");
    assert_eq!(
        peer.ledger.goodput_ppm(),
        1_000_000,
        "the peer never noticed"
    );
    assert_eq!(peer.faults, 0);
}

/// A tenant that overruns `work_budget_per_tick` on every tick is struck
/// like a faulting one and contained by the same breaker — without a
/// single packet lost — while its peer keeps full goodput.
#[test]
fn budget_overrun_opens_the_hog_breaker() {
    const HOG: usize = 0;
    let mut specs: Vec<TenantSpec> = (0..2).map(|i| TenantSpec::new(format!("t{i}"))).collect();
    specs[HOG] = specs[HOG].clone().cost_per_packet(64);
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: specs,
        lanes: 2,
        work_budget_per_tick: 64,
        breaker: BreakerPolicy {
            open_after_strikes: 2,
            ..BreakerPolicy::default()
        },
        chain: Some(Arc::new(|_, _| {
            PipelineSpec::new().stage(|| FlowTracker::new(1_024))
        })),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction");
    for round in 0..4 {
        rt.offer(wave(round));
        rt.step();
    }
    assert_eq!(rt.phase(HOG), BreakerPhase::Open);
    assert_eq!(rt.phase(1), BreakerPhase::Running);
    let report = rt.finish();
    assert_conserved(&report);
    let (hog, peer) = (&report.tenants[HOG], &report.tenants[1]);
    assert_eq!(hog.faults, 0, "an overrun is not a fault");
    assert_eq!(hog.ledger.lost, 0);
    assert!(hog.ledger.shed_open > 0, "the open breaker shed the hog");
    assert_eq!(peer.ledger.goodput_ppm(), 1_000_000);
}

/// The reproducibility contract behind the chaos experiment: one seed,
/// one history — at one lane and at two.
#[test]
fn fixed_seed_replays_identically() {
    let run = |lanes| {
        let plan = FaultPlan::new(0xC0FFEE)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 60_000)
            .inject(FaultSite::CheckpointEncode, FaultKind::Panic, 30_000);
        // Snapshot cadence on: the replayed history includes seals,
        // seal faults and warm respawns.
        run_chaos(Run {
            plan,
            tenants: 3,
            lanes,
            rounds: 24,
            breaker: tight(),
            snapshot_every_ticks: 2,
            backend: BackendKind::TypedSfi,
        })
    };
    let (one, again, two) = (run(1), run(1), run(2));
    assert_conserved(&one);
    assert!(
        one.tenants.iter().map(|t| t.faults).sum::<u64>() > 0,
        "the plan injected something"
    );
    assert_eq!(
        history(&one),
        history(&again),
        "replay at one lane diverged"
    );
    assert_eq!(history(&one), history(&two), "two lanes diverged from one");
}

/// The backend seam's contract applied to chaos: an isolation backend is
/// a *cost model*, not a mechanism — so the same seeded fault schedule
/// must produce the same journal and the same ledgers whether boundaries
/// are free (TypedSfi) or pay copy-in/copy-out (CopyBoundary). Faults
/// fire by occurrence, not wall clock, so the copies slow the run
/// without steering it.
#[test]
fn chaos_history_is_backend_independent() {
    let run = |backend| {
        let plan = FaultPlan::new(0xBEEF)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 60_000)
            .inject(FaultSite::CheckpointEncode, FaultKind::Panic, 30_000);
        run_chaos(Run {
            plan,
            tenants: 3,
            lanes: 2,
            rounds: 20,
            breaker: tight(),
            snapshot_every_ticks: 2,
            backend,
        })
    };
    let typed = run(BackendKind::TypedSfi);
    let copy = run(BackendKind::CopyBoundary);
    let mpk = run(BackendKind::MpkSim);
    assert_conserved(&typed);
    assert!(
        typed.tenants.iter().map(|t| t.faults).sum::<u64>() > 0,
        "the plan injected something"
    );
    assert_eq!(history(&typed), history(&copy), "copy-boundary diverged");
    assert_eq!(history(&typed), history(&mpk), "mpk-sim diverged");
}
