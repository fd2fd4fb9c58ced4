//! Chaos tests: randomized fault interleavings never lose packet
//! accounting, scripted crash loops trip the circuit breaker within its
//! budget, the watchdog reclaims hung shards, and a fixed seed replays
//! the whole supervision history deterministically.
//!
//! ```text
//! cargo test -p rbs-runtime --test chaos_accounting
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::operators::ChaosPoint;
use rbs_netfx::{FlowTracker, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    shard_of_packet, BackendKind, BreakerState, RestartPolicy, RuntimeConfig, RuntimeReport,
    ShardedRuntime, SupervisorEvent, SupervisorEventKind,
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
/// every round exercises a deterministic (but varied) shard spread.
fn wave(round: usize) -> PacketBatch {
    (0..24u16)
        .map(|i| udp(2000 + (round as u16) * 24 + i, 80))
        .collect()
}

/// `count` one-packet flows all hashing to shard `target` of `n`.
fn batch_for_shard(target: usize, n: usize, count: usize) -> PacketBatch {
    (1..u16::MAX)
        .map(|sp| udp(sp, 80))
        .filter(|p| shard_of_packet(p, n) == target)
        .take(count)
        .collect()
}

/// A pipeline whose only stage is a chaos point: transparent until the
/// plan says otherwise.
fn chaos_spec() -> PipelineSpec {
    PipelineSpec::new().stage(|| ChaosPoint::new(0))
}

/// The stateful variant: the chaos point feeding a flow tracker, so
/// crashes destroy real per-flow state and warm restores carry it back.
fn stateful_chaos_spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(|| FlowTracker::new(100_000))
}

/// Runs `rounds` lockstep dispatch+drain rounds under `plan` and returns
/// the shutdown report. Lockstep keeps the supervision clock decoupled
/// from thread timing: every fault from round `r` is observed during
/// round `r`'s drain. `snapshot_interval` > 0 turns on checkpoint-backed
/// warm recovery (the pipeline is stateful either way). The whole
/// machine runs on `backend` — conservation must hold whichever cost
/// model the boundary charges.
fn run_chaos(
    plan: FaultPlan,
    workers: usize,
    rounds: usize,
    restart: RestartPolicy,
    snapshot_interval: u64,
    backend: BackendKind,
) -> RuntimeReport {
    let mut rt = ShardedRuntime::new(
        stateful_chaos_spec(),
        RuntimeConfig {
            workers,
            queue_capacity: 8,
            restart,
            snapshot_interval_ticks: snapshot_interval,
            snapshot_full_every: 2,
            backend,
            faults: Some(Arc::new(plan)),
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction");
    for round in 0..rounds {
        rt.dispatch(wave(round)).expect("dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "round {round} drained");
    }
    rt.shutdown()
}

/// Sort key making event-log comparison independent of which worker's
/// concurrent fault was *observed* first within one drain pass (ticks and
/// per-worker sequences are deterministic; cross-worker observation order
/// within a tick is not).
fn event_key(e: &SupervisorEvent) -> (u64, usize, &'static str, u64) {
    let payload = match e.kind {
        SupervisorEventKind::BackoffScheduled { until_tick }
        | SupervisorEventKind::BreakerOpened { until_tick } => until_tick,
        SupervisorEventKind::Redistributed { packets } | SupervisorEventKind::Shed { packets } => {
            packets
        }
        _ => 0,
    };
    (e.tick, e.worker, e.kind.name(), payload)
}

/// The journal filtered down to its replayable core, sorted. `Shed`
/// events are excluded: whether a batch bound for a dying worker is
/// written off as `lost` (queued, then killed) or `shed` (send already
/// failed) depends on when the panic lands — only their *sum* is
/// deterministic, and the ledger comparison covers that.
fn replayable_events(report: &RuntimeReport) -> Vec<SupervisorEvent> {
    let mut events: Vec<SupervisorEvent> = report
        .events
        .iter()
        .filter(|e| !matches!(e.kind, SupervisorEventKind::Shed { .. }))
        .cloned()
        .collect();
    events.sort_by_key(event_key);
    events
}

/// The conservation identities every chaos run must satisfy, whatever
/// was injected: nothing vanishes and nothing is double counted.
fn assert_conserved(report: &RuntimeReport) {
    assert_eq!(
        report.unaccounted_packets(),
        0,
        "offered == packets_in + lost + shed must hold: {report:#?}"
    );
    assert_eq!(
        report.packets_in,
        report.packets_out + report.drops,
        "pipeline conservation"
    );
    for w in &report.workers {
        assert_eq!(
            w.processed + w.lost,
            w.dispatched,
            "batch conservation for worker {}",
            w.index
        );
        assert_eq!(
            w.dispatched_packets,
            w.packets_in + w.lost_packets,
            "packet conservation for worker {}",
            w.index
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite 3: random fault interleavings never lose stats
    /// accounting. Panics, short hangs, torn channels, send stalls,
    /// spawn-time crashes, and delays are mixed at random rates; after
    /// every round drains, `offered == packets_in + lost + shed` and the
    /// per-worker ledgers must balance exactly.
    #[test]
    fn random_fault_interleavings_conserve_packets(
        seed in any::<u64>(),
        panic_ppm in 0u32..80_000,
        stall_ppm in 0u32..40_000,
        delay_ppm in 0u32..60_000,
        close_ppm in 0u32..30_000,
        send_stall_ppm in 0u32..30_000,
        attach_ppm in 0u32..20_000,
        encode_ppm in 0u32..40_000,
        snapshot_interval in 0u64..4,
        rounds in 3usize..8,
        copy_backend in any::<bool>(),
    ) {
        let plan = FaultPlan::new(seed)
            .inject(FaultSite::Operator(0), FaultKind::Panic, panic_ppm)
            .inject(FaultSite::Operator(0), FaultKind::Stall { millis: 5 }, stall_ppm)
            .inject(FaultSite::Operator(0), FaultKind::Delay { micros: 50 }, delay_ppm)
            .inject(FaultSite::ChannelSend, FaultKind::CloseChannel, close_ppm)
            .inject(FaultSite::ChannelSend, FaultKind::Stall { millis: 1 }, send_stall_ppm)
            .inject(FaultSite::DomainAttach, FaultKind::Panic, attach_ppm)
            .inject(FaultSite::CheckpointEncode, FaultKind::Panic, encode_ppm);
        let restart = RestartPolicy {
            max_consecutive_faults: 2,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 4,
            breaker_cooldown_ticks: 3,
            backoff_jitter_ticks: 2,
        };
        // Conservation is proven backend-independent: half the cases run
        // on the copy-in/copy-out strawman instead of zero-cost SFI.
        let backend = if copy_backend {
            BackendKind::CopyBoundary
        } else {
            BackendKind::TypedSfi
        };
        let report = run_chaos(plan, 3, rounds, restart, snapshot_interval, backend);
        assert_conserved(&report);
        prop_assert_eq!(
            report.offered_packets,
            (rounds as u64) * 24,
            "every offered packet was counted"
        );
        // The store seals before committing, so even encode faults never
        // leave anything unverifiable behind.
        prop_assert_eq!(report.snapshot_rejects, 0);
        if snapshot_interval == 0 {
            prop_assert_eq!(report.snapshots_taken, 0);
            prop_assert_eq!(report.warm_restores, 0);
        }
    }
}

/// Satellite 3's second half: a scripted crash loop (the worker dies at
/// every (re)spawn, before taking any work) must open the breaker within
/// `max_consecutive_faults` observed faults, probe after the cooldown,
/// and reopen when the probe dies too — all on schedule.
#[test]
fn crash_loop_opens_breaker_within_budget() {
    const VICTIM: usize = 0;
    let policy = RestartPolicy {
        max_consecutive_faults: 3,
        backoff_base_ticks: 1,
        backoff_cap_ticks: 4,
        breaker_cooldown_ticks: 8,
        backoff_jitter_ticks: 0,
    };
    // Every spawn of worker 0 — occurrence = spawn_seq — dies at attach.
    let plan = FaultPlan::new(11).inject_window(
        FaultSite::DomainAttach,
        FaultKind::Panic,
        VICTIM as u64,
        0,
        1_000,
    );
    let mut rt = ShardedRuntime::new(
        chaos_spec(),
        RuntimeConfig {
            workers: 2,
            queue_capacity: 8,
            restart: policy.clone(),
            faults: Some(Arc::new(plan)),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();

    let opened = |rt: &ShardedRuntime| {
        rt.events()
            .iter()
            .filter(|e| {
                e.worker == VICTIM && matches!(e.kind, SupervisorEventKind::BreakerOpened { .. })
            })
            .count()
    };

    // Supervision-only rounds (empty dispatches) until the breaker opens.
    while opened(&rt) == 0 {
        assert!(
            rt.tick() < 32,
            "breaker must open within the restart budget; events: {:#?}",
            rt.events()
        );
        rt.dispatch(PacketBatch::new()).unwrap();
    }
    let opened_at = rt.tick();
    // Budget check: 3 observed faults with backoffs of 1 and 2 ticks in
    // between — the breaker must be open by tick 6.
    assert!(
        opened_at <= 6,
        "opened at tick {opened_at}, budget allows 6"
    );
    assert_eq!(rt.snapshots()[VICTIM].breaker, BreakerState::Open);
    assert_eq!(rt.snapshots()[VICTIM].consecutive_faults, 3);

    // While the breaker is open, the victim's flows are redistributed to
    // the healthy peer: nothing is lost, goodput stays at 1.0.
    rt.dispatch(wave(0)).unwrap();
    assert!(rt.drain(Duration::from_secs(10)), "degraded drain");

    // Keep ticking: the cooldown elapses, a half-open probe respawns,
    // dies at attach like its predecessors, and the breaker reopens.
    while opened(&rt) < 2 {
        assert!(
            rt.tick() < 64,
            "probe fault must reopen the breaker; events: {:#?}",
            rt.events()
        );
        rt.dispatch(PacketBatch::new()).unwrap();
    }
    assert!(
        rt.events()
            .iter()
            .any(|e| e.worker == VICTIM && e.kind == SupervisorEventKind::BreakerHalfOpened),
        "the reopen went through a half-open probe"
    );

    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.offered_packets, 24);
    assert_eq!(report.packets_out, 24, "peer absorbed the victim's flows");
    assert!(report.goodput() > 0.999);
    let victim = &report.workers[VICTIM];
    assert!(victim.redistributed_packets > 0, "flows were rerouted");
    assert_eq!(victim.dispatched, 0, "an open breaker is never fed");
    assert_eq!(report.breaker_opens, 2);
    assert_eq!(report.breaker_half_opens, 1);
    assert_eq!(report.breaker_closes, 0);
}

/// The heartbeat watchdog: a worker that *hangs* (no panic to catch) is
/// force-failed, its thread abandoned, and the shard respawned — while
/// the stalled batch still lands in the ledger once the zombie finishes.
#[test]
fn watchdog_reclaims_hung_worker() {
    const WORKERS: usize = 2;
    // The first batch the victim's chaos point sees stalls far longer
    // than the hang timeout.
    let plan = FaultPlan::new(5).inject_window(
        FaultSite::Operator(0),
        FaultKind::Stall { millis: 1_500 },
        0,
        0,
        1,
    );
    let mut rt = ShardedRuntime::new(
        chaos_spec(),
        RuntimeConfig {
            workers: WORKERS,
            queue_capacity: 8,
            hang_timeout: Duration::from_millis(40),
            faults: Some(Arc::new(plan)),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();

    // Feed both shards; worker 0's batch hangs mid-pipeline.
    rt.dispatch(wave(0)).unwrap();

    // Supervision-only rounds until the watchdog fires. The victim's
    // heartbeat ages past 40ms well before its 1.5s stall ends.
    let mut kills = 0;
    for _ in 0..400 {
        rt.dispatch(PacketBatch::new()).unwrap();
        kills = rt
            .events()
            .iter()
            .filter(|e| e.kind == SupervisorEventKind::WatchdogKill)
            .count();
        if kills > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(kills, 1, "watchdog killed the hung worker exactly once");

    // The runtime stays live while the zombie's stall pends: the healthy
    // shard keeps taking and finishing work. (Shard 0 is left unfed —
    // the fault window is per-generation, so a fresh batch would stall
    // the replacement too; that repeat-kill case is the crash-loop
    // test's territory.)
    for _ in 0..3 {
        rt.dispatch(batch_for_shard(1, WORKERS, 8)).unwrap();
        assert!(rt.drain(Duration::from_secs(10)), "post-kill drain");
    }
    assert!(rt.snapshots()[1].processed >= 3, "healthy shard kept going");

    // Shutdown joins the zombie once its stall ends, so its batch is
    // counted as processed and the provisional loss self-corrects.
    let report = rt.shutdown();
    assert_conserved(&report);
    assert_eq!(report.watchdog_kills, 1);
    assert!(report.respawns >= 1);
    assert_eq!(
        report.lost_packets, 0,
        "the stalled batch completed in the zombie and was counted"
    );
    assert!(report.goodput() > 0.999);
}

/// The reproducibility contract behind the chaos experiment: one seed,
/// one history. Two runs with identical seeds must produce identical
/// supervision journals (up to within-tick observation order) and
/// identical ledgers.
#[test]
fn fixed_seed_replays_identically() {
    let run = || {
        let plan = FaultPlan::new(0xC0FFEE)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 60_000)
            .inject(FaultSite::ChannelSend, FaultKind::CloseChannel, 20_000)
            .inject(FaultSite::DomainAttach, FaultKind::Panic, 30_000);
        let restart = RestartPolicy {
            max_consecutive_faults: 2,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 4,
            breaker_cooldown_ticks: 3,
            backoff_jitter_ticks: 3,
        };
        // Snapshot cadence on: the replayed history includes snapshot
        // work items, warm restores, and state-loss accounting.
        run_chaos(plan, 3, 12, restart, 2, BackendKind::TypedSfi)
    };
    let (a, b) = (run(), run());
    assert_conserved(&a);
    assert_conserved(&b);
    assert_eq!(
        replayable_events(&a),
        replayable_events(&b),
        "journals diverged"
    );
    assert!(a.faults > 0, "the plan injected something");
    assert_eq!(a.offered_packets, b.offered_packets);
    assert_eq!(a.packets_in, b.packets_in);
    assert_eq!(a.packets_out, b.packets_out);
    assert_eq!(
        a.lost_packets + a.shed_packets,
        b.lost_packets + b.shed_packets,
        "unserved packets"
    );
    assert_eq!(a.redistributed_packets, b.redistributed_packets);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.respawns, b.respawns);
    assert_eq!(a.warm_restores, b.warm_restores);
    assert_eq!(a.cold_restores, b.cold_restores);
    assert_eq!(a.state_items_lost, b.state_items_lost);
    assert_eq!(a.snapshots_taken, b.snapshots_taken);
    assert_eq!(a.breaker_opens, b.breaker_opens);
    assert_eq!(a.breaker_half_opens, b.breaker_half_opens);
    assert_eq!(a.breaker_closes, b.breaker_closes);
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.processed, wb.processed, "worker {}", wa.index);
        assert_eq!(wa.packets_in, wb.packets_in, "worker {}", wa.index);
        assert_eq!(wa.packets_out, wb.packets_out, "worker {}", wa.index);
        assert_eq!(wa.breaker, wb.breaker, "worker {}", wa.index);
        assert_eq!(wa.faults, wb.faults, "worker {}", wa.index);
        assert_eq!(wa.respawns, wb.respawns, "worker {}", wa.index);
    }
}

/// The backend seam's contract applied to chaos: an isolation backend is
/// a *cost model*, not a mechanism — so the same seeded fault schedule
/// must produce the same supervision journal and the same conserved
/// ledger whether boundaries are free (TypedSfi) or pay copy-in/copy-out
/// (CopyBoundary). Faults fire by occurrence, not wall clock, so the
/// copies slow the run without steering it.
#[test]
fn chaos_history_is_backend_independent() {
    let run = |backend: BackendKind| {
        let plan = FaultPlan::new(0xBEEF)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 60_000)
            .inject(FaultSite::DomainAttach, FaultKind::Panic, 30_000)
            .inject(FaultSite::CheckpointEncode, FaultKind::Panic, 30_000);
        let restart = RestartPolicy {
            max_consecutive_faults: 2,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 4,
            breaker_cooldown_ticks: 3,
            backoff_jitter_ticks: 2,
        };
        run_chaos(plan, 3, 10, restart, 2, backend)
    };
    let typed = run(BackendKind::TypedSfi);
    let copy = run(BackendKind::CopyBoundary);
    assert_conserved(&typed);
    assert_conserved(&copy);
    assert!(typed.faults > 0, "the plan injected something");
    assert_eq!(
        replayable_events(&typed),
        replayable_events(&copy),
        "supervision history diverged across backends"
    );
    assert_eq!(typed.offered_packets, copy.offered_packets);
    assert_eq!(typed.packets_in, copy.packets_in);
    assert_eq!(typed.packets_out, copy.packets_out);
    assert_eq!(typed.faults, copy.faults);
    assert_eq!(typed.respawns, copy.respawns);
    assert_eq!(typed.warm_restores, copy.warm_restores);
    assert_eq!(typed.cold_restores, copy.cold_restores);
    assert_eq!(typed.snapshots_taken, copy.snapshots_taken);
}
