//! E10 — chaos experiment: goodput retained and recovery latency under
//! deterministic fault injection.
//!
//! Three scenarios against the `rbs-runtime` supervisor, all driven by a
//! seeded [`FaultPlan`] so every number here replays bit-identically:
//!
//! 1. **Fault-rate sweep** — the same pipeline and offered load at
//!    injected fault rates from 0 to 5%, mixing mid-pipeline panics,
//!    torn channels, spawn-time crashes, and micro-delays. Reported per
//!    rate: goodput retained, unserved packets (lost + shed), recovery
//!    latency percentiles in supervision ticks, and breaker activity.
//!    The acceptance bar — ≥ 90% goodput at a 1% fault rate with zero
//!    unaccounted packets — is asserted, not just printed.
//! 2. **Crash loop** — a worker that dies at every (re)spawn must trip
//!    its circuit breaker within the restart budget, probe after the
//!    cooldown, and reopen when the probe dies.
//! 3. **Watchdog** — a worker that *hangs* mid-batch is detected by the
//!    heartbeat watchdog, force-failed, and replaced; the hung batch
//!    still lands in the ledger when the abandoned thread finishes.
//!
//! Results are also emitted as `BENCH_chaos.json` in the repo root. All
//! JSON fields are integers derived from the logical supervision clock
//! and the packet ledgers — never wall time — which is what makes two
//! runs of the same seed byte-identical.

use std::sync::Arc;
use std::time::Duration;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::table::{fmt_f64, Table};
use rbs_netfx::operators::{ChaosPoint, MacSwap, TtlDecrement};
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{PacketBatch, PipelineSpec};
use rbs_runtime::{
    shard_of_packet, RestartPolicy, RuntimeConfig, RuntimeReport, ShardedRuntime,
    SupervisorEventKind,
};

use crate::harness::silence_panics;

/// Packets per dispatched batch.
const BATCH_SIZE: usize = 256;

/// Workers in the sweep runtime.
const WORKERS: usize = 4;

/// The one seed behind every scenario.
const SEED: u64 = 0x10_CA05;

/// The representative pipeline: a chaos point ahead of two real
/// header-rewriting stages.
fn spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(|| ChaosPoint::new(0))
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
}

/// The supervision policy under test: tight budget, real backoff.
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
        flows: 4096,
        payload_len: 64,
        seed: SEED,
        ..Default::default()
    });
    (0..batches).map(|_| g.next_batch(BATCH_SIZE)).collect()
}

/// Goodput as integer parts-per-million of offered load — exact, so it
/// is comparable byte-for-byte across runs.
fn goodput_ppm(report: &RuntimeReport) -> u64 {
    if report.offered_packets == 0 {
        return 1_000_000;
    }
    report.packets_out * 1_000_000 / report.offered_packets
}

/// Per-worker `Fault → Respawn` tick deltas from the journal: how long
/// each crash kept its shard out of rotation.
fn recovery_latencies(report: &RuntimeReport) -> Vec<u64> {
    let mut out = Vec::new();
    for w in 0..report.workers.len() {
        let mut pending: Option<u64> = None;
        for e in report.events.iter().filter(|e| e.worker == w) {
            match e.kind {
                SupervisorEventKind::Fault => {
                    pending.get_or_insert(e.tick);
                }
                SupervisorEventKind::Respawn => {
                    if let Some(start) = pending.take() {
                        out.push(e.tick - start);
                    }
                }
                _ => {}
            }
        }
    }
    out.sort_unstable();
    out
}

fn percentile(sorted: &[u64], tenths: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * tenths / 10).min(sorted.len() - 1)]
}

/// One point of the fault-rate sweep.
#[derive(Debug, Clone)]
pub struct ChaosPoint10 {
    /// Injected fault rate at the primary (panic) site, in ppm.
    pub rate_ppm: u32,
    /// Packets offered to the dispatcher.
    pub offered: u64,
    /// Packets that made it out of a pipeline.
    pub packets_out: u64,
    /// Goodput in ppm of offered (integer-exact).
    pub goodput_ppm: u64,
    /// Packets lost to faults or shed with accounting. The split between
    /// the two depends on panic timing; the sum does not.
    pub unserved: u64,
    /// Packets rerouted away from down shards (kept flowing).
    pub redistributed: u64,
    /// Contained panics.
    pub faults: u64,
    /// Supervisor respawns.
    pub respawns: u64,
    /// Breaker openings.
    pub breaker_opens: u64,
    /// Fault→respawn latency percentiles, in supervision ticks.
    pub recovery_ticks_p50: u64,
    /// 90th percentile of the same.
    pub recovery_ticks_p90: u64,
    /// Worst case of the same.
    pub recovery_ticks_max: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// Crash-loop scenario outcome.
#[derive(Debug, Clone)]
pub struct CrashLoopOutcome {
    /// Tick at which the breaker first opened.
    pub ticks_to_open: u64,
    /// Restart budget it had to stay within.
    pub budget_faults: u32,
    /// Total breaker openings (≥ 2: the half-open probe died too).
    pub breaker_opens: u64,
    /// Half-open probes admitted.
    pub breaker_half_opens: u64,
    /// Goodput in ppm while the victim's flows were redistributed.
    pub goodput_ppm: u64,
    /// Packets rerouted off the crash-looping shard.
    pub redistributed: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// Watchdog scenario outcome.
#[derive(Debug, Clone)]
pub struct WatchdogOutcome {
    /// Hung workers force-failed (exactly 1).
    pub watchdog_kills: u64,
    /// Supervisor respawns (≥ 1).
    pub respawns: u64,
    /// Goodput in ppm — 1_000_000: the hung batch completes in the
    /// abandoned thread and still counts.
    pub goodput_ppm: u64,
    /// Conservation residue — asserted zero.
    pub unaccounted: i64,
}

/// The full experiment result set.
#[derive(Debug, Clone)]
pub struct ChaosResults {
    /// Rounds (= supervision ticks carrying traffic) per sweep point.
    pub rounds: usize,
    /// Sweep over injected fault rates.
    pub sweep: Vec<ChaosPoint10>,
    /// The scripted crash loop.
    pub crash_loop: CrashLoopOutcome,
    /// The scripted hang.
    pub watchdog: WatchdogOutcome,
}

/// The sweep plan at `rate_ppm`: panics dominate, with torn channels and
/// spawn-time crashes at a fifth of the rate and micro-delays alongside.
fn sweep_plan(rate_ppm: u32) -> FaultPlan {
    FaultPlan::new(SEED)
        .inject(FaultSite::Operator(0), FaultKind::Panic, rate_ppm)
        .inject(
            FaultSite::Operator(0),
            FaultKind::Delay { micros: 50 },
            rate_ppm,
        )
        .inject(
            FaultSite::ChannelSend,
            FaultKind::CloseChannel,
            rate_ppm / 5,
        )
        .inject(FaultSite::DomainAttach, FaultKind::Panic, rate_ppm / 5)
}

/// Runs one sweep point: `rounds` lockstep dispatch+drain rounds of the
/// same pre-generated traffic under `rate_ppm` injection.
pub fn measure_sweep_point(rate_ppm: u32, rounds: usize) -> ChaosPoint10 {
    silence_panics();
    let mut rt = ShardedRuntime::new(
        spec(),
        RuntimeConfig {
            workers: WORKERS,
            queue_capacity: 64,
            restart: policy(),
            supervisor_seed: SEED,
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
    let latencies = recovery_latencies(&report);
    let point = ChaosPoint10 {
        rate_ppm,
        offered: report.offered_packets,
        packets_out: report.packets_out,
        goodput_ppm: goodput_ppm(&report),
        unserved: report.lost_packets + report.shed_packets,
        redistributed: report.redistributed_packets,
        faults: report.faults,
        respawns: report.respawns,
        breaker_opens: report.breaker_opens,
        recovery_ticks_p50: percentile(&latencies, 5),
        recovery_ticks_p90: percentile(&latencies, 9),
        recovery_ticks_max: latencies.last().copied().unwrap_or(0),
        unaccounted: report.unaccounted_packets(),
    };
    assert_eq!(point.unaccounted, 0, "packets vanished at {rate_ppm} ppm");
    point
}

/// Scripted crash loop: worker 0 dies at every (re)spawn; the breaker
/// must open within the budget while the peer absorbs the flows.
pub fn measure_crash_loop() -> CrashLoopOutcome {
    silence_panics();
    const VICTIM: usize = 0;
    let plan = FaultPlan::new(SEED).inject_window(
        FaultSite::DomainAttach,
        FaultKind::Panic,
        VICTIM as u64,
        0,
        1_000_000,
    );
    let pol = policy();
    let mut rt = ShardedRuntime::new(
        spec(),
        RuntimeConfig {
            workers: 2,
            queue_capacity: 64,
            restart: pol.clone(),
            supervisor_seed: SEED,
            faults: Some(Arc::new(plan)),
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction");

    let opened = |rt: &ShardedRuntime| {
        rt.events()
            .iter()
            .filter(|e| matches!(e.kind, SupervisorEventKind::BreakerOpened { .. }))
            .count() as u64
    };
    // Supervision-only ticks until the breaker opens.
    while opened(&rt) == 0 {
        assert!(rt.tick() < 64, "breaker failed to open within budget");
        rt.dispatch(PacketBatch::new()).expect("supervision tick");
    }
    let ticks_to_open = rt.tick();

    // Degraded traffic: the victim's flows must reroute to the peer.
    // Fewer rounds than the breaker cooldown, so no round lands on the
    // half-open probe (which is stillborn and would shed its shard).
    let degraded_rounds = (pol.breaker_cooldown_ticks as usize)
        .saturating_sub(2)
        .max(1);
    for batch in traffic(degraded_rounds) {
        rt.dispatch(batch).expect("degraded dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "degraded drain");
    }
    // Keep ticking until the half-open probe has died and reopened the
    // breaker.
    while opened(&rt) < 2 {
        assert!(rt.tick() < 128, "probe failure failed to reopen breaker");
        rt.dispatch(PacketBatch::new()).expect("supervision tick");
    }

    let report = rt.shutdown();
    let out = CrashLoopOutcome {
        ticks_to_open,
        budget_faults: pol.max_consecutive_faults,
        breaker_opens: report.breaker_opens,
        breaker_half_opens: report.breaker_half_opens,
        goodput_ppm: goodput_ppm(&report),
        redistributed: report.redistributed_packets,
        unaccounted: report.unaccounted_packets(),
    };
    assert_eq!(out.unaccounted, 0, "crash loop lost packets");
    assert_eq!(
        out.goodput_ppm, 1_000_000,
        "the healthy peer must absorb every redistributed flow"
    );
    out
}

/// Scripted hang: worker 0's first batch stalls far past the hang
/// timeout; the watchdog reclaims the shard while the runtime keeps
/// serving, and the stalled batch still lands in the ledger.
pub fn measure_watchdog() -> WatchdogOutcome {
    silence_panics();
    const N: usize = 2;
    let plan = FaultPlan::new(SEED).inject_window(
        FaultSite::Operator(0),
        FaultKind::Stall { millis: 1_500 },
        0,
        0,
        1,
    );
    let mut rt = ShardedRuntime::new(
        spec(),
        RuntimeConfig {
            workers: N,
            queue_capacity: 64,
            hang_timeout: Duration::from_millis(40),
            supervisor_seed: SEED,
            faults: Some(Arc::new(plan)),
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction");

    // One fixed wave reaching both shards; shard 0's batch hangs.
    let mut wave = traffic(1).pop().expect("one batch");
    // Ensure both shards are actually touched (the generator's flow
    // population covers them; this is a belt-and-braces check, not a
    // mutation).
    assert!(
        (0..N).all(|s| wave.iter().any(|p| shard_of_packet(p, N) == s)),
        "wave must cover every shard"
    );
    rt.dispatch(std::mem::take(&mut wave))
        .expect("hang dispatch");

    // Supervision-only ticks (empty dispatches — deterministic ledgers)
    // until the heartbeat ages past the timeout and the watchdog fires.
    let kills = |rt: &ShardedRuntime| {
        rt.events()
            .iter()
            .filter(|e| e.kind == SupervisorEventKind::WatchdogKill)
            .count() as u64
    };
    for _ in 0..2_000 {
        if kills(&rt) > 0 {
            break;
        }
        rt.dispatch(PacketBatch::new()).expect("supervision tick");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The healthy shard keeps serving while the zombie's stall pends.
    // (Shard 0 stays unfed: the fault window is per worker generation,
    // so fresh traffic would hang the replacement too.)
    let shard1: Vec<PacketBatch> = traffic(6)
        .into_iter()
        .map(|b| {
            b.into_iter()
                .filter(|p| shard_of_packet(p, N) == 1)
                .collect()
        })
        .collect();
    for batch in shard1 {
        rt.dispatch(batch).expect("post-kill dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "post-kill drain");
    }

    let report = rt.shutdown();
    let out = WatchdogOutcome {
        watchdog_kills: report.watchdog_kills,
        respawns: report.respawns,
        goodput_ppm: goodput_ppm(&report),
        unaccounted: report.unaccounted_packets(),
    };
    assert_eq!(out.watchdog_kills, 1, "exactly one kill");
    assert_eq!(out.unaccounted, 0, "hang lost packets");
    assert_eq!(
        out.goodput_ppm, 1_000_000,
        "the zombie's batch completes and counts"
    );
    out
}

/// Runs the full experiment. The 1% point must retain ≥ 90% goodput.
pub fn measure(rounds: usize) -> ChaosResults {
    let rates = [0u32, 2_500, 10_000, 50_000];
    let sweep: Vec<ChaosPoint10> = rates
        .into_iter()
        .map(|r| measure_sweep_point(r, rounds))
        .collect();
    let one_percent = sweep
        .iter()
        .find(|p| p.rate_ppm == 10_000)
        .expect("1% point is in the sweep");
    assert!(
        one_percent.goodput_ppm >= 900_000,
        "goodput at 1% faults fell to {} ppm",
        one_percent.goodput_ppm
    );
    ChaosResults {
        rounds,
        sweep,
        crash_loop: measure_crash_loop(),
        watchdog: measure_watchdog(),
    }
}

/// Renders the result set as the `BENCH_chaos.json` payload.
///
/// Integer-only by construction: two runs of the same build and seed
/// must produce byte-identical output, which the tier-1 test
/// `stable_records` holds to the committed file.
pub fn to_json(r: &ChaosResults) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e10_chaos\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"workers\": {WORKERS},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"rounds\": {},\n", r.rounds));
    let p = policy();
    out.push_str(&format!(
        "  \"policy\": {{\"max_consecutive_faults\": {}, \"backoff_base_ticks\": {}, \"backoff_cap_ticks\": {}, \"breaker_cooldown_ticks\": {}, \"backoff_jitter_ticks\": {}}},\n",
        p.max_consecutive_faults,
        p.backoff_base_ticks,
        p.backoff_cap_ticks,
        p.breaker_cooldown_ticks,
        p.backoff_jitter_ticks,
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, s) in r.sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rate_ppm\": {}, \"offered\": {}, \"packets_out\": {}, \"goodput_ppm\": {}, \"unserved\": {}, \"redistributed\": {}, \"faults\": {}, \"respawns\": {}, \"breaker_opens\": {}, \"recovery_ticks_p50\": {}, \"recovery_ticks_p90\": {}, \"recovery_ticks_max\": {}, \"unaccounted\": {}}}{}\n",
            s.rate_ppm,
            s.offered,
            s.packets_out,
            s.goodput_ppm,
            s.unserved,
            s.redistributed,
            s.faults,
            s.respawns,
            s.breaker_opens,
            s.recovery_ticks_p50,
            s.recovery_ticks_p90,
            s.recovery_ticks_max,
            s.unaccounted,
            if i + 1 < r.sweep.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let c = &r.crash_loop;
    out.push_str(&format!(
        "  \"crash_loop\": {{\"ticks_to_open\": {}, \"budget_faults\": {}, \"breaker_opens\": {}, \"breaker_half_opens\": {}, \"goodput_ppm\": {}, \"redistributed\": {}, \"unaccounted\": {}}},\n",
        c.ticks_to_open,
        c.budget_faults,
        c.breaker_opens,
        c.breaker_half_opens,
        c.goodput_ppm,
        c.redistributed,
        c.unaccounted,
    ));
    let w = &r.watchdog;
    out.push_str(&format!(
        "  \"watchdog\": {{\"watchdog_kills\": {}, \"respawns\": {}, \"goodput_ppm\": {}, \"unaccounted\": {}}}\n",
        w.watchdog_kills, w.respawns, w.goodput_ppm, w.unaccounted,
    ));
    out.push_str("}\n");
    out
}

/// Rounds per sweep point behind the committed `BENCH_chaos.json`.
pub const ROUNDS: usize = 150;
/// Rounds per sweep point under `--quick`.
const QUICK_ROUNDS: usize = 40;

/// Regenerates the chaos table, writing `BENCH_chaos.json` beside it.
pub fn run(quick: bool) -> String {
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };
    let results = measure(rounds);

    let mut t = Table::new(&[
        "fault rate",
        "offered",
        "goodput %",
        "unserved",
        "rerouted",
        "faults",
        "respawns",
        "opens",
        "rec p50/p90 (ticks)",
    ]);
    for s in &results.sweep {
        t.row_owned(vec![
            format!("{:.2}%", s.rate_ppm as f64 / 10_000.0),
            s.offered.to_string(),
            fmt_f64(s.goodput_ppm as f64 / 10_000.0, 2),
            s.unserved.to_string(),
            s.redistributed.to_string(),
            s.faults.to_string(),
            s.respawns.to_string(),
            s.breaker_opens.to_string(),
            format!("{}/{}", s.recovery_ticks_p50, s.recovery_ticks_p90),
        ]);
    }

    let mut out = String::from("E10 — chaos: goodput and recovery under injected faults\n");
    out.push_str(&t.render());
    let c = &results.crash_loop;
    out.push_str(&format!(
        "\ncrash loop: breaker opened at tick {} (budget {} faults), reopened after \
         half-open probe died; {} packets rerouted, goodput {:.2}%\n",
        c.ticks_to_open,
        c.budget_faults,
        c.redistributed,
        c.goodput_ppm as f64 / 10_000.0,
    ));
    let w = &results.watchdog;
    out.push_str(&format!(
        "watchdog: {} hung worker killed, {} respawns, goodput {:.2}% \
         (the stalled batch completed in the abandoned thread)\n",
        w.watchdog_kills,
        w.respawns,
        w.goodput_ppm as f64 / 10_000.0,
    ));

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
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
    fn clean_point_has_full_goodput() {
        let p = measure_sweep_point(0, 10);
        assert_eq!(p.goodput_ppm, 1_000_000);
        assert_eq!(p.faults, 0);
        assert_eq!(p.unserved, 0);
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn one_percent_point_retains_goodput() {
        let p = measure_sweep_point(10_000, 25);
        assert!(p.goodput_ppm >= 900_000, "goodput {} ppm", p.goodput_ppm);
        assert_eq!(p.unaccounted, 0);
    }

    #[test]
    fn five_percent_point_is_deterministic() {
        let a = measure_sweep_point(50_000, 25);
        let b = measure_sweep_point(50_000, 25);
        assert!(a.faults > 0, "5% over 25 rounds injects something");
        assert!(a.respawns > 0, "the supervisor healed");
        // Bit-stability of every reported field.
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.packets_out, b.packets_out);
        assert_eq!(a.goodput_ppm, b.goodput_ppm);
        assert_eq!(a.unserved, b.unserved);
        assert_eq!(a.redistributed, b.redistributed);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.respawns, b.respawns);
        assert_eq!(a.breaker_opens, b.breaker_opens);
        assert_eq!(a.recovery_ticks_p50, b.recovery_ticks_p50);
        assert_eq!(a.recovery_ticks_p90, b.recovery_ticks_p90);
        assert_eq!(a.recovery_ticks_max, b.recovery_ticks_max);
    }

    #[test]
    fn crash_loop_trips_breaker_on_schedule() {
        let c = measure_crash_loop();
        assert!(c.ticks_to_open <= 8, "opened at tick {}", c.ticks_to_open);
        assert!(c.breaker_opens >= 2);
        assert_eq!(c.breaker_half_opens, 1);
        assert!(c.redistributed > 0);
        // And the schedule replays.
        let d = measure_crash_loop();
        assert_eq!(c.ticks_to_open, d.ticks_to_open);
        assert_eq!(c.redistributed, d.redistributed);
    }

    #[test]
    fn watchdog_scenario_is_clean() {
        let w = measure_watchdog();
        assert_eq!(w.watchdog_kills, 1);
        assert!(w.respawns >= 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = ChaosResults {
            rounds: 1,
            sweep: vec![ChaosPoint10 {
                rate_ppm: 10_000,
                offered: 256,
                packets_out: 250,
                goodput_ppm: 976_562,
                unserved: 6,
                redistributed: 12,
                faults: 1,
                respawns: 1,
                breaker_opens: 0,
                recovery_ticks_p50: 2,
                recovery_ticks_p90: 2,
                recovery_ticks_max: 2,
                unaccounted: 0,
            }],
            crash_loop: CrashLoopOutcome {
                ticks_to_open: 6,
                budget_faults: 3,
                breaker_opens: 2,
                breaker_half_opens: 1,
                goodput_ppm: 1_000_000,
                redistributed: 1024,
                unaccounted: 0,
            },
            watchdog: WatchdogOutcome {
                watchdog_kills: 1,
                respawns: 1,
                goodput_ppm: 1_000_000,
                unaccounted: 0,
            },
        };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"e10_chaos\""));
        assert!(j.contains("\"rate_ppm\": 10000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
