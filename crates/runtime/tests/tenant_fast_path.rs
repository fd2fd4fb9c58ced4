//! The tenant fast path changes *how* [`TenantLaneRuntime`] runs a tick
//! — the caller is lane 0, admission takes each tenant's lock once per
//! wave, queueing delays are kept as counts — and must not change a
//! single digit of *what* it accounts. Four oracles pin that:
//!
//! 1. **Grouped ≡ per-packet admission.** [`TenantRuntime`] keeps the
//!    per-packet loop (`TickBucket::take(now, 1)` behind the breaker
//!    gate, packet by packet); on the same traffic the threaded engine's
//!    ledgers and event journal must equal its, through mid-wave bucket
//!    exhaustion, floods, and breakers cycling on work-budget strikes.
//!    Taking tokens before the `Open` gate, or admitting the *last*
//!    granted packets of a wave, fails it.
//! 2. **Executor invariance.** Lanes ∈ {1, 2, 4} × steal on/off replay
//!    one input — faults, churn, snapshots — to the same stable digest.
//! 3. **Containment on the caller's stack.** With one lane there is no
//!    lane thread: injected panics unwind under `step()` itself, which
//!    must still return every tick with exact conservation.
//! 4. **Delay ledger ≡ sort.** `p99_delay_ticks` / `max_delay_ticks`
//!    equal the sort-based rank over the delays a FIFO + carried-debt
//!    model of the lane predicts.
//!
//! Needs the `fault-injection` feature (the workspace test run enables
//! it through `rbs-bench`):
//!
//! ```text
//! cargo test -p rbs-runtime --features fault-injection --test tenant_fast_path
//! ```
#![cfg(feature = "fault-injection")]

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{Packet, PacketBatch};
use rbs_runtime::{
    BreakerPolicy, TenantConfig, TenantEvent, TenantLaneConfig, TenantLaneRuntime, TenantLedger,
    TenantReport, TenantRuntime, TenantSpec,
};

/// Flow `n`. Every third flow targets a port the stock chain's filter
/// drops, so *which* packets of a wave were admitted shows in
/// `out`/`drops`, not only how many.
fn packet(n: u32) -> Packet {
    let mut p = Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
        Ipv4Addr::new(192, 0, 2, 1),
        (n % 52_000) as u16 + 1_024,
        if n.is_multiple_of(3) { 8_080 } else { 80 },
        16,
    );
    let hash = packet_flow_hash(&p);
    p.set_cached_flow_hash(hash);
    p
}

/// `count` fresh flows followed by `flood` packets cycling over
/// `flood_flows` fixed flows (runs of one flow, aimed at few tenants).
fn wave(first: u32, count: u32, flood_flows: u32, flood: u32) -> PacketBatch {
    (0..count)
        .map(|i| packet(first + i))
        .chain((0..flood).map(|i| packet(1_000_000 + i * flood_flows / flood.max(1))))
        .collect()
}

fn stable_ledger(mut ledger: TenantLedger) -> TenantLedger {
    ledger.stolen = 0; // scheduling-dependent
    ledger
}

/// Per-tenant streams are tick-ordered in both engines; a stable sort
/// puts either journal in (tick, tenant, seq) order.
fn canonical(mut events: Vec<TenantEvent>) -> Vec<TenantEvent> {
    events.sort_by_key(|e| (e.tick, e.tenant));
    events
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn grouped_admission_equals_per_packet_admission(
        tenants in 2usize..=8,
        weight_seed in any::<u64>(),
        rate in 1u64..=40,
        burst in 1u64..=90,
        work_budget in prop_oneof![Just(0u64), 8u64..=60],
        tight_hwm in any::<bool>(),
        waves_per_tick in 1u32..=3,
        count in 32u32..=256,
        flood_flows in 1u32..=3,
        flood in 0u32..=200,
    ) {
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|i| {
                let bits = weight_seed >> (4 * i);
                TenantSpec::new(format!("fp-{i}"))
                    .weight(1 + (bits % 4) as u32)
                    .priority(1 + ((bits >> 2) % 3) as u8)
                    .rate(rate, burst)
            })
            .collect();
        let breaker = BreakerPolicy { open_ticks: 3, ..BreakerPolicy::default() };
        // The two engines pick the same high-water-mark victim only when
        // a lane holds at most one batch per tenant: one wave per tick.
        let waves_per_tick = if tight_hwm { 1 } else { waves_per_tick };
        let queue_hwm = if tight_hwm { tenants - 1 } else { 1 << 20 };
        let mut lanes = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: specs.clone(),
            lanes: 1,
            queue_hwm,
            breaker,
            work_budget_per_tick: work_budget,
            ..TenantLaneConfig::default()
        })
        .expect("valid config");
        let mut oracle = TenantRuntime::new(TenantConfig {
            tenants: specs,
            lanes: 1,
            lane_capacity: u64::MAX / 2,
            queue_hwm,
            breaker,
            work_budget_per_tick: work_budget,
            ..TenantConfig::default()
        })
        .expect("valid config");

        let mut first = 0u32;
        for _tick in 0..40 {
            for _ in 0..waves_per_tick {
                lanes.offer(wave(first, count, flood_flows, flood));
                oracle.offer(wave(first, count, flood_flows, flood));
                first += count;
            }
            lanes.step();
            oracle.step();
        }
        let (got, want) = (lanes.finish(), oracle.finish());
        for (g, w) in got.tenants.iter().zip(&want.tenants) {
            prop_assert_eq!(stable_ledger(g.ledger), w.ledger, "{}", g.name);
            prop_assert_eq!(g.ledger.unaccounted(), 0);
            prop_assert_eq!(
                (g.opens, g.throttles, g.batches_executed, g.final_phase),
                (w.opens, w.throttles, w.batches_executed, w.final_phase)
            );
        }
        prop_assert_eq!(got.hwm_sheds, want.hwm_sheds);
        prop_assert_eq!(canonical(got.events), canonical(want.events));
    }

    /// One tenant on one capacity-limited lane of the single-threaded
    /// engine — the only place a queueing delay is ever non-zero — against
    /// a FIFO + carried-debt model whose delays are sorted and ranked.
    #[test]
    fn delay_ledger_equals_sorted_rank(
        n in prop_oneof![Just(0usize), Just(1usize), Just(100usize), Just(101usize), 2usize..=60],
        capacity in 8u64..=64,
        offers in proptest::collection::vec((1u32..=40, 0u32..=2), 101),
    ) {
        let mut rt = TenantRuntime::new(TenantConfig {
            tenants: vec![TenantSpec::new("solo").rate(1 << 20, 1 << 20)],
            lanes: 1,
            lane_capacity: capacity,
            queue_hwm: 1 << 20,
            ..TenantConfig::default()
        })
        .expect("valid config");
        let mut queue: VecDeque<(u64, u64)> = VecDeque::new();
        let (mut now, mut debt) = (0u64, 0u64);
        let mut delays: Vec<u64> = Vec::new();
        let mut model_step = |queue: &mut VecDeque<(u64, u64)>, now: &mut u64| {
            let pay = debt.min(capacity);
            debt -= pay;
            let mut available = capacity - pay;
            while available > 0 {
                let Some((enqueued, cost)) = queue.pop_front() else { break };
                debt += cost.saturating_sub(available);
                available = available.saturating_sub(cost);
                delays.push(*now - enqueued);
            }
            *now += 1;
        };
        let mut first = 0u32;
        for &(packets, steps) in &offers[..n] {
            rt.offer(wave(first, packets, 1, 0));
            queue.push_back((now, u64::from(packets)));
            first += packets;
            for _ in 0..steps {
                rt.step();
                model_step(&mut queue, &mut now);
            }
        }
        while !queue.is_empty() {
            model_step(&mut queue, &mut now);
        }
        let outcome = &rt.finish().tenants[0];
        delays.sort_unstable();
        prop_assert_eq!(outcome.batches_executed, n as u64);
        let p99 = if n == 0 { 0 } else { delays[(n - 1) * 99 / 100] };
        prop_assert_eq!(outcome.p99_delay_ticks, p99);
        prop_assert_eq!(outcome.max_delay_ticks, delays.last().copied().unwrap_or(0));
    }
}

/// Everything a report says that no schedule and no lane count may move.
fn stable_digest(report: &TenantReport) -> String {
    let mut residents: Vec<usize> = report
        .occupancy
        .iter()
        .flat_map(|l| l.residents.iter().copied())
        .collect();
    residents.sort_unstable();
    let tenants: Vec<_> = report
        .tenants
        .iter()
        .map(|t| {
            (
                stable_ledger(t.ledger),
                (t.faults, t.respawns, t.opens, t.throttles),
                (t.warm_restores, t.cold_restores, t.snapshots_taken),
                (t.batches_executed, t.p99_delay_ticks, t.max_delay_ticks),
                (t.final_phase, t.epoch, t.final_state_items),
            )
        })
        .collect();
    format!(
        "{tenants:?} {:?} {:?} {} {residents:?} {}",
        report.events, report.rebuilds, report.hwm_sheds, report.ticks
    )
}

fn chaos_run(lanes: usize, steal: bool, panic_ppm: u32) -> TenantReport {
    let tenants = (0..9)
        .map(|i| {
            TenantSpec::new(format!("inv-{i}"))
                .weight(1 + (i % 3) as u32)
                .priority(1 + (i % 3) as u8)
                .rate(60, 120)
        })
        .collect();
    let plan = FaultPlan::new(0xFA57).inject(FaultSite::Operator(0), FaultKind::Panic, panic_ppm);
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants,
        lanes,
        steal,
        work_budget_per_tick: 110,
        snapshot_every_ticks: 2,
        faults: Some(Arc::new(plan)),
        ..TenantLaneConfig::default()
    })
    .expect("valid config");
    for round in 0..48u32 {
        if round == 15 {
            rt.remove_tenant(8).expect("remove");
        }
        if round == 31 {
            rt.add_tenant(8).expect("add");
        }
        rt.offer(wave(round * 400, 200, 2, 60));
        rt.offer(wave(round * 400 + 200, 200, 2, 0));
        rt.step();
        assert_eq!(rt.now(), u64::from(round) + 1);
    }
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
    assert_eq!(report.priority_inversions(), 0);
    assert_eq!(report.occupancy.len(), lanes);
    report
}

#[test]
fn every_lane_count_and_steal_setting_replays_one_digest() {
    let reference = chaos_run(1, false, 20_000);
    let lost: u64 = reference.tenants.iter().map(|t| t.ledger.lost).sum();
    assert!(lost > 0, "the plan never fired: the digest proves nothing");
    assert!(
        reference.tenants.iter().any(|t| t.opens > 0),
        "no breaker opened"
    );
    for lanes in [1, 2, 4] {
        for steal in [false, true] {
            let report = chaos_run(lanes, steal, 20_000);
            assert_eq!(
                stable_digest(&report),
                stable_digest(&reference),
                "lanes {lanes}, steal {steal}"
            );
            if lanes == 1 || !steal {
                assert_eq!(report.steals(), 0);
            }
        }
    }
}

#[test]
fn one_lane_contains_panics_on_the_callers_stack() {
    // `chaos_run` asserts that every `step()` returned to its caller
    // with the clock advanced, and that conservation is exact.
    let report = chaos_run(1, true, 200_000);
    let sum = |f: fn(&rbs_runtime::TenantOutcome) -> u64| report.tenants.iter().map(f).sum::<u64>();
    assert!(sum(|t| t.ledger.lost) > 0, "no batch died in a domain");
    assert!(sum(|t| t.warm_restores) > 0, "no warm restore");
    assert!(
        sum(|t| t.ledger.processed) > 0,
        "nothing survived the storm"
    );
    let lane0 = &report.occupancy[0];
    assert_eq!(lane0.executed_batches, sum(|t| t.batches_executed));
}
