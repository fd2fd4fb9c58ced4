//! The tenant fast path changes *how* [`TenantLaneRuntime`] runs a tick
//! — the caller is lane 0, admission takes each tenant's lock once per
//! wave, queueing delays are kept as counts — and must not change a
//! single digit of *what* it accounts. Three oracles pin that:
//!
//! 1. **Grouped ≡ per-packet admission.** [`AdmissionModel`] is the
//!    per-packet loop written out (steer, then `TickBucket::take(now, 1)`
//!    behind the breaker gate, packet by packet); on the same traffic
//!    the engine's ledgers must equal its, through mid-wave bucket
//!    exhaustion, floods, and breakers cycling on work-budget strikes.
//!    Taking tokens before the `Open` gate, or admitting the *last*
//!    granted packets of a wave, fails it.
//! 2. **Executor invariance.** Lanes ∈ {1, 2, 4} × steal on/off replay
//!    one input — faults, churn, snapshots — to the same stable digest.
//! 3. **Containment on the caller's stack.** With one lane there is no
//!    lane thread: injected panics unwind under `step()` itself, which
//!    must still return every tick with exact conservation.
//! 4. **Which packets a grant keeps.** Over waves that interleave
//!    tenants, with partial grants and an open breaker, each tenant's
//!    chain runs exactly the packets the per-packet model admitted for
//!    it — its first of each wave, in wave order — at lanes 1 and 2.
//!
//! ```text
//! cargo test -p rbs-runtime --test tenant_fast_path
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_core::sync::Mutex;
use rbs_maglev::{Backend, MaglevTable};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{FiveTuple, Packet, PacketBatch, PipelineSpec, TickBucket};
use rbs_runtime::{
    BreakerPhase, BreakerPolicy, TenantChainFactory, TenantLaneConfig, TenantLaneRuntime,
    TenantLedger, TenantReport, TenantSpec,
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
fn flows(first: u32, count: u32, flood_flows: u32, flood: u32) -> impl Iterator<Item = u32> {
    (first..first + count).chain((0..flood).map(move |i| 1_000_000 + i * flood_flows / flood))
}

fn wave(first: u32, count: u32, flood_flows: u32, flood: u32) -> PacketBatch {
    flows(first, count, flood_flows, flood)
        .map(packet)
        .collect()
}

fn stable_ledger(mut ledger: TenantLedger) -> TenantLedger {
    ledger.stolen = 0; // scheduling-dependent
    ledger
}

/// Per-packet admission re-derived from its parts: the steering table
/// built as the engine builds it, one bucket per tenant, and per packet
/// `take(now, 1)` behind the `Open` gate. Supervision is not modelled:
/// each wave reads the breaker phases — hence the buckets' rates — from
/// the engine.
struct AdmissionModel {
    table: MaglevTable,
    /// Per tenant: bucket, full rate, throttled rate.
    buckets: Vec<(TickBucket, u64, u64)>,
    /// `offered`, `shed_open`, `shed_admission`, and the `out`/`drops`
    /// of a chain that runs every admitted packet.
    want: Vec<TenantLedger>,
    /// Per tenant, the flows of the packets it admitted, in wave order.
    admitted: Vec<Vec<u32>>,
}

impl AdmissionModel {
    fn new(specs: &[TenantSpec], policy: &BreakerPolicy) -> Self {
        let backends = specs
            .iter()
            .map(|t| Backend::weighted(t.name.clone(), t.weight))
            .collect();
        Self {
            table: MaglevTable::new(backends, 251).expect("valid table"),
            buckets: specs
                .iter()
                .map(|t| {
                    let throttled = (t.rate_per_tick / policy.throttle_divisor).max(1);
                    let bucket = TickBucket::new(t.rate_per_tick, t.burst);
                    (bucket, t.rate_per_tick, throttled)
                })
                .collect(),
            want: vec![TenantLedger::default(); specs.len()],
            admitted: vec![Vec::new(); specs.len()],
        }
    }

    fn offer(&mut self, engine: &TenantLaneRuntime, flows: impl Iterator<Item = u32>) {
        let phases: Vec<BreakerPhase> = (0..self.want.len()).map(|i| engine.phase(i)).collect();
        for ((bucket, full, throttled), phase) in self.buckets.iter_mut().zip(&phases) {
            match phase {
                BreakerPhase::Running => bucket.set_rate(*full),
                BreakerPhase::Throttled | BreakerPhase::HalfOpen => bucket.set_rate(*throttled),
                BreakerPhase::Open => {}
            }
        }
        for n in flows {
            let hash = packet(n).cached_flow_hash().expect("stamped");
            let idx = self.table.lookup(hash);
            let want = &mut self.want[idx];
            want.offered += 1;
            if phases[idx] == BreakerPhase::Open {
                want.shed_open += 1;
            } else if self.buckets[idx].0.take(engine.now(), 1) == 0 {
                want.shed_admission += 1;
            } else {
                self.admitted[idx].push(n);
                if n.is_multiple_of(3) {
                    want.drops += 1;
                } else {
                    want.out += 1;
                }
            }
        }
    }
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
        // With a tight high-water mark a lane sheds one queued batch a
        // tick: admission must not notice.
        let queue_hwm = if tight_hwm { tenants - 1 } else { 1 << 20 };
        let mut model = AdmissionModel::new(&specs, &breaker);
        let mut lanes = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: specs,
            lanes: 1,
            queue_hwm,
            breaker,
            work_budget_per_tick: work_budget,
            ..TenantLaneConfig::default()
        })
        .expect("valid config");

        let mut first = 0u32;
        for _tick in 0..40 {
            for _ in 0..waves_per_tick {
                model.offer(&lanes, flows(first, count, flood_flows, flood));
                lanes.offer(wave(first, count, flood_flows, flood));
                first += count;
            }
            lanes.step();
        }
        let got = lanes.finish();
        for (g, want) in got.tenants.iter().zip(&model.want) {
            let l = &g.ledger;
            prop_assert_eq!(l.unaccounted(), 0);
            prop_assert_eq!(
                (l.offered, l.shed_open, l.shed_admission),
                (want.offered, want.shed_open, want.shed_admission),
                "{}", g.name
            );
            // Every admitted packet ran, bar a batch backpressure shed.
            prop_assert_eq!((l.lost, l.shed_removed), (0, 0));
            prop_assert_eq!(l.processed + l.shed_backpressure, want.out + want.drops);
            if l.shed_backpressure == 0 {
                prop_assert_eq!((l.out, l.drops), (want.out, want.drops), "{}", g.name);
            }
        }
    }
}

/// The flow a [`packet`] was built for.
fn flow_of(p: &Packet) -> u32 {
    let tuple = FiveTuple::of(p).expect("a UDP packet");
    u32::from(tuple.src_port - 1_024)
}

#[test]
fn a_partial_grant_keeps_each_tenants_first_packets_in_wave_order() {
    for lanes in [1, 2] {
        // Four tenants the waves' fresh flows interleave over, each
        // granted far fewer packets a tick than it is offered; tenant 0
        // overruns the work budget with every batch, so its breaker
        // throttles and then opens for the rest of the run.
        let mut specs: Vec<TenantSpec> = (0..4)
            .map(|i| TenantSpec::new(format!("grant-{i}")).rate(5, 12))
            .collect();
        specs[0] = specs[0].clone().cost_per_packet(1_000);
        let breaker = BreakerPolicy {
            open_ticks: 1_000,
            ..BreakerPolicy::default()
        };
        // What each tenant's chain ran, in the order it ran it.
        let seen: Arc<Vec<Mutex<Vec<u32>>>> =
            Arc::new((0..4).map(|_| Mutex::new(Vec::new())).collect());
        let record = Arc::clone(&seen);
        let chain: TenantChainFactory = Arc::new(move |idx, _| {
            let record = Arc::clone(&record);
            PipelineSpec::new().stage(move || {
                let record = Arc::clone(&record);
                move |batch: PacketBatch| {
                    record[idx].lock().extend(batch.iter().map(flow_of));
                    batch
                }
            })
        });
        let mut model = AdmissionModel::new(&specs, &breaker);
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: specs,
            lanes,
            breaker,
            work_budget_per_tick: 500,
            chain: Some(chain),
            ..TenantLaneConfig::default()
        })
        .expect("valid config");
        for tick in 0..12u32 {
            for half in 0..2 {
                let first = (2 * tick + half) * 64;
                model.offer(&rt, flows(first, 64, 0, 0));
                rt.offer(wave(first, 64, 0, 0));
            }
            rt.step();
        }
        let report = rt.finish();
        assert_eq!(report.unaccounted_packets(), 0);
        for (idx, (t, want)) in report.tenants.iter().zip(&model.want).enumerate() {
            let l = &t.ledger;
            assert_eq!(
                (l.offered, l.shed_open, l.shed_admission),
                (want.offered, want.shed_open, want.shed_admission),
                "lanes {lanes}, {}",
                t.name
            );
            assert!(
                l.shed_admission > 0 && l.processed > 0,
                "{}: no partial grant",
                t.name
            );
            assert_eq!(
                *seen[idx].lock(),
                model.admitted[idx],
                "lanes {lanes}, {}: the admitted packets are not its first in wave order",
                t.name
            );
        }
        assert!(
            report.tenants[0].ledger.shed_open > 0,
            "tenant 0 never opened"
        );
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
