//! End-to-end fault isolation on the tenant engine: a panicking operator
//! kills exactly one tenant's chain, the engine heals it, and the other
//! tenants never notice.

use std::net::Ipv4Addr;
use std::sync::Arc;

use rbs_netfx::flow::{packet_flow_hash, FiveTuple};
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{Operator, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    BreakerPhase, BreakerPolicy, TenantLaneConfig, TenantLaneRuntime, TenantReport, TenantSpec,
};

/// The port that makes [`Poison`] panic.
const POISON_PORT: u16 = 6666;

/// Passes packets through untouched.
struct Pass;

impl Operator for Pass {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        batch
    }

    fn name(&self) -> &str {
        "pass"
    }
}

/// Panics on any packet addressed to [`POISON_PORT`]; a stand-in for a
/// buggy network function tripping over a crafted input.
struct Poison;

impl Operator for Poison {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        for packet in batch.iter() {
            if let Ok(t) = FiveTuple::of(packet) {
                assert_ne!(t.dst_port, POISON_PORT, "poison packet hit operator");
            }
        }
        batch
    }

    fn name(&self) -> &str {
        "poison"
    }
}

/// `tenants` tenants running Pass → Poison on two lanes.
fn runtime(tenants: usize, breaker: BreakerPolicy) -> TenantLaneRuntime {
    TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..tenants)
            .map(|i| TenantSpec::new(format!("t{i}")))
            .collect(),
        lanes: 2,
        breaker,
        chain: Some(Arc::new(|_, _| {
            PipelineSpec::new().stage(|| Pass).stage(|| Poison)
        })),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction")
}

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

/// The tenant Maglev steers `p` to (every tenant present).
fn tenant_of(rt: &TenantLaneRuntime, p: &Packet) -> usize {
    rt.table().lookup(packet_flow_hash(p))
}

/// 64 one-packet flows; covers every tenant of a 4-tenant runtime.
fn healthy_traffic(base: u16) -> PacketBatch {
    (0..64u16).map(|i| udp(base + i, 80)).collect()
}

/// `count` healthy one-packet flows all steered to `target`.
fn traffic_for(rt: &TenantLaneRuntime, target: usize, count: usize) -> PacketBatch {
    (1..u16::MAX)
        .map(|sp| udp(sp, 80))
        .filter(|p| tenant_of(rt, p) == target)
        .take(count)
        .collect()
}

/// A poison packet steered to tenant `target`.
fn poison_for(rt: &TenantLaneRuntime, target: usize) -> PacketBatch {
    let p = (1..u16::MAX)
        .map(|sp| udp(sp, POISON_PORT))
        .find(|p| tenant_of(rt, p) == target)
        .expect("some source port steers to every tenant");
    PacketBatch::from_packets(vec![p])
}

fn tick(rt: &mut TenantLaneRuntime, batch: PacketBatch) {
    rt.offer(batch);
    rt.step();
}

fn assert_conserved(report: &TenantReport) {
    assert_eq!(report.unaccounted_packets(), 0, "{report:#?}");
    for t in &report.tenants {
        let l = t.ledger;
        assert_eq!(l.processed, l.out + l.drops, "{}", t.name);
    }
}

#[test]
fn fault_is_contained_healed_and_accounted() {
    const TARGET: usize = 2;
    let mut rt = runtime(4, BreakerPolicy::default());

    tick(&mut rt, healthy_traffic(1000));
    let processed_before: Vec<u64> = (0..4).map(|i| rt.ledger(i).processed).collect();
    assert!(
        processed_before.iter().all(|&p| p > 0),
        "64 flows reach all 4 tenants"
    );

    let poison = poison_for(&rt, TARGET);
    tick(&mut rt, poison);
    assert_eq!(rt.ledger(TARGET).lost, 1, "the poison packet died");
    assert_ne!(rt.phase(TARGET), BreakerPhase::Open, "one strike heals");

    // The healed chain takes the second wave like everyone else.
    tick(&mut rt, healthy_traffic(1000));
    let report = rt.finish();
    assert_conserved(&report);
    for (i, t) in report.tenants.iter().enumerate() {
        if i == TARGET {
            assert_eq!(t.faults, 1);
            assert_eq!(t.respawns, 1, "healed exactly once");
            assert_eq!(t.ledger.lost, 1, "only the poison packet was lost");
            assert!(
                t.ledger.processed > processed_before[i],
                "the tenant rejoined and processed the second wave"
            );
        } else {
            assert_eq!(t.faults, 0, "fault leaked to tenant {i}");
            assert_eq!(t.ledger.lost, 0);
            assert_eq!(t.respawns, 0);
            assert_eq!(t.final_phase, BreakerPhase::Running);
        }
    }
    assert_eq!(report.tenants.iter().map(|t| t.faults).sum::<u64>(), 1);
    // The pass/poison chain drops nothing it survives.
    assert_eq!(report.out(), 128, "two healthy waves of 64");
}

#[test]
fn other_workers_process_while_one_is_down() {
    const VICTIM: usize = 1;
    // One strike opens the breaker for four ticks.
    let mut rt = runtime(
        4,
        BreakerPolicy {
            open_after_strikes: 1,
            open_ticks: 4,
            ..BreakerPolicy::default()
        },
    );
    let poison = poison_for(&rt, VICTIM);
    tick(&mut rt, poison);
    assert_eq!(rt.phase(VICTIM), BreakerPhase::Open);

    // While the victim's breaker is open its traffic is shed at ingress
    // and the others keep taking and finishing work.
    for wave in 0..3 {
        let mut batch = PacketBatch::new();
        for i in 0..4 {
            batch.append(traffic_for(&rt, i, 8 + wave));
        }
        tick(&mut rt, batch);
        assert_eq!(rt.phase(VICTIM), BreakerPhase::Open);
    }
    for i in [0usize, 2, 3] {
        assert_eq!(rt.ledger(i).processed, 8 + 9 + 10, "tenant {i}");
        assert_eq!(rt.phase(i), BreakerPhase::Running);
    }
    assert_eq!(rt.ledger(VICTIM).processed, 0);
    assert_eq!(rt.ledger(VICTIM).shed_open, 8 + 9 + 10);

    // The open timer expires, the half-open probe rebuilds the chain,
    // and it takes work again.
    tick(&mut rt, PacketBatch::new());
    assert_eq!(rt.phase(VICTIM), BreakerPhase::HalfOpen);
    let batch = traffic_for(&rt, VICTIM, 8);
    tick(&mut rt, batch);
    assert_eq!(rt.ledger(VICTIM).processed, 8);

    let report = rt.finish();
    assert_conserved(&report);
    assert_eq!(report.tenants[VICTIM].faults, 1);
    assert_eq!(report.tenants[VICTIM].ledger.lost, 1);
    assert_eq!(report.tenants[VICTIM].respawns, 1, "the half-open probe");
    assert_eq!(report.out(), 3 * 27 + 8);
}

#[test]
fn repeated_faults_keep_healing() {
    const VICTIM: usize = 0;
    let mut rt = runtime(2, BreakerPolicy::default());

    for round in 1..=3u64 {
        let poison = poison_for(&rt, VICTIM);
        tick(&mut rt, poison);
        assert_eq!(rt.ledger(VICTIM).lost, round);
        assert_ne!(rt.phase(VICTIM), BreakerPhase::Open, "round {round}");
        let batch = traffic_for(&rt, VICTIM, 4);
        tick(&mut rt, batch);
        assert_eq!(
            rt.ledger(VICTIM).processed,
            4 * round,
            "healed chain serves"
        );
    }

    let report = rt.finish();
    assert_conserved(&report);
    let victim = &report.tenants[VICTIM];
    assert_eq!(victim.faults, 3);
    assert_eq!(victim.respawns, 3);
    assert_eq!(victim.ledger.lost, 3);
    assert_eq!(report.tenants[1].faults, 0);
}
