//! Tenant blast-radius containment under the full storm: a fault-looping
//! aggressor, background chaos, warm recovery, and mid-run tenant churn
//! all at once — while every victim tenant keeps its SLA and every
//! ledger balances to the packet.
//!
//! Also the churn half of the NAT/flowtrack reclamation audit: a removed
//! tenant's translation and tracking state must be gone when it returns
//! under a new epoch, and warm restores must never resurrect another
//! epoch's state.
//!
//! Every scenario runs at one lane (the deterministic single-threaded
//! driver) and at two (a helper thread, stealing on): the lane count is
//! one more input, never a different outcome.
//!
//! ```text
//! cargo test -p rbs-runtime --test tenant_containment
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{Packet, PacketBatch};
use rbs_runtime::{BreakerPhase, TenantLaneConfig, TenantLaneRuntime, TenantLedger, TenantSpec};

fn http_packet(src_host: u8, sport: u16) -> Packet {
    let mut p = Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, 0, src_host),
        Ipv4Addr::new(192, 0, 2, 1),
        sport,
        80,
        16,
    );
    let hash = packet_flow_hash(&p);
    p.set_cached_flow_hash(hash);
    p
}

/// One round's traffic: `count` one-packet flows, distinct per round so
/// NAT and flowtrack state keep growing.
fn wave(round: u32, count: u32) -> PacketBatch {
    (0..count)
        .map(|i| {
            let n = round * count + i;
            http_packet((n % 23) as u8 + 1, (n % 52_000) as u16 + 1_024)
        })
        .collect()
}

fn population(n: usize, aggressor: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let spec = TenantSpec::new(format!("tenant-{i}")).rate(400, 800);
            if i == aggressor {
                spec.priority(1)
            } else {
                spec.priority(2)
            }
        })
        .collect()
}

/// Runs `scenario` at one lane and at two, injected panics silenced.
fn at_one_and_two_lanes(scenario: fn(usize)) {
    std::panic::set_hook(Box::new(|_| {}));
    for lanes in [1, 2] {
        scenario(lanes);
    }
    let _ = std::panic::take_hook();
}

/// The headline scenario: tenant 1 fault-loops forever, background chaos
/// salts everyone, snapshots and warm restores run on cadence, and
/// tenant 3 is removed and re-added mid-run — victims keep ≥ 99% goodput
/// and every packet is accounted.
#[test]
fn fault_loop_aggressor_is_contained_under_churn_and_chaos() {
    at_one_and_two_lanes(fault_loop_aggressor);
}

fn fault_loop_aggressor(lanes: usize) {
    let faults = FaultPlan::new(2026)
        .inject(FaultSite::Operator(0), FaultKind::Panic, 800)
        .inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 0, u64::MAX);
    let config = TenantLaneConfig {
        tenants: population(4, 1),
        lanes,
        queue_hwm: 8,
        snapshot_every_ticks: 4,
        faults: Some(Arc::new(faults)),
        ..TenantLaneConfig::default()
    };
    let mut rt = TenantLaneRuntime::new(config).unwrap();
    let mut remapped_out = 0;
    let mut remapped_back = 0;
    for round in 0..60 {
        if round == 20 {
            remapped_out = rt.remove_tenant(3).unwrap();
        }
        if round == 40 {
            remapped_back = rt.add_tenant(3).unwrap();
        }
        rt.offer(wave(round, 96));
        rt.step();
    }
    assert_eq!(rt.phase(1), BreakerPhase::Open, "aggressor not contained");
    let report = rt.finish();

    assert_eq!(report.unaccounted_packets(), 0);
    for t in &report.tenants {
        assert_eq!(t.ledger.unaccounted(), 0, "{} leaks packets", t.name);
    }
    // Same-name re-add reverses the removal's remap exactly.
    assert_eq!(remapped_out, remapped_back);
    assert_eq!(report.rebuilds.len(), 2);

    let aggressor = &report.tenants[1];
    assert!(aggressor.opens >= 1, "breaker never opened");
    assert!(
        aggressor.ledger.shed_open > aggressor.ledger.lost,
        "an open breaker should shed far more than the loop destroys"
    );
    for idx in [0usize, 2] {
        let victim = &report.tenants[idx];
        assert!(
            victim.ledger.goodput_ppm() >= 990_000,
            "victim {} dropped to {} ppm",
            victim.name,
            victim.ledger.goodput_ppm()
        );
        assert_eq!(victim.opens, 0, "victim breaker tripped");
        assert_eq!(victim.ledger.shed(), 0, "victim was shed");
    }
}

/// Churn epoch isolation (the flowtrack/NAT half of the reclamation
/// audit): a tenant that accumulated translation + tracking state and
/// sealed snapshots comes back stateless under a fresh epoch, and the
/// state it grows afterwards is new-epoch state only.
#[test]
fn removed_tenant_returns_stateless_and_snapshots_do_not_cross_epochs() {
    at_one_and_two_lanes(removed_tenant_returns_stateless);
}

fn removed_tenant_returns_stateless(lanes: usize) {
    let config = TenantLaneConfig {
        tenants: population(3, usize::MAX),
        lanes,
        snapshot_every_ticks: 2,
        ..TenantLaneConfig::default()
    };
    let mut rt = TenantLaneRuntime::new(config).unwrap();
    for round in 0..12 {
        rt.offer(wave(round, 96));
        rt.step();
    }
    let before = rt.state_items(1);
    assert!(before > 0, "no NAT/flowtrack state accumulated");
    assert!(rt.snapshots_taken(1) > 0, "no snapshots sealed");
    let offered_before = rt.ledger(1).offered;

    rt.remove_tenant(1).unwrap();
    assert_eq!(rt.state_items(1), 0, "removed tenant still holds state");
    rt.add_tenant(1).unwrap();
    assert_eq!(rt.epoch(1), 1);
    assert_eq!(
        rt.state_items(1),
        0,
        "re-added tenant inherited old-epoch state"
    );
    assert_eq!(
        rt.snapshots_taken(1),
        0,
        "old-epoch snapshots survived the churn"
    );

    // While it was absent, its flows re-homed to the survivors: nothing
    // new lands in its ledger between remove and add.
    assert_eq!(rt.ledger(1).offered, offered_before);

    for round in 12..24 {
        rt.offer(wave(round, 96));
        rt.step();
    }
    let regrown = rt.state_items(1);
    assert!(regrown > 0, "returned tenant processes no traffic");
    assert!(
        regrown <= before,
        "fresh epoch cannot hold more state than the original run"
    );
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
}

/// Warm recovery stays within the epoch: a fault after re-add restores
/// only state sealed since the re-add.
#[test]
fn warm_restore_after_churn_carries_only_new_epoch_state() {
    at_one_and_two_lanes(warm_restore_after_churn);
}

fn warm_restore_after_churn(lanes: usize) {
    // Tenant 1 panics once, late in the run (well after churn): a
    // tenant executes one batch per wave, so its 31st batch is round 30.
    let faults =
        FaultPlan::new(5).inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 30, 31);
    let config = TenantLaneConfig {
        tenants: population(3, usize::MAX),
        lanes,
        snapshot_every_ticks: 2,
        faults: Some(Arc::new(faults)),
        ..TenantLaneConfig::default()
    };
    let mut rt = TenantLaneRuntime::new(config).unwrap();
    for round in 0..12 {
        rt.offer(wave(round, 96));
        rt.step();
    }
    rt.remove_tenant(1).unwrap();
    rt.add_tenant(1).unwrap();
    let mut after_churn_peak = 0;
    for round in 12..40 {
        after_churn_peak = after_churn_peak.max(rt.state_items(1));
        rt.offer(wave(round, 96));
        rt.step();
    }
    let report = rt.finish();
    let t = &report.tenants[1];
    assert_eq!(t.faults, 1, "scripted fault did not fire exactly once");
    assert_eq!(t.warm_restores, 1, "fault was not warm-recovered");
    assert!(t.state_items_restored > 0, "warm restore came back empty");
    assert!(
        t.state_items_restored <= report.tenants[1].ledger.processed,
        "restored more items than the epoch ever processed"
    );
    assert_eq!(report.unaccounted_packets(), 0);
}

/// A flood aggressor is held to its admission contract: victims shed
/// nothing, the flood sheds at its own bucket, and when backlog builds
/// anyway the lane high-water mark sheds the flood's (lowest-priority)
/// batches first.
#[test]
fn flood_aggressor_sheds_at_admission_and_backpressure() {
    at_one_and_two_lanes(flood_aggressor);
}

fn flood_aggressor(lanes: usize) {
    let mut tenants = population(4, 1);
    // The flood tenant gets a tight admission contract and hammers it.
    tenants[1].rate_per_tick = 20;
    tenants[1].burst = 40;
    // Tenant 0 outweighs the rest, so with two lanes it is placed alone
    // and the flood shares a lane with both other victims.
    tenants[0].weight = 3;
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants,
        lanes,
        // Two waves a tick queue two batches per victim; the high-water
        // mark is what the victims on the flood's lane need, so backlog
        // exceeds it by exactly the flood's own batch.
        queue_hwm: if lanes == 1 { 6 } else { 4 },
        ..TenantLaneConfig::default()
    })
    .unwrap();
    for round in 0..40 {
        rt.offer(wave(2 * round, 320));
        rt.offer(wave(2 * round + 1, 320));
        rt.step();
    }
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
    let flood = &report.tenants[1];
    assert!(
        flood.ledger.shed_admission > 0,
        "flood never hit its bucket"
    );
    assert!(
        flood.ledger.shed_backpressure > 0,
        "backlog never shed the flood's batch"
    );
    for idx in [0usize, 2, 3] {
        let victim = &report.tenants[idx];
        assert_eq!(
            victim.ledger.shed_backpressure, 0,
            "victim {} shed under backpressure while the flood ran",
            victim.name
        );
        assert_eq!(victim.ledger.lost, 0);
    }
}

/// The whole storm is replayable: two runs with identical configuration
/// produce identical ledgers, breaker journals, and rebuild records —
/// at either lane count, and the same ones at both.
#[test]
fn chaotic_multi_tenant_run_is_deterministic() {
    std::panic::set_hook(Box::new(|_| {}));
    let run = |lanes| {
        let faults = FaultPlan::new(99)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 3_000)
            .inject_window(FaultSite::Operator(0), FaultKind::Panic, 2, 5, 15);
        let config = TenantLaneConfig {
            tenants: population(4, 2),
            lanes,
            queue_hwm: 8,
            snapshot_every_ticks: 4,
            faults: Some(Arc::new(faults)),
            ..TenantLaneConfig::default()
        };
        let mut rt = TenantLaneRuntime::new(config).unwrap();
        for round in 0..40 {
            if round == 15 {
                rt.remove_tenant(3).unwrap();
            }
            if round == 28 {
                rt.add_tenant(3).unwrap();
            }
            rt.offer(wave(round, 96));
            rt.step();
        }
        let report = rt.finish();
        (
            report
                .tenants
                .iter()
                .map(|t| {
                    // Which CPU ran a batch is the one thing a schedule moves.
                    let ledger = TenantLedger {
                        stolen: 0,
                        ..t.ledger
                    };
                    (ledger, t.faults, t.respawns, t.opens, t.p99_delay_ticks)
                })
                .collect::<Vec<_>>(),
            report.events,
            report.rebuilds,
        )
    };
    let reference = run(1);
    assert!(reference.0.iter().any(|t| t.3 > 0), "no breaker opened");
    // Two lanes twice: a second schedule is a second chance to differ.
    for lanes in [1, 2, 2] {
        assert_eq!(run(lanes), reference, "{lanes} lanes");
    }
    let _ = std::panic::take_hook();
}
