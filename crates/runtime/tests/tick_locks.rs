//! Locks a tenant-engine tick takes, counted by
//! [`rbs_core::sync::locks_taken`] on the calling thread. At `lanes: 1`
//! the whole tick runs there, so the count is exact and repeats run to
//! run.
//!
//! A tenant is a box with one owner at a time, moved rather than
//! locked: the caller admits and supervises with no lock at all, and a
//! tick costs one band-deque push and one pop per tenant with queued
//! work, plus a constant — one empty pop per priority band to end the
//! tick, and the hand-back. A domain that dies costs a few more (its
//! recovery hook, the respawn's registry). A tenant guarded by its own
//! mutex and locked at every step (per wave at admission, per batch at
//! execution, in the supervision pass) reads 768 locks per tick on the
//! steady run below.
//!
//! ```text
//! cargo test -p rbs-runtime --test tick_locks
//! ```

use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite, InjectedFault};
use rbs_core::sync::locks_taken;
use rbs_netfx::{FiveTuple, PacketGen, TrafficConfig};
use rbs_runtime::{TenantLaneConfig, TenantLaneRuntime, TenantSpec};

/// Locks a storm tick may take beyond two per claimed tenant: the two
/// bands' empty pops and the hand-back, plus two domain deaths.
const STORM_SLACK: u64 = 12;

fn traffic(seed: u64) -> TrafficConfig {
    TrafficConfig {
        flows: 4_096,
        payload_len: 64,
        seed,
        ..TrafficConfig::default()
    }
}

/// Keeps the injected panics off the test's output, and every other
/// panic on it.
fn quiet_injected_faults() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                default(info);
            }
        }));
    });
}

/// Runs `ticks` ticks of `waves` and returns, per tick, the locks the
/// tick's offers and step took and the tenants it claimed: those it ran
/// a batch of, processed or lost.
fn count(
    rt: &mut TenantLaneRuntime,
    tenants: usize,
    ticks: u64,
    mut waves: impl FnMut(&mut TenantLaneRuntime, u64),
) -> Vec<(u64, u64)> {
    let ran = |rt: &TenantLaneRuntime| -> Vec<u64> {
        (0..tenants)
            .map(|idx| rt.ledger(idx))
            .map(|l| l.processed + l.lost)
            .collect()
    };
    (0..ticks)
        .map(|tick| {
            let before = ran(rt);
            let locks = locks_taken();
            waves(rt, tick);
            rt.step();
            let locks = locks_taken() - locks;
            let claimed = before.iter().zip(ran(rt)).filter(|(b, a)| a > b).count();
            (locks, claimed as u64)
        })
        .collect()
}

#[test]
fn a_steady_tick_takes_two_locks_per_tenant() {
    const TENANTS: usize = 64;
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec::new(format!("tenant-{i}")).rate(400, 800))
            .collect(),
        lanes: 1,
        queue_hwm: 4 * TENANTS,
        ..TenantLaneConfig::default()
    })
    .expect("valid config");
    let mut gen = PacketGen::new(traffic(0x57EA_D111));
    let per_tick = count(&mut rt, TENANTS, 64, |rt, _| {
        rt.offer(gen.next_batch(768));
        rt.offer(gen.next_batch(768));
    });
    for (tick, &(locks, claimed)) in per_tick.iter().enumerate() {
        assert_eq!(claimed, TENANTS as u64, "tick {tick}: a tenant sat idle");
        // One band: its empty pop, then the hand-back.
        assert!(
            locks <= 2 * claimed + 2,
            "tick {tick}: {locks} locks for {claimed} tenants"
        );
    }
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
}

#[test]
fn a_storm_tick_takes_two_locks_per_tenant() {
    quiet_injected_faults();
    let weights = [8, 5, 3, 2, 1, 1, 1, 1];
    const FLOODER: usize = 1;
    const FAULT_LOOPER: usize = 2;
    let tenants = weights
        .iter()
        .enumerate()
        .map(|(i, &weight)| {
            let spec = TenantSpec::new(format!("tenant-{i}"))
                .weight(weight)
                .rate(400, 800)
                .priority(if i == FLOODER || i == FAULT_LOOPER {
                    1
                } else {
                    2
                });
            if i == FLOODER {
                spec.rate(25, 50)
            } else {
                spec
            }
        })
        .collect();
    let faults = FaultPlan::new(5)
        .inject(FaultSite::Operator(0), FaultKind::Panic, 400)
        .inject_window(
            FaultSite::Operator(0),
            FaultKind::Panic,
            FAULT_LOOPER as u64,
            0,
            u64::MAX,
        );
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants,
        lanes: 1,
        queue_hwm: 32,
        snapshot_every_ticks: 4,
        faults: Some(Arc::new(faults)),
        ..TenantLaneConfig::default()
    })
    .expect("valid config");
    let mut gen = PacketGen::new(traffic(0x0005_7012));
    let table = rt.table();
    let mut flood = PacketGen::subset(traffic(0x0005_7012), 0x0F_100D, |t: &FiveTuple| {
        table.lookup(t.stable_hash()) == FLOODER
    });
    const TICKS: u64 = 240;
    let per_tick = count(&mut rt, weights.len(), TICKS, |rt, tick| {
        if tick == TICKS / 3 {
            rt.remove_tenant(weights.len() - 1).expect("remove");
        }
        if tick == 2 * TICKS / 3 {
            rt.add_tenant(weights.len() - 1).expect("add");
        }
        rt.offer(gen.next_batch(96));
        rt.offer(gen.next_batch(96));
        rt.offer(flood.next_batch(256));
    });
    for (tick, &(locks, claimed)) in per_tick.iter().enumerate() {
        assert!(
            locks <= 2 * claimed + STORM_SLACK,
            "tick {tick}: {locks} locks for {claimed} tenants"
        );
    }
    // Over the run, the faults average out to under one lock a tick.
    let (locks, claimed) = per_tick
        .iter()
        .fold((0, 0), |(l, c), &(locks, claimed)| (l + locks, c + claimed));
    assert!(
        locks <= 2 * claimed + 4 * TICKS,
        "{locks} locks for {claimed} tenant-ticks over {TICKS} ticks"
    );
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
    assert!(report.tenants[FAULT_LOOPER].opens > 0, "no fault loop");
}
