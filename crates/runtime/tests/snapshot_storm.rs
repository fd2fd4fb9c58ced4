//! The snapshot cadence changed *how* a tenant's record is produced —
//! the store asks the chain for what changed since the base instead of
//! comparing two whole exports — and must not change a digit of what a
//! storm leaves behind. This is dpbench's `tenant_storm` in miniature
//! (8 Zipf-weighted tenants, a flooder, a fault loop, background chaos
//! panics, churn, snapshots every 4 ticks with every 4th record full),
//! with the chaos rate raised so that warm restores — each of which
//! hands the store a chain it has never seen, mid-cadence — happen by
//! the dozen.
//!
//! The digest is **pinned at the commit before the change** (PR 16,
//! `e481fd9`), where the engine exported the whole state and called
//! `SnapshotStore::record`: ledgers, breaker and recovery counts
//! (`snapshots_taken`, `warm_restores`, `state_items_restored`,
//! `final_state_items`), rebuild records and the whole journal. A
//! restored table that differs by one flow moves `restored=`/`items=`;
//! a record skipped or doubled moves `snaps=`.
//!
//! ```text
//! cargo test -p rbs-runtime --test snapshot_storm
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite, InjectedFault};
use rbs_netfx::{FiveTuple, PacketGen, TrafficConfig};
use rbs_runtime::{TenantLaneConfig, TenantLaneRuntime, TenantLedger, TenantReport, TenantSpec};

const WEIGHTS: [u32; 8] = [8, 5, 3, 2, 1, 1, 1, 1];
const FLOODER: usize = 1;
const FAULT_LOOPER: usize = 2;
const CHURNER: usize = 7;
const TICKS: u64 = 480;

fn tenants() -> Vec<TenantSpec> {
    WEIGHTS
        .iter()
        .enumerate()
        .map(|(i, &weight)| {
            let spec = TenantSpec::new(format!("tenant-{i}")).weight(weight);
            if i == FLOODER {
                spec.rate(25, 50)
            } else {
                spec.rate(400, 800)
            }
        })
        .collect()
}

fn faults() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(17)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 12_000)
            .inject_window(
                FaultSite::Operator(0),
                FaultKind::Panic,
                FAULT_LOOPER as u64,
                0,
                u64::MAX,
            ),
    )
}

fn traffic() -> TrafficConfig {
    TrafficConfig {
        flows: 4_096,
        payload_len: 64,
        seed: 0x0005_7012,
        ..TrafficConfig::default()
    }
}

/// Keeps the hundreds of injected panics off the test's output, and
/// every other panic on it.
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

fn storm(mut rt: TenantLaneRuntime) -> TenantReport {
    quiet_injected_faults();
    let mut gen = PacketGen::new(traffic());
    let table = rt.table();
    let mut flood = PacketGen::subset(traffic(), 0x0F_100D, |t: &FiveTuple| {
        table.lookup(t.stable_hash()) == FLOODER
    });
    for tick in 0..TICKS {
        if tick == TICKS / 3 {
            rt.remove_tenant(CHURNER).expect("remove");
        }
        if tick == 2 * TICKS / 3 {
            rt.add_tenant(CHURNER).expect("add");
        }
        rt.offer(gen.next_batch(96));
        rt.offer(gen.next_batch(96));
        rt.offer(flood.next_batch(256));
        rt.step();
    }
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
    report
}

/// `dpbench`'s storm digest: everything the same plan must reproduce
/// byte for byte.
fn digest(report: &TenantReport) -> String {
    let mut out = String::new();
    for t in &report.tenants {
        let ledger = TenantLedger {
            stolen: 0,
            ..t.ledger
        };
        writeln!(
            out,
            "{} {ledger:?} phase={:?} epoch={} faults={} respawns={} opens={} throttles={} warm={} cold={} restored={} items={} snaps={} executed={}",
            t.name,
            t.final_phase,
            t.epoch,
            t.faults,
            t.respawns,
            t.opens,
            t.throttles,
            t.warm_restores,
            t.cold_restores,
            t.state_items_restored,
            t.final_state_items,
            t.snapshots_taken,
            t.batches_executed,
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "ticks={} hwm_sheds={} rebuilds={:?}",
        report.ticks, report.hwm_sheds, report.rebuilds
    )
    .expect("write to string");
    for e in &report.events {
        writeln!(out, "{e:?}").expect("write to string");
    }
    out
}

/// FNV-1a, 64 bits.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The storm did what it is named for: the digest would pin nothing if
/// no snapshot was ever restored from.
fn assert_stormy(report: &TenantReport) {
    let sum = |f: fn(&rbs_runtime::TenantOutcome) -> u64| report.tenants.iter().map(f).sum::<u64>();
    assert!(sum(|t| t.snapshots_taken) > 500, "hardly any snapshots");
    assert!(sum(|t| t.warm_restores) > 30, "hardly any warm restores");
    assert!(sum(|t| t.state_items_restored) > 5_000);
    assert!(report.tenants[FAULT_LOOPER].opens > 10, "no fault loop");
    assert!(report.tenants[FLOODER].ledger.shed_admission > 50_000);
    assert_eq!(report.tenants[CHURNER].epoch, 1, "no churn");
}

#[test]
fn threaded_engine_storm_digest_is_the_parents() {
    let report = storm(
        TenantLaneRuntime::new(TenantLaneConfig {
            tenants: tenants(),
            lanes: 1,
            queue_hwm: 32,
            snapshot_every_ticks: 4,
            faults: Some(faults()),
            ..TenantLaneConfig::default()
        })
        .expect("valid config"),
    );
    assert_stormy(&report);
    assert_eq!(
        fnv(&digest(&report)),
        LANES_DIGEST,
        "the storm digest moved ({:#018x}):\n{}",
        fnv(&digest(&report)),
        digest(&report)
            .lines()
            .take(9)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Pinned at `e481fd9` (see the module docs).
const LANES_DIGEST: u64 = 0x0117_dea2_fdcf_0183;
