//! One owner per tenant per tick. A tick moves each tenant with queued
//! work, whole, to the lane that claims it — its home lane's, or a
//! thief's — and that lane runs all of the tenant's batches for the tick
//! before handing it back. Three threaded lanes with stealing on, and
//! traffic aimed only at lane 0's residents, so the other two lanes
//! have nothing of their own; a recording stage logs which thread ran
//! which wave of which tenant in which tick, and holds lane 0 in its
//! first batch of a tick until a helper has run one, so every tick has
//! a theft. Then:
//!
//! 1. every tenant-tick ran on one thread, its waves in FIFO order;
//! 2. the report's steals are exactly the tenant-ticks that ran off
//!    their home lane;
//! 3. the ledgers equal a one-lane run's of the same traffic.
//!
//! ```text
//! cargo test -p rbs-runtime --test tenant_ownership
//! ```

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};

use rbs_core::sync::Mutex;
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{FiveTuple, Packet, PacketBatch, PipelineSpec};
use rbs_runtime::{
    TenantChainFactory, TenantLaneConfig, TenantLaneRuntime, TenantLedger, TenantReport, TenantSpec,
};

const TENANTS: usize = 12;
const LANES: usize = 3;
const TICKS: u32 = 40;
const WAVES_PER_TICK: u32 = 2;
/// Flows per wave before the filter; wave `w` draws flows
/// `w * FLOWS_PER_WAVE ..`, so a packet's flow names its wave.
const FLOWS_PER_WAVE: u32 = 600;

/// Flow `n`, identified by its source port.
fn packet(n: u32) -> Packet {
    let mut p = Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
        Ipv4Addr::new(192, 0, 2, 1),
        n as u16 + 1_024,
        80,
        16,
    );
    let hash = packet_flow_hash(&p);
    p.set_cached_flow_hash(hash);
    p
}

fn wave_of(p: &Packet) -> u32 {
    let tuple = FiveTuple::of(p).expect("a UDP packet");
    u32::from(tuple.src_port - 1_024) / FLOWS_PER_WAVE
}

/// What the recording stage saw: one line per executed batch.
struct Record {
    tenant: usize,
    tick: u64,
    wave: u32,
    thread: ThreadId,
    lane: usize,
}

#[derive(Default)]
struct Log {
    tick: AtomicU64,
    /// One more than the last tick a helper lane ran a batch in.
    helper_ran: AtomicU64,
    /// Whether lane 0 waits in each tick until a helper has run a batch:
    /// the helpers have no work of their own, so that one was stolen.
    force_theft: bool,
    records: Mutex<Vec<Record>>,
}

/// A chain that logs each batch, and that makes lane 0 wait for a theft
/// when the log asks it to.
fn recording_chain(log: &Arc<Log>) -> TenantChainFactory {
    let log = Arc::clone(log);
    Arc::new(move |tenant, _| {
        let log = Arc::clone(&log);
        PipelineSpec::new().stage(move || {
            let log = Arc::clone(&log);
            move |batch: PacketBatch| {
                let current = thread::current();
                let lane = current
                    .name()
                    .and_then(|n| n.strip_prefix("tenant-lane-"))
                    .map_or(0, |l| l.parse().expect("a lane number"));
                // Written before `start` releases the lanes.
                let tick = log.tick.load(Ordering::Relaxed);
                log.records.lock().push(Record {
                    tenant,
                    tick,
                    wave: wave_of(batch.iter().next().expect("a queued batch is never empty")),
                    thread: current.id(),
                    lane,
                });
                if lane > 0 {
                    log.helper_ran.store(tick + 1, Ordering::Release);
                } else if log.force_theft {
                    while log.helper_ran.load(Ordering::Acquire) <= tick {
                        thread::yield_now();
                    }
                }
                batch
            }
        })
    })
}

fn runtime(lanes: usize, log: &Arc<Log>) -> TenantLaneRuntime {
    TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec::new(format!("own-{i}")).rate(400, 800))
            .collect(),
        lanes,
        steal: true,
        chain: Some(recording_chain(log)),
        ..TenantLaneConfig::default()
    })
    .expect("valid config")
}

/// Offers `waves` tick by tick and finishes the run.
fn drive(mut rt: TenantLaneRuntime, log: &Log, waves: &[Vec<u32>]) -> TenantReport {
    for (tick, waves) in waves.chunks(WAVES_PER_TICK as usize).enumerate() {
        log.tick.store(tick as u64, Ordering::Relaxed);
        for wave in waves {
            rt.offer(wave.iter().copied().map(packet).collect());
        }
        rt.step();
    }
    rt.finish()
}

fn stable(ledger: TenantLedger) -> TenantLedger {
    TenantLedger {
        stolen: 0,
        ..ledger
    }
}

#[test]
fn each_tenant_tick_has_one_owner_and_every_theft_is_counted() {
    let log = Arc::new(Log {
        force_theft: true,
        ..Log::default()
    });
    let rt = runtime(LANES, &log);
    let home: Vec<usize> = (0..TENANTS).map(|idx| rt.home_lane(idx)).collect();
    assert!(home.iter().filter(|&&l| l == 0).count() > 1);
    // Only flows that steer to lane 0's residents.
    let table = rt.table();
    let waves: Vec<Vec<u32>> = (0..TICKS * WAVES_PER_TICK)
        .map(|w| {
            (w * FLOWS_PER_WAVE..(w + 1) * FLOWS_PER_WAVE)
                .filter(|&n| home[table.lookup(packet_flow_hash(&packet(n)))] == 0)
                .collect()
        })
        .collect();
    let report = drive(rt, &log, &waves);
    assert_eq!(report.unaccounted_packets(), 0);
    assert_eq!(report.priority_inversions(), 0);

    // Per tenant-tick, in execution order.
    let records = std::mem::take(&mut *log.records.lock());
    let mut runs: BTreeMap<(usize, u64), Vec<Record>> = BTreeMap::new();
    for r in records {
        runs.entry((r.tenant, r.tick)).or_default().push(r);
    }
    let mut off_home = 0;
    for (&(tenant, tick), run) in &runs {
        assert_eq!(home[tenant], 0, "tenant {tenant} was offered nothing");
        let (thread, lane) = (run[0].thread, run[0].lane);
        assert!(
            run.iter().all(|r| (r.thread, r.lane) == (thread, lane)),
            "tenant {tenant}, tick {tick}: batches ran on more than one thread"
        );
        let waves: Vec<u32> = run.iter().map(|r| r.wave).collect();
        let fifo: Vec<u32> = (0..WAVES_PER_TICK)
            .map(|w| tick as u32 * WAVES_PER_TICK + w)
            .collect();
        assert_eq!(waves, fifo, "tenant {tenant}, tick {tick}: not FIFO");
        off_home += u64::from(lane != home[tenant]);
    }
    // Every tenant-tick ran both of its waves.
    assert_eq!(
        runs.len() as u64,
        report
            .tenants
            .iter()
            .map(|t| t.batches_executed)
            .sum::<u64>()
            / 2
    );
    assert_eq!(report.steals(), off_home);
    assert!(off_home >= u64::from(TICKS), "a tick without a theft");

    let quiet = Arc::new(Log::default());
    let one_lane = drive(runtime(1, &quiet), &quiet, &waves);
    for (threaded, single) in report.tenants.iter().zip(&one_lane.tenants) {
        assert_eq!(
            stable(threaded.ledger),
            stable(single.ledger),
            "{}",
            threaded.name
        );
        assert_eq!(threaded.batches_executed, single.batches_executed);
    }
}
