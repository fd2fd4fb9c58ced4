//! One buffer lifecycle, held to counts instead of timings:
//!
//! 1. **Slabs the size of the frame, batches that come home whole.** A
//!    lane's pool, left to derive its slab size, keeps resident what its
//!    traffic's frames need and no more; an explicit `pool_slab_bytes` is
//!    honoured to the byte. After its first burst a warm lane generates
//!    every packet by rewriting the batch it recycled, in place
//!    (`PoolStats::refilled`, counted exactly).
//! 2. **A tick that never calls the allocator.** After warm-up a
//!    64-tenant steady run allocates nothing in `offer` + `step`: the
//!    staging buffer leaves as the queued batch, an emptied shell takes
//!    its place, and every spent packet buffer goes to the calling
//!    thread's spare list, where the client's next `next_batch` finds
//!    it. The allocator here counts per thread, so the tests of this
//!    file do not see each other.
//! 3. **Every steady-path death recycles.** Egress, the admission shed
//!    and the open-breaker shed each hand their buffers to the spare
//!    list — which stays inside its byte bound — and no ledger moves.
//! 4. **Steering that does not allocate per packet.** Offering four
//!    times the packets costs the same allocations once staging is warm.

use rbs_core::alloc_count::{thread_events, CountingAlloc};
use rbs_netfx::operators::{MacSwap, NullFilter, TtlDecrement};
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::pool::{local_spares, take_local, SPARE_BYTES_MAX};
use rbs_netfx::PipelineSpec;
use rbs_runtime::{
    LaneConfig, LaneRuntime, TenantLaneConfig, TenantLaneRuntime, TenantReport, TenantSpec,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn forward() -> PipelineSpec {
    PipelineSpec::new()
        .stage(NullFilter::new)
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
}

#[test]
fn a_lane_pool_keeps_resident_the_frames_it_carries() {
    let derived = LaneConfig::default();
    let frame = derived.traffic.frame_len() as u64;
    let prewarm = ((derived.build_burst + 2) * derived.batch_size) as u64;
    for lanes in [1, 2] {
        let report = LaneRuntime::run(
            forward(),
            LaneConfig {
                lanes,
                ..derived.clone()
            },
        );
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.outstanding_buffers(), 0);
        for lane in &report.lanes {
            let resident = lane.pool.resident_bytes;
            assert!(
                resident * 4 <= prewarm * frame * 5,
                "lane {} of {lanes} keeps {resident} bytes for {prewarm} frames of {frame}",
                lane.lane,
            );
            // With thieves about, buffers end in the pool of the lane
            // that ran them; alone, a lane gets back exactly its own.
            if lanes == 1 {
                assert_eq!(resident, prewarm * frame);
            }
        }
    }

    let explicit = LaneRuntime::run(
        forward(),
        LaneConfig {
            pool_slab_bytes: 2_048,
            ..derived
        },
    );
    assert_eq!(explicit.lanes[0].pool.resident_bytes, prewarm * 2_048);
}

#[test]
fn a_warm_lane_refills_every_batch_it_generates_in_place() {
    // `lane_forward`'s shape: one lane, 4 096 uniform flows, 64-byte
    // payloads, 256-packet batches, the forwarding chain, a warm-up.
    const WARMUP: u64 = 16;
    const MEASURED: u64 = 48;
    let cfg = LaneConfig {
        lanes: 1,
        traffic: TrafficConfig {
            flows: 4_096,
            payload_len: 64,
            seed: 0x00F0_12AD,
            ..TrafficConfig::default()
        },
        total_batches: MEASURED,
        batch_size: 256,
        warmup_batches: Some(WARMUP),
        ..LaneConfig::default()
    };
    let (burst, batch) = (cfg.build_burst as u64, cfg.batch_size as u64);
    assert!(WARMUP >= burst, "the warm-up spans the first burst");
    let rt = LaneRuntime::start(forward(), cfg);
    rt.wait_warmed();
    rt.release_warm();
    rt.wait_done();
    rt.release_exit();
    let report = rt.join();
    assert_eq!(report.unaccounted_packets(), 0);
    assert_eq!(report.outstanding_buffers(), 0);
    let pool = report.lanes[0].pool;
    let offered = (WARMUP + MEASURED) * batch;
    assert_eq!(report.offered(), offered);
    // Counts, not timings: the first burst's buffers come off the
    // prewarmed free list, and from then on every batch the lane
    // generates — every measured packet among them — is the batch it
    // recycled, rewritten in place. A lane that drains spent batches to
    // the free list again reads `refilled == 0` here.
    assert_eq!(pool.misses, 0);
    assert_eq!(pool.hits, burst * batch);
    assert_eq!(pool.refilled, offered - burst * batch);
    assert_eq!(pool.taken, pool.returned);
}

fn tenants(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec::new(format!("tenant-{i}")).rate(400, 800))
        .collect()
}

fn traffic(seed: u64) -> PacketGen {
    PacketGen::new(TrafficConfig {
        flows: 4_096,
        seed,
        ..TrafficConfig::default()
    })
}

/// Starts the calling thread's spare list empty.
fn drain_spares() {
    while local_spares().buffers > 0 {
        take_local();
    }
}

/// One client tick — two half-waves of `wave` packets, then `step` —
/// returning the allocator calls inside `offer` + `step`.
fn tick(rt: &mut TenantLaneRuntime, gen: &mut PacketGen, wave: usize) -> u64 {
    let first = gen.next_batch(wave / 2);
    let second = gen.next_batch(wave - wave / 2);
    let before = thread_events();
    rt.offer(first);
    rt.offer(second);
    rt.step();
    thread_events() - before
}

fn assert_conserved(report: &TenantReport, offered: u64) {
    assert_eq!(report.unaccounted_packets(), 0);
    assert_eq!(report.offered(), offered, "every offered packet attributed");
}

#[test]
fn a_steady_tenant_tick_never_calls_the_allocator() {
    const WAVE: usize = 1_536;
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 64;
    drain_spares();
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: tenants(64),
        lanes: 1,
        queue_hwm: 256,
        ..TenantLaneConfig::default()
    })
    .unwrap();
    // Steady to the packet: every tick replays the same two half-waves
    // (a generator restarted from its seed), so each tenant's share of a
    // wave is what it was the tick before. Random waves converge on the
    // same state, but only as fast as a tenant's largest wave so far is
    // exceeded — a staging buffer doubling once in ten thousand waves.
    let steady_tick = |rt: &mut TenantLaneRuntime| tick(rt, &mut traffic(0x57EA_D111), WAVE);
    // Warm-up: flow tables meet every flow of the wave, queues, shells
    // and the spare list reach the size the wave needs.
    for _ in 0..WARMUP {
        steady_tick(&mut rt);
    }
    for t in 0..MEASURED {
        assert_eq!(steady_tick(&mut rt), 0, "measured tick {t}");
        // Every buffer of the tick is home, and the next tick's
        // `next_batch` draws exactly those.
        let spares = local_spares();
        assert_eq!(spares.buffers, WAVE);
        assert!(spares.bytes <= SPARE_BYTES_MAX);
        assert_eq!(spares.overflow_dropped, 0);
    }
    let offered = (WARMUP + MEASURED) * WAVE as u64;
    let report = rt.finish();
    assert_conserved(&report, offered);
    assert_eq!(report.out(), offered, "a calm run drops nothing");
    drain_spares();
}

#[test]
fn every_steady_path_death_recycles_its_buffers() {
    const WAVE: usize = 512;
    drain_spares();
    let mut specs = tenants(4);
    // Tenant 0's contract is far below its share of the wave: admission
    // sheds most of what it is offered.
    specs[0] = TenantSpec::new("tenant-0").rate(5, 5);
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: specs,
        lanes: 1,
        // Any executed batch overruns: a strike per busy tick, so every
        // breaker opens and later waves are shed at the gate.
        work_budget_per_tick: 1,
        ..TenantLaneConfig::default()
    })
    .unwrap();
    let mut gen = traffic(21);
    let mut offered = 0;
    for t in 0..24 {
        tick(&mut rt, &mut gen, WAVE);
        offered += WAVE as u64;
        // Whichever way a packet died this tick, its buffer is here.
        assert_eq!(local_spares().buffers, WAVE, "tick {t}");
        assert_eq!(local_spares().overflow_dropped, 0);
    }
    let report = rt.finish();
    assert_conserved(&report, offered);
    let sum = |f: fn(&rbs_runtime::TenantLedger) -> u64| -> u64 {
        report.tenants.iter().map(|t| f(&t.ledger)).sum()
    };
    assert!(sum(|l| l.out) > 0, "egress was exercised");
    assert!(
        sum(|l| l.shed_admission) > 0,
        "the admission shed was exercised"
    );
    assert!(
        sum(|l| l.shed_open) > 0,
        "the open-breaker shed was exercised"
    );
    assert_eq!(sum(|l| l.lost) + sum(|l| l.shed_backpressure), 0);
    drain_spares();
}

/// The batched-steering fast path: with cached flow hashes, `offer`
/// performs one Maglev lookup per flow-hash run and its allocation count
/// does not depend on the number of packets — offering 4× the packets
/// costs exactly the same allocations once the staging buffers are warm.
/// One lane: everything runs on this thread, which the count covers.
#[test]
fn steering_is_alloc_free_per_packet() {
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..8)
            .map(|i| TenantSpec::new(format!("steer-{i}")).rate(1 << 20, 1 << 20))
            .collect(),
        lanes: 1,
        table_size: 251,
        queue_hwm: 1 << 20,
        ..TenantLaneConfig::default()
    })
    .expect("tenant runtime");
    // A NIC delivering RSS-coalesced bursts hands the runtime runs
    // of same-flow packets; `n / 64` consecutive packets per flow
    // models that, with per-flow counts exact so every staging cell
    // sees the same share in every batch.
    let runs = |n: usize| {
        use rbs_netfx::headers::ethernet::MacAddr;
        use rbs_netfx::Packet;
        use std::net::Ipv4Addr;
        let mut pkts = Vec::with_capacity(n);
        for flow in 0..64u16 {
            for _ in 0..(n / 64) {
                let mut p = Packet::build_udp(
                    MacAddr::ZERO,
                    MacAddr::ZERO,
                    Ipv4Addr::new(10, 0, 0, (flow % 23) as u8 + 1),
                    Ipv4Addr::new(192, 0, 2, 1),
                    flow + 1_024,
                    80,
                    16,
                );
                let hash = rbs_netfx::flow::packet_flow_hash(&p);
                p.set_cached_flow_hash(hash);
                pkts.push(p);
            }
        }
        rbs_netfx::PacketBatch::from_packets(pkts)
    };
    let small: Vec<_> = (0..4).map(|_| runs(256)).collect();
    let big: Vec<_> = (0..4).map(|_| runs(1_024)).collect();

    // Two waves a tick — the rotation a tenant's staging buffer and
    // its banked shells sustain — returning the allocator calls.
    let ticks = |rt: &mut TenantLaneRuntime, waves: Vec<rbs_netfx::PacketBatch>| {
        let before = thread_events();
        for (i, batch) in waves.into_iter().enumerate() {
            rt.offer(batch);
            if i % 2 == 1 {
                rt.step();
            }
        }
        thread_events() - before
    };
    // Warm every buffer on the path past the largest measured wave.
    ticks(&mut rt, (0..8).map(|_| runs(1_024)).collect());

    let lookups_before = rt.steering_lookups();
    let small_allocs = ticks(&mut rt, small);
    let big_allocs = ticks(&mut rt, big);

    // Run-batched steering: far fewer lookups than packets.
    let lookups = rt.steering_lookups() - lookups_before;
    assert!(lookups > 0);
    assert!(
        lookups < (4 * 256 + 4 * 1_024) / 2,
        "steering resolved per packet: {lookups} lookups"
    );
    assert_eq!(
        small_allocs, big_allocs,
        "steering allocations scale with packets (N: {small_allocs}, 4N: {big_allocs})"
    );
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
}
