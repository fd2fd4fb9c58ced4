//! Layer calibrations: each layer's public operation timed on its own,
//! in a tight loop bracketed by one pair of TSC reads (a span per call
//! would cost more than most of these calls do). They need no workload:
//! every traced pass takes them, and the README's layer → end-to-end map
//! says on which workload each one matters.

use std::hint::black_box;
use std::time::Instant;

use rbs_checkpoint::SnapshotStore;
use rbs_core::cycles::rdtsc;
use rbs_maglev::{Backend, MaglevTable};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::{PacketPool, Pipeline, TickBucket};
use rbs_runtime::{LaneDeque, Steal};
use rbs_sfi::{BackendKind, DomainManager};

use crate::workloads::{Chain, TenantPlan, BATCH_SIZE, LB_BACKENDS, LB_TABLE};

/// Mean cycles per call of `f` over `iters` calls.
fn cycles_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let c0 = rdtsc();
    for _ in 0..iters {
        f();
    }
    (rdtsc() - c0) as f64 / iters as f64
}

/// Mean µs per call of `f` over `iters` calls.
fn us_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// Scales iteration counts down in self-test mode.
fn iters(full: u64, quick: bool) -> u64 {
    if quick {
        (full / 100).max(4)
    } else {
        full
    }
}

/// The workload-independent per-layer metrics, by name.
pub fn calibrations(quick: bool) -> Vec<(&'static str, f64)> {
    vec![
        (
            "netfx.pool.take_put_cycles_per_buffer",
            pool_take_put(quick),
        ),
        (
            "runtime.deque.push_pop_cycles_per_item",
            deque_push_pop(quick),
        ),
        ("runtime.deque.steal_cycles_per_item", deque_steal(quick)),
        (
            "sfi.domain.execute_cycles_per_call.typed",
            domain_execute(BackendKind::TypedSfi, quick),
        ),
        (
            "sfi.domain.execute_cycles_per_call.mpk",
            domain_execute(BackendKind::MpkSim, quick),
        ),
        (
            "sfi.domain.execute_cycles_per_call.copy",
            domain_execute(BackendKind::CopyBoundary, quick),
        ),
        ("sfi.domain.create_destroy_us", domain_create_destroy(quick)),
        ("sfi.domain.fault_recover_us", domain_fault_recover(quick)),
        ("maglev.table.build_us.t251", maglev_build(64, 251, quick)),
        (
            "maglev.table.build_us.t65537",
            maglev_build(LB_BACKENDS, LB_TABLE, quick),
        ),
        ("maglev.table.lookup_cycles", maglev_lookup(quick)),
        ("netfx.flow.hash_cycles_per_packet", flow_hash(quick)),
        (
            "netfx.ratelimit.tickbucket_take_cycles",
            tickbucket_take(quick),
        ),
    ]
}

fn pool_take_put(quick: bool) -> f64 {
    let mut pool = PacketPool::new(2_048, BATCH_SIZE);
    pool.prewarm(BATCH_SIZE);
    let mut held = Vec::with_capacity(BATCH_SIZE);
    cycles_per_iter(iters(20_000, quick), || {
        for _ in 0..BATCH_SIZE {
            held.push(pool.take());
        }
        for buf in held.drain(..) {
            pool.put(buf);
        }
    }) / BATCH_SIZE as f64
}

/// The owner side as a lane uses it: push a burst, pop it back.
fn deque_push_pop(quick: bool) -> f64 {
    const BURST: u64 = 4;
    let (deque, _stealer) = LaneDeque::<u64>::with_capacity(2 * BURST as usize);
    cycles_per_iter(iters(1_000_000, quick), || {
        for i in 0..BURST {
            deque.push(i);
        }
        for _ in 0..BURST {
            black_box(deque.pop());
        }
    }) / BURST as f64
}

/// An uncontended theft (owner idle): what a steal costs before any
/// cache-line ping-pong, which only `lane_skew_steal` end to end shows.
/// Only the steal phase of each round is timed.
fn deque_steal(quick: bool) -> f64 {
    const BURST: u64 = 64;
    let (deque, stealer) = LaneDeque::<u64>::with_capacity(BURST as usize);
    let rounds = iters(20_000, quick);
    let mut cycles = 0;
    for _ in 0..rounds {
        for i in 0..BURST {
            deque.push(i);
        }
        let c0 = rdtsc();
        while let Steal::Taken(v) = stealer.steal() {
            black_box(v);
        }
        cycles += rdtsc() - c0;
    }
    cycles as f64 / (rounds * BURST) as f64
}

fn domain_execute(kind: BackendKind, quick: bool) -> f64 {
    let manager = DomainManager::with_backend_kind(kind);
    let domain = manager.create_domain("calibration").expect("domain");
    let _attachment = domain.attach_thread().ok();
    let per_call = cycles_per_iter(iters(200_000, quick), || {
        black_box(domain.execute(|| black_box(1u64)).expect("healthy domain"));
    });
    manager.destroy_domain(&domain);
    per_call
}

fn domain_create_destroy(quick: bool) -> f64 {
    let manager = DomainManager::with_backend_kind(BackendKind::TypedSfi);
    us_per_iter(iters(2_000, quick) as u32, || {
        let domain = manager.create_domain("calibration").expect("domain");
        manager.destroy_domain(&domain);
    })
}

/// A panic unwinding to the domain boundary plus the recovery function
/// bringing the domain back: the unit cost behind every injected fault.
fn domain_fault_recover(quick: bool) -> f64 {
    let manager = DomainManager::with_backend_kind(BackendKind::TypedSfi);
    let domain = manager.create_domain("calibration").expect("domain");
    domain.set_recovery(|_| {});
    let per_fault = us_per_iter(iters(400, quick) as u32, || {
        let faulted = domain.execute(|| panic!("calibrated fault")).is_err();
        assert!(faulted && domain.recover(), "fault must be contained");
    });
    manager.destroy_domain(&domain);
    per_fault
}

fn maglev_build(backends: usize, size: usize, quick: bool) -> f64 {
    let list: Vec<Backend> = (0..backends)
        .map(|i| Backend::new(format!("tenant-{i}")))
        .collect();
    let full = if size > 10_000 { 4 } else { 100 };
    us_per_iter(iters(full, quick) as u32, || {
        black_box(MaglevTable::new(list.clone(), size).expect("prime size"));
    })
}

fn maglev_lookup(quick: bool) -> f64 {
    let list = (0..64).map(|i| Backend::new(format!("tenant-{i}")));
    let table = MaglevTable::new(list.collect(), 251).expect("prime size");
    let mut hash = 0x9E37_79B9_7F4A_7C15u64;
    cycles_per_iter(iters(2_000_000, quick), || {
        hash = hash
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(black_box(table.lookup(hash)) as u64 | 1);
    })
}

fn flow_hash(quick: bool) -> f64 {
    let mut gen = PacketGen::new(TrafficConfig::default());
    let batch = gen.next_batch(BATCH_SIZE);
    cycles_per_iter(iters(20_000, quick), || {
        for p in batch.iter() {
            black_box(packet_flow_hash(p));
        }
    }) / BATCH_SIZE as f64
}

fn tickbucket_take(quick: bool) -> f64 {
    let mut bucket = TickBucket::new(400, 800);
    let mut now = 0u64;
    cycles_per_iter(iters(2_000_000, quick), || {
        now += 1;
        black_box(bucket.take(now >> 4, 1));
    })
}

/// `plan`'s mix cut down to the average tenant's share of its flows.
pub fn average_tenant_traffic(plan: &TenantPlan) -> TrafficConfig {
    TrafficConfig {
        flows: (plan.traffic.flows / plan.tenants.len()).max(1),
        ..plan.traffic.clone()
    }
}

/// A tenant chain holding the state the *average* tenant of `plan` holds
/// once every flow has been seen. Snapshot costs grow linearly with a
/// chain's state, so the cadence's total cost is this chain's cost times
/// the snapshots taken.
fn steady_tenant_chain(plan: &TenantPlan) -> Pipeline {
    let traffic = average_tenant_traffic(plan);
    let batches = 8 * traffic.flows.div_ceil(BATCH_SIZE);
    let mut gen = PacketGen::new(traffic);
    let mut pipeline = Chain::Tenant.spec().build();
    for _ in 0..batches {
        pipeline.run_batch(gen.next_batch(BATCH_SIZE));
    }
    pipeline
}

/// Snapshot-path metrics for a tenant chain at `plan`'s steady state:
/// what one cadence tick and one warm restore cost.
pub fn checkpoint_layers(plan: &TenantPlan, quick: bool) -> Vec<(&'static str, f64)> {
    let n = iters(100, quick) as u32;
    let pipeline = steady_tenant_chain(plan);
    let items = pipeline.state_items();
    let schema = Chain::Tenant.spec().state_schema();
    let cp = pipeline.export_state();
    let export_us = us_per_iter(n, || {
        black_box(pipeline.export_state());
    });
    // Full every 4th record, deltas between: the tenant engines' cadence.
    let mut store = SnapshotStore::new(4);
    let mut tick = 0;
    let record_us = us_per_iter(n, || {
        tick += 4;
        store.record(&cp, tick, items, schema);
    });
    let open_us = us_per_iter(n, || {
        black_box(store.latest().expect("recorded").open().expect("sealed"));
    });
    let stats = store.stats();
    let mut fresh = Chain::Tenant.spec().build();
    let import_us = us_per_iter(n, || {
        fresh.import_state(&cp).expect("same chain shape");
    });
    vec![
        ("netfx.pipeline.export_state_us", export_us),
        ("netfx.pipeline.import_state_us", import_us),
        ("checkpoint.store.record_us", record_us),
        ("checkpoint.store.open_us", open_us),
        (
            "checkpoint.store.sealed_bytes",
            stats.full_bytes as f64 / stats.full_snapshots.max(1) as f64,
        ),
    ]
}
