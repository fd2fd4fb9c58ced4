//! The reference lane: the benchmark's own single-threaded loop that
//! calls, in the lane engine's order, the public functions a lane is
//! made of — `PacketGen::next_batch_from_pool` → `LaneDeque::push`/`pop`
//! → `Domain::execute(|| Pipeline::run_batch)` →
//! `PacketPool::recycle_batch` — on a workload's exact traffic and chain,
//! with a span around each call. The engine itself is not instrumented:
//! whatever it does beyond these calls (ledger atomics, quota and phase
//! bookkeeping, steal scans, rendezvous) is the difference between its
//! end-to-end cycles per packet and this loop's, reported as
//! `runtime.lane.unattributed_*`.

use rbs_core::cycles::rdtsc;
use rbs_netfx::pktgen::PacketGen;
use rbs_netfx::{Operator, PacketBatch, PacketPool};
use rbs_runtime::LaneDeque;
use rbs_sfi::DomainManager;

use crate::trace::Tracer;
use crate::workloads::LanePlan;

/// Span names of the reference lane (the traced pass's batch tree).
pub mod spans {
    /// One batch's build or process phase: parent of the calls below.
    pub const BATCH: &str = "runtime.lane.batch";
    /// `PacketGen::next_batch_from_pool` (includes its pool takes).
    pub const PKTGEN: &str = "netfx.pktgen.next_batch_from_pool";
    /// `LaneDeque::push`.
    pub const PUSH: &str = "runtime.deque.push";
    /// `LaneDeque::pop`.
    pub const POP: &str = "runtime.deque.pop";
    /// `Domain::execute` around the pipeline.
    pub const EXECUTE: &str = "sfi.domain.execute";
    /// `Pipeline::run_batch`, inside `execute`.
    pub const RUN_BATCH: &str = "netfx.pipeline.run_batch";
    /// `PacketPool::recycle_batch`.
    pub const RECYCLE: &str = "netfx.pool.recycle_batch";
    /// The direct children of [`BATCH`]: their totals are what the
    /// reference lane attributes.
    pub const ATTRIBUTED: [&str; 5] = [PKTGEN, PUSH, POP, EXECUTE, RECYCLE];
}

/// What a reference-lane run measured.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceRun {
    /// Packets through the timed loop.
    pub packets: u64,
    /// Wall cycles of the timed loop (spans and loop bookkeeping).
    pub cycles: u64,
}

/// Runs `warmup` untraced then `batches` traced batches of `plan`'s
/// whole mix through the reference lane.
pub fn reference_lane(
    plan: &LanePlan,
    warmup: u64,
    batches: u64,
    tracer: &mut Tracer,
) -> ReferenceRun {
    let cfg = &plan.config;
    let burst = cfg.build_burst as u64;
    let manager = DomainManager::with_backend_kind(cfg.backend);
    let domain = manager
        .create_domain("reference-lane")
        .expect("creating the reference lane's domain");
    let _attachment = domain.attach_thread().ok();
    // The engine's own derivations for a lane's pool and deque.
    let prewarm = (cfg.build_burst + 2) * cfg.batch_size;
    let mut pool = PacketPool::new(cfg.pool_slab_bytes, prewarm);
    pool.prewarm(prewarm);
    pool.prewarm_shells(cfg.build_burst + 4, cfg.batch_size);
    let (deque, _stealer) = LaneDeque::<PacketBatch>::with_capacity(cfg.build_burst * 2);
    let mut gen = PacketGen::new(cfg.traffic.clone());
    let mut pipeline = plan.chain.spec().build();

    // Units (batch ids) sitting in the deque, so the span of a pop can
    // carry the id of the batch it is about to return.
    let mut queued: Vec<u64> = Vec::with_capacity(cfg.build_burst);
    let mut run = |count: u64, tracer: &mut Tracer| {
        let mut next = 0;
        while next < count {
            for unit in next..count.min(next + burst) {
                tracer.enter(spans::BATCH, unit);
                tracer.enter(spans::PKTGEN, unit);
                let batch = gen.next_batch_from_pool(cfg.batch_size, &mut pool);
                tracer.exit();
                tracer.enter(spans::PUSH, unit);
                deque.push(batch);
                tracer.exit();
                tracer.exit();
                queued.push(unit);
            }
            next = count.min(next + burst);
            while let Some(unit) = queued.pop() {
                tracer.enter(spans::BATCH, unit);
                tracer.enter(spans::POP, unit);
                let batch = deque.pop().expect("a queued batch");
                tracer.exit();
                tracer.enter(spans::EXECUTE, unit);
                let out = domain
                    .execute(|| {
                        tracer.enter(spans::RUN_BATCH, unit);
                        let out = pipeline.run_batch(batch);
                        tracer.exit();
                        out
                    })
                    .expect("the reference lane's chain does not fault");
                tracer.exit();
                tracer.enter(spans::RECYCLE, unit);
                pool.recycle_batch(out);
                tracer.exit();
                tracer.exit();
            }
        }
    };

    run(warmup, &mut Tracer::new(false));
    let c0 = rdtsc();
    run(batches, tracer);
    let cycles = rdtsc() - c0;
    manager.destroy_domain(&domain);
    ReferenceRun {
        packets: batches * cfg.batch_size as u64,
        cycles,
    }
}

/// Runs each operator of `ops` alone via `Operator::process`, in chain
/// order on the chain's own intermediate batches, with a span per
/// operator named by its metric. Returns the packets that entered the
/// first operator over the traced batches.
pub fn operators_alone(
    mut ops: Vec<(&'static str, Box<dyn Operator + Send>)>,
    mut gen: PacketGen,
    batch_size: usize,
    warmup: u64,
    batches: u64,
    tracer: &mut Tracer,
) -> u64 {
    let mut pool = PacketPool::new(2_048, 2 * batch_size);
    pool.prewarm(2 * batch_size);
    let mut run = |count: u64, tracer: &mut Tracer| {
        for unit in 0..count {
            let mut batch = gen.next_batch_from_pool(batch_size, &mut pool);
            for (name, op) in &mut ops {
                tracer.enter(name, unit);
                batch = op.process(batch);
                tracer.exit();
            }
            pool.recycle_batch(batch);
        }
    };
    run(warmup, &mut Tracer::new(false));
    run(batches, tracer);
    batches * batch_size as u64
}

/// Runs `chain`'s pipeline alone (`Pipeline::run_batch`, no domain, no
/// deque) over `gen`'s traffic, one [`spans::RUN_BATCH`] span per batch.
/// Returns the packets run over the traced batches.
pub fn pipeline_alone(
    chain: crate::workloads::Chain,
    mut gen: PacketGen,
    batch_size: usize,
    warmup: u64,
    batches: u64,
    tracer: &mut Tracer,
) -> u64 {
    let mut pipeline = chain.spec().build();
    let mut pool = PacketPool::new(2_048, 2 * batch_size);
    pool.prewarm(2 * batch_size);
    let mut run = |count: u64, tracer: &mut Tracer| {
        for unit in 0..count {
            let batch = gen.next_batch_from_pool(batch_size, &mut pool);
            tracer.enter(spans::RUN_BATCH, unit);
            let out = pipeline.run_batch(batch);
            tracer.exit();
            pool.recycle_batch(out);
        }
    };
    run(warmup, &mut Tracer::new(false));
    run(batches, tracer);
    batches * batch_size as u64
}

/// Span name of [`unpooled_generation`].
pub const UNPOOLED_PKTGEN: &str = "netfx.pktgen.next_batch";

/// Times `PacketGen::next_batch` (a fresh allocation per packet, the way
/// the tenant workloads' client generates) for `batches` batches.
pub fn unpooled_generation(
    mut gen: PacketGen,
    batch_size: usize,
    batches: u64,
    tracer: &mut Tracer,
) {
    for unit in 0..batches {
        tracer.enter(UNPOOLED_PKTGEN, unit);
        let batch = gen.next_batch(batch_size);
        tracer.exit();
        drop(batch);
    }
}
