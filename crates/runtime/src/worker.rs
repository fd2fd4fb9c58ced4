//! The worker thread: one domain, one pipeline, one input queue.

use std::sync::Arc;
use std::thread::JoinHandle;

use rbs_checkpoint::{Checkpoint, SnapshotStore};
use rbs_core::fault::{self, FaultKind, FaultPlan, FaultSite};
use rbs_core::sync::Mutex;
use rbs_netfx::{PacketBatch, PipelineSpec};
use rbs_sfi::channel::channel_metered;
use rbs_sfi::recycle::RecycleSender;
use rbs_sfi::{Domain, DomainSender};

use crate::stats::WorkerStats;

/// What the dispatcher feeds a worker.
pub enum WorkItem {
    /// A batch of packets belonging to this worker's shard.
    Batch(PacketBatch),
    /// Export the pipeline's live state into the slot's snapshot store,
    /// stamped with the supervision tick the request was issued on.
    Snapshot {
        /// Logical tick of the requesting supervision pass.
        tick: u64,
    },
    /// Orderly stop: finish the queue drained so far and exit. When
    /// `snapshot_tick` is set, take one final snapshot first so the
    /// store's newest entry equals the pipeline's last live state.
    Shutdown {
        /// Tick to stamp the final snapshot with, or `None` to skip it
        /// (snapshotting disabled).
        snapshot_tick: Option<u64>,
    },
}

impl WorkItem {
    /// Payload bytes this item carries across the worker's domain
    /// boundary — what a charging isolation backend bills per hand-off.
    /// Control items (snapshot/shutdown) carry none.
    fn boundary_bytes(&self) -> usize {
        match self {
            WorkItem::Batch(batch) => batch.total_bytes(),
            WorkItem::Snapshot { .. } | WorkItem::Shutdown { .. } => 0,
        }
    }
}

/// Spawns a worker thread dedicated to `domain`.
///
/// The channel is registered in the domain's reference table, so a fault
/// revokes it automatically; `stats` is shared with (and outlives) the
/// thread. `spawn_seq` is this slot's spawn count (0 for the initial
/// spawn), used as the occurrence for attach-site fault injection and as
/// the generation tag in heartbeat tokens. When `faults` is set, the
/// thread installs it as its ambient plan (stream = shard index) so
/// in-pipeline chaos points fire on schedule.
///
/// `store` is the slot's double-buffered snapshot store, shared with the
/// supervisor (which restores from it at heal time). `initial_state` is
/// a verified checkpoint of the dead generation's pipeline: the worker
/// injects it into its freshly built pipeline (warm recovery), falling
/// back to a cold pipeline — with the failure counted — if the shapes
/// no longer match.
///
/// When `recycle` is set, the worker gives every completed output batch
/// back through it instead of dropping it, so the driver's buffer pool
/// can reuse the packet memory. The give happens *before* the batch is
/// recorded as processed: once the runtime's accounting says a batch
/// completed, its buffers are already in the recycle queue, so a settled
/// drain implies every recyclable buffer is reclaimable.
///
/// Returns the dispatcher-side sender and the join handle.
#[expect(
    clippy::too_many_arguments,
    reason = "internal constructor mirroring the slot's full wiring"
)]
pub(crate) fn spawn_worker(
    index: usize,
    spawn_seq: u64,
    domain: Domain,
    spec: PipelineSpec,
    stats: Arc<WorkerStats>,
    queue_capacity: usize,
    faults: Option<Arc<FaultPlan>>,
    store: Arc<Mutex<SnapshotStore>>,
    initial_state: Option<Arc<Checkpoint>>,
    recycle: Option<RecycleSender<PacketBatch>>,
) -> (DomainSender<WorkItem>, JoinHandle<()>) {
    let (tx, rx) = channel_metered::<WorkItem>(&domain, queue_capacity, WorkItem::boundary_bytes);
    // Attach-site injection, decided *synchronously* on the spawning
    // (supervisor) thread: a scripted window here produces a
    // deterministic crash loop — spawn number `spawn_seq` dies before
    // taking any work, and the supervisor observes the fault on the same
    // tick it respawned, independent of thread scheduling.
    let attach_fault = faults
        .as_ref()
        .and_then(|plan| plan.decide(FaultSite::DomainAttach, index as u64, spawn_seq));
    if let Some(FaultKind::Panic | FaultKind::PoisonTable | FaultKind::CloseChannel) = attach_fault
    {
        let _ = domain.execute(|| fault::fire_panic(FaultSite::DomainAttach));
        stats.record_fault();
        // Keep the caller's contract: hand back a (revoked) sender and a
        // joinable no-op thread standing in for the stillborn worker.
        let handle = std::thread::Builder::new()
            .name(format!("rbs-worker-{index}-stillborn"))
            .spawn(|| {})
            .expect("spawning worker thread");
        return (tx, handle);
    }
    let handle = std::thread::Builder::new()
        .name(format!("rbs-worker-{index}"))
        .spawn(move || {
            // Dedicate the thread to the domain: per-batch `execute`
            // calls then run as self-calls and skip policy
            // interposition. Fails only when the supervisor raced a
            // destroy; exiting is the correct response.
            let Ok(_attachment) = domain.attach_thread() else {
                return;
            };
            // A scheduled slow attach (cold start) delays the worker
            // without killing it.
            if let Some(sleep) = attach_fault {
                fault::fire_sleep(sleep);
            }
            let work = move || {
                let mut pipeline = match initial_state {
                    Some(cp) => match spec.build_with_state(&cp) {
                        Ok(p) => p,
                        Err(_) => {
                            // The snapshot verified but no longer fits
                            // this spec (e.g. the pipeline shape
                            // changed). Never half-apply: count it and
                            // start cold.
                            stats.record_import_failure();
                            spec.build()
                        }
                    },
                    None => spec.build(),
                };
                stats.set_state_items(pipeline.state_items());
                // Records one snapshot, inside the domain so an injected
                // encode fault unwinds to the boundary like any pipeline
                // panic. The store seals before committing, so a fault
                // mid-encode leaves both buffers intact.
                let schema = spec.state_schema();
                let take_snapshot = |pipeline: &rbs_netfx::Pipeline, tick: u64| {
                    let cp = pipeline.export_state();
                    let items = pipeline.state_items();
                    store.lock().record(&cp, tick, items, schema);
                };
                loop {
                    match rx.recv() {
                        Ok(WorkItem::Batch(batch)) => {
                            let n_in = batch.len() as u64;
                            // Depth *behind* this batch: +1 counts the
                            // batch just dequeued, so a full queue reads
                            // as `queue_capacity`, not capacity - 1.
                            stats.record_queue_depth(rx.len() as u64 + 1);
                            // Heartbeat up while the batch executes; the
                            // watchdog reads this to tell hung from idle.
                            let token = stats.mark_busy(spawn_seq);
                            let start = rbs_core::cycles::rdtsc();
                            // The batch moves into the domain; a panic
                            // anywhere in the stages unwinds to this
                            // boundary, faults the domain (closing `rx`'s
                            // channel), and is reported as an error here.
                            match domain.execute(|| pipeline.run_batch(batch)) {
                                Ok(out) => {
                                    let cycles = rbs_core::cycles::rdtsc().saturating_sub(start);
                                    let n_out = out.len() as u64;
                                    // Give before recording: `record_batch`
                                    // is what lets the runtime's drain
                                    // settle, so the buffers must already
                                    // be in the recycle queue by then.
                                    match &recycle {
                                        Some(path) => stats.record_recycle(path.give(out)),
                                        None => drop(out),
                                    }
                                    stats.record_batch(n_in, n_out, cycles);
                                    stats.set_state_items(pipeline.state_items());
                                    stats.mark_idle(token);
                                }
                                Err(_) => {
                                    // The in-flight batch died with the
                                    // fault; the supervisor accounts it (and
                                    // anything still queued) as lost when it
                                    // heals this slot.
                                    stats.mark_idle(token);
                                    stats.record_fault();
                                    return;
                                }
                            }
                        }
                        Ok(WorkItem::Snapshot { tick }) => {
                            let token = stats.mark_busy(spawn_seq);
                            match domain.execute(|| take_snapshot(&pipeline, tick)) {
                                Ok(()) => stats.mark_idle(token),
                                Err(_) => {
                                    // An encode fault kills the worker
                                    // like a batch fault — but no batch
                                    // was in flight, so batch accounting
                                    // is untouched.
                                    stats.mark_idle(token);
                                    stats.record_fault();
                                    return;
                                }
                            }
                        }
                        Ok(WorkItem::Shutdown { snapshot_tick }) => {
                            if let Some(tick) = snapshot_tick {
                                // Best-effort final snapshot: an encode
                                // fault here only costs the freshness of
                                // the last buffered entry.
                                if domain.execute(|| take_snapshot(&pipeline, tick)).is_err() {
                                    stats.record_fault();
                                }
                            }
                            // Clean exit: preserve the pipeline's per-stage
                            // counters for the final report.
                            let stages = pipeline
                                .stage_names()
                                .iter()
                                .map(|n| (*n).to_owned())
                                .zip(pipeline.stage_stats().iter().copied())
                                .collect();
                            stats.store_final_stages(stages);
                            return;
                        }
                        Err(_) => {
                            let stages = pipeline
                                .stage_names()
                                .iter()
                                .map(|n| (*n).to_owned())
                                .zip(pipeline.stage_stats().iter().copied())
                                .collect();
                            stats.store_final_stages(stages);
                            return;
                        }
                    }
                }
            };
            match faults {
                Some(plan) => fault::scoped_stream(plan, index as u64, work),
                None => work(),
            }
        })
        .expect("spawning worker thread");
    (tx, handle)
}
