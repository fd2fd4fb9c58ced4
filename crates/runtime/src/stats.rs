//! Per-worker counters that outlive the worker thread.
//!
//! The supervisor hands every spawn of a worker (including respawns after
//! a fault) the *same* `Arc<WorkerStats>`: counters are cumulative across
//! a worker's generations, so throughput accounting survives the very
//! faults the runtime exists to contain. All hot-path updates are single
//! relaxed atomics; the batch-cycle histogram takes an uncontended mutex
//! (one writer — the worker thread — plus occasional snapshot readers).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rbs_core::histogram::LogHistogram;
use rbs_core::stats::Summary;
use rbs_core::sync::Mutex;
use rbs_netfx::pipeline::StageStats;

use crate::supervisor::{BreakerState, SupervisorEvent, SupervisorEventKind};

/// Sub-buckets per octave for per-batch cycle histograms (~3% relative
/// error, 16 KiB per worker).
pub(crate) const CYCLE_HIST_PRECISION: u32 = 32;

/// Low bits of a heartbeat token reserved for the spawn sequence, so a
/// zombie generation's stale `mark_idle` can never clear its
/// replacement's heartbeat (the CAS fails on the token mismatch).
const BUSY_SEQ_BITS: u64 = 0xFFFF;

/// Cumulative counters for one worker slot, shared between the worker
/// thread and the supervisor.
#[derive(Debug)]
pub struct WorkerStats {
    batches: AtomicU64,
    packets_in: AtomicU64,
    packets_out: AtomicU64,
    drops: AtomicU64,
    faults: AtomicU64,
    /// Gauge: state items (rules, flows) the live pipeline currently
    /// holds. Written by the worker after build and after every
    /// completed batch; read by the supervisor at heal time to account
    /// exactly how much state the crash destroyed.
    state_items: AtomicU64,
    /// Warm spawns whose state injection failed (shape mismatch); the
    /// worker fell back to a cold pipeline.
    import_failures: AtomicU64,
    /// Output batches this worker gave back through the recycle path
    /// (buffer-pool mode only; zero otherwise).
    recycled_batches: AtomicU64,
    /// Output batches the worker tried to recycle but dropped (recycle
    /// queue full or revoked) — their buffers returned to the allocator.
    recycle_drops: AtomicU64,
    /// High-water mark of the worker's input queue depth, sampled by the
    /// worker each time it dequeues a batch. A mark near the queue
    /// capacity means the dispatcher was outrunning this shard.
    queue_depth_hwm: AtomicU64,
    /// Heartbeat: a token while a batch is executing (nanos since the
    /// runtime epoch, low bits the spawn sequence), zero while idle. The
    /// supervisor's watchdog reads it to tell *hung* from idle.
    busy_since: AtomicU64,
    cycles: Mutex<LogHistogram>,
    /// When the runtime started; heartbeat tokens count from here.
    epoch: Instant,
    /// Stage-by-stage counters captured from the pipeline at clean
    /// shutdown (a faulted pipeline dies with its thread and never
    /// reports; the respawn starts a fresh pipeline).
    final_stages: Mutex<Option<Vec<(String, StageStats)>>>,
}

impl WorkerStats {
    pub(crate) fn new(epoch: Instant) -> Self {
        Self {
            batches: AtomicU64::new(0),
            packets_in: AtomicU64::new(0),
            packets_out: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            state_items: AtomicU64::new(0),
            import_failures: AtomicU64::new(0),
            recycled_batches: AtomicU64::new(0),
            recycle_drops: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            busy_since: AtomicU64::new(0),
            cycles: Mutex::new(LogHistogram::new(CYCLE_HIST_PRECISION)),
            epoch,
            final_stages: Mutex::new(None),
        }
    }

    pub(crate) fn record_batch(&self, packets_in: u64, packets_out: u64, cycles: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.packets_in.fetch_add(packets_in, Ordering::Relaxed);
        self.packets_out.fetch_add(packets_out, Ordering::Relaxed);
        self.drops
            .fetch_add(packets_in.saturating_sub(packets_out), Ordering::Relaxed);
        self.cycles.lock().record(cycles);
    }

    pub(crate) fn record_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_state_items(&self, items: u64) {
        self.state_items.store(items, Ordering::Relaxed);
    }

    pub(crate) fn record_import_failure(&self) {
        self.import_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_recycle(&self, gave: bool) {
        if gave {
            self.recycled_batches.fetch_add(1, Ordering::Relaxed);
        } else {
            self.recycle_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Marks the start of a batch and returns the heartbeat token the
    /// worker must pass back to [`WorkerStats::mark_idle`].
    pub(crate) fn mark_busy(&self, spawn_seq: u64) -> u64 {
        let nanos = (self.epoch.elapsed().as_nanos() as u64).max(BUSY_SEQ_BITS + 1);
        let token = (nanos & !BUSY_SEQ_BITS) | (spawn_seq & BUSY_SEQ_BITS);
        self.busy_since.store(token, Ordering::Release);
        token
    }

    /// Clears the heartbeat — but only if it is still `token`. A zombie
    /// generation calling in late (after a watchdog kill and respawn)
    /// loses the CAS and leaves the replacement's heartbeat alone.
    pub(crate) fn mark_idle(&self, token: u64) {
        let _ = self
            .busy_since
            .compare_exchange(token, 0, Ordering::Release, Ordering::Relaxed);
    }

    /// Unconditionally clears the heartbeat. The supervisor calls this
    /// when respawning a slot: the dead (or abandoned) generation's last
    /// token must not age against the replacement, which would read as a
    /// hang and get it killed too.
    pub(crate) fn clear_busy(&self) {
        self.busy_since.store(0, Ordering::Release);
    }

    /// How long the current batch has been executing, or `None` while
    /// idle.
    pub(crate) fn busy_for(&self) -> Option<Duration> {
        let token = self.busy_since.load(Ordering::Acquire);
        if token == 0 {
            return None;
        }
        let started = Duration::from_nanos(token & !BUSY_SEQ_BITS);
        Some(self.epoch.elapsed().saturating_sub(started))
    }

    pub(crate) fn store_final_stages(&self, stages: Vec<(String, StageStats)>) {
        *self.final_stages.lock() = Some(stages);
    }

    /// Batches fully processed (across all generations of this worker).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Packets that entered the worker's pipeline.
    pub fn packets_in(&self) -> u64 {
        self.packets_in.load(Ordering::Relaxed)
    }

    /// Packets the worker's pipeline emitted.
    pub fn packets_out(&self) -> u64 {
        self.packets_out.load(Ordering::Relaxed)
    }

    /// Packets dropped by pipeline stages.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Faults (contained panics) across all generations.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// State items (rules, flows) the live pipeline holds right now.
    pub fn state_items(&self) -> u64 {
        self.state_items.load(Ordering::Relaxed)
    }

    /// Warm spawns that fell back to a cold pipeline.
    pub fn import_failures(&self) -> u64 {
        self.import_failures.load(Ordering::Relaxed)
    }

    /// Output batches given back through the recycle path.
    pub fn recycled_batches(&self) -> u64 {
        self.recycled_batches.load(Ordering::Relaxed)
    }

    /// Output batches that could not be recycled and were dropped.
    pub fn recycle_drops(&self) -> u64 {
        self.recycle_drops.load(Ordering::Relaxed)
    }

    /// Deepest the input queue has been when the worker dequeued.
    pub fn queue_depth_hwm(&self) -> u64 {
        self.queue_depth_hwm.load(Ordering::Relaxed)
    }

    /// A copy of the per-batch cycle histogram.
    pub fn cycle_histogram(&self) -> LogHistogram {
        self.cycles.lock().clone()
    }

    /// Stage counters from the last cleanly shut down pipeline, if any.
    pub fn final_stage_stats(&self) -> Option<Vec<(String, StageStats)>> {
        self.final_stages.lock().clone()
    }
}

/// Point-in-time view of one worker slot, as reported by the supervisor.
#[derive(Debug, Clone)]
pub struct WorkerSnapshot {
    /// Shard index of this worker.
    pub index: usize,
    /// Lifecycle state of the worker's domain.
    pub state: rbs_sfi::DomainState,
    /// Supervision state of the worker's circuit breaker.
    pub breaker: BreakerState,
    /// Faults since the worker last completed a batch.
    pub consecutive_faults: u32,
    /// Domain generation (bumped by every recovery).
    pub generation: u64,
    /// Times the supervisor respawned this worker's thread.
    pub respawns: u64,
    /// Hung generations force-failed by the watchdog.
    pub watchdog_kills: u64,
    /// Batches the dispatcher routed to this shard.
    pub dispatched: u64,
    /// Batches the worker fully processed.
    pub processed: u64,
    /// Batches lost to faults (in-flight or queued at the crash).
    pub lost: u64,
    /// Packets successfully handed to this worker's queue.
    pub dispatched_packets: u64,
    /// Packets that entered the worker's pipeline.
    pub packets_in: u64,
    /// Packets the worker's pipeline emitted.
    pub packets_out: u64,
    /// Packets dropped by pipeline stages.
    pub drops: u64,
    /// Packets handed to the queue but destroyed by a fault before the
    /// pipeline saw them.
    pub lost_packets: u64,
    /// Packets bound for this shard dropped with accounting (breaker
    /// open with no healthy peer, send timeout, or torn channel).
    pub shed_packets: u64,
    /// Packets bound for this shard rerouted to a healthy peer while
    /// this worker was down.
    pub redistributed_packets: u64,
    /// Bounded-wait sends that gave up because this worker's queue
    /// stayed full past the deadline.
    pub send_timeouts: u64,
    /// Contained panics.
    pub faults: u64,
    /// State items (rules, flows) the live pipeline held at snapshot
    /// time.
    pub state_items: u64,
    /// Respawns handed a verified snapshot of the dead generation's
    /// state.
    pub warm_restores: u64,
    /// Respawns that started from clean per-operator state (no usable
    /// snapshot).
    pub cold_restores: u64,
    /// Buffered snapshots rejected during recovery (corrupt, truncated,
    /// or inapplicable).
    pub snapshot_rejects: u64,
    /// State items destroyed by crashes (summed over all recoveries:
    /// everything accumulated since the restored snapshot, or since
    /// birth for cold restarts).
    pub state_items_lost: u64,
    /// Warm spawns whose state injection failed; the worker fell back
    /// to a cold pipeline.
    pub import_failures: u64,
    /// Output batches this worker gave back through the recycle path.
    pub recycled_batches: u64,
    /// Output batches dropped instead of recycled (queue full/revoked).
    pub recycle_drops: u64,
    /// Deepest this worker's input queue got (batches queued at dequeue
    /// time, sampled across all generations).
    pub queue_depth_hwm: u64,
    /// Snapshots recorded into this worker's store (full + delta).
    pub snapshots_taken: u64,
    /// Metadata of the newest buffered snapshot, if any.
    pub latest_snapshot: Option<rbs_checkpoint::SnapshotMeta>,
    /// Per-stage counters from the last clean shutdown, if available.
    pub stage_stats: Option<Vec<(String, StageStats)>>,
}

/// Aggregate over all workers, produced by `ShardedRuntime::shutdown`.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-worker snapshots, index-ordered.
    pub workers: Vec<WorkerSnapshot>,
    /// Sum of per-worker processed batches.
    pub batches: u64,
    /// Packets offered to the dispatcher (`dispatch` + `send_to`).
    pub offered_packets: u64,
    /// Sum of per-worker pipeline input packets.
    pub packets_in: u64,
    /// Sum of per-worker pipeline output packets.
    pub packets_out: u64,
    /// Sum of per-worker stage drops.
    pub drops: u64,
    /// Batches lost to faults across all workers.
    pub lost_batches: u64,
    /// Packets lost to faults across all workers.
    pub lost_packets: u64,
    /// Packets shed with accounting across all workers.
    pub shed_packets: u64,
    /// Packets rerouted away from down workers.
    pub redistributed_packets: u64,
    /// Bounded-wait sends that timed out across all workers.
    pub send_timeouts: u64,
    /// Contained panics across all workers.
    pub faults: u64,
    /// Worker respawns across all workers.
    pub respawns: u64,
    /// Watchdog kills across all workers.
    pub watchdog_kills: u64,
    /// Respawns that restored state from a verified snapshot.
    pub warm_restores: u64,
    /// Respawns that started from clean state.
    pub cold_restores: u64,
    /// Buffered snapshots rejected during recovery.
    pub snapshot_rejects: u64,
    /// State items destroyed by crashes, summed over all recoveries.
    pub state_items_lost: u64,
    /// Warm spawns that fell back to a cold pipeline at injection.
    pub import_failures: u64,
    /// Output batches given back through the recycle path.
    pub recycled_batches: u64,
    /// Output batches dropped instead of recycled.
    pub recycle_drops: u64,
    /// Deepest any worker's input queue got — the max, not the sum, of
    /// the per-worker high-water marks.
    pub queue_depth_hwm: u64,
    /// Snapshots recorded across all workers (full + delta).
    pub snapshots_taken: u64,
    /// Times a worker's breaker opened.
    pub breaker_opens: u64,
    /// Times an open breaker let a probe generation through.
    pub breaker_half_opens: u64,
    /// Times a probe generation closed its breaker.
    pub breaker_closes: u64,
    /// The supervisor's journal, in observation order.
    pub events: Vec<SupervisorEvent>,
    /// Summary of per-batch processing cycles, merged across workers
    /// (exact moments, bucketed percentiles); `None` when no batch
    /// completed.
    pub cycles: Option<Summary>,
}

impl RuntimeReport {
    pub(crate) fn from_snapshots(
        workers: Vec<WorkerSnapshot>,
        histograms: Vec<LogHistogram>,
        offered_packets: u64,
        events: Vec<SupervisorEvent>,
    ) -> Self {
        let mut merged = LogHistogram::new(CYCLE_HIST_PRECISION);
        for h in &histograms {
            merged.merge(h);
        }
        let count = |pred: fn(&SupervisorEventKind) -> bool| {
            events.iter().filter(|e| pred(&e.kind)).count() as u64
        };
        Self {
            batches: workers.iter().map(|w| w.processed).sum(),
            offered_packets,
            packets_in: workers.iter().map(|w| w.packets_in).sum(),
            packets_out: workers.iter().map(|w| w.packets_out).sum(),
            drops: workers.iter().map(|w| w.drops).sum(),
            lost_batches: workers.iter().map(|w| w.lost).sum(),
            lost_packets: workers.iter().map(|w| w.lost_packets).sum(),
            shed_packets: workers.iter().map(|w| w.shed_packets).sum(),
            redistributed_packets: workers.iter().map(|w| w.redistributed_packets).sum(),
            send_timeouts: workers.iter().map(|w| w.send_timeouts).sum(),
            faults: workers.iter().map(|w| w.faults).sum(),
            respawns: workers.iter().map(|w| w.respawns).sum(),
            watchdog_kills: workers.iter().map(|w| w.watchdog_kills).sum(),
            warm_restores: workers.iter().map(|w| w.warm_restores).sum(),
            cold_restores: workers.iter().map(|w| w.cold_restores).sum(),
            snapshot_rejects: workers.iter().map(|w| w.snapshot_rejects).sum(),
            state_items_lost: workers.iter().map(|w| w.state_items_lost).sum(),
            import_failures: workers.iter().map(|w| w.import_failures).sum(),
            recycled_batches: workers.iter().map(|w| w.recycled_batches).sum(),
            recycle_drops: workers.iter().map(|w| w.recycle_drops).sum(),
            queue_depth_hwm: workers.iter().map(|w| w.queue_depth_hwm).max().unwrap_or(0),
            snapshots_taken: workers.iter().map(|w| w.snapshots_taken).sum(),
            breaker_opens: count(|k| matches!(k, SupervisorEventKind::BreakerOpened { .. })),
            breaker_half_opens: count(|k| matches!(k, SupervisorEventKind::BreakerHalfOpened)),
            breaker_closes: count(|k| matches!(k, SupervisorEventKind::BreakerClosed)),
            events,
            cycles: merged.summary(),
            workers,
        }
    }

    /// Packet-conservation residue: offered minus everything accounted
    /// for (pipeline input + fault losses + accounted sheds). Zero in a
    /// correct runtime, no matter what faults were injected; positive
    /// means packets vanished, negative means double counting.
    pub fn unaccounted_packets(&self) -> i64 {
        self.offered_packets as i64
            - self.packets_in as i64
            - self.lost_packets as i64
            - self.shed_packets as i64
    }

    /// Fraction of offered packets that made it out of a pipeline,
    /// in [0, 1]; 1.0 when nothing was offered. Pipeline-intent drops
    /// (filters) count against goodput just as chaos losses do, so
    /// compare like pipelines.
    pub fn goodput(&self) -> f64 {
        if self.offered_packets == 0 {
            return 1.0;
        }
        self.packets_out as f64 / self.offered_packets as f64
    }
}
