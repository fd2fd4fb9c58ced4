//! The sharded runtime: dispatcher, worker slots, and supervision.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rbs_checkpoint::{Buffered, Checkpoint, SnapshotMeta, SnapshotStore};
use rbs_core::fault::FaultPlan;
use rbs_core::sync::Mutex;
use rbs_netfx::pool::PacketPool;
use rbs_netfx::{PacketBatch, PipelineSpec};
use rbs_sfi::backend::{BackendKind, BackendTotals};
use rbs_sfi::channel::ChannelError;
use rbs_sfi::recycle::{recycle_path_metered, RecycleReceiver, RecycleSender};
use rbs_sfi::{Domain, DomainManager, DomainSender, DomainState};

use crate::shard::shard_of_packet_mut;
use crate::stats::{RuntimeReport, WorkerSnapshot, WorkerStats};
use crate::supervisor::{
    BreakerState, RestartPolicy, SlotHealth, SupervisorEvent, SupervisorEventKind,
};
use crate::worker::{spawn_worker, WorkItem};

/// Construction parameters for a [`ShardedRuntime`].
///
/// New fields appear as supervision features land; build configs with
/// struct update syntax (`..RuntimeConfig::default()`) to stay
/// source-compatible.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads (= shards). Must be at least 1.
    pub workers: usize,
    /// Bounded depth of each worker's input queue, in batches; a full
    /// queue backpressures the dispatcher.
    pub queue_capacity: usize,
    /// Restart budget, backoff, and breaker parameters.
    pub restart: RestartPolicy,
    /// How long [`ShardedRuntime::dispatch`] waits on a full worker
    /// queue before dropping the batch with accounting. A stalled worker
    /// can delay the dispatcher by at most this much per send.
    pub send_deadline: Duration,
    /// A worker continuously executing one batch for longer than this is
    /// declared hung: the watchdog force-fails its domain, abandons the
    /// thread, and respawns the shard.
    pub hang_timeout: Duration,
    /// Seed for deterministic backoff jitter (used even when `faults`
    /// is `None`).
    pub supervisor_seed: u64,
    /// Take a per-worker state snapshot every this many supervision
    /// ticks; `0` disables snapshotting entirely (no snapshot work
    /// items, no restore chain — crashes recover cold, exactly the
    /// pre-recovery behavior).
    pub snapshot_interval_ticks: u64,
    /// Every `snapshot_full_every`-th snapshot is a full image; the ones
    /// between are deltas against the last full base. `1` makes every
    /// snapshot full.
    pub snapshot_full_every: u32,
    /// Depth of the buffer-recycle channel, in batches; `0` (the
    /// default) disables recycling entirely — workers drop their output
    /// batches exactly as before, no recycler domain exists, and the
    /// chaos/recovery schedules replay byte-identically. When positive,
    /// every worker gives its spent output batches back through a
    /// dedicated `sfi` recycle path and the driver drains them into its
    /// [`rbs_netfx::pool::PacketPool`] via
    /// [`ShardedRuntime::reclaim_buffers`].
    pub recycle_capacity: usize,
    /// Minimum packet capacity of the dispatcher's per-shard scratch
    /// batches and every spare shell it creates. `0` (the default) lets
    /// shells grow organically to the observed shard load; setting it to
    /// the driver's batch size guarantees no scratch push can ever
    /// reallocate — the configuration `e12_hotpath` measures under a
    /// counting allocator.
    pub scratch_capacity: usize,
    /// Isolation backend every runtime domain (workers + recycler) runs
    /// on. The default [`BackendKind::TypedSfi`] is the paper's
    /// zero-cost linear-type model and reproduces pre-seam behavior
    /// exactly; [`BackendKind::MpkSim`] and [`BackendKind::CopyBoundary`]
    /// charge each boundary crossing per their cost models (experiment
    /// E13 sweeps the spectrum).
    pub backend: BackendKind,
    /// Deterministic fault schedule injected into workers and the
    /// dispatch path; `None` runs clean.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            restart: RestartPolicy::default(),
            send_deadline: Duration::from_secs(1),
            hang_timeout: Duration::from_secs(5),
            supervisor_seed: 0,
            snapshot_interval_ticks: 0,
            snapshot_full_every: 4,
            recycle_capacity: 0,
            scratch_capacity: 0,
            backend: BackendKind::TypedSfi,
            faults: None,
        }
    }
}

/// Errors surfaced by the runtime to its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Domain creation failed (manager quota).
    DomainCreation(rbs_sfi::domain::DomainError),
    /// A worker slot could not be healed (its domain is destroyed).
    Unrecoverable {
        /// Shard index of the dead slot.
        worker: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::DomainCreation(e) => write!(f, "creating worker domain: {e}"),
            RuntimeError::Unrecoverable { worker } => {
                write!(f, "worker {worker} is unrecoverable (domain destroyed)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The buffer-return plumbing, present only when
/// [`RuntimeConfig::recycle_capacity`] is positive.
///
/// The receive side lives in its own domain (owned by the driver — the
/// dispatcher thread drains it between bursts), so workers feeding it are
/// ordinary cross-domain ownership transfers: a worker that faults with
/// batches in flight simply never gives them back, and those buffers die
/// with its poisoned domain instead of re-entering circulation
/// half-rewritten.
struct Recycler {
    domain: Domain,
    receiver: RecycleReceiver<PacketBatch>,
    /// Template sender cloned into every worker spawn (and respawn).
    sender: RecycleSender<PacketBatch>,
}

struct WorkerSlot {
    domain: Domain,
    sender: DomainSender<WorkItem>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Hung threads abandoned by the watchdog. They self-terminate once
    /// their stall ends (the poisoned table revoked their channel), and
    /// are joined at shutdown so their last batch lands in the
    /// accounting.
    zombies: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<WorkerStats>,
    /// Double-buffered sealed snapshots of this worker's pipeline state,
    /// written by the worker thread on the snapshot cadence and read by
    /// the supervisor at heal time.
    store: Arc<Mutex<SnapshotStore>>,
    health: SlotHealth,
    /// Batches routed to this shard (including ones later lost).
    dispatched: u64,
    /// Batches confirmed lost to faults.
    lost: u64,
    /// Thread respawns performed by the supervisor. Also the spawn number
    /// of the running generation (0 for the initial spawn), which keeps
    /// heartbeat tokens and attach-site fault occurrences unique per
    /// generation.
    respawns: u64,
    /// Hung generations force-failed by the watchdog.
    watchdog_kills: u64,
    /// Packets successfully handed to this worker's queue.
    dispatched_packets: u64,
    /// Packets destroyed by faults after queuing (recomputed at heal and
    /// shutdown as `dispatched_packets - packets_in`).
    lost_packets: u64,
    /// Packets bound for this shard dropped with accounting.
    shed_packets: u64,
    /// Packets bound for this shard rerouted to a healthy peer.
    redistributed_packets: u64,
    /// Bounded-wait sends that gave up on this worker's full queue.
    send_timeouts: u64,
    /// Send attempts at this slot — the occurrence counter for
    /// channel-send fault injection.
    send_attempts: u64,
    /// Respawns handed a verified snapshot.
    warm_restores: u64,
    /// Respawns that started from clean state.
    cold_restores: u64,
    /// Buffered snapshots rejected during recovery.
    snapshot_rejects: u64,
    /// State items destroyed by crashes, summed over all recoveries.
    state_items_lost: u64,
}

impl WorkerSlot {
    fn is_healthy(&self) -> bool {
        self.domain.state() == DomainState::Active && self.sender.is_open()
    }

    /// Re-derives loss counters from the cumulative dispatch/progress
    /// counters. Idempotent and self-correcting: a zombie completing its
    /// stalled batch *after* a provisional accounting shrinks the loss
    /// on the next call.
    fn refresh_losses(&mut self) {
        self.lost = self.dispatched.saturating_sub(self.stats.batches());
        self.lost_packets = self
            .dispatched_packets
            .saturating_sub(self.stats.packets_in());
    }

    fn snapshot(&self, index: usize) -> WorkerSnapshot {
        let (snapshots_taken, latest_snapshot) = {
            let store = self.store.lock();
            (
                store.stats().snapshots_taken(),
                store.latest().map(|s| s.meta()),
            )
        };
        WorkerSnapshot {
            index,
            state: self.domain.state(),
            breaker: self.health.state,
            consecutive_faults: self.health.consecutive_faults,
            generation: self.domain.generation(),
            respawns: self.respawns,
            watchdog_kills: self.watchdog_kills,
            dispatched: self.dispatched,
            processed: self.stats.batches(),
            lost: self.lost,
            dispatched_packets: self.dispatched_packets,
            packets_in: self.stats.packets_in(),
            packets_out: self.stats.packets_out(),
            drops: self.stats.drops(),
            lost_packets: self.lost_packets,
            shed_packets: self.shed_packets,
            redistributed_packets: self.redistributed_packets,
            send_timeouts: self.send_timeouts,
            faults: self.stats.faults(),
            state_items: self.stats.state_items(),
            warm_restores: self.warm_restores,
            cold_restores: self.cold_restores,
            snapshot_rejects: self.snapshot_rejects,
            state_items_lost: self.state_items_lost,
            import_failures: self.stats.import_failures(),
            recycled_batches: self.stats.recycled_batches(),
            recycle_drops: self.stats.recycle_drops(),
            queue_depth_hwm: self.stats.queue_depth_hwm(),
            snapshots_taken,
            latest_snapshot,
            stage_stats: self.stats.final_stage_stats(),
        }
    }
}

/// A multi-worker pipeline runtime with per-domain fault isolation.
///
/// The dispatcher (the thread calling [`ShardedRuntime::dispatch`])
/// flow-hashes each packet to one of N shards; every shard is a worker
/// thread owning a private [`rbs_netfx::Pipeline`] built from the shared
/// [`PipelineSpec`] and running inside its own
/// [`rbs_sfi::Domain`]. Batches cross the boundary through bounded
/// ownership-transferring channels, so a worker never shares packet
/// memory with the dispatcher or its peers.
///
/// A panic inside any worker's pipeline is caught at its domain boundary:
/// the domain faults, its channel is revoked, and *only that shard*
/// stops. The supervisor (folded into the dispatch path — there is no
/// extra thread) observes the failed state and applies the restart
/// policy: respawn after an exponential backoff, or — when the worker is
/// crash-looping past its budget — open its circuit breaker and stop
/// feeding it until a cooldown passes. A worker that *hangs* instead of
/// crashing is caught by the heartbeat watchdog: its domain is
/// force-failed (revoking its channel), the stuck thread is abandoned to
/// self-terminate, and a replacement takes over the shard. While a shard
/// is down its packets are redistributed to healthy peers, or shed with
/// accounting when none exist. Other workers never stall: their queues,
/// domains, and threads are untouched throughout.
///
/// Every dispatched packet is conserved:
/// `offered == packets_in + lost + shed`, with
/// `packets_in == packets_out + drops` —
/// [`RuntimeReport::unaccounted_packets`] checks the whole chain and is
/// asserted to be zero under randomized fault injection.
pub struct ShardedRuntime {
    manager: DomainManager,
    spec: PipelineSpec,
    config: RuntimeConfig,
    slots: Vec<WorkerSlot>,
    /// Logical supervision clock: advanced once per `dispatch` pass
    /// (never by `drain`, whose iteration count is timing-dependent), so
    /// backoff and cooldown schedules replay deterministically.
    tick: u64,
    /// Packets offered to the runtime (`dispatch` + `send_to`).
    offered_packets: u64,
    /// The supervisor's journal.
    events: Vec<SupervisorEvent>,
    /// Jitter source; seeded from the config so runs replay.
    jitter_plan: FaultPlan,
    /// Persistent per-shard scratch batches the single-pass dispatcher
    /// fills; swapped out whole on send, so the dispatch loop itself
    /// performs no allocation once scratch capacity reaches its
    /// high-water mark.
    scratch: Vec<PacketBatch>,
    /// Empty batch shells (allocation retained) used to replace scratch
    /// batches swapped out on send; refilled by the drained input batch
    /// each dispatch and by [`ShardedRuntime::reclaim_buffers`].
    spare_shells: Vec<PacketBatch>,
    /// Buffer-return path; `None` unless recycling is configured.
    recycler: Option<Recycler>,
    /// Set once the workers have been stopped and joined; makes the
    /// teardown idempotent between [`ShardedRuntime::shutdown`] and
    /// `Drop`.
    finished: bool,
}

impl ShardedRuntime {
    /// Builds the runtime and starts all worker threads.
    pub fn new(spec: PipelineSpec, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let epoch = Instant::now();
        let manager = DomainManager::with_backend(config.backend.instantiate());
        // The recycler (when configured) is a driver-owned domain whose
        // only export is the recycle channel; it runs no thread — the
        // dispatch thread drains it via `reclaim_buffers`.
        let recycler = if config.recycle_capacity > 0 {
            let domain = manager
                .create_domain("recycler")
                .map_err(RuntimeError::DomainCreation)?;
            // Spent batches crossing back are metered by their payload
            // bytes, like the forward path.
            let (sender, receiver) =
                recycle_path_metered(&domain, config.recycle_capacity, PacketBatch::total_bytes);
            Some(Recycler {
                domain,
                receiver,
                sender,
            })
        } else {
            None
        };
        let mut slots = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
            let domain = manager
                .create_domain(format!("worker-{index}"))
                .map_err(RuntimeError::DomainCreation)?;
            let stats = Arc::new(WorkerStats::new(epoch));
            let store = Arc::new(Mutex::new(SnapshotStore::new(config.snapshot_full_every)));
            let (sender, thread) = spawn_worker(
                index,
                0,
                domain.clone(),
                spec.clone(),
                Arc::clone(&stats),
                config.queue_capacity,
                config.faults.clone(),
                Arc::clone(&store),
                None,
                recycler.as_ref().map(|r| r.sender.clone()),
            );
            slots.push(WorkerSlot {
                domain,
                sender,
                thread: Some(thread),
                zombies: Vec::new(),
                stats,
                store,
                health: SlotHealth::new(),
                dispatched: 0,
                lost: 0,
                respawns: 0,
                watchdog_kills: 0,
                dispatched_packets: 0,
                lost_packets: 0,
                shed_packets: 0,
                redistributed_packets: 0,
                send_timeouts: 0,
                send_attempts: 0,
                warm_restores: 0,
                cold_restores: 0,
                snapshot_rejects: 0,
                state_items_lost: 0,
            });
        }
        let jitter_plan = FaultPlan::new(config.supervisor_seed);
        let workers = config.workers;
        let scratch_capacity = config.scratch_capacity;
        Ok(Self {
            manager,
            spec,
            config,
            slots,
            tick: 0,
            offered_packets: 0,
            events: Vec::new(),
            jitter_plan,
            scratch: (0..workers)
                .map(|_| PacketBatch::with_capacity(scratch_capacity))
                .collect(),
            spare_shells: Vec::with_capacity(workers * 2 + 4),
            recycler,
            finished: false,
        })
    }

    /// Number of workers (= shards).
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The isolation backend the runtime's domains run on.
    pub fn backend_kind(&self) -> BackendKind {
        self.config.backend
    }

    /// Crossing totals accumulated by the runtime's isolation backend.
    /// Always zero under the default zero-cost [`BackendKind::TypedSfi`]
    /// (nothing is instrumented, by design).
    pub fn backend_totals(&self) -> BackendTotals {
        self.manager.backend_totals()
    }

    /// The current logical supervision tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The supervisor's journal so far, in observation order.
    pub fn events(&self) -> &[SupervisorEvent] {
        &self.events
    }

    fn push_event(&mut self, worker: usize, kind: SupervisorEventKind) {
        self.events.push(SupervisorEvent {
            tick: self.tick,
            worker,
            kind,
        });
    }

    /// Splits `batch` by flow hash and forwards each shard's packets to
    /// its worker, applying the supervision policy on the way: faulted
    /// workers are respawned (within their restart budget and after
    /// their backoff), hung workers are watchdog-killed, and packets
    /// bound for a down shard are redistributed or shed with accounting.
    ///
    /// Each send waits at most [`RuntimeConfig::send_deadline`] on a
    /// full queue, so no worker can wedge the dispatcher. Returns the
    /// number of batches enqueued.
    pub fn dispatch(&mut self, mut batch: PacketBatch) -> Result<usize, RuntimeError> {
        self.supervise()?;
        let n = self.slots.len();
        // Single pass: each packet's flow hash is computed at most once
        // (pktgen-stamped tags are served from the cache) and the packet
        // moves straight into its shard's persistent scratch batch —
        // no per-call shard table, no per-shard `PacketBatch::new`.
        for mut packet in batch.drain() {
            self.offered_packets += 1;
            let s = shard_of_packet_mut(&mut packet, n);
            self.scratch[s].push(packet);
        }
        // The drained input batch becomes a spare shell: in pool mode it
        // is the generator's shell allocation coming back around.
        self.put_spare_shell(batch);
        let mut enqueued = 0;
        for index in 0..n {
            if self.scratch[index].is_empty() {
                continue;
            }
            // Swap the filled scratch out whole (the send path owns it
            // from here) and seat a spare shell as the next round's
            // scratch, pre-sized so its pushes will not reallocate.
            let len = self.scratch[index].len();
            let mut outgoing = self.take_spare_shell(len);
            std::mem::swap(&mut self.scratch[index], &mut outgoing);
            if self.route(index, outgoing) {
                enqueued += 1;
            }
        }
        Ok(enqueued)
    }

    /// Pops a retained empty shell (growing it to `cap` if needed), or
    /// allocates a fresh pre-sized batch when none is banked.
    fn take_spare_shell(&mut self, cap: usize) -> PacketBatch {
        let cap = cap.max(self.config.scratch_capacity);
        match self.spare_shells.pop() {
            Some(mut shell) => {
                shell.reserve(cap.saturating_sub(shell.capacity()));
                shell
            }
            None => PacketBatch::with_capacity(cap),
        }
    }

    /// Banks an empty shell for later scratch swaps; drops it when the
    /// bank is full (the bank's capacity is fixed at construction, so
    /// banking never allocates).
    fn put_spare_shell(&mut self, shell: PacketBatch) {
        debug_assert!(shell.is_empty(), "only drained batches may be banked");
        if self.spare_shells.len() < self.spare_shells.capacity() {
            self.spare_shells.push(shell);
        }
    }

    /// Drains the recycle channel, returning every packet buffer to
    /// `pool` and banking the emptied batch shells for the dispatcher's
    /// scratch swaps. Returns the number of batches reclaimed.
    ///
    /// No-op (returning 0) when recycling is disabled. Call between
    /// dispatch bursts — typically right before generating the next
    /// batch from the pool, so returned buffers are immediately
    /// reusable.
    ///
    /// Shell conservation: every `dispatch` banks its drained input
    /// shell, so without correction the bank would fill and the
    /// dispatcher would drop one shell per burst — slowly bleeding the
    /// pool's shell bank dry (and forcing it to allocate fresh shells).
    /// After draining the channel this method spills banked shells above
    /// the dispatcher's working need back into `pool`, closing the loop:
    /// the shell the generator takes out each burst comes back here.
    pub fn reclaim_buffers(&mut self, pool: &mut PacketPool) -> usize {
        let Some(recycler) = &self.recycler else {
            return 0;
        };
        let shells = &mut self.spare_shells;
        let reclaimed = recycler.receiver.reclaim(|mut batch: PacketBatch| {
            if shells.len() < shells.capacity() {
                for packet in batch.drain() {
                    pool.put(packet.into_bytes());
                }
                shells.push(batch);
            } else {
                // The dispatcher's bank is full; hand the shell to the
                // pool instead — that is where the generator draws batch
                // shells from, so the per-burst shell the driver takes
                // out comes back around here.
                pool.recycle_batch(batch);
            }
        });
        // Balance the bank to its working target: one shell per shard
        // swap (a single dispatch can consume up to `slots.len()` of
        // them) plus headroom. Above target, surplus serves the
        // generator better than us; below target — the recycle channel
        // was briefly empty because workers lagged a few rounds — we
        // borrow from the pool's reservoir *without allocating*, so a
        // scheduling hiccup can never push `dispatch` onto its
        // shell-allocation fallback.
        let target = self.slots.len() + 2;
        while self.spare_shells.len() > target {
            let shell = self.spare_shells.pop().expect("len > target");
            pool.recycle_batch(shell);
        }
        while self.spare_shells.len() < target {
            match pool.try_take_shell() {
                Some(shell) => self.spare_shells.push(shell),
                None => break,
            }
        }
        reclaimed
    }

    /// Whether a buffer-recycle path is configured and still open.
    pub fn recycling_active(&self) -> bool {
        self.recycler.as_ref().is_some_and(|r| r.sender.is_open())
    }

    /// One supervision pass: advance the logical clock, watchdog-check
    /// busy workers, detect faults, apply the restart policy, and — on
    /// the snapshot cadence — ask every healthy worker to checkpoint its
    /// pipeline state.
    fn supervise(&mut self) -> Result<(), RuntimeError> {
        self.tick += 1;
        for index in 0..self.slots.len() {
            self.watchdog_check(index);
            self.observe_slot(index);
            self.advance_slot(index)?;
        }
        let interval = self.config.snapshot_interval_ticks;
        if interval > 0 && self.tick.is_multiple_of(interval) {
            self.request_snapshots();
        }
        Ok(())
    }

    /// Sends a snapshot request to every worker the dispatcher would
    /// feed. Deliberately *not* routed through `send_accounted`: snapshot
    /// items are control traffic — they must not consume channel-send
    /// fault occurrences or batch accounting, or enabling snapshots
    /// would perturb an otherwise identical chaos schedule.
    fn request_snapshots(&mut self) {
        let deadline = self.config.send_deadline;
        let tick = self.tick;
        for slot in &mut self.slots {
            if !slot.health.state.accepts_work() || !slot.is_healthy() {
                continue;
            }
            // A failed send means the worker just faulted; the next
            // supervision pass accounts it, and this cadence is skipped.
            let _ = slot
                .sender
                .send_deadline(WorkItem::Snapshot { tick }, deadline);
        }
    }

    /// Declares a worker hung when one batch has been executing longer
    /// than the hang timeout: force-fail its domain (poisoning the table
    /// and revoking its channel), abandon the thread as a zombie, and
    /// leave the now-unhealthy slot to the regular fault path.
    ///
    /// The zombie needs no killing: when its stall ends, its next
    /// receive fails on the revoked channel and the thread exits; its
    /// handle is joined at shutdown so a batch it did finish still
    /// counts.
    fn watchdog_check(&mut self, index: usize) {
        let slot = &mut self.slots[index];
        if !slot.health.state.accepts_work() || !slot.is_healthy() {
            return;
        }
        let Some(busy) = slot.stats.busy_for() else {
            return;
        };
        if busy <= self.config.hang_timeout {
            return;
        }
        slot.domain.force_fail();
        if let Some(thread) = slot.thread.take() {
            slot.zombies.push(thread);
        }
        slot.watchdog_kills += 1;
        self.push_event(index, SupervisorEventKind::WatchdogKill);
    }

    /// Fault detection: an unhealthy slot whose breaker still accepts
    /// work has a *new* fault. Accounts its losses immediately (so
    /// `drain` can settle while the slot waits out its backoff) and
    /// moves the breaker.
    fn observe_slot(&mut self, index: usize) {
        let policy = self.config.restart.clone();
        let slot = &mut self.slots[index];
        if !slot.health.state.accepts_work() || slot.is_healthy() {
            return;
        }
        let was_half_open = slot.health.state == BreakerState::HalfOpen;
        slot.health.batches_at_fault = slot.stats.batches();
        slot.health.consecutive_faults += 1;
        slot.refresh_losses();
        self.push_event(index, SupervisorEventKind::Fault);
        let slot = &mut self.slots[index];
        if was_half_open || slot.health.consecutive_faults >= policy.max_consecutive_faults {
            let until = self.tick + policy.breaker_cooldown_ticks;
            slot.health.state = BreakerState::Open;
            slot.health.resume_at = until;
            self.push_event(
                index,
                SupervisorEventKind::BreakerOpened { until_tick: until },
            );
        } else {
            let jitter = self.jitter_plan.jitter(
                index as u64,
                u64::from(slot.health.consecutive_faults),
                policy.backoff_jitter_ticks.saturating_add(1),
            );
            let until = self.tick + policy.backoff_ticks(slot.health.consecutive_faults) + jitter;
            slot.health.state = BreakerState::Backoff;
            slot.health.resume_at = until;
            self.push_event(
                index,
                SupervisorEventKind::BackoffScheduled { until_tick: until },
            );
        }
    }

    /// Time-based transitions: respawn slots whose backoff or breaker
    /// cooldown has elapsed, and close breakers whose probe generation
    /// proved itself.
    fn advance_slot(&mut self, index: usize) -> Result<(), RuntimeError> {
        match self.slots[index].health.state {
            BreakerState::Backoff if self.tick >= self.slots[index].health.resume_at => {
                self.heal_slot(index)?;
                self.slots[index].health.state = BreakerState::Running;
                self.push_event(index, SupervisorEventKind::Respawn);
            }
            BreakerState::Open if self.tick >= self.slots[index].health.resume_at => {
                self.heal_slot(index)?;
                self.slots[index].health.state = BreakerState::HalfOpen;
                self.push_event(index, SupervisorEventKind::BreakerHalfOpened);
                self.push_event(index, SupervisorEventKind::Respawn);
            }
            BreakerState::Running => {
                let slot = &mut self.slots[index];
                if slot.health.consecutive_faults > 0
                    && slot.stats.batches() > slot.health.batches_at_fault
                {
                    slot.health.consecutive_faults = 0;
                }
            }
            BreakerState::HalfOpen => {
                let slot = &mut self.slots[index];
                if slot.is_healthy() && slot.stats.batches() > slot.health.batches_at_fault {
                    slot.health.state = BreakerState::Running;
                    slot.health.consecutive_faults = 0;
                    self.push_event(index, SupervisorEventKind::BreakerClosed);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Routes one pre-sharded batch for shard `index`, degrading
    /// gracefully when the shard is down: redistribute to the next
    /// healthy worker, or shed with accounting. Returns whether the
    /// batch was enqueued anywhere.
    fn route(&mut self, index: usize, batch: PacketBatch) -> bool {
        let n = self.slots.len();
        let target = if self.slots[index].health.state.accepts_work() {
            index
        } else {
            // RSS-style degradation: probe the ring for a live worker.
            // Flow affinity for the displaced packets is sacrificed —
            // this runtime's operators are per-flow stateless across
            // shards — in exchange for keeping the packets flowing.
            //
            // Selection consults only the supervision state machine,
            // never the live domain state: breaker states are a pure
            // function of the tick schedule, so the routing decision
            // replays deterministically under a fixed fault seed. A peer
            // that died since the last supervision pass fails the send
            // below and the packets are shed with accounting.
            match (1..n)
                .map(|k| (index + k) % n)
                .find(|&t| self.slots[t].health.state.accepts_work())
            {
                Some(t) => {
                    let packets = batch.len() as u64;
                    self.slots[index].redistributed_packets += packets;
                    self.push_event(index, SupervisorEventKind::Redistributed { packets });
                    t
                }
                None => {
                    self.shed(index, batch.len() as u64);
                    return false;
                }
            }
        };
        self.send_accounted(target, batch)
    }

    /// Sends `batch` to `target` with a bounded wait, shedding (with
    /// accounting) on timeout or a torn channel. Fault injection for the
    /// channel-send site happens here.
    fn send_accounted(&mut self, target: usize, batch: PacketBatch) -> bool {
        use rbs_core::fault::{fire_sleep, FaultKind, FaultSite};
        let packets = batch.len() as u64;
        let occurrence = self.slots[target].send_attempts;
        self.slots[target].send_attempts += 1;
        if let Some(plan) = self.config.faults.clone() {
            match plan.decide(FaultSite::ChannelSend, target as u64, occurrence) {
                Some(FaultKind::Panic | FaultKind::PoisonTable | FaultKind::CloseChannel) => {
                    // A torn transport: the worker's channel dies
                    // mid-send. Force-fail the domain so the supervisor
                    // runs the real recovery path; the batch is shed.
                    self.slots[target].domain.force_fail();
                    self.shed(target, packets);
                    return false;
                }
                Some(FaultKind::Stall { .. }) => {
                    // A simulated queue stall: the send "waits out" its
                    // deadline and gives up. No sleeping needed — the
                    // observable outcome is the accounted drop.
                    self.slots[target].send_timeouts += 1;
                    self.shed(target, packets);
                    return false;
                }
                Some(delay @ FaultKind::Delay { .. }) => fire_sleep(delay),
                None => {}
            }
        }
        match self.slots[target]
            .sender
            .send_deadline(WorkItem::Batch(batch), self.config.send_deadline)
        {
            Ok(()) => {
                self.slots[target].dispatched += 1;
                self.slots[target].dispatched_packets += packets;
                true
            }
            Err((ChannelError::TimedOut, _)) => {
                self.slots[target].send_timeouts += 1;
                self.shed(target, packets);
                false
            }
            Err(_) => {
                // The worker faulted between the supervision pass and
                // this send; the next pass will catch the fault itself.
                self.shed(target, packets);
                false
            }
        }
    }

    fn shed(&mut self, index: usize, packets: u64) {
        if packets == 0 {
            return;
        }
        self.slots[index].shed_packets += packets;
        self.push_event(index, SupervisorEventKind::Shed { packets });
    }

    /// Sends one pre-sharded batch directly to worker `index`, healing
    /// the slot first if its last fault has not been repaired yet.
    ///
    /// This is the targeted (test/tooling) path: it bypasses flow
    /// hashing *and* the restart policy — healing is immediate and
    /// resets the slot's breaker, and the send blocks on a full queue.
    /// Production traffic goes through [`ShardedRuntime::dispatch`].
    pub fn send_to(&mut self, index: usize, batch: PacketBatch) -> Result<(), RuntimeError> {
        self.offered_packets += batch.len() as u64;
        if !self.slots[index].is_healthy() {
            self.heal_slot(index)?;
            self.slots[index].health.reset();
        }
        let packets = batch.len() as u64;
        let mut item = WorkItem::Batch(batch);
        // Two attempts: a worker that faulted after the health check
        // gets healed once, then the send must stick (a freshly spawned
        // worker has an open, empty queue).
        for attempt in 0..2 {
            match self.slots[index].sender.send(item) {
                Ok(()) => {
                    self.slots[index].dispatched += 1;
                    self.slots[index].dispatched_packets += packets;
                    return Ok(());
                }
                Err((_, returned)) => {
                    if attempt == 1 {
                        self.shed(index, packets);
                        return Err(RuntimeError::Unrecoverable { worker: index });
                    }
                    self.heal_slot(index)?;
                    self.slots[index].health.reset();
                    item = returned;
                }
            }
        }
        unreachable!("send loop returns within two attempts")
    }

    /// Scans all slots and repairs any that faulted; returns the number
    /// of workers respawned.
    ///
    /// This is the manual override: it ignores backoff schedules and
    /// open breakers, respawns unconditionally, and resets each healed
    /// slot's breaker state.
    pub fn heal(&mut self) -> Result<usize, RuntimeError> {
        let mut healed = 0;
        for index in 0..self.slots.len() {
            if !self.slots[index].is_healthy() {
                self.heal_slot(index)?;
                self.slots[index].health.reset();
                self.push_event(index, SupervisorEventKind::Respawn);
                healed += 1;
            }
        }
        Ok(healed)
    }

    /// The mechanical respawn sequence for one dead slot: join the dead
    /// thread (hung threads were already moved to the zombie list by the
    /// watchdog), account lost batches, recover the domain (paper §3:
    /// unwind → poison table → drain in-flight → recovery function), and
    /// respawn the worker on a fresh channel — warm from the slot's
    /// newest verified snapshot when snapshotting is on, cold otherwise.
    ///
    /// Breaker bookkeeping belongs to the callers: the policy path keeps
    /// its consecutive-fault count, the manual path resets it.
    fn heal_slot(&mut self, index: usize) -> Result<(), RuntimeError> {
        let spec = self.spec.clone();
        let capacity = self.config.queue_capacity;
        let plan = self.config.faults.clone();
        let slot = &mut self.slots[index];

        if let Some(thread) = slot.thread.take() {
            // The worker loop exits right after a fault, so this join is
            // prompt; a panic *of the loop itself* would be a runtime
            // bug, but even then the slot must stay repairable.
            let _ = thread.join();
        }

        // Everything dispatched but never processed died with the
        // worker: the in-flight batch plus whatever sat in the revoked
        // queue.
        slot.refresh_losses();
        // The dead generation's heartbeat must not age against its
        // replacement (a zombie's stale token would read as a hang).
        slot.stats.clear_busy();

        match slot.domain.state() {
            DomainState::Active => {
                // The fault already auto-recovered (a recovery function
                // was installed) or only the thread died; just respawn.
            }
            DomainState::Failed => {
                // The runtime's recovery function: state re-init is
                // rebuilding the pipeline (from snapshot or spec), which
                // the respawn below does — the domain itself carries
                // nothing else, so reactivation is all that is left.
                slot.domain.set_recovery(|_| {});
                if !slot.domain.recover() {
                    return Err(RuntimeError::Unrecoverable { worker: index });
                }
            }
            DomainState::Destroyed => {
                return Err(RuntimeError::Unrecoverable { worker: index });
            }
        }

        let initial_state = if self.config.snapshot_interval_ticks > 0 {
            self.restore_chain(index)
        } else {
            // Snapshotting off: recovery is cold by definition, with no
            // restore events — the pre-recovery runtime's behavior,
            // replayed exactly.
            None
        };

        let recycle = self.recycler.as_ref().map(|r| r.sender.clone());
        let slot = &mut self.slots[index];
        slot.respawns += 1;
        let (sender, thread) = spawn_worker(
            index,
            slot.respawns,
            slot.domain.clone(),
            spec,
            Arc::clone(&slot.stats),
            capacity,
            plan,
            Arc::clone(&slot.store),
            initial_state,
            recycle,
        );
        slot.sender = sender;
        slot.thread = Some(thread);
        Ok(())
    }

    /// Walks the snapshot fallback chain for a dead slot — latest
    /// verified → previous → cold — journaling every step with exact
    /// state-loss accounting. A snapshot that fails its checksum (or
    /// cannot be decoded/applied) is *never* restored: it is rejected
    /// with its error kind and the chain falls through.
    ///
    /// Returns the checkpoint to inject into the replacement, or `None`
    /// for a cold start.
    fn restore_chain(&mut self, index: usize) -> Option<Arc<Checkpoint>> {
        // The gauge still holds the dead generation's last value: the
        // state the crash destroyed.
        let items_at_crash = self.slots[index].stats.state_items();
        for which in [Buffered::Latest, Buffered::Previous] {
            let candidate = {
                let store = self.slots[index].store.lock();
                store.buffered(which).map(|s| (s.meta(), s.open()))
            };
            match candidate {
                None => continue,
                Some((meta, Ok(cp))) => {
                    let age_ticks = self.tick.saturating_sub(meta.tick);
                    let items_lost = items_at_crash.saturating_sub(meta.items);
                    let slot = &mut self.slots[index];
                    slot.warm_restores += 1;
                    slot.state_items_lost += items_lost;
                    // Pre-set the gauge to the restored count so a crash
                    // racing the replacement's build does not re-account
                    // the dead generation's items; the worker overwrites
                    // it with the truth once its pipeline is up.
                    slot.stats.set_state_items(meta.items);
                    self.push_event(
                        index,
                        SupervisorEventKind::WarmRestore {
                            epoch: meta.epoch,
                            age_ticks,
                            items_restored: meta.items,
                            items_lost,
                        },
                    );
                    return Some(Arc::new(cp));
                }
                Some((_, Err(e))) => {
                    self.slots[index].snapshot_rejects += 1;
                    self.push_event(
                        index,
                        SupervisorEventKind::SnapshotRejected {
                            which: which.name(),
                            reason: e.kind(),
                        },
                    );
                }
            }
        }
        let slot = &mut self.slots[index];
        slot.cold_restores += 1;
        slot.state_items_lost += items_at_crash;
        slot.stats.set_state_items(0);
        self.push_event(
            index,
            SupervisorEventKind::ColdRestore {
                items_lost: items_at_crash,
            },
        );
        None
    }

    /// Waits until every dispatched batch is either processed or
    /// accounted lost, detecting (and accounting) faults as they are
    /// discovered.
    ///
    /// Deliberately does **not** advance the supervision clock or
    /// respawn workers: drain's iteration count depends on thread
    /// timing, and letting it drive backoff schedules would make fault
    /// recovery nondeterministic. A slot waiting out its backoff has its
    /// losses accounted at fault detection, so the drain still settles.
    ///
    /// Returns `true` when fully drained within `timeout`.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            for index in 0..self.slots.len() {
                self.observe_slot(index);
            }
            let settled = self
                .slots
                .iter()
                .all(|s| s.stats.batches() + s.lost >= s.dispatched);
            if settled {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Point-in-time per-worker snapshots.
    pub fn snapshots(&self) -> Vec<WorkerSnapshot> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| s.snapshot(i))
            .collect()
    }

    /// Metadata of one buffered snapshot of worker `index`'s state, if
    /// that buffer holds one.
    pub fn snapshot_meta(&self, index: usize, which: Buffered) -> Option<SnapshotMeta> {
        self.slots[index]
            .store
            .lock()
            .buffered(which)
            .map(|s| s.meta())
    }

    /// Flips one bit inside a buffered snapshot of worker `index` —
    /// scripted corruption for recovery tests. Returns `false` when the
    /// buffer is empty. The next restore from that buffer must detect
    /// the damage and fall through the chain; restoring garbage is the
    /// failure mode this runtime's envelopes exist to rule out.
    pub fn corrupt_snapshot(&mut self, index: usize, which: Buffered) -> bool {
        self.slots[index].store.lock().corrupt(which)
    }

    /// Sends one out-of-cadence snapshot request to worker `index`
    /// (test/tooling path; blocks up to the send deadline). Returns
    /// whether the request was enqueued.
    pub fn request_snapshot(&mut self, index: usize) -> bool {
        let tick = self.tick;
        self.slots[index]
            .sender
            .send_deadline(WorkItem::Snapshot { tick }, self.config.send_deadline)
            .is_ok()
    }

    /// Stops all workers (orderly: queues drain first; with snapshotting
    /// on, each worker seals one final state snapshot) and joins their
    /// threads — zombies included, waiting out bounded stalls so their
    /// final batches land in the accounting. Idempotent.
    fn stop_workers(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let snapshot_tick = (self.config.snapshot_interval_ticks > 0).then_some(self.tick);
        for slot in &mut self.slots {
            // A dead worker's sender is revoked; that is fine — its
            // losses are already (or about to be) accounted.
            let _ = slot.sender.send(WorkItem::Shutdown { snapshot_tick });
        }
        let zombie_deadline = Instant::now() + Duration::from_secs(5);
        for slot in &mut self.slots {
            if let Some(thread) = slot.thread.take() {
                let _ = thread.join();
            }
            // Zombies exit on their own once their stall ends (their
            // channel is revoked). Join the ones that finish in time;
            // a truly wedged thread is abandoned and its in-flight
            // batch stays accounted as lost.
            for zombie in slot.zombies.drain(..) {
                while !zombie.is_finished() && Instant::now() < zombie_deadline {
                    std::thread::yield_now();
                }
                if zombie.is_finished() {
                    let _ = zombie.join();
                }
            }
            slot.refresh_losses();
        }
    }

    /// Stops all workers and reports merged statistics. With
    /// snapshotting on, each worker's final act is sealing a snapshot of
    /// its live state, so the report's `latest_snapshot` metadata equals
    /// the state the pipeline held at the end.
    pub fn shutdown(mut self) -> RuntimeReport {
        self.stop_workers();
        let snapshots = self.snapshots();
        let histograms = self
            .slots
            .iter()
            .map(|s| s.stats.cycle_histogram())
            .collect();
        for slot in &self.slots {
            self.manager.destroy_domain(&slot.domain);
        }
        if let Some(recycler) = &self.recycler {
            self.manager.destroy_domain(&recycler.domain);
        }
        RuntimeReport::from_snapshots(
            snapshots,
            histograms,
            self.offered_packets,
            std::mem::take(&mut self.events),
        )
    }
}

impl Drop for ShardedRuntime {
    /// A runtime dropped without [`ShardedRuntime::shutdown`] still
    /// stops its workers cleanly — including the final state snapshot —
    /// so no worker thread outlives the value that owns its domain.
    fn drop(&mut self) {
        self.stop_workers();
        for slot in &self.slots {
            self.manager.destroy_domain(&slot.domain);
        }
        if let Some(recycler) = &self.recycler {
            self.manager.destroy_domain(&recycler.domain);
        }
    }
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("workers", &self.slots.len())
            .field("queue_capacity", &self.config.queue_capacity)
            .field("tick", &self.tick)
            .field(
                "states",
                &self
                    .slots
                    .iter()
                    .map(|s| (s.domain.state(), s.health.state))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}
