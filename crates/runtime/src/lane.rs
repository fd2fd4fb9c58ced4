//! Run-to-completion lanes with work stealing.
//!
//! A central dispatcher that flow-hashes every packet on one thread and
//! hands batches to workers serializes ingress: past ~2 workers the
//! funnel is the bottleneck (E9 keeps the measured curve). The lane
//! engine has no funnel: **N ingress lanes**, each one thread that
//!
//! 1. pulls shells and buffers from its **own** [`PacketPool`],
//! 2. generates its **own RSS slice** of the flow mix
//!    ([`PacketGen::rss_slice`] — `stable_hash % lanes`, so per-flow
//!    affinity is preserved),
//! 3. processes batches through its **own** [`Pipeline`] replica inside
//!    its **own** [`Domain`], and
//! 4. recycles buffers locally,
//!
//! with no cross-thread hand-off on the steady path. Lanes trade work
//! only when idle, by **stealing** from the front of other lanes' deques
//! ([`crate::deque`]): under a Zipf-skewed mix the hot lane's backlog is
//! drained by the cold ones instead of wedging the run.
//!
//! # Stealing and isolation
//!
//! A stolen batch crosses from the victim's domain to the thief's. The
//! thief charges [`Crossing::Steal`] with the batch's wire bytes on its
//! own domain, so the steal tax lands in the backend's cost model
//! exactly like a channel hand-off: free under `TypedSfi`, a gate spin
//! under `MpkSim`, a real memcpy under `CopyBoundary`. A thief scans
//! victims outward from its own index around the lane ring, neighbours
//! first, so steals stay local and thieves starting from different
//! indices spread over different victims instead of contending.
//!
//! # Accounting
//!
//! Provenance survives stealing: every queued batch carries its origin
//! lane, and whoever processes (or sheds, or loses) it credits the
//! *origin's* ledger. Per origin lane, exactly
//!
//! ```text
//! offered == processed + lost + shed
//! ```
//!
//! holds — `processed` counts work done by any lane, `lost` is batches
//! that died in a domain fault, `shed` is backlog drained unprocessed
//! by a lane that exhausted its respawn budget. The executor-side view
//! (batches a lane's CPU actually ran, split local/stolen) is reported
//! separately per lane.
//!
//! # Faults
//!
//! A panic inside a lane's pipeline unwinds to its domain boundary like
//! any worker fault; the in-flight batch is accounted lost, the domain
//! is destroyed, and the lane rebuilds a cold pipeline in a fresh
//! domain. Lanes have no snapshot cadence: warm recovery is what the
//! tenant engine does. Past `max_respawns`
//! the lane goes dead: it sheds its remaining backlog and stops
//! offering its deque.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rbs_core::fault::FaultPlan;
use rbs_core::histogram::LogHistogram;
use rbs_core::stats::Summary;
use rbs_netfx::pktgen::{PacketGen, TrafficConfig};
use rbs_netfx::pool::{PacketPool, PoolStats};
use rbs_netfx::{PacketBatch, Pipeline, PipelineSpec};
use rbs_sfi::backend::{BackendKind, BackendTotals, Crossing};
use rbs_sfi::{Domain, DomainManager, ThreadAttachment};

use crate::deque::{LaneDeque, Steal, Stealer};

/// Sub-buckets per octave for per-batch cycle histograms (~3% relative
/// error, 16 KiB per lane).
const CYCLE_HIST_PRECISION: u32 = 32;

/// Configuration for a [`LaneRuntime`].
#[derive(Clone)]
pub struct LaneConfig {
    /// Number of run-to-completion lanes (threads).
    pub lanes: usize,
    /// The whole-mix traffic description; each lane generates its RSS
    /// slice of it ([`PacketGen::rss_slice`]).
    pub traffic: TrafficConfig,
    /// Whole-mix batch budget, split across lanes proportionally to
    /// each slice's probability mass (so a Zipf mix loads lanes
    /// unevenly, exactly as RSS would).
    pub total_batches: u64,
    /// Packets per generated batch.
    pub batch_size: usize,
    /// Batches a lane builds per generation turn before draining its
    /// deque again — the window thieves can steal from. It also sizes
    /// the lane's deque (`2 × build_burst`, never grown in steady state)
    /// and its prewarmed buffers (`(build_burst + 2) × batch_size`).
    pub build_burst: usize,
    /// Maximum batches a thief takes per steal round; `0` disables
    /// stealing entirely.
    pub steal_batch: usize,
    /// Isolation backend every lane domain is created under.
    pub backend: BackendKind,
    /// Domain rebuilds a lane attempts before going dead.
    pub max_respawns: u32,
    /// Byte capacity of fresh pooled packet buffers; `0` derives
    /// `traffic`'s frame length ([`TrafficConfig::frame_len`]), so the
    /// pool holds the bytes it carries and nothing more. A frame larger
    /// than an explicit value grows its buffer once.
    pub pool_slab_bytes: usize,
    /// When set, each lane first runs this many whole-mix batches
    /// (split like `total_batches`) as warmup, then parks on a
    /// rendezvous until the driver calls
    /// [`LaneRuntime::wait_warmed`] + [`LaneRuntime::release_warm`];
    /// lanes also park before exiting until
    /// [`LaneRuntime::wait_done`] + [`LaneRuntime::release_exit`].
    /// This brackets a steady-state window for allocation counting.
    pub warmup_batches: Option<u64>,
    /// Deterministic fault plan installed as each lane thread's ambient
    /// plan (stream = lane index, occurrence = the lane thread's count of
    /// visits to the site), so a [`ChaosPoint`](rbs_netfx::operators::ChaosPoint)
    /// in the pipeline fires on schedule. `None` runs clean.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for LaneConfig {
    fn default() -> Self {
        Self {
            lanes: 1,
            traffic: TrafficConfig::default(),
            total_batches: 64,
            batch_size: 64,
            build_burst: 4,
            steal_batch: 2,
            backend: BackendKind::TypedSfi,
            max_respawns: 3,
            pool_slab_bytes: 0,
            warmup_batches: None,
            faults: None,
        }
    }
}

/// One entry in a lane's protocol journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneEvent {
    /// A domain fault was survived: fresh domain, cold pipeline.
    Respawned {
        /// Rebuild count (1 = first respawn).
        seq: u32,
    },
    /// The respawn budget is exhausted; the lane sheds from here on.
    Dead,
}

/// Per-origin-lane packet ledger: every counter is credited by whoever
/// *handles* the origin's traffic, not who generated it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneLedgerSnapshot {
    /// Packets this lane generated into its deque.
    pub offered: u64,
    /// Of those, packets that entered a pipeline (on any lane).
    pub processed: u64,
    /// Packets that made it out of a pipeline.
    pub out: u64,
    /// Packets dropped by pipeline stages (policy, not failure).
    pub drops: u64,
    /// Packets destroyed by a domain fault mid-batch.
    pub lost: u64,
    /// Packets drained unprocessed by a dead lane.
    pub shed: u64,
    /// Of `processed`, packets run by a *different* lane (stolen work).
    pub stolen: u64,
}

impl LaneLedgerSnapshot {
    /// `offered - processed - lost - shed`: zero when conservation
    /// holds for this origin (no loss, no duplication).
    pub fn unaccounted(&self) -> i128 {
        self.offered as i128 - self.processed as i128 - self.lost as i128 - self.shed as i128
    }
}

#[derive(Default)]
struct LaneLedger {
    offered: AtomicU64,
    processed: AtomicU64,
    out: AtomicU64,
    drops: AtomicU64,
    lost: AtomicU64,
    shed: AtomicU64,
    stolen: AtomicU64,
}

impl LaneLedger {
    fn snapshot(&self) -> LaneLedgerSnapshot {
        LaneLedgerSnapshot {
            offered: self.offered.load(Ordering::Acquire),
            processed: self.processed.load(Ordering::Acquire),
            out: self.out.load(Ordering::Acquire),
            drops: self.drops.load(Ordering::Acquire),
            lost: self.lost.load(Ordering::Acquire),
            shed: self.shed.load(Ordering::Acquire),
            stolen: self.stolen.load(Ordering::Acquire),
        }
    }
}

/// A queued unit of work: one batch plus the lane that generated it.
struct LaneBatch {
    batch: PacketBatch,
    origin: usize,
}

/// Cross-thread state for one lane.
struct LaneShared {
    stealer: Stealer<LaneBatch>,
    ledger: LaneLedger,
}

/// State shared by all lanes and the controller.
struct Shared {
    lanes: Vec<LaneShared>,
    /// Lanes that may still push to their deques. Stealing lanes may
    /// only terminate once this reaches zero and every deque is empty.
    generating: AtomicUsize,
    /// Rendezvous: lanes warmed up / released into the measured window.
    warmed: AtomicUsize,
    warm_released: AtomicBool,
    /// Rendezvous: lanes done with measured work / released to exit.
    done: AtomicUsize,
    exit_released: AtomicBool,
}

/// What one lane reports when it exits.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// Lane index.
    pub lane: usize,
    /// Batch quota assigned to this lane (share-proportional split).
    pub quota_batches: u64,
    /// Flows in this lane's RSS slice.
    pub slice_flows: usize,
    /// This lane's probability mass of the whole mix.
    pub share: f64,
    /// Batches this lane's CPU executed (local + stolen).
    pub executed_batches: u64,
    /// Packets this lane's CPU executed.
    pub executed_packets: u64,
    /// Cycles spent inside `run_batch` on this lane.
    pub executed_cycles: u64,
    /// Per-batch cycle histogram (mergeable across lanes).
    pub cycle_hist: LogHistogram,
    /// Batches this lane stole from other deques.
    pub stolen_in_batches: u64,
    /// Packets in those stolen batches.
    pub stolen_in_packets: u64,
    /// Wire bytes charged as [`Crossing::Steal`] by this lane.
    pub steal_bytes: u64,
    /// Domain faults observed on this lane.
    pub faults: u64,
    /// Domain rebuilds performed.
    pub respawns: u32,
    /// True when the lane exhausted its respawn budget.
    pub dead: bool,
    /// Deepest the lane's own deque ever got.
    pub deque_hwm: usize,
    /// The lane pool's traffic counters. With stealing, buffers migrate
    /// between pools (a thief recycles into its own), so per-lane
    /// `taken - returned` is not meaningful — only the fleet-wide sum
    /// is (see [`LaneReport::outstanding_buffers`]).
    pub pool: PoolStats,
    /// Protocol journal (respawns, death).
    pub events: Vec<LaneEvent>,
}

/// Merged end-of-run report for a lane fleet.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// Per-lane executor-side outcomes, indexed by lane.
    pub lanes: Vec<LaneOutcome>,
    /// Per-origin-lane ledgers, indexed by origin lane.
    pub ledgers: Vec<LaneLedgerSnapshot>,
    /// Backend the lane domains ran under.
    pub backend: BackendKind,
    /// Aggregate crossing counters from the shared backend (includes
    /// the steal tax).
    pub backend_totals: BackendTotals,
}

impl LaneReport {
    /// Total packets generated across all lanes.
    pub fn offered(&self) -> u64 {
        self.ledgers.iter().map(|l| l.offered).sum()
    }

    /// Total packets that entered a pipeline.
    pub fn processed(&self) -> u64 {
        self.ledgers.iter().map(|l| l.processed).sum()
    }

    /// Total packets out of pipelines.
    pub fn packets_out(&self) -> u64 {
        self.ledgers.iter().map(|l| l.out).sum()
    }

    /// Total packets destroyed by faults.
    pub fn lost(&self) -> u64 {
        self.ledgers.iter().map(|l| l.lost).sum()
    }

    /// Total packets shed unprocessed by dead lanes.
    pub fn shed(&self) -> u64 {
        self.ledgers.iter().map(|l| l.shed).sum()
    }

    /// Total packets processed on a lane other than their origin.
    pub fn stolen(&self) -> u64 {
        self.ledgers.iter().map(|l| l.stolen).sum()
    }

    /// Summary of per-batch processing cycles merged across all lanes,
    /// `None` when no lane executed a batch.
    pub fn cycles(&self) -> Option<Summary> {
        let mut merged = LogHistogram::new(CYCLE_HIST_PRECISION);
        for lane in &self.lanes {
            merged.merge(&lane.cycle_hist);
        }
        merged.summary()
    }

    /// `offered - processed - lost - shed` over the whole fleet: zero
    /// iff every generated packet was handled exactly once.
    pub fn unaccounted_packets(&self) -> i128 {
        self.ledgers.iter().map(|l| l.unaccounted()).sum()
    }

    /// Fleet-wide buffers checked out of pools and never returned to
    /// any pool (cross-lane recycling nets out in the sum).
    pub fn outstanding_buffers(&self) -> i128 {
        let taken: i128 = self.lanes.iter().map(|l| l.pool.taken as i128).sum();
        let returned: i128 = self.lanes.iter().map(|l| l.pool.returned as i128).sum();
        taken - returned
    }

    /// Fraction of offered packets that came out of a pipeline.
    pub fn goodput(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 1.0;
        }
        self.packets_out() as f64 / offered as f64
    }
}

/// A running fleet of run-to-completion lanes.
///
/// Construct with [`start`](Self::start), then [`join`](Self::join) for
/// the merged [`LaneReport`]. [`run`](Self::run) is the one-shot
/// convenience.
pub struct LaneRuntime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<LaneOutcome>>,
    manager: Arc<DomainManager>,
    backend: BackendKind,
    lanes: usize,
}

impl LaneRuntime {
    /// Spawns `config.lanes` lane threads, each immediately generating
    /// and processing its RSS slice of `config.traffic`.
    ///
    /// # Panics
    ///
    /// Panics on a zero lane count, batch size, burst, or batch budget.
    pub fn start(spec: PipelineSpec, config: LaneConfig) -> Self {
        assert!(config.lanes > 0, "lane count must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.build_burst > 0, "build burst must be positive");
        assert!(config.total_batches > 0, "batch budget must be positive");

        let manager = Arc::new(DomainManager::with_backend_kind(config.backend));
        let slices: Vec<PacketGen> = (0..config.lanes)
            .map(|lane| PacketGen::rss_slice(config.traffic.clone(), lane, config.lanes))
            .collect();
        let shares: Vec<f64> = slices.iter().map(|g| g.share()).collect();
        let quotas = split_quota(config.total_batches, &shares);
        let warmups = match config.warmup_batches {
            Some(total) => split_quota(total, &shares),
            None => vec![0; config.lanes],
        };

        let mut deques = Vec::with_capacity(config.lanes);
        let mut lane_shared = Vec::with_capacity(config.lanes);
        for _ in 0..config.lanes {
            let (deque, stealer) = LaneDeque::with_capacity(config.build_burst * 2);
            deques.push(deque);
            lane_shared.push(LaneShared {
                stealer,
                ledger: LaneLedger::default(),
            });
        }
        let shared = Arc::new(Shared {
            lanes: lane_shared,
            generating: AtomicUsize::new(config.lanes),
            warmed: AtomicUsize::new(0),
            warm_released: AtomicBool::new(false),
            done: AtomicUsize::new(0),
            exit_released: AtomicBool::new(false),
        });

        let handles = deques
            .into_iter()
            .zip(slices)
            .enumerate()
            .map(|(index, (deque, gen))| {
                // Everything thread-local (domain, pipeline, pool wiring)
                // is constructed *inside* the lane thread — a lane's
                // pipeline belongs to its CPU for the whole run.
                let spec = spec.clone();
                let shared = Arc::clone(&shared);
                let manager = Arc::clone(&manager);
                let cfg = config.clone();
                let quota = quotas[index];
                let warmup = warmups[index];
                let plan = config.faults.clone();
                std::thread::Builder::new()
                    .name(format!("rbs-lane-{index}"))
                    .spawn(move || {
                        let run = move || {
                            LaneCtx::new(
                                index, deque, gen, quota, warmup, spec, shared, manager, cfg,
                            )
                            .run()
                        };
                        match plan {
                            Some(plan) => rbs_core::fault::scoped_stream(plan, index as u64, run),
                            None => run(),
                        }
                    })
                    .expect("spawning lane thread")
            })
            .collect();

        LaneRuntime {
            shared,
            handles,
            manager,
            backend: config.backend,
            lanes: config.lanes,
        }
    }

    /// One-shot: start, run to completion, report.
    pub fn run(spec: PipelineSpec, config: LaneConfig) -> LaneReport {
        Self::start(spec, config).join()
    }

    /// Blocks until every lane has parked on the warmup rendezvous
    /// (requires `warmup_batches`).
    pub fn wait_warmed(&self) {
        while self.shared.warmed.load(Ordering::Acquire) < self.lanes {
            std::thread::yield_now();
        }
    }

    /// Releases warmed lanes into the measured window.
    pub fn release_warm(&self) {
        self.shared.warm_released.store(true, Ordering::Release);
    }

    /// Blocks until every lane has finished its measured work and
    /// parked on the exit rendezvous (requires `warmup_batches`).
    pub fn wait_done(&self) {
        while self.shared.done.load(Ordering::Acquire) < self.lanes {
            std::thread::yield_now();
        }
    }

    /// Releases parked lanes to exit.
    pub fn release_exit(&self) {
        self.shared.exit_released.store(true, Ordering::Release);
    }

    /// Joins every lane and merges the report.
    pub fn join(self) -> LaneReport {
        let lanes: Vec<LaneOutcome> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked outside its domain"))
            .collect();
        let ledgers = self
            .shared
            .lanes
            .iter()
            .map(|l| l.ledger.snapshot())
            .collect();
        LaneReport {
            lanes,
            ledgers,
            backend: self.backend,
            backend_totals: self.manager.backend_totals(),
        }
    }
}

/// Splits `total` into per-lane quotas proportional to `shares`
/// (floor + largest-remainder, deterministic tie-break by index), so
/// the quotas sum to exactly `total` and a zero-share lane gets zero.
fn split_quota(total: u64, shares: &[f64]) -> Vec<u64> {
    let raw: Vec<f64> = shares.iter().map(|s| total as f64 * s.max(0.0)).collect();
    let mut quotas: Vec<u64> = raw.iter().map(|r| r.floor() as u64).collect();
    let assigned: u64 = quotas.iter().sum();
    let mut remainder = total.saturating_sub(assigned);
    // Hand leftovers to the largest fractional parts first.
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in &order {
        if remainder == 0 {
            break;
        }
        // Never assign work to a lane with no flows to draw from.
        if shares[i] > 0.0 {
            quotas[i] += 1;
            remainder -= 1;
        }
    }
    quotas
}

/// The `step`-th victim (0-based) lane `me` of `lanes` scans. Steps
/// `0..lanes-1` enumerate every other lane exactly once.
fn victim_at(me: usize, lanes: usize, step: usize) -> usize {
    // 0 → +1, 1 → -1, 2 → +2, 3 → -2, … around the ring; for even lane
    // counts the last step keeps only the +distance victim (the
    // -distance one coincides with it).
    let distance = step / 2 + 1;
    if step.is_multiple_of(2) {
        (me + distance) % lanes
    } else {
        (me + lanes - (distance % lanes)) % lanes
    }
}

/// Which generation window the lane is in.
#[derive(PartialEq, Eq)]
enum Phase {
    Warmup,
    Measured,
}

/// Everything a lane thread owns.
struct LaneCtx {
    index: usize,
    cfg: LaneConfig,
    shared: Arc<Shared>,
    manager: Arc<DomainManager>,
    deque: LaneDeque<LaneBatch>,
    gen: PacketGen,
    pool: PacketPool,
    spec: PipelineSpec,
    domain: Domain,
    pipeline: Pipeline,
    /// Keeps the thread dedicated to the current domain; replaced on
    /// every respawn.
    attachment: Option<ThreadAttachment>,
    stolen_pending: Vec<LaneBatch>,
    phase: Phase,
    quota_remaining: u64,
    measured_quota: u64,
    quota_total: u64,
    announced_done: bool,
    dead: bool,
    // Executor-side counters.
    executed_batches: u64,
    executed_packets: u64,
    executed_cycles: u64,
    cycle_hist: LogHistogram,
    stolen_in_batches: u64,
    stolen_in_packets: u64,
    steal_bytes: u64,
    faults: u64,
    respawns: u32,
    deque_hwm: usize,
    slice_flows: usize,
    share: f64,
    events: Vec<LaneEvent>,
}

impl LaneCtx {
    #[expect(
        clippy::too_many_arguments,
        reason = "internal constructor wiring one lane's full ownership"
    )]
    fn new(
        index: usize,
        deque: LaneDeque<LaneBatch>,
        gen: PacketGen,
        quota: u64,
        warmup: u64,
        spec: PipelineSpec,
        shared: Arc<Shared>,
        manager: Arc<DomainManager>,
        cfg: LaneConfig,
    ) -> Self {
        let slab_bytes = match cfg.pool_slab_bytes {
            0 => cfg.traffic.frame_len(),
            explicit => explicit,
        };
        let prewarm = (cfg.build_burst + 2) * cfg.batch_size;
        let mut pool = PacketPool::new(slab_bytes, prewarm.max(1));
        pool.prewarm(prewarm);
        pool.prewarm_shells(cfg.build_burst + 4, cfg.batch_size);
        let domain = manager
            .create_domain(format!("lane-{index}"))
            .expect("creating lane domain");
        let pipeline = spec.build();
        let slice_flows = gen.flows_in_slice();
        let share = gen.share();
        // With rendezvous enabled every lane goes through the warmup
        // phase — even on a zero warmup quota — so the warm barrier
        // counts all of them.
        let (phase, quota_remaining) = if cfg.warmup_batches.is_some() {
            (Phase::Warmup, warmup)
        } else {
            (Phase::Measured, quota)
        };
        LaneCtx {
            index,
            shared,
            manager,
            deque,
            gen,
            pool,
            spec,
            domain,
            pipeline,
            attachment: None,
            stolen_pending: Vec::with_capacity(cfg.steal_batch.max(1)),
            phase,
            quota_remaining,
            measured_quota: quota,
            quota_total: quota,
            announced_done: false,
            dead: false,
            executed_batches: 0,
            executed_packets: 0,
            executed_cycles: 0,
            cycle_hist: LogHistogram::new(CYCLE_HIST_PRECISION),
            stolen_in_batches: 0,
            stolen_in_packets: 0,
            steal_bytes: 0,
            faults: 0,
            respawns: 0,
            deque_hwm: 0,
            slice_flows,
            share,
            events: Vec::with_capacity(16),
            cfg,
        }
    }

    fn ledger(&self, origin: usize) -> &LaneLedger {
        &self.shared.lanes[origin].ledger
    }

    fn run(mut self) -> LaneOutcome {
        self.attachment = self.domain.attach_thread().ok();
        loop {
            if self.dead {
                break;
            }
            if let Some(item) = self.stolen_pending.pop() {
                self.process(item);
                continue;
            }
            if let Some(item) = self.deque.pop() {
                self.process(item);
                continue;
            }
            if self.quota_remaining > 0 {
                self.generate_burst();
                continue;
            }
            if self.phase == Phase::Warmup {
                // Own warmup work fully drained: park until the driver
                // opens the measured window.
                self.shared.warmed.fetch_add(1, Ordering::AcqRel);
                while !self.shared.warm_released.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                self.phase = Phase::Measured;
                self.quota_remaining = self.measured_quota;
                continue;
            }
            self.mark_done_generating();
            if self.cfg.steal_batch == 0 || self.cfg.lanes == 1 {
                break;
            }
            if self.steal_round() {
                continue;
            }
            if self.shared.generating.load(Ordering::Acquire) == 0 && self.all_deques_empty() {
                break;
            }
            std::thread::yield_now();
        }
        self.exit_cleanup()
    }

    /// Builds up to `build_burst` batches of this lane's slice into its
    /// deque — the window thieves can see.
    fn generate_burst(&mut self) {
        if self.gen.flows_in_slice() == 0 {
            // Degenerate slice (fewer flows than lanes): nothing to
            // build; quotas for such lanes are already zero.
            self.quota_remaining = 0;
            return;
        }
        let burst = (self.cfg.build_burst as u64).min(self.quota_remaining);
        for _ in 0..burst {
            let batch = self
                .gen
                .next_batch_from_pool(self.cfg.batch_size, &mut self.pool);
            self.ledger(self.index)
                .offered
                .fetch_add(batch.len() as u64, Ordering::AcqRel);
            self.deque.push(LaneBatch {
                batch,
                origin: self.index,
            });
        }
        self.quota_remaining -= burst;
        self.deque_hwm = self.deque_hwm.max(self.deque.len());
    }

    /// Runs one batch to completion, crediting its origin's ledger.
    fn process(&mut self, item: LaneBatch) {
        let LaneBatch { batch, origin } = item;
        let n_in = batch.len() as u64;
        if self.dead {
            self.ledger(origin).shed.fetch_add(n_in, Ordering::AcqRel);
            self.pool.recycle_batch(batch);
            return;
        }
        let stolen = origin != self.index;
        let start = rbs_core::cycles::rdtsc();
        match self.domain.execute(|| self.pipeline.run_batch(batch)) {
            Ok(out) => {
                let cycles = rbs_core::cycles::rdtsc().saturating_sub(start);
                let n_out = out.len() as u64;
                // Recycle into *this* lane's pool: with stealing,
                // buffers follow the CPU that freed them.
                self.pool.recycle_batch(out);
                let ledger = self.ledger(origin);
                ledger.processed.fetch_add(n_in, Ordering::AcqRel);
                ledger.out.fetch_add(n_out, Ordering::AcqRel);
                ledger.drops.fetch_add(n_in - n_out, Ordering::AcqRel);
                if stolen {
                    ledger.stolen.fetch_add(n_in, Ordering::AcqRel);
                }
                self.executed_batches += 1;
                self.executed_packets += n_in;
                self.executed_cycles += cycles;
                self.cycle_hist.record(cycles);
                if stolen {
                    self.stolen_in_batches += 1;
                    self.stolen_in_packets += n_in;
                }
            }
            Err(_) => {
                // The batch moved into the domain and died with it.
                self.ledger(origin).lost.fetch_add(n_in, Ordering::AcqRel);
                self.faults += 1;
                self.respawn_or_die();
            }
        }
    }

    /// Tears down the faulted domain and rebuilds cold, or goes dead
    /// once the budget is spent.
    fn respawn_or_die(&mut self) {
        self.attachment = None;
        self.manager.destroy_domain(&self.domain);
        if self.respawns >= self.cfg.max_respawns {
            self.dead = true;
            self.events.push(LaneEvent::Dead);
            return;
        }
        self.respawns += 1;
        let domain = self
            .manager
            .create_domain(format!("lane-{}-g{}", self.index, self.respawns))
            .expect("recreating lane domain");
        self.attachment = domain.attach_thread().ok();
        self.pipeline = self.spec.build();
        self.domain = domain;
        self.events
            .push(LaneEvent::Respawned { seq: self.respawns });
    }

    /// One steal attempt: scan victims ring-nearest first, take up
    /// to `steal_batch` items from the first lane that yields any.
    /// Returns true when work was taken.
    fn steal_round(&mut self) -> bool {
        let lanes = self.cfg.lanes;
        for step in 0..lanes - 1 {
            let victim = victim_at(self.index, lanes, step);
            let stealer = &self.shared.lanes[victim].stealer;
            while self.stolen_pending.len() < self.cfg.steal_batch {
                match stealer.steal() {
                    Steal::Taken(item) => {
                        let bytes = item.batch.total_bytes();
                        // The batch is crossing domains: bill the steal
                        // tax to the CPU doing the work.
                        self.domain.meter_crossing(Crossing::Steal, bytes);
                        self.steal_bytes += bytes as u64;
                        self.stolen_pending.push(item);
                    }
                    Steal::Empty => break,
                }
            }
            if !self.stolen_pending.is_empty() {
                return true;
            }
        }
        false
    }

    fn all_deques_empty(&self) -> bool {
        self.shared.lanes.iter().all(|l| l.stealer.is_empty())
    }

    fn mark_done_generating(&mut self) {
        if !self.announced_done {
            self.announced_done = true;
            self.shared.generating.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn exit_cleanup(mut self) -> LaneOutcome {
        // A dead lane's backlog is shed, not processed; a healthy lane
        // reaches here with everything drained (these loops are no-ops).
        while let Some(item) = self.stolen_pending.pop() {
            let n = item.batch.len() as u64;
            self.ledger(item.origin).shed.fetch_add(n, Ordering::AcqRel);
            self.pool.recycle_batch(item.batch);
        }
        while let Some(item) = self.deque.pop() {
            let n = item.batch.len() as u64;
            self.ledger(item.origin).shed.fetch_add(n, Ordering::AcqRel);
            self.pool.recycle_batch(item.batch);
        }
        self.mark_done_generating();
        if self.cfg.warmup_batches.is_some() {
            self.shared.done.fetch_add(1, Ordering::AcqRel);
            while !self.shared.exit_released.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        LaneOutcome {
            lane: self.index,
            quota_batches: self.quota_total,
            slice_flows: self.slice_flows,
            share: self.share,
            executed_batches: self.executed_batches,
            executed_packets: self.executed_packets,
            executed_cycles: self.executed_cycles,
            cycle_hist: self.cycle_hist,
            stolen_in_batches: self.stolen_in_batches,
            stolen_in_packets: self.stolen_in_packets,
            steal_bytes: self.steal_bytes,
            faults: self.faults,
            respawns: self.respawns,
            dead: self.dead,
            deque_hwm: self.deque_hwm,
            pool: self.pool.stats(),
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_netfx::operators::{MacSwap, NullFilter, TtlDecrement};

    fn spec() -> PipelineSpec {
        PipelineSpec::new()
            .stage(NullFilter::new)
            .stage(TtlDecrement::new)
            .stage(MacSwap::new)
            .with_state_schema(1)
    }

    fn base_config(lanes: usize) -> LaneConfig {
        LaneConfig {
            lanes,
            total_batches: 64,
            batch_size: 32,
            build_burst: 4,
            traffic: TrafficConfig {
                flows: 256,
                ..TrafficConfig::default()
            },
            ..LaneConfig::default()
        }
    }

    #[test]
    fn single_lane_conserves_and_processes_everything() {
        let report = LaneRuntime::run(spec(), base_config(1));
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.offered(), 64 * 32);
        assert_eq!(report.processed(), 64 * 32);
        assert_eq!(report.lost(), 0);
        assert_eq!(report.shed(), 0);
        assert_eq!(report.stolen(), 0);
        assert_eq!(report.outstanding_buffers(), 0);
    }

    #[test]
    fn quota_split_matches_shares_and_sums_exactly() {
        let quotas = split_quota(100, &[0.5, 0.25, 0.25]);
        assert_eq!(quotas.iter().sum::<u64>(), 100);
        assert_eq!(quotas, vec![50, 25, 25]);
        // Zero-share lanes get nothing, including remainders.
        let quotas = split_quota(7, &[0.6, 0.0, 0.4]);
        assert_eq!(quotas.iter().sum::<u64>(), 7);
        assert_eq!(quotas[1], 0);
    }

    #[test]
    fn multi_lane_uniform_conserves_without_stealing() {
        let mut cfg = base_config(4);
        cfg.steal_batch = 0;
        let report = LaneRuntime::run(spec(), cfg);
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.offered(), 64 * 32);
        assert_eq!(report.stolen(), 0);
        // Every lane processed exactly what it generated.
        for (lane, ledger) in report.ledgers.iter().enumerate() {
            assert_eq!(
                ledger.offered, ledger.processed,
                "lane {lane} lost or exported work with stealing off"
            );
        }
    }

    #[test]
    fn multi_lane_with_stealing_conserves() {
        let mut cfg = base_config(4);
        cfg.steal_batch = 2;
        cfg.traffic.distribution = rbs_netfx::pktgen::FlowDistribution::Zipf(1.2);
        let report = LaneRuntime::run(spec(), cfg);
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.lost(), 0);
        assert_eq!(report.shed(), 0);
        assert_eq!(report.offered(), report.processed());
        // Executor-side and origin-side views agree on stolen work.
        let stolen_in: u64 = report.lanes.iter().map(|l| l.stolen_in_packets).sum();
        assert_eq!(stolen_in, report.stolen());
    }

    #[test]
    fn victim_order_covers_every_other_lane_once() {
        for lanes in [2usize, 3, 4, 5, 8] {
            for me in 0..lanes {
                let mut victims: Vec<usize> = (0..lanes - 1)
                    .map(|step| victim_at(me, lanes, step))
                    .collect();
                victims.sort_unstable();
                let expected: Vec<usize> = (0..lanes).filter(|&v| v != me).collect();
                assert_eq!(victims, expected, "{lanes} lanes, thief {me}");
            }
        }
        // Locality: the direct neighbours come first.
        assert_eq!(victim_at(2, 8, 0), 3);
        assert_eq!(victim_at(2, 8, 1), 1);
    }

    #[test]
    fn zipf_mix_loads_lanes_unevenly_and_stealing_rebalances() {
        let mut cfg = base_config(4);
        cfg.total_batches = 200;
        cfg.steal_batch = 4;
        cfg.traffic.flows = 512;
        cfg.traffic.distribution = rbs_netfx::pktgen::FlowDistribution::Zipf(1.2);
        let report = LaneRuntime::run(spec(), cfg);
        assert_eq!(report.unaccounted_packets(), 0);
        let quotas: Vec<u64> = report.lanes.iter().map(|l| l.quota_batches).collect();
        let max = *quotas.iter().max().unwrap();
        let min = *quotas.iter().min().unwrap();
        assert!(
            max > min,
            "Zipf shares should load lanes unevenly, got {quotas:?}"
        );
    }
}
