//! Tenant lanes: blast-radius containment, deterministic at any lane
//! count.
//!
//! The containment *semantics* — breakers, admission, churn, exact
//! ledgers; vocabulary in [`crate::tenant`] — run on a logical tick
//! clock, and this module runs that clock on real CPUs: a
//! [`TenantLaneRuntime`] places tenant domains onto N
//! **lanes** — the calling thread is lane 0, lanes `1..N` are threads —
//! with a weighted placement policy, each lane tick-processes only its
//! resident tenants, and idle lanes steal *whole tenant-ticks* through
//! the same deques the lane engine trades batches on — under a
//! priority-aware policy that never steals ahead of a higher-priority
//! tenant's queued work. At `lanes: 1` it runs on the calling thread
//! alone: nothing is spawned, nothing blocks, and a fixed offered
//! trace replays byte-identically.
//!
//! The design walks a narrow line: wall-clock parallel execution whose
//! *accounting* is still byte-deterministic.
//!
//! - **Tick barrier.** The caller steers, admits and queues a tick's
//!   waves, then `step` moves each tenant with queued work onto its home
//!   lane's band deque while the helper lanes are parked on `start`,
//!   joins that barrier and runs the same tick body the helpers run, as
//!   lane 0: claim tenants until its own bands and a steal sweep come up
//!   empty, hand the claimed tenants back, `done` rendezvous. Both
//!   barriers have `lanes` participants, so with one lane nothing is
//!   spawned and nothing blocks. Nothing is pushed after `start`, so
//!   every deque only shrinks while thieves scan — the lemma behind the
//!   no-inversion guarantee, and the reason a lane that finds no work
//!   may leave: none can appear.
//! - **Per-tenant serialization.** No lock guards a tenant: it is a box
//!   with one owner, during a tick the lane that popped or stole its
//!   *claim* — the box itself, moved through the deque. That lane runs
//!   the tenant's queued batches in FIFO order and hands the box back
//!   (a helper all of its claims at once, before `done`); `step` puts
//!   every tenant home before supervision. So a tenant's execution
//!   stream (and hence its fault-plan occurrence stream, breaker
//!   transitions, and ledger) is identical no matter which CPUs ran it.
//!   Only wall-clock-side counters (Mpps, who-stole-what) vary.
//! - **Priority bands.** Every lane owns one deque per distinct
//!   priority. Owners drain their highest band first; a thief sweeps
//!   band-major (all victims' top bands before anyone's second band) and
//!   audits each theft, counting a `priority_inversion` if a higher band
//!   anywhere still held work — structurally impossible, and asserted
//!   zero in the tests.
//! - **O(resident) ticks.** Per tick the caller touches only the
//!   tenants that received traffic (a dirty list), open breakers (a
//!   watch list), and one staggered snapshot bucket — never the whole
//!   tenant table. Scale to hundreds of tenants costs the lanes nothing.
//! - **Buffers go home.** A warmed-up tick does not call the allocator:
//!   only admitted packets enter a tenant's staging buffer, which leaves
//!   as the queued batch while an emptied shell takes its place; a shed
//!   packet (admission or open breaker) goes from the wave straight to
//!   the calling thread's spare list ([`rbs_netfx::pool`]), one
//!   [`recycle_local`] per wave, and an executed one's buffer goes to
//!   the executing thread's list at egress. A client generating on that
//!   thread finds them there. Helper lanes' lists fill and overflow to
//!   `free`; returning those to the origin lane is ROADMAP item 10(a).
//!
//! - **Between ticks, one owner.** While the helpers are parked on
//!   `start`, the caller owns every tenant: admission, supervision,
//!   churn and live upgrade ([`TenantLaneRuntime::upgrade`]) touch
//!   tenants and swap chains with no protocol.
//!
//! Thefts are metered as [`Crossing::Steal`] against the *origin
//! tenant's* domain and credited to its ledger (`TenantLedger::stolen`,
//! a subset of `processed`), so the steal tax shows up in the isolation
//! accounting exactly like the lane engine's.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use rbs_checkpoint::{Buffered, Checkpoint, SnapshotStore, StateMigrator};
use rbs_core::fault::{self, FaultPlan, FaultSite};
use rbs_core::sync::Mutex;
use rbs_maglev::{Backend, MaglevTable};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::pool::recycle_local;
use rbs_netfx::{Packet, PacketBatch, Pipeline, PipelineSpec, TickBucket};
use rbs_sfi::backend::{BackendTotals, Crossing};
use rbs_sfi::{BackendKind, Domain, DomainManager};

use crate::deque::{LaneDeque, Steal, Stealer};
use crate::tenant::{
    default_tenant_chain, Breaker, BreakerPhase, BreakerPolicy, DelayLedger, LaneOccupancy,
    RebuildRecord, Signal, SupervisionCounts, TenantChainFactory, TenantError, TenantEvent,
    TenantEventKind, TenantOutcome, TenantReport, TenantSpec, UpgradeError, UpgradeOutcome,
    STOCK_CHAIN_MAX_TENANTS,
};

/// Configuration for a [`TenantLaneRuntime`].
#[derive(Clone)]
pub struct TenantLaneConfig {
    /// The tenant population. Index order is identity for the whole run.
    pub tenants: Vec<TenantSpec>,
    /// Executors tenants are placed onto, the calling thread included:
    /// `lanes − 1` threads are spawned.
    pub lanes: usize,
    /// Maglev table size; must be prime.
    pub table_size: usize,
    /// Queued batches per lane above which the lowest-priority queued
    /// work is shed (`shed_backpressure`).
    pub queue_hwm: usize,
    /// Breaker thresholds and timers.
    pub breaker: BreakerPolicy,
    /// Work units one tenant may consume per tick before the overrun
    /// counts as a strike. `0` disables the budget.
    pub work_budget_per_tick: u64,
    /// Snapshot cadence in ticks (`0` disables warm recovery). Tenants
    /// are staggered across the cadence window so a tick never snapshots
    /// more than ~`tenants / cadence` chains.
    pub snapshot_every_ticks: u64,
    /// Full-snapshot cadence handed to each tenant's [`SnapshotStore`].
    pub snapshot_full_every: u32,
    /// Isolation backend for the per-tenant domains.
    pub backend: BackendKind,
    /// Chain builder; `None` uses [`default_tenant_chain`].
    pub chain: Option<TenantChainFactory>,
    /// Whether idle lanes steal resident work from busy lanes.
    pub steal: bool,
    /// Deterministic fault plan; stream = tenant index, occurrence = the
    /// tenant's executed batch count — so a scripted crash loop targets
    /// one tenant while background chaos salts all of them, reproducibly
    /// at any lane count and under stealing: the per-tenant FIFO
    /// serializes the occurrence stream.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for TenantLaneConfig {
    fn default() -> Self {
        Self {
            tenants: Vec::new(),
            lanes: 4,
            table_size: 251,
            queue_hwm: 64,
            breaker: BreakerPolicy::default(),
            work_budget_per_tick: 0,
            snapshot_every_ticks: 0,
            snapshot_full_every: 4,
            backend: BackendKind::TypedSfi,
            chain: None,
            steal: true,
            faults: None,
        }
    }
}

/// One admitted wave for one tenant, queued on its FIFO.
struct TenantWork {
    epoch: u64,
    batch: PacketBatch,
    enqueue_tick: u64,
    cost: u64,
}

/// A tenant's live chain: its protection domain and the pipeline inside.
struct LaneChain {
    domain: Domain,
    pipeline: Pipeline,
}

/// Everything about one tenant, in a box that has one owner at a time:
/// the caller between ticks, the lane that claimed it during one —
/// which is what makes per-tenant streams executor-invariant.
struct TenantInner {
    idx: usize,
    spec: TenantSpec,
    present: bool,
    breaker: Breaker,
    epoch: u64,
    bucket: TickBucket,
    ledger: crate::tenant::TenantLedger,
    occurrence: u64,
    snapshots_taken: u64,
    /// Seals attempted, faulted ones included: the occurrence of the
    /// [`FaultSite::CheckpointEncode`] site, so a retried seal draws a
    /// fresh decision.
    seal_attempts: u64,
    delays: DelayLedger,
    batches_executed: u64,
    work_this_tick: u64,
    home_lane: usize,
    queue: VecDeque<TenantWork>,
    /// Emptied batch shells on their way back from `execute_one` to
    /// `offer`, which swaps one in for each staging buffer it queues.
    shells: Vec<Vec<Packet>>,
    chain: Option<LaneChain>,
    pipeline_spec: PipelineSpec,
    /// Committed upgrades behind `pipeline_spec`.
    generation: u64,
    store: SnapshotStore,
    events: Vec<TenantEvent>,
    dirty_since_snapshot: bool,
}

/// A tenant on the move from `step` through a band deque to its lane.
type Claim = Box<TenantInner>;

/// One tenant's target, built by an upgrade's first phase and installed
/// by its second.
struct StagedTenant {
    spec: PipelineSpec,
    /// `None` for a tenant whose breaker is open.
    chain: Option<LaneChain>,
    /// A store holding only the target's state.
    store: SnapshotStore,
}

/// What `step` restores before it returns.
const HOME: &str = "every tenant is home between ticks";

/// Tenant `slot` of the runtime's table, owned by the caller.
fn home(slot: &mut Option<Claim>) -> &mut TenantInner {
    slot.as_deref_mut().expect(HOME)
}

/// Shells a tenant banks. With the staging buffer that is three vectors
/// in rotation, which a client offering each tick in two waves never
/// exhausts; a tenant queued more often than that regrows a buffer.
const MAX_SHELLS: usize = 2;

impl TenantInner {
    fn push_event(&mut self, tick: u64, kind: TenantEventKind) {
        self.events.push(TenantEvent {
            tick,
            tenant: self.idx,
            kind,
        });
    }

    /// Tells the breaker `signal` and applies the transition it names:
    /// the admission rate it sets, the domain an opening destroys, and
    /// the half-open probe's respawn. Batches still queued when it opens
    /// are shed as the claim that holds them reaches each in turn.
    fn signal(&mut self, now: u64, signal: Signal, shared: &Shared) {
        let Some(kind) = self.breaker.on(signal, now, &shared.policy) else {
            return;
        };
        let throttled = (self.spec.rate_per_tick / shared.policy.throttle_divisor).max(1);
        match kind {
            TenantEventKind::Throttled { .. } | TenantEventKind::HalfOpened => {
                self.bucket.set_rate(throttled)
            }
            TenantEventKind::Closed => self.bucket.set_rate(self.spec.rate_per_tick),
            // `Opened` or `Reopened`: the blast is contained.
            _ => {
                if let Some(chain) = self.chain.take() {
                    shared.manager.destroy_domain(&chain.domain);
                }
            }
        }
        self.push_event(now, kind);
        if kind == TenantEventKind::HalfOpened {
            self.respawn(now, &shared.manager);
        }
    }

    /// The tenant's live domain died at `site`: one strike, then a warm
    /// respawn unless the strike opened the breaker. Returns whether it
    /// did.
    fn fault(&mut self, now: u64, site: FaultSite, shared: &Shared) -> bool {
        self.push_event(now, TenantEventKind::Faulted { site });
        self.signal(now, Signal::Strike, shared);
        let open = self.breaker.phase() == BreakerPhase::Open;
        if !open {
            self.respawn(now, &shared.manager);
        }
        open
    }

    /// Rebuilds the tenant's chain in a fresh domain, restoring from the
    /// latest verified snapshot (then the previous; then cold). Each
    /// buffered snapshot it passes over is journalled as rejected.
    fn respawn(&mut self, now: u64, manager: &DomainManager) {
        if let Some(chain) = self.chain.take() {
            manager.destroy_domain(&chain.domain);
        }
        let name = format!("tlane-{}-e{}-t{now}", self.spec.name, self.epoch);
        let domain = manager.create_domain(name).expect("tenant domain");
        let mut pipeline: Option<Pipeline> = None;
        for which in [Buffered::Latest, Buffered::Previous] {
            let reason = match self.store.open_buffered(which) {
                None => continue,
                Some(Err(e)) => e.kind(),
                Some(Ok(cp)) => match self.pipeline_spec.build_with_state(&cp) {
                    Ok(p) => {
                        pipeline = Some(p);
                        break;
                    }
                    Err(_) => "snapshot",
                },
            };
            self.push_event(now, TenantEventKind::SnapshotRejected { which, reason });
        }
        let (pipeline, warm) = match pipeline {
            Some(p) => (p, true),
            None => (self.pipeline_spec.build(), false),
        };
        let items = pipeline.state_items();
        self.chain = Some(LaneChain { domain, pipeline });
        self.push_event(now, TenantEventKind::Respawned { warm, items });
    }
}

/// Per-lane state shared with thieves and the caller.
struct LaneShared {
    /// This lane's band deques (band 0 = highest): `step` pushes a
    /// tick's claims while every lane is parked, the lane pops them.
    bands: Vec<LaneDeque<Claim>>,
    /// Steal handles onto the same deques.
    stealers: Vec<Stealer<Claim>>,
}

/// State shared by every lane: the caller (lane 0) and the helper threads.
struct Shared {
    lanes: Vec<LaneShared>,
    /// The claims helper lanes ran this tick, handed back before `done`.
    returned: Mutex<Vec<Claim>>,
    /// The tick the lanes are currently executing.
    tick: AtomicU64,
    shutdown: AtomicBool,
    /// Releases a pushed tick (or the shutdown flag) to the helpers.
    /// Like `done`, one participant per lane. No deque grows after it
    /// for the rest of the tick.
    start: Barrier,
    /// The tick's work set is fully consumed.
    done: Barrier,
    manager: DomainManager,
    policy: BreakerPolicy,
    steal: bool,
    faults: Option<Arc<FaultPlan>>,
}

/// What one lane's executor did; handed back at shutdown.
#[derive(Default)]
struct LaneSideOutcome {
    executed_batches: u64,
    executed_packets: u64,
    steals_in: u64,
    steal_bytes: u64,
    stolen_from: Vec<u64>,
    priority_inversions: u64,
}

/// Everything one lane's executor owns: lane 0's lives in the runtime
/// and runs on the calling thread, the others move into their threads.
struct LaneCtx {
    index: usize,
    side: LaneSideOutcome,
    /// The tenants this lane ran in the current tick.
    held: Vec<Claim>,
}

impl LaneCtx {
    /// A helper thread's life: park on `start`, run the tick, repeat.
    fn run(mut self, shared: &Shared) -> LaneSideOutcome {
        loop {
            shared.start.wait();
            if shared.shutdown.load(Ordering::Acquire) {
                return self.side;
            }
            self.tick(shared);
        }
    }

    /// One tick on this lane, entered once `start` has released it: the
    /// body the caller (lane 0) and every helper thread share. Claims
    /// tenants until its own bands and a steal sweep come up empty: no
    /// claim appears after `start`, so none will.
    fn tick(&mut self, shared: &Shared) {
        let now = shared.tick.load(Ordering::Acquire);
        let mut band = 0;
        loop {
            let own = self.pop_own(shared, &mut band);
            let stolen = own.is_none();
            let claim = own.or_else(|| shared.steal.then(|| self.steal_claim(shared)).flatten());
            let Some(mut tenant) = claim else { break };
            while let Some(work) = tenant.queue.pop_front() {
                self.execute_one(shared, &mut tenant, work, now, stolen);
            }
            if stolen {
                self.side.steals_in += 1;
                self.side.stolen_from[tenant.idx] += 1;
            }
            self.held.push(tenant);
        }
        if self.index > 0 && !self.held.is_empty() {
            shared.returned.lock().append(&mut self.held);
        }
        shared.done.wait();
    }

    /// Pops this lane's own work, highest band first, from `band` on: a
    /// band found empty stays empty for the rest of the tick.
    fn pop_own(&self, shared: &Shared, band: &mut usize) -> Option<Claim> {
        let bands = &shared.lanes[self.index].bands;
        while let Some(deque) = bands.get(*band) {
            if let Some(t) = deque.pop() {
                return Some(t);
            }
            *band += 1;
        }
        None
    }

    /// Band-major steal sweep: every victim's band 0 is scanned before
    /// anyone's band 1, so a theft can never jump ahead of queued
    /// higher-priority work; each theft is audited all the same.
    fn steal_claim(&mut self, shared: &Shared) -> Option<Claim> {
        let lanes = shared.lanes.len();
        for band in 0..shared.lanes[self.index].bands.len() {
            for step in 1..lanes {
                let victim = (self.index + step) % lanes;
                let stealer = &shared.lanes[victim].stealers[band];
                if let Steal::Taken(t) = stealer.steal() {
                    self.audit_no_inversion(shared, band);
                    return Some(t);
                }
            }
        }
        None
    }

    /// Audits a theft from `band`: within a tick deques only shrink, so
    /// any non-empty higher band on any lane, this one included, would
    /// be a genuine inversion.
    fn audit_no_inversion(&mut self, shared: &Shared, band: usize) {
        for b in 0..band {
            for lane in &shared.lanes {
                if !lane.stealers[b].is_empty() {
                    self.side.priority_inversions += 1;
                    return;
                }
            }
        }
    }

    /// Runs one of a claimed tenant's batches in its domain — or sheds
    /// it, if the tenant left or its breaker opened since it queued.
    fn execute_one(
        &mut self,
        shared: &Shared,
        g: &mut TenantInner,
        work: TenantWork,
        now: u64,
        stolen: bool,
    ) {
        let n_in = work.batch.len() as u64;
        if !g.present || work.epoch != g.epoch {
            g.ledger.shed_removed += n_in;
            return;
        }
        if g.breaker.phase() == BreakerPhase::Open {
            g.ledger.shed_open += n_in;
            return;
        }
        g.delays.record(now - work.enqueue_tick);
        g.batches_executed += 1;
        g.work_this_tick += work.cost;
        let occurrence = g.occurrence;
        g.occurrence += 1;
        let fire = shared
            .faults
            .as_ref()
            .and_then(|plan| plan.decide(FaultSite::Operator(0), g.idx as u64, occurrence));
        let chain = g.chain.as_mut().expect("live tenant has a chain");
        if stolen {
            // The batch is executing off its home lane: bill the steal
            // tax to the tenant's own isolation account.
            let bytes = work.batch.total_bytes();
            chain.domain.meter_crossing(Crossing::Steal, bytes);
            self.side.steal_bytes += bytes as u64;
        }
        let pipeline = &mut chain.pipeline;
        let batch = work.batch;
        let result = chain.domain.execute(move || {
            fault::fire(FaultSite::Operator(0), fire);
            pipeline.run_batch(batch)
        });
        self.side.executed_batches += 1;
        self.side.executed_packets += n_in;
        match result {
            Ok(out) => {
                g.ledger.processed += n_in;
                g.ledger.out += out.len() as u64;
                g.ledger.drops += n_in - out.len() as u64;
                g.dirty_since_snapshot = true;
                // Egress: the buffers go to this thread's spare list,
                // the emptied shell back to the tenant's next `offer`.
                let mut shell = out.into_packets();
                recycle_local(shell.drain(..));
                if g.shells.len() < MAX_SHELLS {
                    g.shells.push(shell);
                }
                if stolen {
                    g.ledger.stolen += n_in;
                }
                g.signal(now, Signal::Probe, shared);
            }
            Err(_) => {
                // The batch moved into the domain and died with it. A
                // breaker this opens joins the open watch in `step`'s
                // supervision pass.
                g.ledger.lost += n_in;
                g.fault(now, FaultSite::Operator(0), shared);
            }
        }
    }
}

/// Multi-tenant containment on real lanes — the calling thread plus
/// `lanes − 1` helper threads — with priority-aware work stealing.
/// Alternate [`offer`](TenantLaneRuntime::offer) and
/// [`step`](TenantLaneRuntime::step), churn between ticks, then
/// [`finish`](TenantLaneRuntime::finish).
pub struct TenantLaneRuntime {
    shared: Arc<Shared>,
    /// Lane 0: executed by whichever thread calls `step`.
    lane0: LaneCtx,
    /// Lanes `1..lanes`.
    handles: Vec<JoinHandle<LaneSideOutcome>>,
    /// Every tenant, by index; `None` only while a tick has it on a lane.
    tenants: Vec<Option<Claim>>,
    /// Tenant index → priority band (0 = highest priority).
    band_of: Vec<usize>,
    factory: TenantChainFactory,
    specs: Vec<TenantSpec>,
    present: Vec<bool>,
    table: MaglevTable,
    table_map: Vec<usize>,
    /// Per-tenant staging buffers. Only admitted packets enter one; the
    /// admitted part of a wave leaves as the queued batch itself and one
    /// of the tenant's emptied shells takes its place, so the warmed-up
    /// offer path does not allocate.
    staged: Vec<Vec<Packet>>,
    /// The tenant of each packet of the wave being offered, in wave order.
    steered: Vec<u32>,
    /// Per tenant, the wave's packets steered to it; after admission,
    /// those of them it still grants.
    grants: Vec<u64>,
    /// Tenants the wave being offered has steered packets to.
    touched: Vec<usize>,
    /// Tenants with queued work since the last step (the dirty list).
    active: Vec<usize>,
    is_active: Vec<bool>,
    /// Queued batches per lane awaiting the next tick.
    lane_depth: Vec<usize>,
    lane_depth_hwm: Vec<usize>,
    hwm_sheds: u64,
    /// Present tenants resident on each lane (home placement).
    residents: Vec<Vec<usize>>,
    /// Placement load (total weight) per lane.
    lane_weight: Vec<u64>,
    /// Tenants with an open breaker, watched for timer expiry.
    open_watch: Vec<usize>,
    /// `snap_buckets[(now + 1) % cadence]` = tenants snapshotting then.
    snap_buckets: Vec<Vec<usize>>,
    now: u64,
    lanes: usize,
    table_size: usize,
    queue_hwm: usize,
    work_budget: u64,
    snapshot_every: u64,
    snapshot_full_every: u32,
    steering_lookups: u64,
    /// Committed upgrades: the generation `factory` builds.
    generation: u64,
    /// Upgrades accepted so far: the occurrence of the upgrade fault
    /// sites.
    upgrades: u64,
}

impl TenantLaneRuntime {
    /// Builds the runtime: weighted placement of every tenant onto a
    /// lane, one domain + cold chain per tenant, per-priority band
    /// deques on every lane, and the helper threads of lanes `1..`
    /// (parked until the first [`step`](TenantLaneRuntime::step)).
    pub fn new(config: TenantLaneConfig) -> Result<Self, TenantError> {
        if config.tenants.is_empty() {
            return Err(TenantError::BadConfig("no tenants"));
        }
        if config.lanes == 0 {
            return Err(TenantError::BadConfig("zero lanes"));
        }
        if config.tenants.iter().any(|t| t.burst == 0) {
            return Err(TenantError::BadConfig("zero admission burst"));
        }
        if config.breaker.throttle_divisor == 0 {
            return Err(TenantError::BadConfig("zero breaker throttle divisor"));
        }
        if config.chain.is_none() && config.tenants.len() > STOCK_CHAIN_MAX_TENANTS {
            return Err(TenantError::BadConfig(
                "more tenants than the stock chain has NAT identities",
            ));
        }
        let tcount = config.tenants.len();
        let factory: TenantChainFactory = config
            .chain
            .clone()
            .unwrap_or_else(|| Arc::new(default_tenant_chain));
        let manager = DomainManager::with_backend_kind(config.backend);

        // Priority bands: distinct priorities, highest first.
        let mut prios: Vec<u8> = config.tenants.iter().map(|t| t.priority).collect();
        prios.sort_unstable_by(|a, b| b.cmp(a));
        prios.dedup();
        let band_of: Vec<usize> = config
            .tenants
            .iter()
            .map(|t| prios.iter().position(|&p| p == t.priority).expect("band"))
            .collect();
        let bands = prios.len();

        // Weighted placement: heaviest tenants first, each onto the
        // least-loaded lane (ties to the lowest lane index).
        let mut order: Vec<usize> = (0..tcount).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(config.tenants[i].weight), i));
        let mut lane_weight = vec![0u64; config.lanes];
        let mut residents: Vec<Vec<usize>> = vec![Vec::new(); config.lanes];
        let mut home_lane = vec![0usize; tcount];
        for &i in &order {
            let lane = (0..config.lanes)
                .min_by_key(|&l| (lane_weight[l], l))
                .expect("at least one lane");
            home_lane[i] = lane;
            residents[lane].push(i);
            lane_weight[lane] += u64::from(config.tenants[i].weight.max(1));
        }
        for lane in &mut residents {
            lane.sort_unstable();
        }

        let mut tenants = Vec::with_capacity(tcount);
        for (idx, spec) in config.tenants.iter().enumerate() {
            let pipeline_spec = factory(idx, spec);
            let domain = manager
                .create_domain(format!("tlane-{}-e0-g0", spec.name))
                .expect("tenant domain");
            let pipeline = pipeline_spec.build();
            tenants.push(Some(Box::new(TenantInner {
                idx,
                bucket: TickBucket::new(spec.rate_per_tick, spec.burst),
                spec: spec.clone(),
                present: true,
                breaker: Breaker::default(),
                epoch: 0,
                ledger: crate::tenant::TenantLedger::default(),
                occurrence: 0,
                snapshots_taken: 0,
                seal_attempts: 0,
                delays: DelayLedger::default(),
                batches_executed: 0,
                work_this_tick: 0,
                home_lane: home_lane[idx],
                queue: VecDeque::new(),
                shells: Vec::with_capacity(MAX_SHELLS),
                chain: Some(LaneChain { domain, pipeline }),
                pipeline_spec,
                generation: 0,
                store: SnapshotStore::new(config.snapshot_full_every),
                events: Vec::new(),
                dirty_since_snapshot: false,
            })));
        }

        let lane_shared = (0..config.lanes)
            .map(|_| {
                let (bands, stealers) = (0..bands).map(|_| LaneDeque::with_capacity(64)).unzip();
                LaneShared { bands, stealers }
            })
            .collect();

        let backends: Vec<Backend> = config
            .tenants
            .iter()
            .map(|t| Backend::weighted(t.name.clone(), t.weight))
            .collect();
        let table = MaglevTable::new(backends, config.table_size)?;
        let table_map: Vec<usize> = (0..tcount).collect();

        let snap_buckets = if config.snapshot_every_ticks > 0 {
            let se = config.snapshot_every_ticks as usize;
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); se];
            for idx in 0..tcount {
                buckets[(se - idx % se) % se].push(idx);
            }
            buckets
        } else {
            Vec::new()
        };

        let shared = Arc::new(Shared {
            lanes: lane_shared,
            returned: Mutex::new(Vec::with_capacity(tcount)),
            tick: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            start: Barrier::new(config.lanes),
            done: Barrier::new(config.lanes),
            manager,
            policy: config.breaker,
            steal: config.steal,
            faults: config.faults.clone(),
        });

        let mut ctxs = (0..config.lanes).map(|index| LaneCtx {
            index,
            side: LaneSideOutcome {
                stolen_from: vec![0; tcount],
                ..LaneSideOutcome::default()
            },
            held: Vec::with_capacity(tcount),
        });
        let lane0 = ctxs.next().expect("at least one lane");
        let handles = ctxs
            .map(|ctx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tenant-lane-{}", ctx.index))
                    .spawn(move || ctx.run(&shared))
                    .expect("spawning tenant lane")
            })
            .collect();

        Ok(Self {
            shared,
            lane0,
            handles,
            tenants,
            band_of,
            factory,
            specs: config.tenants.clone(),
            present: vec![true; tcount],
            table,
            table_map,
            staged: (0..tcount).map(|_| Vec::new()).collect(),
            steered: Vec::new(),
            grants: vec![0; tcount],
            touched: Vec::new(),
            active: Vec::new(),
            is_active: vec![false; tcount],
            lane_depth: vec![0; config.lanes],
            lane_depth_hwm: vec![0; config.lanes],
            hwm_sheds: 0,
            residents,
            lane_weight,
            open_watch: Vec::new(),
            snap_buckets,
            now: 0,
            lanes: config.lanes,
            table_size: config.table_size,
            queue_hwm: config.queue_hwm,
            work_budget: config.work_budget_per_tick,
            snapshot_every: config.snapshot_every_ticks,
            snapshot_full_every: config.snapshot_full_every,
            steering_lookups: 0,
            generation: 0,
            upgrades: 0,
        })
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The live steering table.
    pub fn table(&self) -> &MaglevTable {
        &self.table
    }

    fn tenant(&self, idx: usize) -> &TenantInner {
        self.tenants[idx].as_deref().expect(HOME)
    }

    /// A tenant's breaker phase.
    pub fn phase(&self, idx: usize) -> BreakerPhase {
        self.tenant(idx).breaker.phase()
    }

    /// A tenant's conservation ledger so far.
    pub fn ledger(&self, idx: usize) -> crate::tenant::TenantLedger {
        self.tenant(idx).ledger
    }

    /// A tenant's epoch (times re-added).
    pub fn epoch(&self, idx: usize) -> u64 {
        self.tenant(idx).epoch
    }

    /// The lane a tenant is placed on.
    pub fn home_lane(&self, idx: usize) -> usize {
        self.tenant(idx).home_lane
    }

    /// Snapshots sealed in the tenant's current epoch.
    pub fn snapshots_taken(&self, idx: usize) -> u64 {
        self.tenant(idx).snapshots_taken
    }

    /// Maglev lookups performed; with run-batched steering this counts
    /// flow runs, not packets.
    pub fn steering_lookups(&self) -> u64 {
        self.steering_lookups
    }

    /// Live state items in the tenant's chain, measured inside its
    /// domain (0 if the chain is down).
    pub fn state_items(&self, idx: usize) -> u64 {
        match &self.tenant(idx).chain {
            Some(chain) => chain
                .domain
                .execute(|| chain.pipeline.state_items())
                .unwrap_or(0),
            None => 0,
        }
    }

    /// Crossing totals of the backend every tenant domain runs on; zero
    /// under the default zero-cost backend.
    pub fn backend_totals(&self) -> BackendTotals {
        self.shared.manager.backend_totals()
    }

    /// Flips one bit inside a buffered snapshot of tenant `idx` —
    /// scripted corruption for recovery tests. Returns `false` when the
    /// buffer is empty. A respawn must reject the damaged image and fall
    /// back to the other buffer, then to a cold build: a corrupted
    /// snapshot is never restored.
    pub fn corrupt_snapshot(&mut self, idx: usize, which: Buffered) -> bool {
        home(&mut self.tenants[idx]).store.corrupt(which)
    }

    /// Steers one wave in three passes:
    ///
    /// 1. **steer**: a run-batched Maglev lookup names each packet's
    ///    tenant, and the packets per tenant are counted;
    /// 2. **admit**: per touched tenant, in index order: ledger
    ///    attribution → breaker gate → admission, which decides how many
    ///    of its packets it keeps;
    /// 3. **move**: each packet moves once — into its tenant's staging
    ///    buffer while the tenant's grant lasts, so a partial grant keeps
    ///    the tenant's first packets of the wave, else back to this
    ///    thread's spare list, in one [`recycle_local`] for the wave.
    ///
    /// Each staging buffer that received packets then joins its tenant's
    /// FIFO on its home lane, and the per-lane high-water mark is
    /// applied. Phase and bucket are per-tenant and nothing executes
    /// while the helper lanes are parked, so this is per-packet admission
    /// (`take(now, 1)` behind the `Open` gate, packet by packet) with its
    /// iterations regrouped by tenant — every ledger, event and queued
    /// packet is identical, which `tests/tenant_fast_path.rs` holds it to.
    pub fn offer(&mut self, batch: PacketBatch) {
        let now = self.now;
        let mut wave = batch.into_packets();

        let (mut last_hash, mut last_idx) = (0u64, usize::MAX);
        self.steered.clear();
        for p in &wave {
            let hash = p.cached_flow_hash().unwrap_or_else(|| packet_flow_hash(p));
            let idx = if last_idx != usize::MAX && hash == last_hash {
                last_idx
            } else {
                self.steering_lookups += 1;
                last_hash = hash;
                last_idx = self.table_map[self.table.lookup(hash)];
                last_idx
            };
            // Counts are zero between offers: first touch.
            if self.grants[idx] == 0 {
                self.touched.push(idx);
            }
            self.grants[idx] += 1;
            self.steered.push(idx as u32);
        }

        self.touched.sort_unstable();
        for &idx in &self.touched {
            let n = self.grants[idx];
            let g = home(&mut self.tenants[idx]);
            g.ledger.offered += n;
            self.grants[idx] = if g.breaker.phase() == BreakerPhase::Open {
                g.ledger.shed_open += n;
                0
            } else {
                let granted = g.bucket.take(now, n);
                g.ledger.shed_admission += n - granted;
                granted
            };
        }

        // Every packet is consumed by this pass, the spare list's state
        // notwithstanding: `recycle_local` drains what it is given.
        let (staged, grants) = (&mut self.staged, &mut self.grants);
        recycle_local(wave.drain(..).zip(&self.steered).filter_map(|(p, &idx)| {
            let grant = &mut grants[idx as usize];
            if *grant == 0 {
                return Some(p);
            }
            *grant -= 1;
            staged[idx as usize].push(p);
            None
        }));

        let mut touched_lanes = 0u64;
        for idx in self.touched.drain(..) {
            let staged = &mut self.staged[idx];
            if staged.is_empty() {
                continue;
            }
            let granted = staged.len() as u64;
            let g = home(&mut self.tenants[idx]);
            // The staging buffer *is* the queued batch; an emptied shell
            // takes its place.
            let shell = g.shells.pop().unwrap_or_default();
            let lane = g.home_lane;
            g.queue.push_back(TenantWork {
                epoch: g.epoch,
                batch: PacketBatch::from_packets(std::mem::replace(staged, shell)),
                enqueue_tick: now,
                cost: granted * self.specs[idx].cost_per_packet.max(1),
            });
            if !self.is_active[idx] {
                self.is_active[idx] = true;
                self.active.push(idx);
            }
            self.lane_depth[lane] += 1;
            touched_lanes |= 1 << (lane % 64);
        }

        for lane in 0..self.lanes {
            if touched_lanes & (1 << (lane % 64)) == 0 && self.lane_depth[lane] <= self.queue_hwm {
                continue;
            }
            self.lane_depth_hwm[lane] = self.lane_depth_hwm[lane].max(self.lane_depth[lane]);
            self.apply_hwm(lane);
        }
    }

    /// Sheds the newest batch of the lowest-priority resident (ties to
    /// the higher tenant index) until the lane is back under its
    /// high-water mark.
    fn apply_hwm(&mut self, lane: usize) {
        while self.lane_depth[lane] > self.queue_hwm {
            let mut victim = usize::MAX;
            let mut victim_prio = u8::MAX;
            for &idx in &self.residents[lane] {
                if self.tenant(idx).queue.is_empty() {
                    continue;
                }
                let prio = self.specs[idx].priority;
                if prio <= victim_prio {
                    victim_prio = prio;
                    victim = idx;
                }
            }
            if victim == usize::MAX {
                break;
            }
            let g = home(&mut self.tenants[victim]);
            let work = g.queue.pop_back().expect("victim has queued work");
            g.ledger.shed_backpressure += work.batch.len() as u64;
            self.lane_depth[lane] -= 1;
            self.hwm_sheds += 1;
        }
    }

    /// Executes one tick: move every tenant with queued work, as its
    /// claim, onto its home lane's band deque while the helper lanes are
    /// parked, release them through the tick barrier, run the tick to
    /// completion as lane 0, put every claimed tenant home, then apply
    /// the deterministic supervision pass (work-budget strikes,
    /// open-timer expiry, the staggered snapshot cadence). Advances the
    /// clock.
    pub fn step(&mut self) {
        let now = self.now;
        self.active.sort_unstable();
        for &idx in &self.active {
            // A tenant whose every batch the HWM shed stays home.
            if let Some(tenant) = self.tenants[idx].take_if(|t| !t.queue.is_empty()) {
                self.shared.lanes[tenant.home_lane].bands[self.band_of[idx]].push(tenant);
            }
        }
        self.shared.tick.store(now, Ordering::Release);
        self.shared.start.wait();
        self.lane0.tick(&self.shared);
        let returned = &self.shared.returned;
        for tenant in self.lane0.held.drain(..).chain(returned.lock().drain(..)) {
            let idx = tenant.idx;
            self.tenants[idx] = Some(tenant);
        }

        // Supervision pass, tenant-index order (active is sorted).
        for &idx in &self.active {
            self.is_active[idx] = false;
            let g = home(&mut self.tenants[idx]);
            let spent = g.work_this_tick;
            g.work_this_tick = 0;
            if self.work_budget > 0 && g.present && spent > self.work_budget {
                g.signal(now, Signal::Strike, &self.shared);
            }
            if g.breaker.phase() == BreakerPhase::Open {
                self.open_watch.push(idx);
            }
        }
        self.active.clear();
        self.lane_depth.iter_mut().for_each(|d| *d = 0);

        // Open-timer expiry over the watch list only.
        self.open_watch.sort_unstable();
        self.open_watch.dedup();
        let (shared, tenants) = (&self.shared, &mut self.tenants);
        self.open_watch.retain(|&idx| {
            let g = home(&mut tenants[idx]);
            g.signal(now, Signal::Tick, shared);
            g.breaker.phase() == BreakerPhase::Open
        });

        // Staggered snapshots: one bucket of tenants per tick.
        if self.snapshot_every > 0 {
            let bucket = ((now + 1) % self.snapshot_every) as usize;
            for pos in 0..self.snap_buckets[bucket].len() {
                let idx = self.snap_buckets[bucket][pos];
                let g = home(&mut self.tenants[idx]);
                if !g.present || g.breaker.phase() == BreakerPhase::Open || !g.dirty_since_snapshot
                {
                    continue;
                }
                let Some(LaneChain { domain, pipeline }) = &mut g.chain else {
                    continue;
                };
                let (store, schema) = (&mut g.store, g.pipeline_spec.state_schema());
                let fire = self.shared.faults.as_ref().and_then(|plan| {
                    plan.decide(FaultSite::CheckpointEncode, idx as u64, g.seal_attempts)
                });
                g.seal_attempts += 1;
                // The store drives: it asks the chain for a base or for
                // what changed since the base it holds. A seal that dies
                // commits nothing, so the store keeps its verified images.
                let sealed = domain.execute(|| {
                    fault::fire(FaultSite::CheckpointEncode, fire);
                    let items = pipeline.state_items();
                    store.record_from(pipeline, now, items, schema);
                });
                if sealed.is_err() {
                    if g.fault(now, FaultSite::CheckpointEncode, &self.shared) {
                        self.open_watch.push(idx);
                    }
                    continue;
                }
                g.snapshots_taken += 1;
                g.dirty_since_snapshot = false;
            }
        }

        self.now = now + 1;
    }

    /// Removes a tenant between ticks: sheds anything still queued,
    /// destroys its chain and snapshot store, vacates its lane, and
    /// rebuilds the steering table around it. Returns the remapped
    /// entry count.
    pub fn remove_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
        if idx >= self.specs.len() {
            return Err(TenantError::UnknownTenant(idx));
        }
        if !self.present[idx] {
            return Err(TenantError::NotPresent(idx));
        }
        if self.present.iter().filter(|p| **p).count() < 2 {
            return Err(TenantError::LastTenant);
        }
        let now = self.now;
        let g = home(&mut self.tenants[idx]);
        while let Some(work) = g.queue.pop_front() {
            g.ledger.shed_removed += work.batch.len() as u64;
            self.lane_depth[g.home_lane] = self.lane_depth[g.home_lane].saturating_sub(1);
        }
        if let Some(chain) = g.chain.take() {
            self.shared.manager.destroy_domain(&chain.domain);
        }
        g.present = false;
        g.breaker = Breaker::default();
        g.snapshots_taken = 0;
        // Epoch keying: the departed epoch's snapshots can never
        // serve a future incarnation of this tenant.
        g.store = SnapshotStore::new(self.snapshot_full_every);
        let lane = g.home_lane;
        self.present[idx] = false;
        self.residents[lane].retain(|&t| t != idx);
        self.lane_weight[lane] -= u64::from(self.specs[idx].weight.max(1));
        let remapped_entries = self.rebuild_table()?;
        let removed = TenantEventKind::Removed { remapped_entries };
        home(&mut self.tenants[idx]).push_event(now, removed);
        Ok(remapped_entries)
    }

    /// Re-adds a removed tenant under a fresh epoch: cold chain, empty
    /// snapshot store, full-rate admission, placement onto the
    /// least-loaded lane, and a table rebuild that hands back its old
    /// entries. Returns the remapped entry count.
    pub fn add_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
        if idx >= self.specs.len() {
            return Err(TenantError::UnknownTenant(idx));
        }
        if self.present[idx] {
            return Err(TenantError::AlreadyPresent(idx));
        }
        let now = self.now;
        let lane = (0..self.lanes)
            .min_by_key(|&l| (self.lane_weight[l], l))
            .expect("at least one lane");
        let g = home(&mut self.tenants[idx]);
        g.epoch += 1;
        g.present = true;
        g.breaker = Breaker::default();
        g.bucket = TickBucket::new(g.spec.rate_per_tick, g.spec.burst);
        g.home_lane = lane;
        g.pipeline_spec = (self.factory)(idx, &g.spec);
        g.generation = self.generation;
        let domain = self
            .shared
            .manager
            .create_domain(format!("tlane-{}-e{}-g0", g.spec.name, g.epoch))
            .expect("tenant domain");
        let pipeline = g.pipeline_spec.build();
        g.chain = Some(LaneChain { domain, pipeline });
        g.store = SnapshotStore::new(self.snapshot_full_every);
        g.dirty_since_snapshot = false;
        let epoch = g.epoch;
        self.present[idx] = true;
        self.residents[lane].push(idx);
        self.residents[lane].sort_unstable();
        self.lane_weight[lane] += u64::from(self.specs[idx].weight.max(1));
        let remapped_entries = self.rebuild_table()?;
        let added = TenantEventKind::Added {
            epoch,
            remapped_entries,
        };
        home(&mut self.tenants[idx]).push_event(now, added);
        Ok(remapped_entries)
    }

    /// Moves every present tenant onto the chain `chain` builds for it,
    /// or leaves every one on the chain it runs.
    ///
    /// Called between ticks, like churn: every helper lane is parked on
    /// `start`, so each tenant's chain has one owner, the caller, and
    /// needs no quiesce or drain. A target that changes a tenant's state
    /// schema with no `migrator` able to carry the pair is refused
    /// before any tenant is touched. Otherwise the upgrade runs in two
    /// phases:
    ///
    /// 1. **Stage**, in tenant-index order: seal the live chain's state
    ///    inside its own domain (the [`FaultSite::UpgradeQuiesce`]
    ///    site), migrate the seal across a schema change, and build the
    ///    target with it in a fresh domain (the
    ///    [`FaultSite::UpgradeRestore`] site). A tenant whose breaker is
    ///    open has no live chain; its latest verified snapshot is
    ///    migrated instead. A failure discards every staged target and
    ///    returns [`UpgradeOutcome::RolledBack`]. A kill in a live
    ///    domain is one more fault on that tenant's breaker, recovered on
    ///    the chain it runs like any other.
    /// 2. **Commit**: swap every chain, destroy the old domains, re-base
    ///    each snapshot store on the target's state (when snapshots are
    ///    on), and build later adds and half-open probes with `chain`.
    ///
    /// Queued batches wait out the upgrade and run on the tenant's chain
    /// at the next `step`; the ledgers do not move. Both fault sites use
    /// stream = tenant index, occurrence = upgrades accepted before this
    /// one.
    pub fn upgrade(
        &mut self,
        chain: TenantChainFactory,
        migrator: Option<Arc<dyn StateMigrator>>,
    ) -> Result<UpgradeOutcome, UpgradeError> {
        let targets: Vec<(usize, PipelineSpec)> = (0..self.specs.len())
            .filter(|&idx| self.present[idx])
            .map(|idx| (idx, chain(idx, &self.specs[idx])))
            .collect();
        for (idx, target) in &targets {
            let from = self.tenant(*idx).pipeline_spec.state_schema();
            let to = target.state_schema();
            if from != to && !migrator.as_ref().is_some_and(|m| m.can_migrate(from, to)) {
                return Err(UpgradeError::IncompatibleSchema { from, to });
            }
        }
        let occurrence = self.upgrades;
        self.upgrades += 1;

        let mut staged: Vec<(usize, StagedTenant)> = Vec::with_capacity(targets.len());
        let mut state_items_migrated = 0;
        for (idx, target) in targets {
            let Some((tenant, migrated)) = self.stage(idx, target, migrator.as_deref(), occurrence)
            else {
                let discarded = staged.len();
                for (_, tenant) in staged {
                    if let Some(chain) = tenant.chain {
                        self.shared.manager.destroy_domain(&chain.domain);
                    }
                }
                return Ok(UpgradeOutcome::RolledBack {
                    failed_tenant: idx,
                    discarded,
                });
            };
            state_items_migrated += migrated;
            staged.push((idx, tenant));
        }

        self.generation += 1;
        let tenants = staged.len();
        for (idx, tenant) in staged {
            let g = home(&mut self.tenants[idx]);
            if let Some(old) = std::mem::replace(&mut g.chain, tenant.chain) {
                self.shared.manager.destroy_domain(&old.domain);
            }
            g.pipeline_spec = tenant.spec;
            g.store = tenant.store;
            g.generation = self.generation;
        }
        self.factory = chain;
        Ok(UpgradeOutcome::Committed {
            tenants,
            state_items_migrated,
        })
    }

    /// Phase 1 of [`upgrade`](Self::upgrade) for one tenant: seals its
    /// state, migrates it to the target's schema and builds the target
    /// with it in a fresh domain. Returns the staged target and the state
    /// items migrated, or `None` once staging failed and whatever it
    /// built is destroyed.
    fn stage(
        &mut self,
        idx: usize,
        target: PipelineSpec,
        migrator: Option<&dyn StateMigrator>,
        occurrence: u64,
    ) -> Option<(StagedTenant, u64)> {
        let now = self.now;
        let shared = &self.shared;
        let decide = |site| {
            let plan = shared.faults.as_ref()?;
            plan.decide(site, idx as u64, occurrence)
        };
        let g = home(&mut self.tenants[idx]);

        // The state to carry: the live chain's, sealed inside its own
        // domain, or an open breaker's latest verified snapshot.
        let sealed: Option<(u32, Checkpoint)> = match &g.chain {
            Some(LaneChain { domain, pipeline }) => {
                let fire = decide(FaultSite::UpgradeQuiesce);
                let seal = domain.execute(|| {
                    fault::fire(FaultSite::UpgradeQuiesce, fire);
                    pipeline.export_state()
                });
                let Ok(cp) = seal else {
                    if g.fault(now, FaultSite::UpgradeQuiesce, shared) {
                        self.open_watch.push(idx);
                    }
                    return None;
                };
                Some((g.pipeline_spec.state_schema(), cp))
            }
            None => [g.store.latest(), g.store.previous()]
                .into_iter()
                .flatten()
                .find_map(|sealed| Some((sealed.meta().schema, sealed.open().ok()?))),
        };

        let to = target.state_schema();
        let migrating = matches!(sealed, Some((from, _)) if from != to);
        let state = match sealed {
            Some((from, cp)) if from != to => {
                let migrator = migrator.filter(|m| m.can_migrate(from, to))?;
                Some(migrator.migrate(&cp, from, to).ok()?)
            }
            sealed => sealed.map(|(_, cp)| cp),
        };

        let name = format!("tlane-{}-e{}-u{}", g.spec.name, g.epoch, occurrence + 1);
        let domain = shared.manager.create_domain(name).expect("tenant domain");
        let fire = decide(FaultSite::UpgradeRestore);
        let mut store = SnapshotStore::new(self.snapshot_full_every);
        let rebase = self.snapshot_every > 0;
        let built = domain.execute(|| {
            fault::fire(FaultSite::UpgradeRestore, fire);
            let pipeline = match &state {
                Some(cp) => target.build_with_state(cp).ok()?,
                None => target.build(),
            };
            let mut migrated = 0;
            if let Some(cp) = &state {
                if rebase {
                    store.record(cp, now, pipeline.state_items(), to);
                }
                // What a migration carried is what landed in the target.
                if migrating {
                    migrated = pipeline.carried_items(cp);
                }
            }
            Some((pipeline, migrated))
        });
        let Ok(Some((pipeline, migrated))) = built else {
            shared.manager.destroy_domain(&domain);
            return None;
        };
        let chain = if g.chain.is_some() {
            Some(LaneChain { domain, pipeline })
        } else {
            // The breaker stays open; the half-open probe builds the
            // target from the re-based store.
            shared.manager.destroy_domain(&domain);
            None
        };
        let tenant = StagedTenant {
            spec: target,
            chain,
            store,
        };
        Some((tenant, migrated))
    }

    /// Rebuilds the Maglev table over the present tenants and counts the
    /// entries that changed owner.
    fn rebuild_table(&mut self) -> Result<usize, TenantError> {
        let mut backends = Vec::new();
        let mut map = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if self.present[i] {
                backends.push(Backend::weighted(spec.name.clone(), spec.weight));
                map.push(i);
            }
        }
        let table = MaglevTable::new(backends, self.table_size)?;
        let remapped = self.table.disrupted_entries(&table);
        self.table = table;
        self.table_map = map;
        Ok(remapped)
    }

    /// Runs any still-queued work to completion, retires the helper
    /// threads, destroys all domains, and returns the final report.
    pub fn finish(mut self) -> TenantReport {
        while !self.active.is_empty() {
            self.step();
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.start.wait();
        let mut sides = vec![std::mem::take(&mut self.lane0.side)];
        sides.extend(
            self.handles
                .drain(..)
                .map(|h| h.join().expect("lane thread panicked")),
        );

        let tcount = self.specs.len();
        let mut outcomes = Vec::with_capacity(tcount);
        let mut events: Vec<TenantEvent> = Vec::new();
        for idx in 0..tcount {
            let final_state_items = self.state_items(idx);
            let g = home(&mut self.tenants[idx]);
            let counts = SupervisionCounts::fold(&g.events);
            events.append(&mut g.events);
            outcomes.push(TenantOutcome {
                name: g.spec.name.clone(),
                priority: g.spec.priority,
                ledger: g.ledger,
                final_phase: g.breaker.phase(),
                epoch: g.epoch,
                generation: g.generation,
                faults: counts.faults,
                respawns: counts.respawns,
                opens: counts.opens,
                throttles: counts.throttles,
                warm_restores: counts.warm_restores,
                cold_restores: counts.cold_restores,
                state_items_restored: counts.state_items_restored,
                final_state_items,
                snapshots_taken: g.snapshots_taken,
                p99_delay_ticks: g.delays.p99(),
                max_delay_ticks: g.delays.max(),
                batches_executed: g.batches_executed,
            });
            if let Some(chain) = g.chain.take() {
                self.shared.manager.destroy_domain(&chain.domain);
            }
        }
        // Canonical journal order: per-tenant streams are already
        // tick-ordered; a stable sort on tick yields (tick, tenant, seq).
        events.sort_by_key(|e| e.tick);
        let rebuilds = events.iter().filter_map(RebuildRecord::of).collect();

        let occupancy = sides
            .into_iter()
            .enumerate()
            .map(|(lane, s)| LaneOccupancy {
                lane,
                residents: self.residents[lane].clone(),
                executed_batches: s.executed_batches,
                executed_packets: s.executed_packets,
                steals_in: s.steals_in,
                steal_bytes: s.steal_bytes,
                stolen_from: s
                    .stolen_from
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(t, &n)| (t, n))
                    .collect(),
                priority_inversions: s.priority_inversions,
            })
            .collect();

        TenantReport {
            tenants: outcomes,
            lane_depth_hwm: self.lane_depth_hwm.clone(),
            hwm_sheds: self.hwm_sheds,
            rebuilds,
            events,
            ticks: self.now,
            occupancy,
        }
    }
}

impl Drop for TenantLaneRuntime {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.start.wait();
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
        for g in self.tenants.iter_mut().flatten() {
            if let Some(chain) = g.chain.take() {
                self.shared.manager.destroy_domain(&chain.domain);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_core::fault::FaultKind;
    use rbs_netfx::headers::ethernet::MacAddr;
    use std::net::Ipv4Addr;

    fn http_packet(src_host: u8, sport: u16) -> Packet {
        let mut p = Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, src_host),
            Ipv4Addr::new(192, 0, 2, 1),
            sport,
            80,
            16,
        );
        let hash = packet_flow_hash(&p);
        p.set_cached_flow_hash(hash);
        p
    }

    fn wave(round: u32, count: u32) -> PacketBatch {
        (0..count)
            .map(|i| {
                let n = round * count + i;
                http_packet((n % 23) as u8 + 1, (n % 52_000) as u16 + 1_024)
            })
            .collect()
    }

    fn population(n: usize) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| {
                TenantSpec::new(format!("tenant-{i}"))
                    .rate(400, 800)
                    .priority(if i % 3 == 0 { 2 } else { 1 })
            })
            .collect()
    }

    #[test]
    fn threaded_run_conserves_and_places_every_tenant() {
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: population(12),
            lanes: 3,
            ..TenantLaneConfig::default()
        })
        .unwrap();
        for round in 0..12 {
            rt.offer(wave(round, 192));
            rt.step();
        }
        let report = rt.finish();
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.priority_inversions(), 0);
        for t in &report.tenants {
            assert_eq!(t.ledger.unaccounted(), 0, "{} leaks packets", t.name);
            assert!(t.ledger.stolen <= t.ledger.processed);
        }
        // Placement partitions the population across the lanes.
        let mut seen: Vec<usize> = report
            .occupancy
            .iter()
            .flat_map(|l| l.residents.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        // Executor-side counts cover exactly the executed batches.
        let executed: u64 = report.occupancy.iter().map(|l| l.executed_batches).sum();
        let batches: u64 = report.tenants.iter().map(|t| t.batches_executed).sum();
        assert_eq!(executed, batches);
    }

    #[test]
    fn steal_accounting_is_consistent() {
        // One fat tenant on each of two lanes plus an empty third lane:
        // any thefts that do occur must balance across all three views
        // (lane counters, per-origin counters, tenant ledgers).
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: population(2),
            lanes: 3,
            ..TenantLaneConfig::default()
        })
        .unwrap();
        for round in 0..20 {
            for _ in 0..4 {
                rt.offer(wave(round, 96));
            }
            rt.step();
        }
        let report = rt.finish();
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.priority_inversions(), 0);
        let steals: u64 = report.occupancy.iter().map(|l| l.steals_in).sum();
        let by_origin: u64 = report
            .occupancy
            .iter()
            .flat_map(|l| l.stolen_from.iter().map(|&(_, n)| n))
            .sum();
        assert_eq!(steals, by_origin);
        if steals > 0 {
            let stolen_packets: u64 = report.tenants.iter().map(|t| t.ledger.stolen).sum();
            assert!(stolen_packets > 0, "ledger steal credits missing");
            let steal_bytes: u64 = report.occupancy.iter().map(|l| l.steal_bytes).sum();
            assert!(steal_bytes > 0, "steal tax was not metered");
        }
    }

    #[test]
    fn hwm_sheds_lowest_priority_resident() {
        let mut tenants = population(4);
        for t in &mut tenants {
            t.priority = 2;
        }
        tenants[3].priority = 1;
        // Four tenants each queue one batch per tick; HWM 3 sheds
        // exactly one — which must always be the low-priority tenant.
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants,
            lanes: 1,
            queue_hwm: 3,
            ..TenantLaneConfig::default()
        })
        .unwrap();
        for round in 0..8 {
            rt.offer(wave(round, 256));
            rt.step();
        }
        let report = rt.finish();
        assert_eq!(report.unaccounted_packets(), 0);
        assert!(report.hwm_sheds > 0, "hwm never triggered");
        assert!(
            report.tenants[3].ledger.shed_backpressure > 0,
            "low-priority tenant was not the shed victim"
        );
        for idx in [0usize, 1, 2] {
            assert_eq!(
                report.tenants[idx].ledger.shed_backpressure, 0,
                "high-priority tenant {idx} was shed"
            );
        }
    }

    #[test]
    fn churn_round_trip_reverses_the_remap() {
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: population(6),
            lanes: 2,
            ..TenantLaneConfig::default()
        })
        .unwrap();
        for round in 0..4 {
            rt.offer(wave(round, 96));
            rt.step();
        }
        let out = rt.remove_tenant(5).unwrap();
        assert!(out >= 251 / 7, "removal must move the victim's share");
        for round in 4..8 {
            rt.offer(wave(round, 96));
            rt.step();
        }
        let back = rt.add_tenant(5).unwrap();
        assert_eq!(out, back, "same-name re-add must reverse the remap");
        assert_eq!(rt.epoch(5), 1);
        for round in 8..12 {
            rt.offer(wave(round, 96));
            rt.step();
        }
        let report = rt.finish();
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.rebuilds.len(), 2);
    }

    #[test]
    fn churn_refuses_what_would_break_steering() {
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: population(2),
            lanes: 1,
            ..TenantLaneConfig::default()
        })
        .unwrap();
        let refused = |r: Result<usize, TenantError>| format!("{:?}", r.unwrap_err());
        assert_eq!(refused(rt.add_tenant(1)), "AlreadyPresent(1)");
        assert_eq!(refused(rt.remove_tenant(2)), "UnknownTenant(2)");
        rt.remove_tenant(1).unwrap();
        assert_eq!(refused(rt.remove_tenant(1)), "NotPresent(1)");
        // Nothing would be left to steer to.
        assert_eq!(refused(rt.remove_tenant(0)), "LastTenant");
        rt.add_tenant(1).unwrap();
        rt.remove_tenant(0).unwrap();
    }

    /// A transient fault loop: the breaker opens, failed probes reopen
    /// it, and once the chain runs clean the probes close it — back to
    /// `Running` on a chain restored from the tenant's own snapshots.
    #[test]
    fn half_open_probe_closes_after_a_transient_loop() {
        std::panic::set_hook(Box::new(|_| {}));
        // Tenant 1 seals state over four clean batches, panics on its
        // next six, then runs clean.
        let faults =
            FaultPlan::new(7).inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 4, 10);
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: population(2),
            lanes: 1,
            breaker: BreakerPolicy {
                open_ticks: 4,
                ..BreakerPolicy::default()
            },
            snapshot_every_ticks: 2,
            faults: Some(Arc::new(faults)),
            ..TenantLaneConfig::default()
        })
        .unwrap();
        for round in 0..60 {
            rt.offer(wave(round, 64));
            rt.step();
        }
        assert_eq!(rt.phase(1), BreakerPhase::Running, "probes never closed");
        let report = rt.finish();
        let _ = std::panic::take_hook();
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!((report.tenants[1].faults, report.tenants[0].faults), (6, 0));
        let journal: Vec<_> = report.events.iter().map(|e| e.kind).collect();
        let probe = journal
            .iter()
            .rposition(|k| *k == TenantEventKind::HalfOpened)
            .expect("the breaker never half-opened");
        assert!(
            matches!(
                journal[probe + 1..],
                [
                    TenantEventKind::Respawned {
                        warm: true,
                        items: 1..
                    },
                    TenantEventKind::Closed
                ]
            ),
            "the last probe did not run warm and close: {:?}",
            &journal[probe + 1..]
        );
    }

    /// An open breaker is watched until its timer expires even when the
    /// tenant has gone quiet: the watch list, not the tenant's traffic,
    /// is what brings it back.
    #[test]
    fn an_idle_open_breaker_half_opens_when_its_timer_expires() {
        let policy = BreakerPolicy::default();
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: population(2),
            lanes: 1,
            // Any executed batch overruns: one strike per busy tick.
            work_budget_per_tick: 1,
            ..TenantLaneConfig::default()
        })
        .unwrap();
        for round in 0..policy.open_after_strikes {
            rt.offer(wave(round, 64));
            rt.step();
        }
        for _ in 0..policy.open_ticks + 2 {
            rt.step();
        }
        let report = rt.finish();
        assert_eq!(report.unaccounted_packets(), 0);
        let tick_of = |tenant: usize, kind: &TenantEventKind| {
            report
                .events
                .iter()
                .find(|e| e.tenant == tenant && e.kind == *kind)
                .map(|e| e.tick)
        };
        for tenant in 0..2 {
            let strikes = policy.open_after_strikes;
            let opened = tick_of(tenant, &TenantEventKind::Opened { strikes })
                .expect("four overrun ticks open the breaker");
            assert_eq!(
                tick_of(tenant, &TenantEventKind::HalfOpened),
                Some(opened + policy.open_ticks),
                "tenant {tenant} was dropped from the open watch"
            );
        }
    }

    /// The stable half of the report replays byte-identically; only the
    /// executor-side occupancy (who stole what) may differ between runs.
    #[test]
    fn threaded_run_is_deterministic_modulo_scheduling() {
        let run = || {
            let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
                tenants: population(8),
                lanes: 4,
                queue_hwm: 4,
                work_budget_per_tick: 4_000,
                snapshot_every_ticks: 4,
                ..TenantLaneConfig::default()
            })
            .unwrap();
            for round in 0..16 {
                if round == 6 {
                    rt.remove_tenant(7).unwrap();
                }
                if round == 12 {
                    rt.add_tenant(7).unwrap();
                }
                rt.offer(wave(round, 384));
                rt.step();
            }
            let report = rt.finish();
            assert_eq!(report.priority_inversions(), 0);
            (
                report
                    .tenants
                    .iter()
                    .map(|t| {
                        let mut ledger = t.ledger;
                        ledger.stolen = 0; // scheduling-dependent
                        let counts = (t.faults, t.opens, t.throttles, t.batches_executed);
                        (ledger, counts, t.p99_delay_ticks, t.max_delay_ticks)
                    })
                    .collect::<Vec<_>>(),
                report.events,
                report.rebuilds,
                report.hwm_sheds,
                report.lane_depth_hwm.clone(),
                report
                    .occupancy
                    .iter()
                    .map(|l| l.residents.clone())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A throttle divisor of zero is refused at construction: a faulting
    /// tenant would divide by it on its throttle strike, panicking the
    /// caller at one lane and, at two, a helper lane while the caller
    /// waits on `done` for good.
    #[test]
    fn a_zero_throttle_divisor_is_refused_at_construction() {
        for lanes in [1, 2] {
            let faults =
                FaultPlan::new(3).inject(FaultSite::Operator(0), FaultKind::Panic, 500_000);
            let built = TenantLaneRuntime::new(TenantLaneConfig {
                tenants: population(2),
                lanes,
                breaker: BreakerPolicy {
                    throttle_divisor: 0,
                    ..BreakerPolicy::default()
                },
                faults: Some(Arc::new(faults)),
                ..TenantLaneConfig::default()
            });
            assert!(
                matches!(built, Err(TenantError::BadConfig(_))),
                "{lanes} lanes"
            );
        }
    }

    /// After a commit every present tenant's store holds only snapshots
    /// of the target's schema, the open-breaker tenant's included, and
    /// the half-open probe then comes back warm on the target.
    #[test]
    fn a_committed_upgrade_rebases_every_store_on_the_target_schema() {
        std::panic::set_hook(Box::new(|_| {}));
        // Tenant 1 seals state over four clean batches, then panics on
        // its next six: its breaker is open when the upgrade runs.
        let faults =
            FaultPlan::new(7).inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 4, 10);
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: population(3),
            lanes: 2,
            snapshot_every_ticks: 2,
            faults: Some(Arc::new(faults)),
            ..TenantLaneConfig::default()
        })
        .unwrap();
        let mut round = 0;
        while rt.phase(1) != BreakerPhase::Open {
            rt.offer(wave(round, 64));
            rt.step();
            round += 1;
        }
        let target: TenantChainFactory =
            Arc::new(|idx, spec| default_tenant_chain(idx, spec).with_state_schema(2));
        let identity = rbs_netfx::StageStateMap::new(1, 2, vec![Some(0), Some(1), Some(2)]);
        let outcome = rt.upgrade(target, Some(Arc::new(identity))).unwrap();
        assert!(matches!(
            outcome,
            UpgradeOutcome::Committed {
                tenants: 3,
                state_items_migrated: 1..
            }
        ));
        for idx in 0..3 {
            let g = rt.tenant(idx);
            let latest = g.store.latest().expect("a re-based store holds the seal");
            assert_eq!(latest.meta().schema, 2, "tenant {idx}");
            assert!(g.store.previous().is_none(), "tenant {idx}");
            assert_eq!(g.generation, 1, "tenant {idx}");
        }
        while rt.phase(1) != BreakerPhase::Running {
            rt.offer(wave(round, 64));
            rt.step();
            round += 1;
            assert!(round < 200, "tenant 1 never closed");
        }
        let report = rt.finish();
        let _ = std::panic::take_hook();
        assert_eq!(report.unaccounted_packets(), 0);
        let probe = report
            .events
            .iter()
            .rposition(|e| e.tenant == 1 && e.kind == TenantEventKind::HalfOpened)
            .expect("the breaker half-opened");
        assert!(matches!(
            report.events[probe + 1].kind,
            TenantEventKind::Respawned {
                warm: true,
                items: 1..
            }
        ));
    }

    /// Dropping a runtime that was never finished retires every helper
    /// (none stays parked on `start`) and destroys every tenant domain —
    /// with one lane there is no helper to retire at all.
    #[test]
    fn drop_without_finish_retires_helpers_and_domains() {
        for lanes in [1, 3] {
            let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
                tenants: population(6),
                lanes,
                ..TenantLaneConfig::default()
            })
            .unwrap();
            assert_eq!(rt.handles.len(), lanes - 1);
            rt.offer(wave(0, 192));
            rt.step();
            rt.offer(wave(1, 192));
            let shared = Arc::clone(&rt.shared);
            drop(rt);
            // Each helper holds one clone until its thread returns.
            assert_eq!(Arc::strong_count(&shared), 1, "{lanes} lanes");
            assert!(shared.manager.domains().is_empty(), "{lanes} lanes");
        }
    }
}
