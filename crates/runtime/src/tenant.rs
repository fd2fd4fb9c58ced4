//! Tenant blast-radius containment: per-tenant breakers, admission
//! control, and churn-safe flow steering.
//!
//! The paper's pitch is that Rust gives systems *fine-grained* fault
//! boundaries at near-zero cost (§2, §4). The lane runtime exploits that
//! per **shard**; this module exploits it per **customer**. A
//! [`TenantRuntime`] multiplexes N tenants onto L run-to-completion
//! lanes and guarantees that one misbehaving tenant — a flood, a
//! fault-looping operator chain, or a CPU hog — cannot take the others'
//! SLA down with it. Three mechanisms compose:
//!
//! - **Steering** — a Maglev table over the present tenants (weighted by
//!   [`TenantSpec::weight`]) maps every packet's flow hash to exactly one
//!   tenant, so attribution is decided at ingress and every packet lands
//!   in exactly one tenant's conservation ledger. Consistent hashing
//!   bounds the collateral of tenant churn (see the `disruption_bound`
//!   tests in `rbs-maglev`): removing one tenant remaps its own entries
//!   plus at most ~`table_size / N` innocent ones.
//! - **Admission** — a [`TickBucket`] per tenant clocked by the runtime's
//!   logical tick sheds a flood *before* it queues (`shed_admission`),
//!   and a per-lane high-water mark sheds the lowest-priority queued
//!   work when backlog builds anyway (`shed_backpressure`). Both are
//!   integer-deterministic: the same offered trace sheds the same
//!   packets on every run.
//! - **Breakers** — each tenant's chain runs in its own protection
//!   domain. Faults and per-tick work-budget overruns accumulate
//!   *strikes*: enough strikes throttle the tenant's admission rate
//!   ([`BreakerPhase::Throttled`]), more open the breaker outright
//!   ([`BreakerPhase::Open`]: domain destroyed, queued work shed, ingress
//!   shed at zero cost). After `open_ticks` the breaker half-opens and
//!   probes with a warm-restored chain; clean probes close it, a faulty
//!   probe reopens it. The victim tenants never see any of this except
//!   as a few remapped Maglev entries.
//!
//! Conservation is exact and per-tenant: `offered == processed + lost +
//! shed` where `shed` itemizes admission, open-breaker, backpressure and
//! removal sheds. E15 sweeps this machinery against flood, fault-loop
//! and slow-operator aggressors and asserts victims keep ≥ 99% goodput.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rbs_checkpoint::SnapshotStore;
#[cfg(feature = "fault-injection")]
use rbs_core::fault::FaultPlan;
use rbs_core::fault::{self, FaultKind, FaultSite};
use rbs_maglev::{Backend, MaglevTable, TableError};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::operators::DstPortFilter;
use rbs_netfx::{FlowTracker, PacketBatch, Pipeline, PipelineSpec, SourceNat, TickBucket};
use rbs_sfi::{BackendKind, Domain, DomainManager};

/// Builds one tenant's operator chain. Called once per epoch (cold
/// build) and reused for every warm respawn within that epoch.
pub type TenantChainFactory = Arc<dyn Fn(usize, &TenantSpec) -> PipelineSpec + Send + Sync>;

/// One tenant's contract with the runtime.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Steering identity: the Maglev permutation seed, so a tenant that
    /// leaves and returns under the same name reclaims its old entries.
    pub name: String,
    /// Shedding order under backpressure: lower priority sheds first.
    pub priority: u8,
    /// Maglev weight — share of the steering table.
    pub weight: u32,
    /// Admission tokens accrued per tick.
    pub rate_per_tick: u64,
    /// Admission burst depth (bucket capacity).
    pub burst: u64,
    /// Work units one packet costs a lane. A slow operator is modeled as
    /// an elevated per-packet cost; the work budget converts sustained
    /// overuse into strikes.
    pub cost_per_packet: u64,
}

impl TenantSpec {
    /// A default tenant: priority 1, weight 1, generous admission.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            priority: 1,
            weight: 1,
            rate_per_tick: 1_000,
            burst: 2_000,
            cost_per_packet: 1,
        }
    }

    /// Sets the shedding priority (higher is kept longer).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the Maglev weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the admission rate and burst.
    pub fn rate(mut self, rate_per_tick: u64, burst: u64) -> Self {
        self.rate_per_tick = rate_per_tick;
        self.burst = burst;
        self
    }

    /// Sets the per-packet work cost.
    pub fn cost_per_packet(mut self, cost: u64) -> Self {
        self.cost_per_packet = cost;
        self
    }
}

/// Strike thresholds and timers for the per-tenant circuit breaker.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Strikes before the tenant's admission rate is divided down.
    pub throttle_after_strikes: u32,
    /// Strikes before the breaker opens (domain destroyed, all shed).
    pub open_after_strikes: u32,
    /// Ticks an open breaker stays open before probing.
    pub open_ticks: u64,
    /// Clean batches required in half-open before closing.
    pub half_open_probes: u64,
    /// Throttled admission rate = `rate_per_tick / throttle_divisor`.
    pub throttle_divisor: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            throttle_after_strikes: 2,
            open_after_strikes: 4,
            open_ticks: 16,
            half_open_probes: 2,
            throttle_divisor: 4,
        }
    }
}

/// Configuration for a [`TenantRuntime`].
#[derive(Clone)]
pub struct TenantConfig {
    /// The tenant population. Index order is identity for the whole run:
    /// churn removes and re-adds by index, never renumbers.
    pub tenants: Vec<TenantSpec>,
    /// Run-to-completion lanes work is spread over (by flow hash).
    pub lanes: usize,
    /// Maglev table size; must be prime.
    pub table_size: usize,
    /// Work units one lane executes per tick. Oversized batches carry
    /// their excess cost forward as debt against later ticks.
    pub lane_capacity: u64,
    /// Queued batches per lane above which the lowest-priority queued
    /// work is shed (`shed_backpressure`).
    pub queue_hwm: usize,
    /// Breaker thresholds and timers.
    pub breaker: BreakerPolicy,
    /// Work units one tenant may consume per tick across all lanes
    /// before the overrun counts as a strike. `0` disables the budget.
    pub work_budget_per_tick: u64,
    /// Snapshot cadence in ticks (`0` disables warm recovery).
    pub snapshot_every_ticks: u64,
    /// Full-snapshot cadence handed to each tenant's [`SnapshotStore`].
    pub snapshot_full_every: u32,
    /// Isolation backend for the per-tenant domains.
    pub backend: BackendKind,
    /// Chain builder; `None` uses [`default_tenant_chain`].
    pub chain: Option<TenantChainFactory>,
    /// Deterministic fault plan. Decisions are streamed per tenant: the
    /// plan's `stream` is the tenant index, the occurrence its executed
    /// batch count — so a scripted crash loop targets one tenant while
    /// background chaos salts all of them, reproducibly.
    #[cfg(feature = "fault-injection")]
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            tenants: Vec::new(),
            lanes: 2,
            table_size: 251,
            lane_capacity: 512,
            queue_hwm: 8,
            breaker: BreakerPolicy::default(),
            work_budget_per_tick: 0,
            snapshot_every_ticks: 0,
            snapshot_full_every: 4,
            backend: BackendKind::TypedSfi,
            chain: None,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

/// The stock tenant chain: a port-80/53 filter, a per-tenant source NAT
/// (distinct NAT IP per tenant index, so cross-tenant translation state
/// is structurally impossible to confuse), and a flow tracker — the
/// stateful trio whose reclamation the churn tests audit.
pub fn default_tenant_chain(idx: usize, _spec: &TenantSpec) -> PipelineSpec {
    let nat_ip = std::net::Ipv4Addr::new(203, 0, 113, 10 + (idx as u8));
    PipelineSpec::new()
        .stage(|| DstPortFilter::new(vec![80, 53]))
        .stage(move || {
            SourceNat::new(
                nat_ip,
                std::net::Ipv4Addr::new(10, 0, 0, 0),
                8,
                40_000..=50_000,
            )
        })
        .stage(|| FlowTracker::new(4_096))
        .with_state_schema(1)
}

/// Errors from [`TenantRuntime`] construction or churn.
#[derive(Debug)]
pub enum TenantError {
    /// Invalid configuration.
    BadConfig(&'static str),
    /// Tenant index out of range.
    UnknownTenant(usize),
    /// `add_tenant` on a tenant that is already present.
    AlreadyPresent(usize),
    /// `remove_tenant` on a tenant that is not present.
    NotPresent(usize),
    /// Removing the last present tenant would leave nothing to steer to.
    LastTenant,
    /// Maglev rebuild failed.
    Table(TableError),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::BadConfig(why) => write!(f, "bad tenant config: {why}"),
            TenantError::UnknownTenant(i) => write!(f, "unknown tenant index {i}"),
            TenantError::AlreadyPresent(i) => write!(f, "tenant {i} already present"),
            TenantError::NotPresent(i) => write!(f, "tenant {i} not present"),
            TenantError::LastTenant => write!(f, "cannot remove the last present tenant"),
            TenantError::Table(e) => write!(f, "maglev rebuild: {e}"),
        }
    }
}

impl std::error::Error for TenantError {}

impl From<TableError> for TenantError {
    fn from(e: TableError) -> Self {
        TenantError::Table(e)
    }
}

/// Where a tenant's circuit breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Healthy: full admission rate.
    Running,
    /// Strikes accumulated: admission rate divided down.
    Throttled,
    /// Blast contained: domain destroyed, everything shed at ingress.
    Open,
    /// Probing with a warm-restored chain at throttled admission.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable lowercase label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            BreakerPhase::Running => "running",
            BreakerPhase::Throttled => "throttled",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half-open",
        }
    }
}

/// Exact per-tenant packet conservation. Every offered packet ends in
/// exactly one bucket; [`TenantLedger::unaccounted`] is the audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantLedger {
    /// Packets steered to this tenant at ingress.
    pub offered: u64,
    /// Packets that entered the tenant's chain.
    pub processed: u64,
    /// Packets that left the chain (goodput numerator).
    pub out: u64,
    /// Packets the chain dropped by policy (filter, NAT exhaustion).
    pub drops: u64,
    /// Packets destroyed by a domain fault mid-batch.
    pub lost: u64,
    /// Packets refused by the tenant's admission bucket.
    pub shed_admission: u64,
    /// Packets refused (or queue-shed) while the breaker was open.
    pub shed_open: u64,
    /// Queued packets shed by the lane high-water mark.
    pub shed_backpressure: u64,
    /// Queued packets stranded by removal with a dead chain.
    pub shed_removed: u64,
    /// Of `processed`, packets executed by a lane other than the
    /// tenant's home lane (work stealing). Informational — a subset of
    /// `processed`, not a term of the conservation identity. Always zero
    /// on the single-threaded [`TenantRuntime`].
    pub stolen: u64,
}

impl TenantLedger {
    /// Total shed packets across all shed reasons.
    pub fn shed(&self) -> u64 {
        self.shed_admission + self.shed_open + self.shed_backpressure + self.shed_removed
    }

    /// `offered - processed - lost - shed`; zero iff conservation holds.
    pub fn unaccounted(&self) -> i128 {
        self.offered as i128 - self.processed as i128 - self.lost as i128 - self.shed() as i128
    }

    /// Delivered fraction of offered load, in parts per million.
    pub fn goodput_ppm(&self) -> u64 {
        (self.out * 1_000_000)
            .checked_div(self.offered)
            .unwrap_or(1_000_000)
    }
}

/// One breaker/churn/recovery event, journaled for audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantEvent {
    /// Tick the event fired on.
    pub tick: u64,
    /// Tenant index it concerns.
    pub tenant: usize,
    /// What happened.
    pub kind: TenantEventKind,
}

/// The event alphabet of the tenant supervision journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantEventKind {
    /// Strikes crossed the throttle threshold.
    Throttled {
        /// Strike count at the transition.
        strikes: u32,
    },
    /// Strikes crossed the open threshold; blast contained.
    Opened {
        /// Strike count at the transition.
        strikes: u32,
    },
    /// Open timer expired; probing with a restored chain.
    HalfOpened,
    /// Probes passed; back to full admission.
    Closed,
    /// A half-open probe faulted; straight back to open.
    Reopened,
    /// The chain was rebuilt after a fault.
    Respawned {
        /// Whether a snapshot restore succeeded.
        warm: bool,
        /// State items the restored chain came back with.
        items: u64,
    },
    /// The tenant was removed (drained, then steered around).
    Removed {
        /// Maglev entries the rebuild remapped.
        remapped_entries: usize,
    },
    /// The tenant was re-added under a fresh epoch.
    Added {
        /// The new epoch.
        epoch: u64,
        /// Maglev entries the rebuild remapped.
        remapped_entries: usize,
    },
}

/// One Maglev rebuild triggered by churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildRecord {
    /// Tick the rebuild ran on.
    pub tick: u64,
    /// `"remove"` or `"add"`.
    pub action: &'static str,
    /// Tenant index that churned.
    pub tenant: usize,
    /// Table entries that changed owner.
    pub remapped_entries: usize,
}

/// Final per-tenant outcome in a [`TenantReport`].
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Shedding priority.
    pub priority: u8,
    /// The exact conservation ledger.
    pub ledger: TenantLedger,
    /// Breaker phase at shutdown.
    pub final_phase: BreakerPhase,
    /// Epoch at shutdown (number of times re-added).
    pub epoch: u64,
    /// Domain faults absorbed.
    pub faults: u64,
    /// Chain rebuilds after faults or half-open probes.
    pub respawns: u64,
    /// Times the breaker opened.
    pub opens: u64,
    /// Times the breaker throttled.
    pub throttles: u64,
    /// Respawns that restored from a verified snapshot.
    pub warm_restores: u64,
    /// Respawns that fell back to a cold build.
    pub cold_restores: u64,
    /// Total state items recovered across warm restores.
    pub state_items_restored: u64,
    /// Live state items in the chain at shutdown (0 if no chain).
    pub final_state_items: u64,
    /// Snapshots sealed in the current epoch.
    pub snapshots_taken: u64,
    /// p99 queue delay over executed batches, in ticks.
    pub p99_delay_ticks: u64,
    /// Worst queue delay, in ticks.
    pub max_delay_ticks: u64,
    /// Batches the tenant's chain executed.
    pub batches_executed: u64,
}

/// What one lane of a threaded tenant runtime hosted and executed —
/// placement made observable. Residency is decided by the deterministic
/// weighted placement policy; the executed/steal counters describe what
/// the lane's CPU actually did and are scheduling-dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// Lane index.
    pub lane: usize,
    /// Tenant indices resident on this lane at shutdown (home placement,
    /// deterministic).
    pub residents: Vec<usize>,
    /// Batches this lane's thread executed (resident + stolen).
    pub executed_batches: u64,
    /// Packets this lane's thread executed.
    pub executed_packets: u64,
    /// Work items this lane stole from other lanes' deques.
    pub steals_in: u64,
    /// Wire bytes charged as `Crossing::Steal` for those thefts.
    pub steal_bytes: u64,
    /// Per origin tenant: work items this lane stole from it
    /// (`(tenant, items)`, only non-zero entries, tenant-ordered).
    pub stolen_from: Vec<(usize, u64)>,
    /// Times this lane stole a band while a higher-priority band still
    /// had queued work anywhere. The banded steal sweep makes this
    /// structurally zero; the counter is the audit.
    pub priority_inversions: u64,
}

/// Everything a finished [`TenantRuntime`] observed.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Per-tenant outcomes, in tenant index order.
    pub tenants: Vec<TenantOutcome>,
    /// Deepest queue (in batches) each lane ever reached.
    pub lane_depth_hwm: Vec<usize>,
    /// Batches shed by the lane high-water mark.
    pub hwm_sheds: u64,
    /// Every Maglev rebuild, in order.
    pub rebuilds: Vec<RebuildRecord>,
    /// The full supervision journal.
    pub events: Vec<TenantEvent>,
    /// Ticks the runtime ran (including the drain at finish).
    pub ticks: u64,
    /// Per-lane placement and steal observability. Populated by the
    /// threaded [`TenantLaneRuntime`](crate::tenant_lanes::TenantLaneRuntime);
    /// empty on the single-threaded reference runtime.
    pub occupancy: Vec<LaneOccupancy>,
}

impl TenantReport {
    /// Total packets offered across tenants.
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.ledger.offered).sum()
    }

    /// Total packets delivered across tenants.
    pub fn out(&self) -> u64 {
        self.tenants.iter().map(|t| t.ledger.out).sum()
    }

    /// Sum of per-tenant conservation residues; zero iff every ledger
    /// balances.
    pub fn unaccounted_packets(&self) -> i128 {
        self.tenants.iter().map(|t| t.ledger.unaccounted()).sum()
    }

    /// Priority inversions observed across all lanes (see
    /// [`LaneOccupancy::priority_inversions`]); must be zero.
    pub fn priority_inversions(&self) -> u64 {
        self.occupancy.iter().map(|l| l.priority_inversions).sum()
    }

    /// Work items stolen across lanes, fleet-wide.
    pub fn steals(&self) -> u64 {
        self.occupancy.iter().map(|l| l.steals_in).sum()
    }
}

/// Queueing delays of executed batches, as exact counts indexed by the
/// delay in ticks. Memory grows to the largest delay ever recorded (one
/// word per tick of delay), never with the number of batches executed.
#[derive(Debug, Clone, Default)]
pub(crate) struct DelayLedger {
    counts: Vec<u64>,
}

impl DelayLedger {
    pub(crate) fn record(&mut self, delay_ticks: u64) {
        let slot = usize::try_from(delay_ticks).expect("delay in ticks fits a usize");
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += 1;
    }

    /// The delay at rank `(n − 1) · 99 / 100` of the ascending samples
    /// (0 with no samples).
    pub(crate) fn p99(&self) -> u64 {
        let n: u64 = self.counts.iter().sum();
        let rank = n.saturating_sub(1) * 99 / 100;
        let mut below = 0u64;
        for (delay, &count) in self.counts.iter().enumerate() {
            below += count;
            if below > rank {
                return delay as u64;
            }
        }
        0
    }

    /// The largest delay recorded (0 with no samples): `record` only
    /// ever extends `counts` to a delay it then counts.
    pub(crate) fn max(&self) -> u64 {
        self.counts.len().saturating_sub(1) as u64
    }
}

/// A batch queued on a lane, stamped with enough identity to audit it.
struct QueuedWork {
    tenant: usize,
    epoch: u64,
    batch: PacketBatch,
    enqueue_tick: u64,
    cost: u64,
}

/// One tenant's live chain: a protection domain and the pipeline that
/// runs inside it.
struct TenantChain {
    domain: Domain,
    pipeline: Pipeline,
}

/// Mutable per-tenant supervision state.
struct TenantState {
    spec: TenantSpec,
    present: bool,
    phase: BreakerPhase,
    epoch: u64,
    strikes: u32,
    open_until: u64,
    probes_left: u64,
    bucket: TickBucket,
    ledger: TenantLedger,
    occurrence: u64,
    faults: u64,
    respawns: u64,
    opens: u64,
    throttles: u64,
    warm_restores: u64,
    cold_restores: u64,
    state_items_restored: u64,
    snapshots_taken: u64,
    delays: DelayLedger,
    batches_executed: u64,
}

/// Multi-tenant lane runtime with per-tenant breakers and admission.
///
/// Single-threaded and tick-clocked: callers alternate [`offer`]
/// (steer + admit one wave of traffic) and [`step`] (execute one tick of
/// lane capacity, run breaker timers and the snapshot cadence). All
/// state advances in tenant-index order, so a fixed offered trace
/// produces a byte-identical report.
///
/// [`offer`]: TenantRuntime::offer
/// [`step`]: TenantRuntime::step
pub struct TenantRuntime {
    manager: DomainManager,
    tenants: Vec<TenantState>,
    chains: Vec<Option<TenantChain>>,
    specs: Vec<PipelineSpec>,
    stores: Vec<SnapshotStore>,
    factory: TenantChainFactory,
    table: MaglevTable,
    /// Table backend position → tenant index (absent tenants skipped).
    table_map: Vec<usize>,
    /// Permanent staging buffers for [`offer`](TenantRuntime::offer),
    /// indexed `lane * tenants + tenant`. Draining (not replacing) them
    /// keeps their capacity, so a warmed-up offer path allocates only
    /// the queued batches themselves — never per packet.
    staged: Vec<Vec<rbs_netfx::Packet>>,
    /// Maglev lookups actually performed; with run-batched steering this
    /// counts flow runs, not packets.
    steering_lookups: u64,
    lane_queues: Vec<VecDeque<QueuedWork>>,
    lane_debt: Vec<u64>,
    lane_depth_hwm: Vec<usize>,
    hwm_sheds: u64,
    events: Vec<TenantEvent>,
    rebuilds: Vec<RebuildRecord>,
    now: u64,
    lanes: usize,
    table_size: usize,
    lane_capacity: u64,
    queue_hwm: usize,
    policy: BreakerPolicy,
    work_budget: u64,
    snapshot_every: u64,
    snapshot_full_every: u32,
    #[cfg(feature = "fault-injection")]
    faults: Option<Arc<FaultPlan>>,
}

impl TenantRuntime {
    /// Builds the runtime: one domain + cold chain per tenant, the
    /// initial Maglev table over the full population, and fresh
    /// admission buckets.
    pub fn new(config: TenantConfig) -> Result<Self, TenantError> {
        if config.tenants.is_empty() {
            return Err(TenantError::BadConfig("no tenants"));
        }
        if config.lanes == 0 {
            return Err(TenantError::BadConfig("zero lanes"));
        }
        if config.lane_capacity == 0 {
            return Err(TenantError::BadConfig("zero lane capacity"));
        }
        if config.tenants.iter().any(|t| t.burst == 0) {
            return Err(TenantError::BadConfig("zero admission burst"));
        }
        let factory: TenantChainFactory = config
            .chain
            .clone()
            .unwrap_or_else(|| Arc::new(default_tenant_chain));
        let manager = DomainManager::with_backend_kind(config.backend);

        let mut tenants = Vec::with_capacity(config.tenants.len());
        let mut chains = Vec::with_capacity(config.tenants.len());
        let mut specs = Vec::with_capacity(config.tenants.len());
        let mut stores = Vec::with_capacity(config.tenants.len());
        for (idx, spec) in config.tenants.iter().enumerate() {
            let pipeline_spec = factory(idx, spec);
            let domain = manager
                .create_domain(format!("tenant-{}-e0-g0", spec.name))
                .expect("tenant domain");
            let pipeline = pipeline_spec.build();
            chains.push(Some(TenantChain { domain, pipeline }));
            specs.push(pipeline_spec);
            stores.push(SnapshotStore::new(config.snapshot_full_every));
            tenants.push(TenantState {
                bucket: TickBucket::new(spec.rate_per_tick, spec.burst),
                spec: spec.clone(),
                present: true,
                phase: BreakerPhase::Running,
                epoch: 0,
                strikes: 0,
                open_until: 0,
                probes_left: 0,
                ledger: TenantLedger::default(),
                occurrence: 0,
                faults: 0,
                respawns: 0,
                opens: 0,
                throttles: 0,
                warm_restores: 0,
                cold_restores: 0,
                state_items_restored: 0,
                snapshots_taken: 0,
                delays: DelayLedger::default(),
                batches_executed: 0,
            });
        }

        let backends: Vec<Backend> = config
            .tenants
            .iter()
            .map(|t| Backend::weighted(t.name.clone(), t.weight))
            .collect();
        let table = MaglevTable::new(backends, config.table_size)?;
        let table_map = (0..config.tenants.len()).collect();

        Ok(Self {
            manager,
            tenants,
            chains,
            specs,
            stores,
            factory,
            table,
            table_map,
            staged: (0..config.lanes * config.tenants.len())
                .map(|_| Vec::new())
                .collect(),
            steering_lookups: 0,
            lane_queues: (0..config.lanes).map(|_| VecDeque::new()).collect(),
            lane_debt: vec![0; config.lanes],
            lane_depth_hwm: vec![0; config.lanes],
            hwm_sheds: 0,
            events: Vec::new(),
            rebuilds: Vec::new(),
            now: 0,
            lanes: config.lanes,
            table_size: config.table_size,
            lane_capacity: config.lane_capacity,
            queue_hwm: config.queue_hwm,
            policy: config.breaker,
            work_budget: config.work_budget_per_tick,
            snapshot_every: config.snapshot_every_ticks,
            snapshot_full_every: config.snapshot_full_every,
            #[cfg(feature = "fault-injection")]
            faults: config.faults,
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

    /// A tenant's breaker phase.
    pub fn phase(&self, idx: usize) -> BreakerPhase {
        self.tenants[idx].phase
    }

    /// A tenant's conservation ledger so far.
    pub fn ledger(&self, idx: usize) -> TenantLedger {
        self.tenants[idx].ledger
    }

    /// A tenant's epoch (times re-added).
    pub fn epoch(&self, idx: usize) -> u64 {
        self.tenants[idx].epoch
    }

    /// Whether the tenant is currently present in the steering table.
    pub fn is_present(&self, idx: usize) -> bool {
        self.tenants[idx].present
    }

    /// Snapshots sealed in the tenant's current epoch.
    pub fn snapshots_taken(&self, idx: usize) -> u64 {
        self.tenants[idx].snapshots_taken
    }

    /// Live state items in the tenant's chain, measured inside its
    /// domain (0 if the chain is down).
    pub fn state_items(&self, idx: usize) -> u64 {
        match &self.chains[idx] {
            Some(chain) => chain
                .domain
                .execute(|| chain.pipeline.state_items())
                .unwrap_or(0),
            None => 0,
        }
    }

    /// Steers one wave of traffic: Maglev lookup → ledger attribution →
    /// breaker gate → admission bucket → lane queue, then applies the
    /// per-lane high-water mark.
    ///
    /// Steering is run-batched: consecutive packets with the same cached
    /// flow hash resolve the Maglev table once, so a flow's packet train
    /// costs one lookup. Together with the permanent staging buffers
    /// this makes the warmed-up offer path alloc-free per packet (one
    /// exact-capacity allocation per queued *batch*, never per packet) —
    /// `steering_is_alloc_free_per_packet` in rbs-bench audits this with
    /// the counting allocator.
    pub fn offer(&mut self, batch: PacketBatch) {
        let now = self.now;
        let tcount = self.tenants.len();
        let mut last_hash = 0u64;
        let mut last_idx = usize::MAX;

        for p in batch.into_packets() {
            let hash = p.cached_flow_hash().unwrap_or_else(|| packet_flow_hash(&p));
            let idx = if last_idx != usize::MAX && hash == last_hash {
                last_idx
            } else {
                self.steering_lookups += 1;
                last_hash = hash;
                last_idx = self.table_map[self.table.lookup(hash)];
                last_idx
            };
            let lane = (hash as usize) % self.lanes;
            let t = &mut self.tenants[idx];
            t.ledger.offered += 1;
            if t.phase == BreakerPhase::Open {
                t.ledger.shed_open += 1;
                continue;
            }
            if t.bucket.take(now, 1) == 0 {
                t.ledger.shed_admission += 1;
                continue;
            }
            self.staged[lane * tcount + idx].push(p);
        }

        for lane in 0..self.lanes {
            for idx in 0..tcount {
                let cell = lane * tcount + idx;
                if self.staged[cell].is_empty() {
                    continue;
                }
                let mut pkts = Vec::with_capacity(self.staged[cell].len());
                pkts.append(&mut self.staged[cell]);
                let cost = (pkts.len() as u64) * self.tenants[idx].spec.cost_per_packet.max(1);
                self.lane_queues[lane].push_back(QueuedWork {
                    tenant: idx,
                    epoch: self.tenants[idx].epoch,
                    batch: PacketBatch::from_packets(pkts),
                    enqueue_tick: now,
                    cost,
                });
            }
            self.lane_depth_hwm[lane] = self.lane_depth_hwm[lane].max(self.lane_queues[lane].len());
            self.apply_hwm(lane);
        }
    }

    /// Maglev lookups performed so far. With run-batched steering this
    /// advances once per flow run, not once per packet.
    pub fn steering_lookups(&self) -> u64 {
        self.steering_lookups
    }

    /// Sheds lowest-priority queued work (newest first within a
    /// priority) until the lane is back under its high-water mark.
    fn apply_hwm(&mut self, lane: usize) {
        while self.lane_queues[lane].len() > self.queue_hwm {
            let mut victim = 0usize;
            let mut victim_prio = u8::MAX;
            for (i, work) in self.lane_queues[lane].iter().enumerate() {
                let prio = self.tenants[work.tenant].spec.priority;
                if prio <= victim_prio {
                    victim_prio = prio;
                    victim = i;
                }
            }
            let work = self.lane_queues[lane].remove(victim).expect("victim index");
            self.tenants[work.tenant].ledger.shed_backpressure += work.batch.len() as u64;
            self.hwm_sheds += 1;
        }
    }

    /// Executes one tick: each lane spends its capacity on queued work
    /// (oversized batches carry debt forward), work-budget overruns
    /// strike, open breakers half-open on expiry, and the snapshot
    /// cadence seals warm-recovery state. Advances the clock.
    pub fn step(&mut self) {
        let now = self.now;
        let mut work_this_tick = vec![0u64; self.tenants.len()];

        for lane in 0..self.lanes {
            let pay = self.lane_debt[lane].min(self.lane_capacity);
            self.lane_debt[lane] -= pay;
            let mut available = self.lane_capacity - pay;
            while available > 0 {
                let Some(work) = self.lane_queues[lane].pop_front() else {
                    break;
                };
                if work.cost > available {
                    self.lane_debt[lane] += work.cost - available;
                    available = 0;
                } else {
                    available -= work.cost;
                }
                work_this_tick[work.tenant] += work.cost;
                self.execute_work(work, now);
            }
        }

        if self.work_budget > 0 {
            for (idx, &spent) in work_this_tick.iter().enumerate() {
                let t = &self.tenants[idx];
                if t.present && t.phase != BreakerPhase::Open && spent > self.work_budget {
                    self.strike(idx, now);
                }
            }
        }

        for idx in 0..self.tenants.len() {
            let t = &self.tenants[idx];
            if t.present && t.phase == BreakerPhase::Open && now >= t.open_until {
                self.half_open(idx, now);
            }
        }

        if self.snapshot_every > 0 && (now + 1).is_multiple_of(self.snapshot_every) {
            self.snapshot_all(now);
        }

        self.now = now + 1;
    }

    /// Runs one queued batch through its tenant's chain inside the
    /// tenant's domain, with the fault plan consulted per batch.
    fn execute_work(&mut self, work: QueuedWork, now: u64) {
        let idx = work.tenant;
        let n_in = work.batch.len() as u64;
        {
            let t = &mut self.tenants[idx];
            // Stale work can only exist if removal failed to drain or the
            // breaker opened with work still queued; account, never run.
            if !t.present || work.epoch != t.epoch {
                t.ledger.shed_removed += n_in;
                return;
            }
            if t.phase == BreakerPhase::Open {
                t.ledger.shed_open += n_in;
                return;
            }
            t.delays.record(now - work.enqueue_tick);
            t.batches_executed += 1;
        }
        let fire = self.fault_decision(idx);
        let chain = self.chains[idx].as_mut().expect("live tenant has a chain");
        let pipeline = &mut chain.pipeline;
        let batch = work.batch;
        let result = chain.domain.execute(move || {
            if let Some(kind) = fire {
                match kind {
                    FaultKind::Panic | FaultKind::PoisonTable | FaultKind::CloseChannel => {
                        fault::fire_panic(FaultSite::Operator(0))
                    }
                    sleepy => fault::fire_sleep(sleepy),
                }
            }
            pipeline.run_batch(batch)
        });
        match result {
            Ok(out) => {
                let t = &mut self.tenants[idx];
                t.ledger.processed += n_in;
                t.ledger.out += out.len() as u64;
                t.ledger.drops += n_in - out.len() as u64;
                if t.phase == BreakerPhase::HalfOpen {
                    t.probes_left = t.probes_left.saturating_sub(1);
                    if t.probes_left == 0 {
                        self.close(idx, now);
                    }
                }
            }
            Err(_) => {
                // The batch moved into the domain and died with it.
                let t = &mut self.tenants[idx];
                t.ledger.lost += n_in;
                t.faults += 1;
                self.strike(idx, now);
                if self.tenants[idx].phase != BreakerPhase::Open {
                    self.respawn(idx, now);
                }
            }
        }
    }

    /// Consults the fault plan for this tenant's next executed batch.
    /// The occurrence counter advances regardless of the feature, so a
    /// tenant's chaos stream position is stable across builds.
    fn fault_decision(&mut self, idx: usize) -> Option<FaultKind> {
        let t = &mut self.tenants[idx];
        let occurrence = t.occurrence;
        t.occurrence += 1;
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.faults.as_ref() {
            return plan.decide(FaultSite::Operator(0), idx as u64, occurrence);
        }
        let _ = occurrence;
        None
    }

    /// One strike: throttle or open per the policy thresholds. A strike
    /// in half-open reopens immediately — the probe failed.
    fn strike(&mut self, idx: usize, now: u64) {
        let (phase, strikes) = {
            let t = &mut self.tenants[idx];
            t.strikes += 1;
            (t.phase, t.strikes)
        };
        match phase {
            BreakerPhase::HalfOpen => self.open(idx, now, true),
            BreakerPhase::Running | BreakerPhase::Throttled => {
                if strikes >= self.policy.open_after_strikes {
                    self.open(idx, now, false);
                } else if phase == BreakerPhase::Running
                    && strikes >= self.policy.throttle_after_strikes
                {
                    let t = &mut self.tenants[idx];
                    t.phase = BreakerPhase::Throttled;
                    t.throttles += 1;
                    let throttled = (t.spec.rate_per_tick / self.policy.throttle_divisor).max(1);
                    t.bucket.set_rate(throttled);
                    self.events.push(TenantEvent {
                        tick: now,
                        tenant: idx,
                        kind: TenantEventKind::Throttled { strikes },
                    });
                }
            }
            BreakerPhase::Open => {}
        }
    }

    /// Opens the breaker: destroy the domain, shed the tenant's queued
    /// work everywhere, refuse its ingress until the timer expires.
    fn open(&mut self, idx: usize, now: u64, reopen: bool) {
        let strikes = {
            let t = &mut self.tenants[idx];
            t.phase = BreakerPhase::Open;
            t.open_until = now + self.policy.open_ticks;
            t.opens += 1;
            t.strikes
        };
        if let Some(chain) = self.chains[idx].take() {
            self.manager.destroy_domain(&chain.domain);
        }
        let mut shed = 0u64;
        for queue in &mut self.lane_queues {
            queue.retain(|work| {
                if work.tenant == idx {
                    shed += work.batch.len() as u64;
                    false
                } else {
                    true
                }
            });
        }
        self.tenants[idx].ledger.shed_open += shed;
        self.events.push(TenantEvent {
            tick: now,
            tenant: idx,
            kind: if reopen {
                TenantEventKind::Reopened
            } else {
                TenantEventKind::Opened { strikes }
            },
        });
    }

    /// Open timer expired: rebuild the chain (warm if a snapshot
    /// verifies) and probe at the throttled admission rate.
    fn half_open(&mut self, idx: usize, now: u64) {
        {
            let t = &mut self.tenants[idx];
            t.phase = BreakerPhase::HalfOpen;
            t.probes_left = self.policy.half_open_probes.max(1);
            let throttled = (t.spec.rate_per_tick / self.policy.throttle_divisor).max(1);
            t.bucket.set_rate(throttled);
        }
        self.events.push(TenantEvent {
            tick: now,
            tenant: idx,
            kind: TenantEventKind::HalfOpened,
        });
        self.respawn(idx, now);
    }

    /// Probes passed: full admission restored, strikes forgiven.
    fn close(&mut self, idx: usize, now: u64) {
        let t = &mut self.tenants[idx];
        t.phase = BreakerPhase::Running;
        t.strikes = 0;
        let rate = t.spec.rate_per_tick;
        t.bucket.set_rate(rate);
        self.events.push(TenantEvent {
            tick: now,
            tenant: idx,
            kind: TenantEventKind::Closed,
        });
    }

    /// Rebuilds the tenant's chain in a fresh domain, restoring from the
    /// latest verified snapshot (then the previous; then cold).
    fn respawn(&mut self, idx: usize, now: u64) {
        if let Some(chain) = self.chains[idx].take() {
            self.manager.destroy_domain(&chain.domain);
        }
        let generation = {
            let t = &mut self.tenants[idx];
            t.respawns += 1;
            t.respawns
        };
        let name = format!(
            "tenant-{}-e{}-g{}",
            self.tenants[idx].spec.name, self.tenants[idx].epoch, generation
        );
        let domain = self.manager.create_domain(name).expect("tenant domain");
        let spec = &self.specs[idx];
        let store = &self.stores[idx];
        let mut pipeline: Option<Pipeline> = None;
        for sealed in [store.latest(), store.previous()].into_iter().flatten() {
            if let Ok(cp) = sealed.open() {
                if let Ok(p) = spec.build_with_state(&cp) {
                    pipeline = Some(p);
                    break;
                }
            }
        }
        let (pipeline, warm) = match pipeline {
            Some(p) => (p, true),
            None => (spec.build(), false),
        };
        let items = pipeline.state_items();
        {
            let t = &mut self.tenants[idx];
            if warm {
                t.warm_restores += 1;
                t.state_items_restored += items;
            } else {
                t.cold_restores += 1;
            }
        }
        self.chains[idx] = Some(TenantChain { domain, pipeline });
        self.events.push(TenantEvent {
            tick: now,
            tenant: idx,
            kind: TenantEventKind::Respawned { warm, items },
        });
    }

    /// Seals a snapshot of every live chain, measured inside its domain.
    fn snapshot_all(&mut self, now: u64) {
        for idx in 0..self.tenants.len() {
            if !self.tenants[idx].present || self.tenants[idx].phase == BreakerPhase::Open {
                continue;
            }
            let Some(TenantChain { domain, pipeline }) = &mut self.chains[idx] else {
                continue;
            };
            let (store, schema) = (&mut self.stores[idx], self.specs[idx].state_schema());
            let sealed = domain.execute(|| {
                let items = pipeline.state_items();
                store.record_from(pipeline, now, items, schema);
            });
            if sealed.is_err() {
                continue;
            }
            self.tenants[idx].snapshots_taken += 1;
        }
    }

    /// Removes a tenant: drains its queued work at control-plane speed
    /// (chaos still applies), destroys its chain and snapshot store, and
    /// rebuilds the steering table around it. Returns the remapped entry
    /// count.
    pub fn remove_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
        if idx >= self.tenants.len() {
            return Err(TenantError::UnknownTenant(idx));
        }
        if !self.tenants[idx].present {
            return Err(TenantError::NotPresent(idx));
        }
        if self.tenants.iter().filter(|t| t.present).count() < 2 {
            return Err(TenantError::LastTenant);
        }
        let now = self.now;
        // Graceful drain: the tenant's queued batches run to completion
        // before the chain goes away (faults during the drain are
        // handled exactly like data-path faults).
        for lane in 0..self.lanes {
            loop {
                let pos = self.lane_queues[lane].iter().position(|w| w.tenant == idx);
                let Some(pos) = pos else { break };
                let work = self.lane_queues[lane].remove(pos).expect("drain index");
                self.execute_work(work, now);
            }
        }
        if let Some(chain) = self.chains[idx].take() {
            self.manager.destroy_domain(&chain.domain);
        }
        {
            let t = &mut self.tenants[idx];
            t.present = false;
            t.phase = BreakerPhase::Running;
            t.strikes = 0;
            t.snapshots_taken = 0;
        }
        // Epoch keying: the departed epoch's snapshots can never serve a
        // future incarnation of this tenant.
        self.stores[idx] = SnapshotStore::new(self.snapshot_full_every);
        let remapped = self.rebuild_table()?;
        self.rebuilds.push(RebuildRecord {
            tick: now,
            action: "remove",
            tenant: idx,
            remapped_entries: remapped,
        });
        self.events.push(TenantEvent {
            tick: now,
            tenant: idx,
            kind: TenantEventKind::Removed {
                remapped_entries: remapped,
            },
        });
        Ok(remapped)
    }

    /// Re-adds a removed tenant under a fresh epoch: cold chain, empty
    /// snapshot store, full-rate admission, and a table rebuild that
    /// hands back its old entries. Returns the remapped entry count.
    pub fn add_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
        if idx >= self.tenants.len() {
            return Err(TenantError::UnknownTenant(idx));
        }
        if self.tenants[idx].present {
            return Err(TenantError::AlreadyPresent(idx));
        }
        let now = self.now;
        let epoch = {
            let t = &mut self.tenants[idx];
            t.epoch += 1;
            t.present = true;
            t.phase = BreakerPhase::Running;
            t.strikes = 0;
            t.probes_left = 0;
            t.bucket = TickBucket::new(t.spec.rate_per_tick, t.spec.burst);
            t.epoch
        };
        self.specs[idx] = (self.factory)(idx, &self.tenants[idx].spec);
        let domain = self
            .manager
            .create_domain(format!(
                "tenant-{}-e{}-g0",
                self.tenants[idx].spec.name, epoch
            ))
            .expect("tenant domain");
        let pipeline = self.specs[idx].build();
        self.chains[idx] = Some(TenantChain { domain, pipeline });
        self.stores[idx] = SnapshotStore::new(self.snapshot_full_every);
        let remapped = self.rebuild_table()?;
        self.rebuilds.push(RebuildRecord {
            tick: now,
            action: "add",
            tenant: idx,
            remapped_entries: remapped,
        });
        self.events.push(TenantEvent {
            tick: now,
            tenant: idx,
            kind: TenantEventKind::Added {
                epoch,
                remapped_entries: remapped,
            },
        });
        Ok(remapped)
    }

    /// Rebuilds the Maglev table over the present tenants and counts the
    /// entries that changed owner.
    fn rebuild_table(&mut self) -> Result<usize, TenantError> {
        let mut backends = Vec::new();
        let mut map = Vec::new();
        for (i, t) in self.tenants.iter().enumerate() {
            if t.present {
                backends.push(Backend::weighted(t.spec.name.clone(), t.spec.weight));
                map.push(i);
            }
        }
        let table = MaglevTable::new(backends, self.table_size)?;
        let remapped = self.table.disrupted_entries(&table);
        self.table = table;
        self.table_map = map;
        Ok(remapped)
    }

    /// Drains every lane to empty (stepping the clock), destroys all
    /// domains, and returns the final report.
    pub fn finish(mut self) -> TenantReport {
        let mut guard = 0u32;
        while self.lane_queues.iter().any(|q| !q.is_empty()) {
            self.step();
            guard += 1;
            assert!(guard < 1_000_000, "tenant runtime failed to drain");
        }
        let mut outcomes = Vec::with_capacity(self.tenants.len());
        for idx in 0..self.tenants.len() {
            let final_state_items = self.state_items(idx);
            let t = &self.tenants[idx];
            outcomes.push(TenantOutcome {
                name: t.spec.name.clone(),
                priority: t.spec.priority,
                ledger: t.ledger,
                final_phase: t.phase,
                epoch: t.epoch,
                faults: t.faults,
                respawns: t.respawns,
                opens: t.opens,
                throttles: t.throttles,
                warm_restores: t.warm_restores,
                cold_restores: t.cold_restores,
                state_items_restored: t.state_items_restored,
                final_state_items,
                snapshots_taken: t.snapshots_taken,
                p99_delay_ticks: t.delays.p99(),
                max_delay_ticks: t.delays.max(),
                batches_executed: t.batches_executed,
            });
        }
        for chain in self.chains.iter().flatten() {
            self.manager.destroy_domain(&chain.domain);
        }
        self.chains.clear();
        TenantReport {
            tenants: outcomes,
            lane_depth_hwm: self.lane_depth_hwm.clone(),
            hwm_sheds: self.hwm_sheds,
            rebuilds: self.rebuilds.clone(),
            events: self.events.clone(),
            ticks: self.now,
            occupancy: Vec::new(),
        }
    }
}

impl Drop for TenantRuntime {
    fn drop(&mut self) {
        for chain in self.chains.iter().flatten() {
            self.manager.destroy_domain(&chain.domain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_netfx::headers::ethernet::MacAddr;
    use rbs_netfx::Packet;
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

    fn wave(round: u16, count: u16) -> PacketBatch {
        (0..count)
            .map(|i| http_packet((i % 8) as u8 + 1, 1_000 + round * count + i))
            .collect()
    }

    fn two_tenants() -> TenantConfig {
        TenantConfig {
            tenants: vec![
                TenantSpec::new("alpha").priority(2).rate(500, 1_000),
                TenantSpec::new("beta").priority(1).rate(500, 1_000),
            ],
            lanes: 2,
            table_size: 251,
            lane_capacity: 1_024,
            queue_hwm: 16,
            ..TenantConfig::default()
        }
    }

    #[test]
    fn traffic_is_conserved_per_tenant() {
        let mut rt = TenantRuntime::new(two_tenants()).unwrap();
        for round in 0..20 {
            rt.offer(wave(round, 64));
            rt.step();
        }
        let report = rt.finish();
        assert_eq!(report.offered(), 20 * 64);
        assert_eq!(report.unaccounted_packets(), 0);
        for t in &report.tenants {
            assert_eq!(t.ledger.unaccounted(), 0, "{} leaks", t.name);
            assert!(t.ledger.offered > 0, "{} starved by steering", t.name);
            assert_eq!(t.ledger.lost, 0);
            assert_eq!(t.final_phase, BreakerPhase::Running);
        }
    }

    #[test]
    fn steering_is_deterministic() {
        let run = || {
            let mut rt = TenantRuntime::new(two_tenants()).unwrap();
            for round in 0..10 {
                rt.offer(wave(round, 48));
                rt.step();
            }
            let r = rt.finish();
            r.tenants
                .iter()
                .map(|t| (t.ledger.offered, t.ledger.out))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_bucket_sheds_the_overflow_exactly() {
        let mut config = two_tenants();
        for t in &mut config.tenants {
            t.rate_per_tick = 10;
            t.burst = 10;
        }
        let mut rt = TenantRuntime::new(config).unwrap();
        rt.offer(wave(0, 200));
        rt.step();
        let report = rt.finish();
        // Each bucket starts full at 10 tokens; everything else sheds.
        let admitted: u64 = report.tenants.iter().map(|t| t.ledger.processed).sum();
        let shed: u64 = report.tenants.iter().map(|t| t.ledger.shed_admission).sum();
        assert_eq!(admitted, 20);
        assert_eq!(shed, 180);
        assert_eq!(report.unaccounted_packets(), 0);
    }

    #[test]
    fn hwm_sheds_lowest_priority_first() {
        let mut config = two_tenants();
        config.lanes = 1;
        config.queue_hwm = 3;
        config.lane_capacity = 1; // nothing drains during the pile-up
        let mut rt = TenantRuntime::new(config).unwrap();
        for round in 0..3 {
            rt.offer(wave(round, 32));
        }
        // Only low-priority beta was shed by the high-water mark.
        let beta = rt.ledger(1);
        assert!(beta.shed_backpressure > 0, "beta never shed");
        let alpha = rt.ledger(0);
        assert_eq!(alpha.shed_backpressure, 0, "high-priority alpha shed");
        drop(rt);
    }

    #[test]
    fn churn_rebuild_is_bounded_and_reversible() {
        let mut config = two_tenants();
        config.tenants.push(TenantSpec::new("gamma"));
        config.tenants.push(TenantSpec::new("delta"));
        let mut rt = TenantRuntime::new(config).unwrap();
        rt.offer(wave(0, 64));
        rt.step();

        let remapped = rt.remove_tenant(3).unwrap();
        assert!(remapped >= 251 / 5, "removal must move the victim's share");
        assert!(!rt.is_present(3));
        let back = rt.add_tenant(3).unwrap();
        assert_eq!(
            remapped, back,
            "re-adding under the same name reverses the rebuild exactly"
        );
        assert_eq!(rt.epoch(3), 1);
        assert_eq!(rt.state_items(3), 0, "fresh epoch must start stateless");
        assert_eq!(rt.snapshots_taken(3), 0);

        rt.offer(wave(1, 64));
        rt.step();
        let report = rt.finish();
        assert_eq!(report.unaccounted_packets(), 0);
        assert_eq!(report.rebuilds.len(), 2);
    }

    #[test]
    fn removing_the_last_tenant_is_refused() {
        let mut config = two_tenants();
        config.tenants.truncate(1);
        let mut rt = TenantRuntime::new(config).unwrap();
        assert!(matches!(rt.remove_tenant(0), Err(TenantError::LastTenant)));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_loop_opens_the_breaker_and_spares_the_victim() {
        std::panic::set_hook(Box::new(|_| {}));
        let mut config = two_tenants();
        // Tenant 1 (beta) panics on every executed batch.
        config.faults = Some(Arc::new(rbs_core::fault::FaultPlan::new(7).inject_window(
            FaultSite::Operator(0),
            FaultKind::Panic,
            1,
            0,
            u64::MAX,
        )));
        let mut rt = TenantRuntime::new(config).unwrap();
        for round in 0..30 {
            rt.offer(wave(round, 64));
            rt.step();
        }
        assert_eq!(rt.phase(1), BreakerPhase::Open);
        let report = rt.finish();
        let alpha = &report.tenants[0];
        let beta = &report.tenants[1];
        assert_eq!(alpha.ledger.lost, 0, "victim lost packets to beta's loop");
        assert_eq!(alpha.ledger.goodput_ppm(), 1_000_000);
        assert!(beta.opens >= 1, "breaker never opened");
        assert!(beta.ledger.shed_open > 0, "open breaker never shed");
        assert_eq!(report.unaccounted_packets(), 0);
        let _ = std::panic::take_hook();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn half_open_probe_closes_after_a_transient_loop() {
        std::panic::set_hook(Box::new(|_| {}));
        let mut config = two_tenants();
        config.breaker.open_ticks = 4;
        config.snapshot_every_ticks = 2;
        // Beta panics on its first 6 executed batches, then runs clean.
        config.faults = Some(Arc::new(rbs_core::fault::FaultPlan::new(7).inject_window(
            FaultSite::Operator(0),
            FaultKind::Panic,
            1,
            0,
            6,
        )));
        let mut rt = TenantRuntime::new(config).unwrap();
        for round in 0..60 {
            rt.offer(wave(round, 64));
            rt.step();
        }
        assert_eq!(
            rt.phase(1),
            BreakerPhase::Running,
            "breaker should close after clean probes"
        );
        let report = rt.finish();
        let beta = &report.tenants[1];
        assert!(beta.opens >= 1);
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == TenantEventKind::Closed),
            "no close event journaled"
        );
        assert!(beta.warm_restores >= 1, "probe chain never warm-restored");
        assert_eq!(report.unaccounted_packets(), 0);
        let _ = std::panic::take_hook();
    }

    mod delay_ledger {
        use super::DelayLedger;
        use proptest::prelude::*;

        proptest! {
            /// The counted ledger reports what sorting every sample would.
            #[test]
            fn matches_the_sorted_samples(
                n in prop_oneof![Just(0usize), Just(1usize), Just(100usize), Just(101usize), 2usize..=300],
                spread in 1u64..=40,
                samples in proptest::collection::vec(any::<u64>(), 300),
            ) {
                let mut sorted: Vec<u64> = samples[..n].iter().map(|s| s % spread).collect();
                let mut ledger = DelayLedger::default();
                for &delay in &sorted {
                    ledger.record(delay);
                }
                sorted.sort_unstable();
                let p99 = if n == 0 { 0 } else { sorted[(n - 1) * 99 / 100] };
                prop_assert_eq!(ledger.p99(), p99);
                prop_assert_eq!(ledger.max(), sorted.last().copied().unwrap_or(0));
            }
        }
    }
}
