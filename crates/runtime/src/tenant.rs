//! The tenant vocabulary: what a tenant is promised, what the engine
//! records about it, and what a finished run reports.
//!
//! The paper's pitch is that Rust gives systems *fine-grained* fault
//! boundaries at near-zero cost (§2, §4). The lane runtime exploits that
//! per **shard**; [`TenantLaneRuntime`] exploits it per **customer**: it
//! multiplexes N tenants onto L run-to-completion lanes and guarantees
//! that one misbehaving tenant — a flood, a fault-looping operator
//! chain, or a CPU hog — cannot take the others' SLA down with it. The
//! types here are the contract of its three mechanisms:
//!
//! - **Steering** — a Maglev table over the present tenants (weighted by
//!   [`TenantSpec::weight`]) maps every packet's flow hash to exactly one
//!   tenant, so attribution is decided at ingress and every packet lands
//!   in exactly one tenant's conservation ledger. Consistent hashing
//!   bounds the collateral of tenant churn (see the `disruption_bound`
//!   tests in `rbs-maglev`): removing one tenant remaps its own entries
//!   plus at most ~`table_size / N` innocent ones ([`RebuildRecord`]).
//! - **Admission** — a [`TickBucket`](rbs_netfx::TickBucket) per tenant
//!   clocked by the runtime's logical tick sheds a flood *before* it
//!   queues (`shed_admission`), and a per-lane high-water mark sheds the
//!   lowest-priority queued work when backlog builds anyway
//!   (`shed_backpressure`). Both are integer-deterministic: the same
//!   offered trace sheds the same packets on every run.
//! - **Breakers** — each tenant's chain runs in its own protection
//!   domain. Faults and per-tick work-budget overruns accumulate
//!   *strikes*: enough strikes throttle the tenant's admission rate
//!   ([`BreakerPhase::Throttled`]), more open the breaker outright
//!   ([`BreakerPhase::Open`]: domain destroyed, queued work shed, ingress
//!   shed at zero cost). After `open_ticks` the breaker half-opens and
//!   probes with a warm-restored chain; clean probes close it, a faulty
//!   probe reopens it ([`TenantEventKind`] is the journal's alphabet).
//!   The victim tenants never see any of this except as a few remapped
//!   Maglev entries.
//!
//! Conservation is exact and per-tenant ([`TenantLedger`]): `offered ==
//! processed + lost + shed` where `shed` itemizes admission,
//! open-breaker, backpressure and removal sheds. E15 sweeps this
//! machinery against flood, fault-loop and slow-operator aggressors and
//! asserts victims keep ≥ 99% goodput.
//!
//! Between ticks the engine can also move every tenant onto a new chain
//! at once ([`TenantLaneRuntime::upgrade`]): [`UpgradeError`] is why it
//! refused, [`UpgradeOutcome`] how it ended. E14 drives it.

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::RangeInclusive;
use std::sync::Arc;

use rbs_checkpoint::Buffered;
use rbs_core::fault::{FaultPlan, FaultSite};
use rbs_maglev::{MaglevTable, TableError};
use rbs_netfx::operators::DstPortFilter;
use rbs_netfx::{FlowTracker, PacketBatch, PipelineSpec, SourceNat};

use crate::tenant_lanes::{TenantLaneConfig, TenantLaneRuntime};

/// Builds one tenant's operator chain. Called at construction, on every
/// re-add and by every upgrade; the spec it returns is reused for every
/// respawn until the next of those.
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

/// Tenants the stock chain can give a NAT identity of their own: one per
/// host address of 203.0.113.10..=.255 in each port band.
pub(crate) const STOCK_CHAIN_MAX_TENANTS: usize = NAT_HOSTS * NAT_PORT_BANDS.len();

/// Host addresses 203.0.113.10..=.255.
const NAT_HOSTS: usize = 246;

/// Disjoint source-port ranges, one tenant per host address in each.
const NAT_PORT_BANDS: [RangeInclusive<u16>; 2] = [40_000..=50_000, 50_001..=60_001];

/// Tenant `idx`'s NAT identity under the stock chain — its external
/// address and source-port range — or `None` past the last one.
fn stock_nat_identity(idx: usize) -> Option<(Ipv4Addr, RangeInclusive<u16>)> {
    let ports = NAT_PORT_BANDS.get(idx / NAT_HOSTS)?.clone();
    let host = 10 + (idx % NAT_HOSTS) as u8;
    Some((Ipv4Addr::new(203, 0, 113, host), ports))
}

/// The stock tenant chain: a port-80/53 filter, a per-tenant source NAT
/// and a flow tracker — the stateful trio whose reclamation the churn
/// tests audit.
///
/// Each of the first 492 indices gets a NAT identity of its own: index
/// `i < 246` translates to `203.0.113.(10 + i)`, ports `40000..=50000`,
/// and index `246 + i` to the same address, ports `50001..=60001`. The
/// `stock_nat_identities_are_pairwise_disjoint` test checks that no two
/// indices share an address and port, and [`TenantLaneRuntime::new`]
/// refuses a larger population on this chain with
/// [`TenantError::BadConfig`].
///
/// # Panics
///
/// For `idx >= 492`: no NAT identity is left.
pub fn default_tenant_chain(idx: usize, _spec: &TenantSpec) -> PipelineSpec {
    let (nat_ip, ports) = stock_nat_identity(idx).expect("tenant index beyond the stock chain");
    PipelineSpec::new()
        .stage(|| DstPortFilter::new(vec![80, 53]))
        .stage(move || SourceNat::new(nat_ip, Ipv4Addr::new(10, 0, 0, 0), 8, ports.clone()))
        .stage(|| FlowTracker::new(4_096))
        .with_state_schema(1)
}

/// Errors from [`TenantLaneRuntime`] construction or churn.
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

/// Why [`TenantLaneRuntime::upgrade`] refused a target before touching
/// any tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeError {
    /// The target changes a tenant's state schema and no migrator was
    /// passed that can carry state across the pair.
    IncompatibleSchema {
        /// The running chain's state schema.
        from: u32,
        /// The target chain's state schema.
        to: u32,
    },
}

impl fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpgradeError::IncompatibleSchema { from, to } => write!(
                f,
                "no migrator can carry state from schema {from} to schema {to}"
            ),
        }
    }
}

impl std::error::Error for UpgradeError {}

/// How an accepted [`TenantLaneRuntime::upgrade`] ended. Either way the
/// fleet is uniform: every present tenant runs the target, or every one
/// runs the chain it ran before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeOutcome {
    /// Every present tenant runs the target chain.
    Committed {
        /// Present tenants moved onto the target.
        tenants: usize,
        /// State items the targets hold after a schema change: what the
        /// migrator carried and the target kept, not what was sealed.
        state_items_migrated: u64,
    },
    /// One tenant's seal, migration or build failed, and every target
    /// chain built so far was discarded.
    RolledBack {
        /// The tenant whose staging failed.
        failed_tenant: usize,
        /// Tenants staged before it, whose targets were discarded.
        discarded: usize,
    },
}

impl UpgradeOutcome {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            UpgradeOutcome::Committed { .. } => "committed",
            UpgradeOutcome::RolledBack { .. } => "rolled-back",
        }
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
    /// at one lane.
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
    /// The tenant's live domain died; the strike's own events follow.
    Faulted {
        /// Where the domain died.
        site: FaultSite,
    },
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
    /// A respawn refused a buffered snapshot and fell back past it.
    SnapshotRejected {
        /// The buffer it refused.
        which: Buffered,
        /// Why: the [`RestoreError::kind`](rbs_checkpoint::RestoreError::kind)
        /// the image failed to open with, or `"snapshot"` when the chain
        /// refused the state.
        reason: &'static str,
    },
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

impl RebuildRecord {
    /// The rebuild a `Removed` or `Added` event records.
    pub(crate) fn of(event: &TenantEvent) -> Option<Self> {
        let (action, remapped_entries) = match event.kind {
            TenantEventKind::Removed { remapped_entries } => ("remove", remapped_entries),
            TenantEventKind::Added {
                remapped_entries, ..
            } => ("add", remapped_entries),
            _ => return None,
        };
        Some(Self {
            tick: event.tick,
            action,
            tenant: event.tenant,
            remapped_entries,
        })
    }
}

/// The supervision counts of a [`TenantOutcome`]: a fold of the
/// tenant's journal, the one place each of them is recorded.
#[derive(Default)]
pub(crate) struct SupervisionCounts {
    pub(crate) faults: u64,
    pub(crate) respawns: u64,
    pub(crate) opens: u64,
    pub(crate) throttles: u64,
    pub(crate) warm_restores: u64,
    pub(crate) cold_restores: u64,
    pub(crate) state_items_restored: u64,
}

impl SupervisionCounts {
    pub(crate) fn fold<'a>(journal: impl IntoIterator<Item = &'a TenantEvent>) -> Self {
        let mut n = Self::default();
        for e in journal {
            match e.kind {
                TenantEventKind::Faulted { .. } => n.faults += 1,
                TenantEventKind::Throttled { .. } => n.throttles += 1,
                TenantEventKind::Opened { .. } | TenantEventKind::Reopened => n.opens += 1,
                TenantEventKind::Respawned { warm: true, items } => {
                    n.respawns += 1;
                    n.warm_restores += 1;
                    n.state_items_restored += items;
                }
                TenantEventKind::Respawned { warm: false, .. } => {
                    n.respawns += 1;
                    n.cold_restores += 1;
                }
                TenantEventKind::HalfOpened
                | TenantEventKind::Closed
                | TenantEventKind::SnapshotRejected { .. }
                | TenantEventKind::Removed { .. }
                | TenantEventKind::Added { .. } => {}
            }
        }
        n
    }
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
    /// Committed upgrades behind the chain the tenant runs: 0 for the
    /// chain it started on.
    pub generation: u64,
    /// Domain faults absorbed: the journal's `Faulted` events.
    pub faults: u64,
    /// Chain rebuilds after faults or half-open probes (`Respawned`).
    pub respawns: u64,
    /// Times the breaker opened (`Opened` and `Reopened`).
    pub opens: u64,
    /// Times the breaker throttled (`Throttled`).
    pub throttles: u64,
    /// Respawns restored from a verified snapshot (`Respawned`, warm).
    pub warm_restores: u64,
    /// Respawns that fell back to a cold build (`Respawned`, cold).
    pub cold_restores: u64,
    /// State items the warm `Respawned` events came back with, summed.
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

/// Everything a finished [`TenantLaneRuntime`] observed.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Per-tenant outcomes, in tenant index order.
    pub tenants: Vec<TenantOutcome>,
    /// Deepest queue (in batches) each lane ever reached.
    pub lane_depth_hwm: Vec<usize>,
    /// Batches shed by the lane high-water mark.
    pub hwm_sheds: u64,
    /// Every Maglev rebuild: the journal's `Removed` and `Added` events.
    pub rebuilds: Vec<RebuildRecord>,
    /// The full supervision journal, in (tick, tenant, firing) order.
    pub events: Vec<TenantEvent>,
    /// Ticks the runtime ran (including the drain at finish).
    pub ticks: u64,
    /// Per-lane placement and steal observability.
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

// Source compatibility for dpbench's frozen adapter; delete with the
// benchmark-only follow-up that drops `tenant_reference_window`.

/// The fields `crates/benchmark/src/engines.rs` sets on the removed
/// single-threaded engine's configuration.
#[doc(hidden)]
#[derive(Clone, Default)]
pub struct TenantConfig {
    pub tenants: Vec<TenantSpec>,
    /// Ignored: the forwarded engine always runs one lane.
    pub lanes: usize,
    pub table_size: usize,
    /// Accepted and ignored: the only value any caller ever passed was
    /// "never the limit".
    pub lane_capacity: u64,
    pub queue_hwm: usize,
    /// The one field the adapter leaves to `..TenantConfig::default()`,
    /// which `clippy::needless_update` would otherwise reject there.
    pub breaker: BreakerPolicy,
    pub snapshot_every_ticks: u64,
    pub faults: Option<Arc<FaultPlan>>,
}

/// [`TenantLaneRuntime`] at one lane, under the removed engine's name.
#[doc(hidden)]
pub struct TenantRuntime(TenantLaneRuntime);

impl TenantRuntime {
    pub fn new(config: TenantConfig) -> Result<Self, TenantError> {
        TenantLaneRuntime::new(TenantLaneConfig {
            tenants: config.tenants,
            lanes: 1,
            table_size: config.table_size,
            queue_hwm: config.queue_hwm,
            breaker: config.breaker,
            snapshot_every_ticks: config.snapshot_every_ticks,
            steal: false,
            faults: config.faults,
            ..TenantLaneConfig::default()
        })
        .map(Self)
    }

    pub fn offer(&mut self, batch: PacketBatch) {
        self.0.offer(batch)
    }

    pub fn step(&mut self) {
        self.0.step()
    }

    pub fn remove_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
        self.0.remove_tenant(idx)
    }

    pub fn add_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
        self.0.add_tenant(idx)
    }

    pub fn table(&self) -> &MaglevTable {
        self.0.table()
    }

    pub fn steering_lookups(&self) -> u64 {
        self.0.steering_lookups()
    }

    pub fn finish(self) -> TenantReport {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    mod stock_chain {
        use std::net::Ipv4Addr;

        use rbs_netfx::flow::packet_flow_hash;
        use rbs_netfx::headers::ethernet::MacAddr;
        use rbs_netfx::{FiveTuple, Packet, PacketBatch};

        use crate::tenant::{
            default_tenant_chain, stock_nat_identity, TenantError, TenantSpec,
            STOCK_CHAIN_MAX_TENANTS,
        };
        use crate::tenant_lanes::{TenantLaneConfig, TenantLaneRuntime};

        fn population(n: usize) -> Vec<TenantSpec> {
            (0..n).map(|i| TenantSpec::new(format!("t{i}"))).collect()
        }

        /// A port-80 packet from inside the NAT's 10.0.0.0/8.
        fn http(src_host: u16, sport: u16) -> Packet {
            let [hi, lo] = src_host.to_be_bytes();
            let mut p = Packet::build_udp(
                MacAddr::ZERO,
                MacAddr::ZERO,
                Ipv4Addr::new(10, 0, hi, lo),
                Ipv4Addr::new(192, 0, 2, 1),
                sport,
                80,
                16,
            );
            p.set_cached_flow_hash(packet_flow_hash(&p));
            p
        }

        /// No two indices share an address and a port, and the first 246
        /// keep the identities every committed record was measured with.
        #[test]
        fn stock_nat_identities_are_pairwise_disjoint() {
            assert_eq!(STOCK_CHAIN_MAX_TENANTS, 492);
            let ids: Vec<_> = (0..STOCK_CHAIN_MAX_TENANTS)
                .map(|i| stock_nat_identity(i).expect("below the maximum"))
                .collect();
            for (i, (ip, ports)) in ids.iter().enumerate() {
                for (j, (other_ip, other_ports)) in ids.iter().enumerate().skip(i + 1) {
                    let overlap =
                        ports.start() <= other_ports.end() && other_ports.start() <= ports.end();
                    assert!(ip != other_ip || !overlap, "tenants {i} and {j} share {ip}");
                }
            }
            for (idx, host) in [(0, 10), (245, 255)] {
                let legacy = (Ipv4Addr::new(203, 0, 113, host), 40_000..=50_000);
                assert_eq!(stock_nat_identity(idx), Some(legacy));
            }
            assert_eq!(stock_nat_identity(STOCK_CHAIN_MAX_TENANTS), None);
        }

        /// 300 tenants on the stock chain — past the 246 at which a
        /// `u8` host byte once overflowed — each translate into an
        /// identity of their own, and the runtime carries them all.
        #[test]
        fn three_hundred_tenants_translate_to_disjoint_identities() {
            const TENANTS: usize = 300;
            let mut translated = std::collections::HashSet::new();
            for (idx, spec) in population(TENANTS).iter().enumerate() {
                let packet = http(1, 1_024);
                let out = default_tenant_chain(idx, spec)
                    .build()
                    .run_batch(PacketBatch::from_packets(vec![packet]));
                let flow = FiveTuple::of(out.iter().next().expect("forwarded")).unwrap();
                let (ip, ports) = stock_nat_identity(idx).unwrap();
                assert_eq!(flow.src_ip, ip, "tenant {idx}");
                assert!(ports.contains(&flow.src_port), "tenant {idx}");
                assert!(
                    translated.insert((flow.src_ip, flow.src_port)),
                    "tenant {idx} reuses {}:{}",
                    flow.src_ip,
                    flow.src_port
                );
            }

            let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
                tenants: population(TENANTS),
                lanes: 1,
                table_size: 1_009,
                queue_hwm: 1_024,
                ..TenantLaneConfig::default()
            })
            .expect("300 tenants on the stock chain");
            for wave in 0..4u16 {
                let batch = (0..1_024u16).map(|i| http(i % 200 + 1, 1_024 + wave * 1_024 + i));
                rt.offer(batch.collect());
                rt.step();
            }
            let report = rt.finish();
            assert_eq!(report.offered(), 4 * 1_024);
            assert_eq!(report.unaccounted_packets(), 0);
            for t in &report.tenants {
                assert_eq!(t.ledger.out, t.ledger.offered, "{} dropped traffic", t.name);
            }

            let refused = TenantLaneRuntime::new(TenantLaneConfig {
                tenants: population(STOCK_CHAIN_MAX_TENANTS + 1),
                ..TenantLaneConfig::default()
            });
            assert!(matches!(refused, Err(TenantError::BadConfig(_))));
        }
    }

    mod journal_fold {
        use rbs_checkpoint::Buffered;
        use rbs_core::fault::FaultSite;

        use crate::tenant::TenantEventKind::*;
        use crate::tenant::{RebuildRecord, SupervisionCounts, TenantEvent, TenantEventKind};

        /// The fold's counts as one row: faults, respawns, opens,
        /// throttles, warm restores, cold restores, items restored.
        fn row(n: SupervisionCounts) -> [u64; 7] {
            [
                n.faults,
                n.respawns,
                n.opens,
                n.throttles,
                n.warm_restores,
                n.cold_restores,
                n.state_items_restored,
            ]
        }

        /// One tenant's journal holding every event kind, each event with
        /// what it alone folds to; the whole journal folds to the sum, and
        /// its churn to its rebuilds in order.
        #[test]
        fn each_event_kind_folds_to_its_count() {
            let fault = |site| Faulted { site };
            let rejected = |which, reason| SnapshotRejected { which, reason };
            let respawned = |warm, items| Respawned { warm, items };
            let removed = |remapped_entries| Removed { remapped_entries };
            let added = |epoch, remapped_entries| Added {
                epoch,
                remapped_entries,
            };
            let table: [(u64, TenantEventKind, [u64; 7]); 15] = [
                (1, fault(FaultSite::Operator(0)), [1, 0, 0, 0, 0, 0, 0]),
                (1, Throttled { strikes: 2 }, [0, 0, 0, 1, 0, 0, 0]),
                (1, fault(FaultSite::CheckpointEncode), [1, 0, 0, 0, 0, 0, 0]),
                (1, Opened { strikes: 4 }, [0, 0, 1, 0, 0, 0, 0]),
                (17, HalfOpened, [0; 7]),
                (17, rejected(Buffered::Latest, "checksum-mismatch"), [0; 7]),
                // The half-open probe's respawn is a respawn.
                (17, respawned(true, 48), [0, 1, 0, 0, 1, 0, 48]),
                (18, fault(FaultSite::UpgradeQuiesce), [1, 0, 0, 0, 0, 0, 0]),
                // A failed probe reopens: one more opening.
                (18, Reopened, [0, 0, 1, 0, 0, 0, 0]),
                (34, HalfOpened, [0; 7]),
                (34, rejected(Buffered::Previous, "snapshot"), [0; 7]),
                // A cold chain's items were never restored.
                (34, respawned(false, 5), [0, 1, 0, 0, 0, 1, 0]),
                (35, Closed, [0; 7]),
                (40, removed(36), [0; 7]),
                (50, added(1, 35), [0; 7]),
            ];
            let journal: Vec<TenantEvent> = (table.iter())
                .map(|&(tick, kind, _)| TenantEvent {
                    tick,
                    tenant: 3,
                    kind,
                })
                .collect();
            for (event, (_, _, counts)) in journal.iter().zip(&table) {
                assert_eq!(row(SupervisionCounts::fold([event])), *counts, "{event:?}");
            }
            assert_eq!(
                row(SupervisionCounts::fold(&journal)),
                [3, 2, 2, 1, 1, 1, 48]
            );

            let rebuilds: Vec<_> = journal.iter().filter_map(RebuildRecord::of).collect();
            let rebuild = |tick, action, remapped_entries| RebuildRecord {
                tick,
                action,
                tenant: 3,
                remapped_entries,
            };
            assert_eq!(
                rebuilds,
                [rebuild(40, "remove", 36), rebuild(50, "add", 35)]
            );
        }
    }

    mod delay_ledger {
        use crate::tenant::DelayLedger;
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
