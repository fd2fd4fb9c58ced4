//! rbs-runtime: a sharded multi-worker pipeline runtime with per-domain
//! fault isolation.
//!
//! This crate composes the rest of the workspace into the paper's
//! end-state: many packet-processing workers on one machine, each running
//! an untrusted network function pipeline inside a software fault
//! isolation domain, where a crash in one worker is invisible to the
//! others.
//!
//! Layout:
//!
//! - [`shard`] — RSS-style stable flow→worker mapping.
//! - [`worker`] — the worker thread: one [`rbs_sfi::Domain`], one
//!   [`rbs_netfx::Pipeline`] built from a [`rbs_netfx::PipelineSpec`],
//!   one bounded input queue.
//! - [`runtime`] — the [`ShardedRuntime`] dispatcher/supervisor:
//!   flow-hashes batches to workers, observes faults via
//!   [`rbs_sfi::DomainState`], recovers the domain, respawns the worker.
//! - [`supervisor`] — restart budgets, exponential backoff with
//!   deterministic jitter, the per-worker circuit breaker, and the
//!   supervisor event journal.
//! - [`stats`] — cumulative per-worker counters that survive respawns,
//!   plus the merged [`RuntimeReport`].
//! - [`deque`] — the work-stealing deque lanes trade work through: one
//!   lock around a `VecDeque`, so the crate holds no `unsafe` code.
//! - [`lane`] — the run-to-completion lane engine: N ingress lanes,
//!   each generating, processing, and recycling its own RSS slice with
//!   no central dispatcher, stealing across lanes when idle
//!   ([`LaneRuntime`]).
//! - [`tenant`] — the tenant contract: specs, breaker policy, ledgers,
//!   reports, and the typed outcome of a live upgrade.
//! - [`tenant_lanes`] — the tenant engine ([`TenantLaneRuntime`]): tenant
//!   domains placed onto lanes under admission control and per-tenant
//!   breakers. Between ticks it churns tenants and upgrades every
//!   tenant's chain at once, committing all of them or none.
//!
//! A seeded [`rbs_core::FaultPlan`](rbs_core::fault::FaultPlan) can be
//! installed via [`RuntimeConfig`] to inject deterministic panics, hangs,
//! torn channels, and delays at named sites — the substrate of the chaos
//! experiment. `faults: None` runs clean.
//!
//! ```
//! use rbs_netfx::{Operator, PacketBatch, PipelineSpec};
//! use rbs_runtime::{RuntimeConfig, ShardedRuntime};
//!
//! struct Nop;
//! impl Operator for Nop {
//!     fn name(&self) -> &str {
//!         "nop"
//!     }
//!     fn process(&mut self, batch: PacketBatch) -> PacketBatch {
//!         batch
//!     }
//! }
//!
//! let spec = PipelineSpec::new().stage(|| Nop);
//! let mut rt = ShardedRuntime::new(
//!     spec,
//!     RuntimeConfig {
//!         workers: 2,
//!         queue_capacity: 8,
//!         ..RuntimeConfig::default()
//!     },
//! )
//! .unwrap();
//! rt.dispatch(PacketBatch::new()).unwrap();
//! let report = rt.shutdown();
//! assert_eq!(report.faults, 0);
//! ```

#![forbid(unsafe_code)]

pub mod deque;
pub mod lane;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod supervisor;
pub mod tenant;
pub mod tenant_lanes;
pub mod worker;

pub use deque::{LaneDeque, Steal, Stealer};
pub use lane::{
    LaneConfig, LaneEvent, LaneLedgerSnapshot, LaneOutcome, LaneReport, LaneRuntime,
    LaneUpgradeError, LaneUpgradeOutcome,
};
pub use rbs_checkpoint::{Buffered, SnapshotMeta};
pub use rbs_sfi::backend::{BackendKind, BackendTotals};
pub use runtime::{RuntimeConfig, RuntimeError, ShardedRuntime};
pub use shard::{shard_for, shard_of_packet, shard_of_packet_mut};
pub use stats::{RuntimeReport, WorkerSnapshot, WorkerStats};
pub use supervisor::{BreakerState, RestartPolicy, SupervisorEvent, SupervisorEventKind};
pub use tenant::{
    default_tenant_chain, BreakerPhase, BreakerPolicy, LaneOccupancy, RebuildRecord,
    TenantChainFactory, TenantError, TenantEvent, TenantEventKind, TenantLedger, TenantOutcome,
    TenantReport, TenantSpec, UpgradeError, UpgradeOutcome,
};
#[doc(hidden)]
pub use tenant::{TenantConfig, TenantRuntime};
pub use tenant_lanes::{TenantLaneConfig, TenantLaneRuntime};
pub use worker::WorkItem;
