//! rbs-runtime: two execution engines that run packet pipelines inside
//! software fault isolation domains.
//!
//! This crate composes the rest of the workspace into the paper's
//! end-state: many packet-processing chains on one machine, each running
//! an untrusted network function pipeline inside its own protection
//! domain, where a crash in one is invisible to the others.
//!
//! Layout:
//!
//! - [`deque`] — the work-stealing deque lanes trade work through: one
//!   lock around a `VecDeque`, so the crate holds no `unsafe` code.
//! - [`lane`] — the run-to-completion lane engine: N ingress lanes,
//!   each generating, processing, and recycling its own RSS slice with
//!   no central hand-off, stealing across lanes when idle
//!   ([`LaneRuntime`]).
//! - [`tenant`] — the tenant contract: specs, breaker policy, ledgers,
//!   reports, and the typed outcome of a live upgrade.
//! - [`tenant_lanes`] — the tenant engine ([`TenantLaneRuntime`]): tenant
//!   domains placed onto lanes under admission control and per-tenant
//!   breakers, with snapshots and warm restore. Between ticks it churns
//!   tenants and upgrades every tenant's chain at once, committing all of
//!   them or none.
//!
//! A seeded [`rbs_core::FaultPlan`](rbs_core::fault::FaultPlan) in either
//! engine's config injects deterministic panics and delays at named
//! sites — the substrate of the chaos experiments. `faults: None` runs
//! clean.
//!
//! ```
//! use std::sync::Arc;
//!
//! use rbs_netfx::{Operator, PacketBatch, PacketGen, PipelineSpec, TrafficConfig};
//! use rbs_runtime::{TenantLaneConfig, TenantLaneRuntime, TenantSpec};
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
//! let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
//!     tenants: vec![TenantSpec::new("a"), TenantSpec::new("b")],
//!     lanes: 2,
//!     chain: Some(Arc::new(|_, _| PipelineSpec::new().stage(|| Nop))),
//!     ..TenantLaneConfig::default()
//! })
//! .unwrap();
//! rt.offer(PacketGen::new(TrafficConfig::default()).next_batch(64));
//! rt.step();
//! let report = rt.finish();
//! assert_eq!(report.out(), 64);
//! assert_eq!(report.unaccounted_packets(), 0);
//! ```

#![forbid(unsafe_code)]

pub mod deque;
pub mod lane;
pub mod tenant;
pub mod tenant_lanes;

pub use deque::{LaneDeque, Steal, Stealer};
pub use lane::{LaneConfig, LaneEvent, LaneLedgerSnapshot, LaneOutcome, LaneReport, LaneRuntime};
pub use rbs_checkpoint::{Buffered, SnapshotMeta};
pub use rbs_sfi::backend::{BackendKind, BackendTotals};
pub use tenant::{
    default_tenant_chain, BreakerPhase, BreakerPolicy, LaneOccupancy, RebuildRecord,
    TenantChainFactory, TenantError, TenantEvent, TenantEventKind, TenantLedger, TenantOutcome,
    TenantReport, TenantSpec, UpgradeError, UpgradeOutcome,
};
#[doc(hidden)]
pub use tenant::{TenantConfig, TenantRuntime};
pub use tenant_lanes::{TenantLaneConfig, TenantLaneRuntime};
