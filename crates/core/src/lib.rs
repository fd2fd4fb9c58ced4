//! Shared foundations for the `rust-beyond-safety` workspace.
//!
//! The paper's evaluation reports CPU cycles measured with the time-stamp
//! counter on an Intel Xeon E5530; every experiment crate in this workspace
//! measures the same way through [`cycles`]. The remaining modules provide
//! statistics ([`stats`], [`histogram`]), plain-text result tables
//! ([`table`]), the [`exchange`] linearity marker used by the SFI layer
//! to constrain what may cross a protection-domain boundary, the
//! counting allocator ([`alloc_count`]) the zero-allocation claims are
//! measured with, and the workspace's locks ([`sync`]), which do not
//! poison.
//!
//! `unsafe` is confined to the two modules that need it: the time-stamp
//! counter intrinsics and the `GlobalAlloc` impl.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod alloc_count;
#[allow(unsafe_code)]
pub mod cycles;
pub mod exchange;
pub mod fault;
pub mod histogram;
pub mod stats;
pub mod sync;
pub mod table;

pub use cycles::{cycles_per_ns, rdtsc, rdtscp_serialized, CycleTimer};
pub use exchange::Exchangeable;
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultSite};
pub use histogram::LogHistogram;
pub use stats::Summary;
pub use table::Table;
