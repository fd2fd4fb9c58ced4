//! # rust-beyond-safety
//!
//! A reproduction of *System Programming in Rust: Beyond Safety* (HotOS '17).
//!
//! The paper argues that Rust's linear type system enables capabilities that go
//! beyond memory safety and that are impractical to implement efficiently in
//! conventional languages. This workspace builds the paper's three prototypes,
//! plus every substrate they depend on:
//!
//! - **Isolation** ([`sfi`]): zero-copy software fault isolation. Protection
//!   domains share a heap but exchange data only by *moving* ownership across
//!   [`sfi::RRef`] remote references; a failed domain is recovered by clearing
//!   its reference table and re-initialising it.
//! - **Analysis** (the `rbs-ifc` crate): static information flow control by
//!   verifying an abstract interpretation of the program in which every value
//!   is a security label. Move semantics make the analysis precise without
//!   alias analysis. It is the paper's §4 reproduction, with its own examples
//!   and tests; this facade re-exports the dataplane and does not link it.
//! - **Automation** ([`checkpoint`]): automatic checkpointing of arbitrary
//!   pointer-linked data structures. Unique ownership makes traversal trivially
//!   correct; only explicitly aliased [`checkpoint::CkRc`] nodes need (O(1))
//!   dedup handling.
//!
//! Substrates: [`netfx`] is a NetBricks-style packet-processing framework with
//! a synthetic traffic generator, [`maglev`] is a Maglev consistent-hashing
//! load balancer network function, and [`fwtrie`] is the firewall rule trie of
//! the paper's Figure 3. The [`runtime`] crate composes them into two
//! engines, each running every pipeline inside its own [`sfi`] domain and
//! healing a panic (domain recovery + respawn) without disturbing the rest:
//!
//! - [`runtime::LaneRuntime`], run-to-completion lanes that each generate
//!   their own RSS slice and steal from one another when idle;
//! - [`runtime::TenantLaneRuntime`], tenant domains placed onto lanes under
//!   admission control and per-tenant breakers, with snapshots, warm restore
//!   and ledgers that are byte-deterministic at any lane count; between
//!   ticks it upgrades every tenant's chain to a new spec, carrying state
//!   across a schema change, and commits all tenants or none.
//!
//! # Quickstart
//!
//! ```
//! use rust_beyond_safety::sfi::{DomainManager, RRef};
//!
//! let mgr = DomainManager::new();
//! let domain = mgr.create_domain("counter").unwrap();
//! let rref: RRef<u64> = domain.execute(|| RRef::new(&domain, 0u64)).unwrap();
//! let value = rref.invoke_mut(|v| { *v += 1; *v }).unwrap();
//! assert_eq!(value, 1);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! experiment harness that regenerates the paper's figures.

#![forbid(unsafe_code)]

pub mod isolated;

pub use isolated::IsolatedPipeline;
pub use rbs_checkpoint as checkpoint;
pub use rbs_core as core;
pub use rbs_fwtrie as fwtrie;
pub use rbs_maglev as maglev;
pub use rbs_netfx as netfx;
pub use rbs_runtime as runtime;
pub use rbs_sfi as sfi;
