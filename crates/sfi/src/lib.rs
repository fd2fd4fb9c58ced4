//! Zero-copy software fault isolation (§3 of the paper).
//!
//! Traditional SFI either copies data across protection boundaries or tags
//! every heap object and validates the tag on each dereference (>100%
//! overhead). Rust's single ownership model removes the dilemma: once a
//! value is *moved* across a boundary, the sender provably holds no
//! reference to it — the compiler enforces at zero runtime cost what other
//! systems buy with copies or tag checks.
//!
//! What ownership alone does not give you is a *management plane*: domain
//! lifecycle, revocable interfaces, access control, and recovery of failed
//! domains. This crate is that management plane, implemented as an
//! ordinary library:
//!
//! - [`Domain`] / [`DomainManager`]: protection domains sharing the
//!   common process heap but no data ([`domain`]);
//! - [`RRef`]: remote references — smart pointers whose pointee stays in
//!   its home domain and is reached only via proxied invocation; holding
//!   an `RRef` is a revocable capability ([`rref`]);
//! - [`reftable`]: the per-domain reference table that owns every object
//!   exported by the domain; clearing it revokes every capability and
//!   frees every exported resource at once;
//! - [`policy`]: interposition on cross-domain calls (access control);
//! - recovery ([`domain`]): a panic inside a domain unwinds to the call
//!   boundary, fails the domain, clears its table, and runs the
//!   user-provided recovery function — the failure can be made
//!   transparent to clients (experiment E3 measures this path);
//! - [`tls`]: the thread-local current-domain marker (the paper uses
//!   scoped-tls the same way).
//!
//! Cross-domain argument semantics follow the paper exactly: borrowed
//! references are accessible to the target for the duration of the call;
//! owned arguments change ownership permanently; `RRef` arguments keep
//! their pointee in its home domain.

#![forbid(unsafe_code)]

pub mod backend;
pub mod channel;
pub mod domain;
pub mod error;
pub mod interface;
pub mod policy;
pub mod reftable;
pub mod rref;
pub mod stats;
pub mod tls;

pub use backend::{
    BackendKind, BackendStats, BackendTotals, CopyBoundary, CopyCostModel, Crossing,
    IsolationBackend, MpkCostModel, MpkSim, TypedSfi,
};
pub use channel::{channel, channel_metered, ChannelError, DomainReceiver, DomainSender};
pub use domain::{Domain, DomainManager, DomainState};
pub use error::RpcError;
pub use policy::{AclPolicy, AllowAll, DenyAll, Policy};
pub use rref::RRef;
pub use stats::DomainStats;
pub use tls::{current_domain, DomainId, ThreadAttachment, KERNEL_DOMAIN};
