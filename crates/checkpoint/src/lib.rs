//! Automatic checkpointing for arbitrary data structures (§5).
//!
//! Checkpointing, transactions, and replication all need to snapshot
//! pointer-linked structures in memory. In a conventional language a
//! naïve traversal duplicates every object reachable through more than
//! one pointer (the paper's Figure 3b), and the standard fix — a global
//! set of visited addresses — taxes every node with a hash lookup.
//!
//! Rust collapses the problem: by default every reference is the unique
//! owner of its pointee, so traversal without any bookkeeping is already
//! correct. Aliasing exists only where the type says so (`Rc`/`Arc`), and
//! that is the one place dedup logic is needed. [`CkRc`]/[`CkArc`] carry
//! an internal *epoch mark*: "sets an internal flag the first time
//! checkpoint() is called on the object and checks this flag to avoid
//! creating additional copies when graph traversal hits the object again
//! via a different alias" — O(1) per alias hit, no global table.
//!
//! Crate layout:
//!
//! - [`snapshot`]: the serialized value representation and its metrics;
//! - [`traits`]: the [`Checkpointable`] trait and impls for scalars and
//!   standard containers (the paper's "compiler plugin" induction);
//! - [`ckrc`] / [`ckarc`]: the alias-aware shared pointers (single- and
//!   multi-threaded), plus `Mutex`/`RefCell` support for shared mutable
//!   state;
//! - [`ctx`]: checkpoint/restore drivers. [`DedupMode`] selects between
//!   the epoch flag, a conventional address set, and no dedup at all, so
//!   experiment E6 can compare all three on identical data;
//! - [`checkpointable!`](crate::checkpointable): a `macro_rules!` stand-in
//!   for the paper's compiler plugin, generating the inductive impl for
//!   user structs;
//! - [`diff`]: structural deltas between checkpoints — subtree
//!   replacements, and byte runs inside `Bytes` blobs;
//! - [`envelope`] / [`store`]: sealed snapshots with integrity metadata
//!   (checksum footer, monotonic epochs, typed [`RestoreError`]) and the
//!   double-buffered full/delta [`SnapshotStore`] the runtime's warm
//!   recovery restores from;
//! - [`migrate`]: the [`StateMigrator`] hook live upgrades use to carry
//!   snapshots across a state-schema change instead of restarting cold.
//!
//! # Quickstart
//!
//! ```
//! use rbs_checkpoint::{checkpoint, restore, CkRc};
//!
//! // A rule shared by two table entries (aliasing, visible in the type).
//! let shared = CkRc::new(String::from("drop tcp:22"));
//! let table = vec![shared.clone(), shared.clone()];
//!
//! let cp = checkpoint(&table);
//! assert_eq!(cp.stats.shared_hits, 1, "second alias reused the first copy");
//!
//! let restored: Vec<CkRc<String>> = restore(&cp).unwrap();
//! assert!(CkRc::ptr_eq(&restored[0], &restored[1]), "sharing is rebuilt");
//! ```

#![forbid(unsafe_code)]

pub mod ckarc;
pub mod ckrc;
pub mod codec;
pub mod ctx;
pub mod derive;
pub mod diff;
pub mod envelope;
pub mod migrate;
pub mod snapshot;
pub mod store;
pub mod traits;
pub mod txn;

pub use ckarc::CkArc;
pub use ckrc::CkRc;
pub use codec::{decode, decode_delta, encode, encode_delta, CodecError};
pub use ctx::{
    checkpoint, checkpoint_scope, checkpoint_with_mode, restore, restore_scope, Checkpoint,
    CheckpointCtx, CheckpointStats, DedupMode, RestoreCtx,
};
pub use diff::{apply, apply_in_place, byte_runs, diff, BlobView, Delta};
pub use envelope::{RestoreError, SnapshotMeta};
pub use migrate::{MigrateError, MigratorSet, StateMigrator};
pub use snapshot::{Snapshot, SnapshotError};
pub use store::{BaseId, Buffered, SealedSnapshot, SnapshotSource, SnapshotStore, StoreStats};
pub use traits::Checkpointable;
pub use txn::{with_transaction, Transaction, TxnAborted};
