//! Versioned state migration: the hook a live upgrade uses to carry
//! operator state across a schema change.
//!
//! A pipeline declares a *state schema* — an integer naming the layout
//! generation of its exported checkpoints — and every sealed snapshot
//! records the schema of the pipeline that produced it
//! ([`SnapshotMeta::schema`](crate::SnapshotMeta)). When an upgrade
//! swaps in a spec with a different schema, restoring the old snapshot
//! verbatim would hand the new code a layout it no longer understands;
//! falling back cold would destroy state an upgrade has no excuse to
//! lose. A [`StateMigrator`] is the middle path: a pure checkpoint →
//! checkpoint transformation, applied after the envelope verifies and
//! before the new pipeline imports, that reshapes old-layout state into
//! the new layout.
//!
//! Migrators are direction-aware: `can_migrate(from, to)` answers for a
//! specific ordered pair, so one migrator can support forward migration
//! only (rollback falls back to the old-schema snapshot that is still
//! buffered) or both directions. An upgrade whose schemas differ and
//! that is handed no capable migrator is rejected up front with a typed
//! error, before any state is sealed.

use crate::ctx::Checkpoint;
use std::fmt;

/// Why a checkpoint could not be migrated between schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateError {
    /// Schema the checkpoint was captured under.
    pub from: u32,
    /// Schema the migration was asked to produce.
    pub to: u32,
    /// Stable short reason (used in reports and JSON).
    pub reason: &'static str,
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migrating state schema {} -> {}: {}",
            self.from, self.to, self.reason
        )
    }
}

impl std::error::Error for MigrateError {}

/// A checkpoint-to-checkpoint schema transformation.
///
/// Implementations must be pure (no I/O, no ambient state): the upgrade
/// path may run a migrator once per worker and expects identical output
/// for identical input, which is what keeps upgrade experiments
/// byte-stable under a fixed seed.
pub trait StateMigrator: Send + Sync {
    /// Whether this migrator can transform a checkpoint captured under
    /// schema `from` into one importable under schema `to`. Asked once
    /// up front to validate the whole upgrade, and again per restore.
    fn can_migrate(&self, from: u32, to: u32) -> bool;

    /// Transforms `cp` from schema `from` to schema `to`.
    ///
    /// Called only for pairs `can_migrate` approved; returning an error
    /// anyway (e.g. the checkpoint's actual shape contradicts its
    /// declared schema) makes the restore fall through its fallback
    /// chain instead of importing garbage.
    fn migrate(&self, cp: &Checkpoint, from: u32, to: u32) -> Result<Checkpoint, MigrateError>;
}

/// A set of migrators tried in order — compose one per schema edge and
/// the first capable one handles the pair.
pub struct MigratorSet {
    migrators: Vec<std::sync::Arc<dyn StateMigrator>>,
}

impl MigratorSet {
    /// An empty set (handles nothing).
    pub fn new() -> Self {
        Self {
            migrators: Vec::new(),
        }
    }

    /// Adds a migrator; earlier entries win when several can handle the
    /// same pair.
    #[must_use]
    pub fn with(mut self, migrator: std::sync::Arc<dyn StateMigrator>) -> Self {
        self.migrators.push(migrator);
        self
    }
}

impl Default for MigratorSet {
    fn default() -> Self {
        Self::new()
    }
}

impl StateMigrator for MigratorSet {
    fn can_migrate(&self, from: u32, to: u32) -> bool {
        self.migrators.iter().any(|m| m.can_migrate(from, to))
    }

    fn migrate(&self, cp: &Checkpoint, from: u32, to: u32) -> Result<Checkpoint, MigrateError> {
        for m in &self.migrators {
            if m.can_migrate(from, to) {
                return m.migrate(cp, from, to);
            }
        }
        Err(MigrateError {
            from,
            to,
            reason: "no-migrator",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::checkpoint;
    use std::sync::Arc;

    struct Bump;
    impl StateMigrator for Bump {
        fn can_migrate(&self, from: u32, to: u32) -> bool {
            to == from + 1
        }
        fn migrate(&self, cp: &Checkpoint, _: u32, _: u32) -> Result<Checkpoint, MigrateError> {
            Ok(cp.clone())
        }
    }

    #[test]
    fn set_delegates_to_first_capable_member() {
        let set = MigratorSet::new().with(Arc::new(Bump));
        assert!(set.can_migrate(1, 2));
        assert!(!set.can_migrate(2, 1));
        let cp = checkpoint(&7u32);
        assert!(set.migrate(&cp, 1, 2).is_ok());
        let err = set.migrate(&cp, 2, 1).unwrap_err();
        assert_eq!(err.reason, "no-migrator");
        assert_eq!((err.from, err.to), (2, 1));
    }

    #[test]
    fn empty_set_handles_nothing() {
        let set = MigratorSet::default();
        assert!(!set.can_migrate(0, 1));
    }
}
