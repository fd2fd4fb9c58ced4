//! The operator abstraction and pipeline composition.
//!
//! A pipeline is an ordered sequence of [`Operator`]s. A batch enters at
//! stage 0 and is processed *to completion* — each stage consumes the
//! batch by value and returns (usually the same) batch, exactly the
//! NetBricks execution model Figure 2 measures. Passing by value is what
//! lets the SFI layer later replace these calls with remote invocations
//! without copying a single packet.

use std::sync::Arc;

use rbs_checkpoint::diff::{Delta, Replacement, Target};
use rbs_checkpoint::{
    checkpoint_scope, restore_scope, BaseId, Checkpoint, CheckpointCtx, DedupMode, RestoreCtx,
    Snapshot, SnapshotError, SnapshotSource,
};

use crate::batch::PacketBatch;

/// A pipeline stage: consumes a batch, returns the batch to forward.
///
/// Implementations may drop packets (returning a smaller batch), rewrite
/// headers in place, or synthesize new packets. The batch is taken by
/// value: after calling `process`, the caller provably holds no reference
/// to any packet in it.
///
/// # Stateful operators
///
/// Operators whose correctness depends on accumulated state (a firewall
/// rule trie, a flow table) additionally implement the three state
/// hooks, making their state *extractable* as
/// [`Checkpointable`](rbs_checkpoint::Checkpointable) values and
/// *injectable* into a freshly built replica. The default
/// implementations declare the operator stateless: it exports nothing,
/// rejects injected state, and counts zero items. A supervisor uses the
/// hooks to snapshot a live pipeline periodically and re-instantiate it
/// *with* state after a crash (warm recovery).
///
/// A stage that can tell what it changed since an export additionally
/// overrides the two *incremental* hooks, [`Operator::checkpoint_base`]
/// and [`Operator::checkpoint_delta`]; by default a stage's delta is
/// "export me whole and compare".
pub trait Operator {
    /// Processes one batch to completion.
    fn process(&mut self, batch: PacketBatch) -> PacketBatch;

    /// A short human-readable stage name for diagnostics.
    fn name(&self) -> &str {
        "operator"
    }

    /// Snapshots this stage's live state into the pipeline-wide
    /// checkpoint traversal, or `None` for stateless stages. Aliased
    /// nodes (`CkRc`/`CkArc`) deduplicate through `ctx` exactly as in a
    /// standalone checkpoint.
    fn checkpoint_state(&self, _ctx: &mut CheckpointCtx) -> Option<Snapshot> {
        None
    }

    /// [`Operator::checkpoint_state`] as the *base* of deltas to come: a
    /// stage that tracks its changes starts over from this export.
    /// `spent` is this stage's snapshot in the base being replaced, whose
    /// buffers the stage may reuse.
    fn checkpoint_base(
        &mut self,
        ctx: &mut CheckpointCtx,
        _spent: Option<Snapshot>,
    ) -> Option<Snapshot> {
        self.checkpoint_state(ctx)
    }

    /// How this stage's state now differs from `base`, the snapshot its
    /// last [`Operator::checkpoint_base`] returned — without exporting
    /// the state. A stage may take the buffer in `runs` to build a run
    /// list in. The default knows nothing and says [`StageDelta::Whole`].
    fn checkpoint_delta(&self, _base: &Snapshot, _runs: &mut Vec<u8>) -> StageDelta {
        StageDelta::Whole
    }

    /// Re-injects state captured by [`Operator::checkpoint_state`] into
    /// this (freshly built) stage. Stateless stages reject injection:
    /// receiving state they never exported means the snapshot belongs
    /// to a different pipeline shape.
    fn restore_state(
        &mut self,
        _snap: &Snapshot,
        _ctx: &mut RestoreCtx<'_>,
    ) -> Result<(), SnapshotError> {
        Err(SnapshotError::TypeMismatch {
            expected: "stateless stage",
            found: "stage state",
        })
    }

    /// Number of state items (rules, flows, table entries) this stage
    /// currently holds — the unit of state-loss accounting after a
    /// crash. Stateless stages report zero.
    fn state_items(&self) -> u64 {
        0
    }
}

/// A stage's answer to [`Operator::checkpoint_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageDelta {
    /// The state is what the base holds.
    Unchanged,
    /// The state is a `Bytes` blob, like the base, and this run list
    /// ([`PathSeg::ByteRanges`](rbs_checkpoint::diff::PathSeg::ByteRanges))
    /// turns the base's into it: exactly the list a byte-for-byte
    /// comparison of the two blobs produces.
    Runs(Vec<u8>),
    /// The stage cannot tell: export it whole and compare.
    Whole,
}

// Closures are operators too; handy in tests and examples.
impl<F: FnMut(PacketBatch) -> PacketBatch> Operator for F {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        self(batch)
    }

    fn name(&self) -> &str {
        "closure"
    }
}

/// Per-stage traffic counters, index-aligned with
/// [`Pipeline::stage_names`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Packets that entered this stage.
    pub packets_in: u64,
    /// Packets this stage forwarded.
    pub packets_out: u64,
    /// Packets this stage removed (`in - out` on shrinking batches; a
    /// stage that synthesizes packets records zero drops).
    pub drops: u64,
}

/// An ordered chain of boxed operators.
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn Operator + Send>>,
    stage_stats: Vec<StageStats>,
    batches_processed: u64,
    packets_in: u64,
    packets_out: u64,
    /// The base export the stages' change tracking refers to, if any.
    base_id: Option<BaseId>,
}

impl Pipeline {
    /// Creates an empty pipeline (the identity function on batches).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage; builder style.
    #[expect(
        clippy::should_implement_trait,
        reason = "builder-style add, not arithmetic"
    )]
    pub fn add(mut self, op: impl Operator + Send + 'static) -> Self {
        self.add_boxed(Box::new(op));
        self
    }

    /// Appends a boxed stage.
    pub fn add_boxed(&mut self, op: Box<dyn Operator + Send>) {
        self.base_id = None;
        self.stages.push(op);
        self.stage_stats.push(StageStats::default());
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage names, in order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Runs one batch through every stage, batch-to-completion.
    pub fn run_batch(&mut self, batch: PacketBatch) -> PacketBatch {
        self.batches_processed += 1;
        self.packets_in += batch.len() as u64;
        let mut batch = batch;
        for (stage, stats) in self.stages.iter_mut().zip(&mut self.stage_stats) {
            let entering = batch.len() as u64;
            batch = stage.process(batch);
            let leaving = batch.len() as u64;
            stats.packets_in += entering;
            stats.packets_out += leaving;
            stats.drops += entering.saturating_sub(leaving);
        }
        self.packets_out += batch.len() as u64;
        batch
    }

    /// Per-stage counters, index-aligned with [`Pipeline::stage_names`].
    pub fn stage_stats(&self) -> &[StageStats] {
        &self.stage_stats
    }

    /// Exports the live state of every stateful stage as one checkpoint:
    /// the root is a `Seq` with one `Opt` per stage (`None` for
    /// stateless stages), and all stages share a single shared-node
    /// table so cross-stage aliasing deduplicates.
    pub fn export_state(&self) -> Checkpoint {
        checkpoint_scope(DedupMode::EpochFlag, |ctx| {
            Snapshot::Seq(
                self.stages
                    .iter()
                    .map(|stage| Snapshot::Opt(stage.checkpoint_state(ctx).map(Box::new)))
                    .collect(),
            )
        })
    }

    /// Re-injects state exported by [`Pipeline::export_state`] into this
    /// pipeline's stages, positionally. Fails when the checkpoint's
    /// stage count or per-stage statefulness does not match — a snapshot
    /// from a different pipeline shape must never be half-applied.
    pub fn import_state(&mut self, cp: &Checkpoint) -> Result<(), SnapshotError> {
        // Whatever is restored, it is not the state the base led to.
        self.base_id = None;
        let n_stages = self.stages.len();
        restore_scope(cp, |root, ctx| {
            let Snapshot::Seq(items) = root else {
                return Err(SnapshotError::TypeMismatch {
                    expected: "pipeline state seq",
                    found: root.kind_name(),
                });
            };
            if items.len() != n_stages {
                return Err(SnapshotError::WrongLength {
                    expected: n_stages,
                    got: items.len(),
                });
            }
            for (stage, snap) in self.stages.iter_mut().zip(items) {
                match snap {
                    Snapshot::Opt(None) => {}
                    Snapshot::Opt(Some(inner)) => stage.restore_state(inner, ctx)?,
                    other => {
                        return Err(SnapshotError::TypeMismatch {
                            expected: "per-stage opt",
                            found: other.kind_name(),
                        })
                    }
                }
            }
            Ok(())
        })
    }

    /// Total state items across all stages (see
    /// [`Operator::state_items`]).
    pub fn state_items(&self) -> u64 {
        self.stages.iter().map(|s| s.state_items()).sum()
    }

    /// State items held by the stages `cp` carries state for: what
    /// importing `cp` landed, without what the stages it leaves fresh
    /// (`Opt(None)`, say a migrator's dropped slot) were built with.
    pub fn carried_items(&self, cp: &Checkpoint) -> u64 {
        let Snapshot::Seq(slots) = &cp.root else {
            return 0;
        };
        (self.stages.iter().zip(slots))
            .filter(|(_, slot)| matches!(slot, Snapshot::Opt(Some(_))))
            .map(|(stage, _)| stage.state_items())
            .sum()
    }

    /// Batches processed since construction.
    pub fn batches_processed(&self) -> u64 {
        self.batches_processed
    }

    /// Packets that entered stage 0.
    pub fn packets_in(&self) -> u64 {
        self.packets_in
    }

    /// Packets that left the last stage.
    pub fn packets_out(&self) -> u64 {
        self.packets_out
    }
}

/// Incremental snapshots of a pipeline (see [`SnapshotSource`]): the
/// base is [`Pipeline::export_state`]'s checkpoint taken through
/// [`Operator::checkpoint_base`], and a delta is assembled from the
/// stages' [`Operator::checkpoint_delta`] answers: each stage builds its
/// run list in a buffer the lent delta keeps
/// ([`Delta::with_spare_buffer`]), and the list goes in under
/// [`Target::Stage`], a path held inline. The [`BaseId`] lives
/// in the pipeline, so a pipeline that is rebuilt from its spec or has
/// state imported — and whose stages therefore track nothing, or track
/// against some other export — declines every id it is asked about.
impl SnapshotSource for Pipeline {
    fn export_state(&self) -> Checkpoint {
        Pipeline::export_state(self)
    }

    fn export_base(&mut self, spent: Option<Checkpoint>) -> (Checkpoint, BaseId) {
        // Stages re-base one by one: until all have, no id is answered
        // for (an export that unwinds half way leaves it so).
        self.base_id = None;
        let mut spent = match spent.map(|cp| cp.root) {
            Some(Snapshot::Seq(items)) if items.len() == self.stages.len() => items,
            _ => Vec::new(),
        }
        .into_iter();
        let cp = checkpoint_scope(DedupMode::EpochFlag, |ctx| {
            Snapshot::Seq(
                self.stages
                    .iter_mut()
                    .map(|stage| {
                        let spent = match spent.next() {
                            Some(Snapshot::Opt(Some(snap))) => Some(*snap),
                            _ => None,
                        };
                        Snapshot::Opt(stage.checkpoint_base(ctx, spent).map(Box::new))
                    })
                    .collect(),
            )
        });
        let id = BaseId::fresh();
        self.base_id = Some(id);
        (cp, id)
    }

    fn export_delta(&self, id: BaseId, base: &Checkpoint, delta: &mut Delta) -> bool {
        let Snapshot::Seq(items) = &base.root else {
            return false;
        };
        // A stage that answers for itself holds no aliased node, so a
        // base with a shared table has a stage that must be exported.
        if self.base_id != Some(id) || items.len() != self.stages.len() || !base.shared.is_empty() {
            return false;
        }
        for (i, (stage, item)) in self.stages.iter().zip(items).enumerate() {
            let Snapshot::Opt(held) = item else {
                return false;
            };
            // A stage that exported nothing into the base is stateless.
            let Some(held) = held else { continue };
            match delta.with_spare_buffer(|runs| stage.checkpoint_delta(held, runs)) {
                StageDelta::Unchanged => {}
                StageDelta::Runs(runs) => delta.replacements.push(Replacement {
                    target: Target::Stage(i),
                    subtree: Snapshot::Bytes(runs),
                }),
                StageDelta::Whole => return false,
            }
        }
        true
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("stages", &self.stage_names())
            .field("batches_processed", &self.batches_processed)
            .finish()
    }
}

/// A cloneable, thread-shippable *recipe* for a [`Pipeline`].
///
/// A built [`Pipeline`] is not `Clone`, so one instance cannot be handed
/// to N workers. A spec stores operator *factories* instead; every
/// [`PipelineSpec::build`] call instantiates a fresh, fully independent
/// pipeline. This is exactly what a supervisor needs to respawn a worker
/// after a fault: rebuild from the spec and the replacement starts from
/// clean per-operator state. Stages are `Send` (but not `Sync`), so a
/// built pipeline may *migrate* between threads — the tenant-lane
/// runtime's work stealing moves a tenant's chain execution to whichever
/// lane claims it, one thread at a time.
#[derive(Clone, Default)]
pub struct PipelineSpec {
    factories: Vec<Arc<dyn Fn() -> Box<dyn Operator + Send> + Send + Sync>>,
    /// Layout generation of the state this spec's pipelines export —
    /// stamped into every sealed snapshot so restore paths can tell a
    /// compatible checkpoint from one that needs migration.
    state_schema: u32,
}

impl PipelineSpec {
    /// Creates an empty spec (builds identity pipelines).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage factory; builder style.
    pub fn stage<O, F>(mut self, factory: F) -> Self
    where
        O: Operator + Send + 'static,
        F: Fn() -> O + Send + Sync + 'static,
    {
        self.factories.push(Arc::new(move || Box::new(factory())));
        self
    }

    /// Declares the state-schema version of this spec's pipelines;
    /// builder style. Specs default to schema 0. Bump the schema
    /// whenever an upgrade changes the *layout* of exported state (stage
    /// list, per-stage statefulness, or an operator's snapshot shape) —
    /// restoring a snapshot across differing schemas requires a
    /// [`StateMigrator`](rbs_checkpoint::StateMigrator).
    #[must_use]
    pub fn with_state_schema(mut self, schema: u32) -> Self {
        self.state_schema = schema;
        self
    }

    /// The state-schema version stamped into this spec's snapshots.
    pub fn state_schema(&self) -> u32 {
        self.state_schema
    }

    /// Number of stages a built pipeline will have.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// True when the spec has no stages.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Instantiates a fresh pipeline from the recipe.
    pub fn build(&self) -> Pipeline {
        let mut p = Pipeline::new();
        for factory in &self.factories {
            p.add_boxed(factory());
        }
        p
    }

    /// Instantiates a fresh pipeline and injects previously exported
    /// state into it (warm recovery). All-or-nothing: on any mismatch
    /// the error propagates and no partially restored pipeline is
    /// returned — the caller falls back to [`PipelineSpec::build`].
    pub fn build_with_state(&self, cp: &Checkpoint) -> Result<Pipeline, SnapshotError> {
        let mut p = self.build();
        p.import_state(cp)?;
        Ok(p)
    }
}

impl std::fmt::Debug for PipelineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineSpec")
            .field("stages", &self.factories.len())
            .field("state_schema", &self.state_schema)
            .finish()
    }
}

/// A declarative [`StateMigrator`](rbs_checkpoint::StateMigrator) over
/// pipeline-shaped checkpoints: for each stage of the *new* pipeline,
/// name the old stage whose state it inherits — or none, to start that
/// stage fresh from its factory.
///
/// [`Pipeline::export_state`] roots every checkpoint at a `Seq` with one
/// `Opt` per stage, and [`Pipeline::import_state`] treats `Opt(None)` as
/// "leave the freshly built stage untouched". That makes the common
/// upgrade migrations pure index plumbing:
///
/// - **rule push**: map the firewall stage to *fresh* (its new rules
///   come from the new spec's factory) and carry every other stage, so
///   flow state survives a rule change without a cold start;
/// - **chain reshape**: map each surviving stage to its old position and
///   let inserted stages start fresh.
///
/// The shared-node table is carried verbatim: dropped subtrees may leave
/// unreferenced shared entries behind, which restore ignores.
pub struct StageStateMap {
    from: u32,
    to: u32,
    sources: Vec<Option<usize>>,
}

impl StageStateMap {
    /// A migrator from schema `from` to schema `to`, where new stage `i`
    /// inherits old stage `sources[i]`'s state (`None` = start fresh).
    pub fn new(from: u32, to: u32, sources: Vec<Option<usize>>) -> Self {
        Self { from, to, sources }
    }
}

impl rbs_checkpoint::StateMigrator for StageStateMap {
    fn can_migrate(&self, from: u32, to: u32) -> bool {
        from == self.from && to == self.to
    }

    fn migrate(
        &self,
        cp: &Checkpoint,
        from: u32,
        to: u32,
    ) -> Result<Checkpoint, rbs_checkpoint::MigrateError> {
        let err = |reason| rbs_checkpoint::MigrateError { from, to, reason };
        if !self.can_migrate(from, to) {
            return Err(err("unsupported-schema-pair"));
        }
        let Snapshot::Seq(old_stages) = &cp.root else {
            return Err(err("root-not-stage-seq"));
        };
        let new_stages = self
            .sources
            .iter()
            .map(|source| match source {
                None => Ok(Snapshot::Opt(None)),
                Some(i) => old_stages
                    .get(*i)
                    .cloned()
                    .ok_or(err("source-out-of-range")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checkpoint {
            root: Snapshot::Seq(new_stages),
            shared: cp.shared.clone(),
            stats: cp.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;
    use crate::operators::NullFilter;
    use crate::packet::Packet;
    use std::net::Ipv4Addr;

    fn batch(n: usize) -> PacketBatch {
        (0..n)
            .map(|i| {
                Packet::build_udp(
                    MacAddr::ZERO,
                    MacAddr::ZERO,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    1000 + i as u16,
                    80,
                    0,
                )
            })
            .collect()
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut p = Pipeline::new();
        assert!(p.is_empty());
        let out = p.run_batch(batch(3));
        assert_eq!(out.len(), 3);
        assert_eq!(p.packets_in(), 3);
        assert_eq!(p.packets_out(), 3);
    }

    #[test]
    fn stages_run_in_order() {
        let mut p = Pipeline::new()
            .add(|mut b: PacketBatch| {
                for pk in b.iter_mut() {
                    pk.ipv4_mut().unwrap().set_ttl(10);
                }
                b
            })
            .add(|mut b: PacketBatch| {
                for pk in b.iter_mut() {
                    let cur = pk.ipv4().unwrap().ttl();
                    pk.ipv4_mut().unwrap().set_ttl(cur + 1);
                }
                b
            });
        let out = p.run_batch(batch(2));
        assert!(out.iter().all(|pk| pk.ipv4().unwrap().ttl() == 11));
    }

    #[test]
    fn dropping_stage_shrinks_output_count() {
        let mut p = Pipeline::new().add(|mut b: PacketBatch| {
            b.retain(|pk| pk.udp().unwrap().src_port() % 2 == 0);
            b
        });
        let out = p.run_batch(batch(10));
        assert_eq!(out.len(), 5);
        assert_eq!(p.packets_in(), 10);
        assert_eq!(p.packets_out(), 5);
    }

    #[test]
    fn null_filter_chain_preserves_batch() {
        let mut p = Pipeline::new();
        for _ in 0..5 {
            p.add_boxed(Box::new(NullFilter::new()));
        }
        assert_eq!(p.len(), 5);
        let out = p.run_batch(batch(7));
        assert_eq!(out.len(), 7);
        assert_eq!(p.batches_processed(), 1);
    }

    #[test]
    fn stage_names_reported() {
        let p = Pipeline::new().add(NullFilter::new());
        assert_eq!(p.stage_names(), vec!["null-filter"]);
    }

    #[test]
    fn per_stage_counters_attribute_drops() {
        let mut p = Pipeline::new()
            .add(NullFilter::new())
            .add(|mut b: PacketBatch| {
                b.retain(|pk| pk.udp().unwrap().src_port() % 2 == 0);
                b
            })
            .add(NullFilter::new());
        p.run_batch(batch(10));
        let stats = p.stage_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(
            stats[0],
            StageStats {
                packets_in: 10,
                packets_out: 10,
                drops: 0
            }
        );
        assert_eq!(
            stats[1],
            StageStats {
                packets_in: 10,
                packets_out: 5,
                drops: 5
            }
        );
        assert_eq!(
            stats[2],
            StageStats {
                packets_in: 5,
                packets_out: 5,
                drops: 0
            }
        );
    }

    #[test]
    fn spec_builds_independent_pipelines() {
        let spec = PipelineSpec::new()
            .stage(NullFilter::new)
            .stage(crate::operators::Counter::new);
        assert_eq!(spec.len(), 2);

        let mut a = spec.build();
        let mut b = spec.build();
        a.run_batch(batch(4));
        a.run_batch(batch(4));
        b.run_batch(batch(1));

        // Counters are per-instance: running `a` twice must not leak
        // into `b`.
        assert_eq!(a.packets_in(), 8);
        assert_eq!(b.packets_in(), 1);
        assert_eq!(a.stage_names(), b.stage_names());
    }

    /// A minimal stateful operator: counts packets seen, and that count
    /// is part of its checkpointable state.
    struct SeenCounter {
        seen: u64,
    }

    impl Operator for SeenCounter {
        fn process(&mut self, batch: PacketBatch) -> PacketBatch {
            self.seen += batch.len() as u64;
            batch
        }

        fn name(&self) -> &str {
            "seen-counter"
        }

        fn checkpoint_state(&self, _ctx: &mut CheckpointCtx) -> Option<Snapshot> {
            Some(Snapshot::UInt(self.seen))
        }

        fn restore_state(
            &mut self,
            snap: &Snapshot,
            _ctx: &mut RestoreCtx<'_>,
        ) -> Result<(), SnapshotError> {
            match snap {
                Snapshot::UInt(n) => {
                    self.seen = *n;
                    Ok(())
                }
                other => Err(SnapshotError::TypeMismatch {
                    expected: "uint",
                    found: other.kind_name(),
                }),
            }
        }

        fn state_items(&self) -> u64 {
            1
        }
    }

    #[test]
    fn state_round_trips_through_spec_rebuild() {
        let spec = PipelineSpec::new()
            .stage(NullFilter::new)
            .stage(|| SeenCounter { seen: 0 });
        let mut live = spec.build();
        live.run_batch(batch(9));
        assert_eq!(live.state_items(), 1);

        let cp = live.export_state();
        let replica = spec.build_with_state(&cp).unwrap();

        // The replica's stateful stage resumes from the live count; the
        // stateless stage contributed `None` and stayed untouched.
        let snap = replica.export_state();
        assert_eq!(snap.root, cp.root);
        assert_eq!(
            cp.root,
            Snapshot::Seq(vec![
                Snapshot::Opt(None),
                Snapshot::Opt(Some(Box::new(Snapshot::UInt(9)))),
            ])
        );
    }

    #[test]
    fn import_rejects_mismatched_shapes() {
        let stateful = PipelineSpec::new().stage(|| SeenCounter { seen: 0 });
        let stateless = PipelineSpec::new().stage(NullFilter::new);
        let two_stage = PipelineSpec::new()
            .stage(NullFilter::new)
            .stage(NullFilter::new);

        let cp = stateful.build().export_state();

        // Wrong stage count: positional injection cannot line up.
        assert_eq!(
            two_stage.build_with_state(&cp).unwrap_err(),
            SnapshotError::WrongLength {
                expected: 2,
                got: 1
            }
        );
        // Right count, but the stage never exported state: stateless
        // stages reject injection rather than silently discarding it.
        assert!(matches!(
            stateless.build_with_state(&cp).unwrap_err(),
            SnapshotError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn stage_state_map_reshapes_and_refreshes() {
        use rbs_checkpoint::StateMigrator;
        // Old chain: [stateless, counter]; the counter has seen 9.
        let old = PipelineSpec::new()
            .stage(NullFilter::new)
            .stage(|| SeenCounter { seen: 0 })
            .with_state_schema(1);
        let mut live = old.build();
        live.run_batch(batch(9));
        let cp = live.export_state();

        // New chain: [stateless, counter, counter] — the old counter's
        // state moves to position 1, the inserted stage starts fresh.
        let new = PipelineSpec::new()
            .stage(NullFilter::new)
            .stage(|| SeenCounter { seen: 0 })
            .stage(|| SeenCounter { seen: 0 })
            .with_state_schema(2);
        assert_eq!(new.state_schema(), 2);
        let map = StageStateMap::new(1, 2, vec![None, Some(1), None]);
        assert!(map.can_migrate(1, 2));
        assert!(!map.can_migrate(2, 1));
        let migrated = map.migrate(&cp, 1, 2).unwrap();
        let replica = new.build_with_state(&migrated).unwrap();
        assert_eq!(
            replica.export_state().root,
            Snapshot::Seq(vec![
                Snapshot::Opt(None),
                Snapshot::Opt(Some(Box::new(Snapshot::UInt(9)))),
                Snapshot::Opt(Some(Box::new(Snapshot::UInt(0)))),
            ])
        );

        // A source index past the old chain is a typed error, not a
        // panic or a half-built checkpoint.
        let broken = StageStateMap::new(1, 2, vec![Some(5)]);
        assert_eq!(
            broken.migrate(&cp, 1, 2).unwrap_err().reason,
            "source-out-of-range"
        );
    }

    #[test]
    fn spec_is_cloneable_and_shippable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<PipelineSpec>();

        let spec = PipelineSpec::new().stage(NullFilter::new);
        let clone = spec.clone();
        let handle = std::thread::spawn(move || clone.build().len());
        assert_eq!(handle.join().unwrap(), 1);
    }
}
