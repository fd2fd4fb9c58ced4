//! Double-buffered snapshot storage with full/delta cadence.
//!
//! A [`SnapshotStore`] is what a supervised worker records its periodic
//! state snapshots into, and what the supervisor restores from after a
//! crash. Every `full_every`-th record seals a complete checkpoint; the
//! records between seal an incremental [`Delta`](crate::diff::Delta)
//! against the last full one, so steady-state snapshot cost scales with
//! what *changed* since the base, not with total state size (§5's
//! replication argument applied to recovery). That holds inside a packed
//! flow-table image too: the delta carries the byte runs of the records
//! that moved and the records appended, not the image.
//!
//! The store keeps the two most recent records — `latest` and
//! `previous` — so a snapshot corrupted in place still leaves one
//! restore candidate. Restoring verifies the envelope checksums before
//! decoding anything; all failures are typed [`RestoreError`]s.
//!
//! Crash safety of `record` itself: serialization (where the
//! `CheckpointEncode` chaos site can panic) happens *before* any store
//! mutation, so a fault mid-record unwinds with the buffers untouched —
//! the last good snapshot survives the very fault being injected into
//! the snapshot path.
//!
//! # Who finds the delta
//!
//! [`SnapshotStore::record`] is handed a whole checkpoint and finds an
//! incremental record's delta by comparing it with the base
//! ([`diff`](crate::diff::diff)) — the form for any
//! [`Checkpointable`](crate::Checkpointable) state.
//! [`SnapshotStore::record_from`] is handed a [`SnapshotSource`] instead
//! and *drives* it: on a full record it takes the source's base export by
//! value (the store keeps the plaintext as the diff base, so nothing is
//! cloned) together with a [`BaseId`] naming that export; on an
//! incremental record it asks the source for the delta against the id it
//! holds — a source that tracked its own changes answers from those,
//! without exporting — and only a source that declines (rebuilt or
//! restored since, a part of it does not track, its state shrank) is
//! exported whole and compared, exactly as `record` would. Cadence,
//! epochs, stats and sealed bytes do not depend on which form, or which
//! branch, produced a record.
//!
//! Envelopes are sized before the first byte and serialized in place,
//! and the store seals into the buffers of records that rotated out of
//! `previous`, so in steady state `record_from` allocates nothing the
//! size of the state.

use crate::ctx::Checkpoint;
use crate::diff::{self, Delta, Replacement};
use crate::envelope::{self, Payload, RestoreError, SnapshotMeta};
use crate::snapshot::Snapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Names one base export of one [`SnapshotSource`], process-wide: what a
/// source checks before answering [`SnapshotSource::export_delta`], so
/// that a source which was rebuilt, restored or re-based since — and
/// whose record of what changed therefore describes some other base —
/// declines instead of answering for a base it did not produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseId(u64);

impl BaseId {
    /// An id no earlier call in this process returned.
    pub fn fresh() -> Self {
        // Uniqueness is all that is asked of the counter.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        BaseId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// State that can be snapshotted incrementally: besides exporting itself
/// whole it can export a *base* and remember, from then on, what it
/// changes — so that a later delta against that base costs what changed.
/// [`SnapshotStore::record_from`] is the caller.
pub trait SnapshotSource {
    /// The whole state, with no effect on the source.
    fn export_state(&self) -> Checkpoint;

    /// The whole state — what [`export_state`](Self::export_state) would
    /// return — as the base of the deltas to come, under a fresh id; the
    /// source starts tracking its changes over from here. `spent` is the
    /// base this one replaces, when the caller still holds it: its
    /// buffers are the source's to reuse.
    fn export_base(&mut self, spent: Option<Checkpoint>) -> (Checkpoint, BaseId);

    /// The delta from `base` — the checkpoint `export_base` returned
    /// with `id` — to the present state: exactly
    /// `diff(base, &self.export_state())`, found without the export.
    /// `None` when the source cannot answer for `id` (it never produced
    /// it, or has lost track since); the caller then exports and diffs.
    /// `scratch` is a buffer the source may take for a run list it
    /// builds; the caller recovers it from the delta.
    fn export_delta(&self, id: BaseId, base: &Checkpoint, scratch: &mut Vec<u8>) -> Option<Delta>;
}

/// Which of the two buffered records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buffered {
    /// The most recent record.
    Latest,
    /// The record before it.
    Previous,
}

impl Buffered {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Buffered::Latest => "latest",
            Buffered::Previous => "previous",
        }
    }
}

/// One restorable unit: a sealed full envelope, plus — for incremental
/// records — a sealed delta envelope applied on top of it.
#[derive(Debug, Clone)]
pub struct SealedSnapshot {
    meta: SnapshotMeta,
    /// The full envelope this record restores from. Delta records share
    /// it (by `Arc`) with their base record.
    base: Arc<Vec<u8>>,
    delta: Option<Vec<u8>>,
}

impl SealedSnapshot {
    /// The record's metadata (epoch, tick, item count).
    pub fn meta(&self) -> SnapshotMeta {
        self.meta
    }

    /// Bytes this record added to the store: the delta envelope for
    /// incremental records, the full envelope otherwise.
    pub fn payload_bytes(&self) -> usize {
        self.delta.as_ref().map_or(self.base.len(), Vec::len)
    }

    /// The sealed bytes themselves — what a replica would be shipped:
    /// the full envelope and, for an incremental record, the delta
    /// envelope that applies on top of it.
    pub fn envelopes(&self) -> (&[u8], Option<&[u8]>) {
        (&self.base, self.delta.as_deref())
    }

    /// Verifies and decodes the record into the checkpoint it captured:
    /// checksum-check the full envelope, then (for incremental records)
    /// checksum-check the delta and apply it — in place, on the base
    /// just decoded, which nothing else holds. Any corruption anywhere
    /// in the chain is a typed error, never a wrong checkpoint.
    pub fn open(&self) -> Result<Checkpoint, RestoreError> {
        let (base_meta, base_payload) = envelope::open(&self.base)?;
        let Payload::Full(mut cp) = base_payload else {
            return Err(RestoreError::BadHeader);
        };
        match &self.delta {
            None => Ok(cp),
            Some(bytes) => {
                let (delta_meta, delta_payload) = envelope::open(bytes)?;
                let Payload::Delta(delta) = delta_payload else {
                    return Err(RestoreError::BadHeader);
                };
                if delta_meta.base_epoch != base_meta.epoch {
                    return Err(RestoreError::EpochMismatch {
                        required: delta_meta.base_epoch,
                        found: base_meta.epoch,
                    });
                }
                diff::apply_in_place(&mut cp, delta)?;
                Ok(cp)
            }
        }
    }
}

/// Cumulative cost counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Full snapshots sealed.
    pub full_snapshots: u64,
    /// Incremental (delta) snapshots sealed.
    pub delta_snapshots: u64,
    /// Bytes across all full envelopes sealed.
    pub full_bytes: u64,
    /// Bytes across all delta envelopes sealed.
    pub delta_bytes: u64,
}

impl StoreStats {
    /// Total records sealed.
    pub fn snapshots_taken(&self) -> u64 {
        self.full_snapshots + self.delta_snapshots
    }
}

/// Double-buffered snapshot storage for one worker's state.
#[derive(Debug)]
pub struct SnapshotStore {
    /// Every Nth record is a full snapshot (min 1).
    full_every: u32,
    /// Records sealed since the last full one.
    since_full: u32,
    next_epoch: u64,
    base: Option<Base>,
    latest: Option<SealedSnapshot>,
    previous: Option<SealedSnapshot>,
    stats: StoreStats,
    /// Buffers of records rotated out of `previous`, kept for the full
    /// and the delta envelopes to come: a store in steady state seals
    /// into memory it already owns. (Several delta buffers, because the
    /// two records held are at times both full ones.)
    spare_full: Vec<u8>,
    spare_delta: Vec<Vec<u8>>,
    /// The run-list buffer lent to [`SnapshotSource::export_delta`].
    scratch: Vec<u8>,
}

/// The last full record: the diff base of the incremental records.
#[derive(Debug)]
struct Base {
    meta: SnapshotMeta,
    sealed: Arc<Vec<u8>>,
    /// The plaintext the deltas are computed against.
    cp: Checkpoint,
    /// The source's name for `cp`, when a source exported it.
    id: Option<BaseId>,
}

impl SnapshotStore {
    /// Creates an empty store sealing a full snapshot every
    /// `full_every` records (clamped to at least 1; 1 means every
    /// record is full and no deltas are ever produced).
    pub fn new(full_every: u32) -> Self {
        Self {
            full_every: full_every.max(1),
            since_full: 0,
            next_epoch: 1,
            base: None,
            latest: None,
            previous: None,
            stats: StoreStats::default(),
            spare_full: Vec::new(),
            spare_delta: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Seals `cp` into the store as the new latest record, rotating the
    /// old latest into `previous`. `tick` and `items` are recorded in
    /// the envelope for state-loss accounting at restore time; `schema`
    /// is the owner's state-schema version, which restore paths compare
    /// against the target pipeline's schema to decide between a direct
    /// restore and a [`StateMigrator`](crate::migrate::StateMigrator)
    /// pass.
    ///
    /// Serialization happens before any mutation: a panic injected into
    /// the encoder (the `CheckpointEncode` chaos site) leaves the store
    /// exactly as it was.
    ///
    /// This is the form for state that is only
    /// [`Checkpointable`](crate::Checkpointable): every delta is found by
    /// comparing `cp` with the base. State that tracks its own changes
    /// records through [`record_from`](Self::record_from).
    pub fn record(&mut self, cp: &Checkpoint, tick: u64, items: u64, schema: u32) -> SnapshotMeta {
        match &self.base {
            Some(base) if !self.full_is_due() => {
                let delta = diff::diff(&base.cp, cp);
                self.seal_delta(&delta, tick, items, schema)
            }
            _ => self.seal_full(cp.clone(), None, tick, items, schema),
        }
    }

    /// [`record`](Self::record) for a source that tracks its own
    /// changes: same cadence, same epochs, same sealed bytes, but the
    /// store asks for what the record needs instead of being handed an
    /// export. A full record takes `source`'s base export by value (and
    /// hands it the base being replaced, to build the new one in); an
    /// incremental record asks for the delta against the base the store
    /// holds, and only a source that cannot answer — it was rebuilt or
    /// restored since, a stage of it does not track changes, its state
    /// shrank — is exported whole and compared, as `record` does.
    ///
    /// A panic mid-record (the `CheckpointEncode` chaos site) leaves
    /// `latest`, `previous`, the epoch counter and the stats as they
    /// were; one in a full record also forgets the plaintext base, so
    /// the next record is the full one that was due anyway.
    pub fn record_from<S: SnapshotSource + ?Sized>(
        &mut self,
        source: &mut S,
        tick: u64,
        items: u64,
        schema: u32,
    ) -> SnapshotMeta {
        match &self.base {
            Some(base) if !self.full_is_due() => {
                let mut delta = base
                    .id
                    .and_then(|id| source.export_delta(id, &base.cp, &mut self.scratch))
                    .unwrap_or_else(|| diff::diff(&base.cp, &source.export_state()));
                let meta = self.seal_delta(&delta, tick, items, schema);
                if let Some(Replacement {
                    subtree: Snapshot::Bytes(runs),
                    ..
                }) = delta.replacements.pop()
                {
                    self.scratch = runs;
                }
                meta
            }
            _ => {
                let spent = self.base.take().map(|base| base.cp);
                let (cp, id) = source.export_base(spent);
                self.seal_full(cp, Some(id), tick, items, schema)
            }
        }
    }

    /// Whether the record after a base is the next full one.
    fn full_is_due(&self) -> bool {
        self.since_full + 1 >= self.full_every
    }

    fn seal_full(
        &mut self,
        cp: Checkpoint,
        id: Option<BaseId>,
        tick: u64,
        items: u64,
        schema: u32,
    ) -> SnapshotMeta {
        let epoch = self.next_epoch;
        let meta = SnapshotMeta {
            epoch,
            base_epoch: epoch,
            tick,
            items,
            schema,
        };
        let mut bytes = std::mem::take(&mut self.spare_full);
        envelope::seal_full_into(&mut bytes, meta, &cp);
        let sealed = Arc::new(bytes);
        self.next_epoch += 1;
        self.since_full = 0;
        self.stats.full_snapshots += 1;
        self.stats.full_bytes += sealed.len() as u64;
        self.base = Some(Base {
            meta,
            sealed: Arc::clone(&sealed),
            cp,
            id,
        });
        self.rotate(SealedSnapshot {
            meta,
            base: sealed,
            delta: None,
        });
        meta
    }

    fn seal_delta(&mut self, delta: &Delta, tick: u64, items: u64, schema: u32) -> SnapshotMeta {
        let base = self.base.as_ref().expect("delta records have a base");
        let meta = SnapshotMeta {
            epoch: self.next_epoch,
            base_epoch: base.meta.epoch,
            tick,
            items,
            schema,
        };
        let base_bytes = Arc::clone(&base.sealed);
        let mut delta_bytes = self.spare_delta.pop().unwrap_or_default();
        envelope::seal_delta_into(&mut delta_bytes, meta, delta);
        self.next_epoch += 1;
        self.since_full += 1;
        self.stats.delta_snapshots += 1;
        self.stats.delta_bytes += delta_bytes.len() as u64;
        self.rotate(SealedSnapshot {
            meta,
            base: base_bytes,
            delta: Some(delta_bytes),
        });
        meta
    }

    /// Makes `record` the latest, and keeps the buffers of the record
    /// that falls out of `previous` — its delta envelope, and its full
    /// envelope once no other record shares it — for the records to come.
    fn rotate(&mut self, record: SealedSnapshot) {
        if let Some(spent) = std::mem::replace(&mut self.previous, self.latest.take()) {
            if let Some(delta) = spent.delta {
                self.spare_delta.push(delta);
            }
            if let Ok(full) = Arc::try_unwrap(spent.base) {
                self.spare_full = full;
            }
        }
        self.latest = Some(record);
    }

    /// The most recent record, if any.
    pub fn latest(&self) -> Option<&SealedSnapshot> {
        self.latest.as_ref()
    }

    /// The record before the latest, if any.
    pub fn previous(&self) -> Option<&SealedSnapshot> {
        self.previous.as_ref()
    }

    /// The selected buffered record.
    pub fn buffered(&self, which: Buffered) -> Option<&SealedSnapshot> {
        match which {
            Buffered::Latest => self.latest(),
            Buffered::Previous => self.previous(),
        }
    }

    /// Verifies and decodes the selected record; `None` when that buffer
    /// is empty.
    pub fn open_buffered(&self, which: Buffered) -> Option<Result<Checkpoint, RestoreError>> {
        self.buffered(which).map(SealedSnapshot::open)
    }

    /// Cumulative cost counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Flips one bit in the selected record's envelope — chaos tooling
    /// for corrupted-snapshot tests. Returns `false` when the buffer is
    /// empty. Delta records are corrupted in their delta envelope; the
    /// shared base is copied-on-write first so a sibling record sharing
    /// it stays intact.
    pub fn corrupt(&mut self, which: Buffered) -> bool {
        let record = match which {
            Buffered::Latest => self.latest.as_mut(),
            Buffered::Previous => self.previous.as_mut(),
        };
        let Some(record) = record else {
            return false;
        };
        match &mut record.delta {
            Some(bytes) => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
            }
            None => {
                let bytes = Arc::make_mut(&mut record.base);
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::checkpoint;

    fn cp_of(v: &[u64]) -> Checkpoint {
        checkpoint(&v.to_vec())
    }

    #[test]
    fn full_delta_cadence() {
        let mut store = SnapshotStore::new(3);
        for i in 0..7u64 {
            store.record(&cp_of(&[i]), i, 1, 0);
        }
        // Records 1, 4, 7 are full (every 3rd), the rest deltas.
        let s = store.stats();
        assert_eq!(s.full_snapshots, 3);
        assert_eq!(s.delta_snapshots, 4);
        assert_eq!(s.snapshots_taken(), 7);
    }

    #[test]
    fn epochs_are_monotonic_and_buffers_rotate() {
        let mut store = SnapshotStore::new(2);
        assert!(store.latest().is_none());
        store.record(&cp_of(&[1]), 10, 1, 0);
        store.record(&cp_of(&[2]), 20, 1, 0);
        store.record(&cp_of(&[3]), 30, 1, 0);
        let latest = store.latest().unwrap().meta();
        let previous = store.previous().unwrap().meta();
        assert_eq!(latest.epoch, 3);
        assert_eq!(previous.epoch, 2);
        assert_eq!(latest.tick, 30);
        assert!(latest.epoch > previous.epoch);
    }

    #[test]
    fn delta_records_restore_exactly() {
        let mut base: Vec<u64> = (0..64).collect();
        let mut store = SnapshotStore::new(10);
        store.record(&cp_of(&base), 1, 64, 0);
        base[40] = 999;
        store.record(&cp_of(&base), 2, 64, 0); // delta
        let latest = store.open_buffered(Buffered::Latest).unwrap().unwrap();
        assert_eq!(latest.root, cp_of(&base).root);
        let previous = store.open_buffered(Buffered::Previous).unwrap().unwrap();
        base[40] = 40;
        assert_eq!(previous.root, cp_of(&base).root);
        assert!(store.latest().unwrap().meta().is_delta());
        // The delta carried one scalar, not the whole structure.
        assert!(
            store.latest().unwrap().payload_bytes() < store.previous().unwrap().payload_bytes()
        );
    }

    #[test]
    fn corruption_is_detected_per_buffer() {
        let mut store = SnapshotStore::new(1);
        store.record(&cp_of(&[1, 2, 3]), 1, 3, 0);
        store.record(&cp_of(&[4, 5, 6]), 2, 3, 0);
        assert!(store.corrupt(Buffered::Latest));
        assert!(store.open_buffered(Buffered::Latest).unwrap().is_err());
        // Previous is a separate full envelope: still intact.
        let prev = store.open_buffered(Buffered::Previous).unwrap().unwrap();
        assert_eq!(prev.root, cp_of(&[1, 2, 3]).root);
    }

    #[test]
    fn corrupting_a_delta_spares_its_shared_base() {
        let mut store = SnapshotStore::new(10);
        store.record(&cp_of(&[1]), 1, 1, 0); // full — becomes the shared base
        store.record(&cp_of(&[2]), 2, 1, 0); // delta on it
        store.record(&cp_of(&[3]), 3, 1, 0); // delta on it
        assert!(store.corrupt(Buffered::Latest));
        assert!(store.open_buffered(Buffered::Latest).unwrap().is_err());
        // Previous shares the same base envelope and must survive.
        let prev = store.open_buffered(Buffered::Previous).unwrap().unwrap();
        assert_eq!(prev.root, cp_of(&[2]).root);
    }

    #[test]
    fn corrupt_empty_buffer_reports_nothing_to_corrupt() {
        let mut store = SnapshotStore::new(1);
        assert!(!store.corrupt(Buffered::Latest));
        store.record(&cp_of(&[1]), 1, 1, 0);
        assert!(!store.corrupt(Buffered::Previous));
    }

    #[test]
    fn encode_fault_leaves_store_unchanged() {
        use rbs_core::fault::{self, FaultKind, FaultPlan, FaultSite};
        use std::sync::Arc;
        let mut store = SnapshotStore::new(1);
        store.record(&cp_of(&[1]), 1, 1, 0);
        let plan = Arc::new(FaultPlan::new(0).inject_window(
            FaultSite::CheckpointEncode,
            FaultKind::Panic,
            0,
            0,
            1,
        ));
        fault::scoped(plan, || {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.record(&cp_of(&[2]), 2, 1, 0)
            }));
            assert!(panicked.is_err(), "the injected fault must fire");
        });
        // The failed record committed nothing: latest is still epoch 1,
        // previous still empty, and the next record gets epoch 2.
        assert_eq!(store.latest().unwrap().meta().epoch, 1);
        assert!(store.previous().is_none());
        let meta = store.record(&cp_of(&[3]), 3, 1, 0);
        assert_eq!(meta.epoch, 2);
        assert_eq!(
            store.open_buffered(Buffered::Latest).unwrap().unwrap().root,
            cp_of(&[3]).root
        );
    }
}
