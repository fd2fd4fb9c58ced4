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

use crate::ctx::Checkpoint;
use crate::diff;
use crate::envelope::{self, Payload, RestoreError, SnapshotMeta};
use std::sync::Arc;

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
    /// The last full record's metadata, sealed bytes, and plaintext
    /// checkpoint (the diff base for incremental records).
    base: Option<(SnapshotMeta, Arc<Vec<u8>>, Checkpoint)>,
    latest: Option<SealedSnapshot>,
    previous: Option<SealedSnapshot>,
    stats: StoreStats,
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
    pub fn record(&mut self, cp: &Checkpoint, tick: u64, items: u64, schema: u32) -> SnapshotMeta {
        let epoch = self.next_epoch;
        let full = match &self.base {
            None => true,
            Some(_) => self.since_full + 1 >= self.full_every,
        };
        if full {
            let meta = SnapshotMeta {
                epoch,
                base_epoch: epoch,
                tick,
                items,
                schema,
            };
            let bytes = Arc::new(envelope::seal_full(meta, cp));
            self.next_epoch += 1;
            self.since_full = 0;
            self.stats.full_snapshots += 1;
            self.stats.full_bytes += bytes.len() as u64;
            self.base = Some((meta, Arc::clone(&bytes), cp.clone()));
            self.rotate(SealedSnapshot {
                meta,
                base: bytes,
                delta: None,
            });
            meta
        } else {
            let (base_meta, base_bytes, base_cp) =
                self.base.as_ref().expect("delta records have a base");
            let delta = diff::diff(base_cp, cp);
            let meta = SnapshotMeta {
                epoch,
                base_epoch: base_meta.epoch,
                tick,
                items,
                schema,
            };
            let delta_bytes = envelope::seal_delta(meta, &delta);
            let base_bytes = Arc::clone(base_bytes);
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
    }

    fn rotate(&mut self, record: SealedSnapshot) {
        self.previous = self.latest.take();
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
