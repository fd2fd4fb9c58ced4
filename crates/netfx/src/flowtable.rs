//! The deterministic flow table the stateful operators share.
//!
//! One layout serves [`crate::FlowTracker`]'s per-flow counters, both
//! directions of [`crate::SourceNat`], the per-flow rate limiter and the
//! Maglev connection table: entries live in a dense, insertion-ordered
//! `Vec<(K, V)>`, and an open-addressed array of `u32` positions — hashed
//! with the same Fx mixer as [`FiveTuple::stable_hash`] — finds them. Keys
//! are stored once (the index holds positions, not keys), so the table is
//! smaller than the maps it replaces, and there is no per-process hash
//! seed: the same inserts and removes always produce the same layout, so
//! a walk of the entries — which is what a snapshot is — repeats byte for
//! byte across runs.

use crate::flow::{FiveTuple, Fx64};
use rbs_checkpoint::{CheckpointCtx, Checkpointable, RestoreCtx, Snapshot, SnapshotError};

/// A key the table can place: equality plus a hash that does not vary
/// from process to process.
pub trait TableKey: Eq {
    /// The hash the table indexes by.
    fn table_hash(&self) -> u64;
}

impl TableKey for FiveTuple {
    #[inline]
    fn table_hash(&self) -> u64 {
        self.stable_hash()
    }
}

/// Hashes a key that packs into one word.
#[inline]
pub(crate) fn hash_word(word: u64) -> u64 {
    let mut h = Fx64::new();
    h.mix(word);
    h.finish()
}

/// Marks an index slot no entry occupies.
const EMPTY: u32 = u32::MAX;

/// Smallest index the table allocates.
const MIN_SLOTS: usize = 8;

/// An insertion-ordered hash table with a deterministic layout.
///
/// The index is kept at most half full, so a linear probe ends after a
/// slot or two. [`remove`](Self::remove) moves the last entry into the
/// hole, so it perturbs the order (deterministically);
/// [`retain`](Self::retain) preserves it.
///
/// The price of a seedless hash is that an adversary who knows it can
/// aim flows at one probe run. A bound on the table bounds the longest
/// such run: the tracker's capacity, the NAT's port pool and the
/// limiter's `max_flows` are that bound (the Maglev connection table has
/// none — it was unbounded before this table, too).
pub struct FlowTable<K, V> {
    entries: Vec<(K, V)>,
    /// Open-addressed positions into `entries`; a power of two long, or
    /// empty until the first insert.
    index: Vec<u32>,
}

impl<K, V> Default for FlowTable<K, V> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            index: Vec::new(),
        }
    }
}

impl<K: TableKey, V> FlowTable<K, V> {
    /// Creates an empty table; nothing is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in table order: insertion order, as perturbed by any
    /// [`remove`](Self::remove).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Where `key` lives, if present: its index slot and the position in
    /// `entries` that slot holds.
    #[inline]
    fn find(&self, key: &K) -> Option<(usize, usize)> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = key.table_hash() as usize & mask;
        loop {
            let pos = self.index[slot];
            if pos == EMPTY {
                return None;
            }
            if self.entries[pos as usize].0 == *key {
                return Some((slot, pos as usize));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let (_, pos) = self.find(key)?;
        Some(&self.entries[pos].1)
    }

    /// The value stored under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (_, pos) = self.find(key)?;
        Some(&mut self.entries[pos].1)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Stores `value` under `key`. A new key is appended to the table
    /// order; an existing key keeps its place and its old value is
    /// returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(held) = self.get_mut(&key) {
            return Some(std::mem::replace(held, value));
        }
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.reindex((self.index.len() * 2).max(MIN_SLOTS));
        }
        assert!(
            self.entries.len() < EMPTY as usize,
            "flow table positions are u32"
        );
        self.place(key.table_hash(), self.entries.len() as u32);
        self.entries.push((key, value));
        None
    }

    /// Writes `pos` into the first free slot of `hash`'s probe sequence.
    fn place(&mut self, hash: u64, pos: u32) {
        let mask = self.index.len() - 1;
        let mut slot = hash as usize & mask;
        while self.index[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.index[slot] = pos;
    }

    /// Rebuilds an index of `slots` slots from the entries.
    fn reindex(&mut self, slots: usize) {
        self.index.clear();
        self.index.resize(slots, EMPTY);
        for pos in 0..self.entries.len() {
            self.place(self.entries[pos].0.table_hash(), pos as u32);
        }
    }

    /// Removes `key`, returning its value. The last entry takes the
    /// removed entry's place in the table order.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (slot, pos) = self.find(key)?;
        self.vacate(slot);
        let last = self.entries.len() - 1;
        if pos != last {
            // The last entry is about to move to `pos`: repoint its slot.
            let (moved, _) = self
                .find(&self.entries[last].0)
                .expect("every entry is indexed");
            self.index[moved] = pos as u32;
        }
        Some(self.entries.swap_remove(pos).1)
    }

    /// Empties index slot `hole` and shifts the rest of its probe run
    /// back, so that every remaining key stays reachable from its home
    /// slot without tombstones.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut next = (hole + 1) & mask;
        while self.index[next] != EMPTY {
            let home = self.entries[self.index[next] as usize].0.table_hash() as usize & mask;
            // `next`'s entry may fill the hole only if its home slot is
            // not strictly between the hole and itself.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = EMPTY;
    }

    /// Keeps the entries `keep` accepts (it may update their values), in
    /// their existing order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let before = self.entries.len();
        self.entries.retain_mut(|(k, v)| keep(k, v));
        if self.entries.len() != before {
            self.reindex(self.index.len());
        }
    }
}

impl<K, V> std::fmt::Debug for FlowTable<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTable")
            .field("entries", &self.entries.len())
            .field("slots", &self.index.len())
            .finish()
    }
}

// A snapshot is a linear walk of the dense entries, in table order — no
// intermediate sorted map. Restore re-inserts in snapshot order, so the
// restored table exports the bytes it was built from.
impl<K, V> Checkpointable for FlowTable<K, V>
where
    K: TableKey + Checkpointable,
    V: Checkpointable,
{
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Map(
            self.entries
                .iter()
                .map(|(k, v)| (k.checkpoint(ctx), v.checkpoint(ctx)))
                .collect(),
        )
    }

    /// Fails on a snapshot that repeats a key: every entry of a table is
    /// distinct, so such a snapshot was not written by one.
    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        let Snapshot::Map(pairs) = snap else {
            return Err(SnapshotError::TypeMismatch {
                expected: "map",
                found: snap.kind_name(),
            });
        };
        // Sized once for the snapshot (which is already in memory, so its
        // length is a bound the caller has paid for): no growth churn.
        let mut table = FlowTable {
            entries: Vec::with_capacity(pairs.len()),
            index: Vec::new(),
        };
        table.reindex((pairs.len() * 2).next_power_of_two().max(MIN_SLOTS));
        for (k, v) in pairs {
            if table
                .insert(K::restore(k, ctx)?, V::restore(v, ctx)?)
                .is_some()
            {
                return Err(SnapshotError::TypeMismatch {
                    expected: "map with distinct keys",
                    found: "repeated key",
                });
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ipv4::IpProto;
    use rbs_checkpoint::{checkpoint, restore};
    use std::net::Ipv4Addr;

    fn tuple(n: u16) -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
            dst_ip: Ipv4Addr::new(192, 0, 2, 1),
            src_port: 1_000 + n,
            dst_port: 80,
            proto: if n.is_multiple_of(3) {
                IpProto::Tcp
            } else {
                IpProto::Udp
            },
        }
    }

    #[test]
    fn insert_get_remove_keep_table_order() {
        let mut t = FlowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&tuple(1)), None, "empty table has no index yet");
        for n in 0..100 {
            assert_eq!(t.insert(tuple(n), u64::from(n)), None);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.insert(tuple(7), 700), Some(7), "existing key: replaced");
        assert_eq!(t.get(&tuple(7)), Some(&700));
        *t.get_mut(&tuple(8)).unwrap() += 1;
        let order: Vec<u64> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(&order[..10], &[0, 1, 2, 3, 4, 5, 6, 700, 9, 9]);

        // Removal moves the last entry into the hole.
        assert_eq!(t.remove(&tuple(0)), Some(0));
        assert_eq!(t.remove(&tuple(0)), None);
        assert_eq!(t.iter().next().map(|(k, _)| *k), Some(tuple(99)));
        assert_eq!(t.len(), 99);
        for n in 1..100 {
            assert!(t.contains_key(&tuple(n)), "key {n} lost by the removal");
        }
    }

    #[test]
    fn retain_preserves_order_and_updates_values() {
        let mut t = FlowTable::new();
        for n in 0..50 {
            t.insert(tuple(n), u32::from(n));
        }
        t.retain(|_, v| {
            *v *= 2;
            *v % 3 != 0
        });
        let kept: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        let expected: Vec<u32> = (0..50).map(|n| n * 2).filter(|v| v % 3 != 0).collect();
        assert_eq!(kept, expected);
        for n in 0..50u16 {
            assert_eq!(t.contains_key(&tuple(n)), (n * 2) % 3 != 0);
        }
    }

    #[test]
    fn restore_rejects_a_repeated_key() {
        let mut t = FlowTable::new();
        t.insert(tuple(1), 1u64);
        t.insert(tuple(2), 2u64);
        let mut cp = checkpoint(&t);
        let Snapshot::Map(pairs) = &mut cp.root else {
            panic!("a table checkpoints as a map");
        };
        pairs.push(pairs[0].clone());
        assert_eq!(
            restore::<FlowTable<FiveTuple, u64>>(&cp).unwrap_err(),
            SnapshotError::TypeMismatch {
                expected: "map with distinct keys",
                found: "repeated key",
            }
        );
    }
}
