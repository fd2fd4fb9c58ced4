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
//!
//! # Hashed probes
//!
//! Every lookup has a `_hashed` form that takes the key's
//! [`TableKey::table_hash`] from the caller instead of computing it:
//! a packet carries the hash of its own five-tuple
//! ([`crate::Packet::flow_key`]), so two `FiveTuple`-keyed tables probed
//! for the same packet — the flow tracker's and the load balancer's —
//! share one hash, and [`FlowTable::get_or_insert_with`] finds an entry
//! or appends it in the one probe that discovered it was missing.
//!
//! # Snapshot form
//!
//! A table has one snapshot form, the **packed image**: a single
//! [`Snapshot::Bytes`] holding one fixed-width record per entry, key then
//! value ([`Pack`]), in table order. Sealing a table is a linear write
//! into one buffer and restoring it a linear read into a table sized
//! once — no node per entry, per key or per counter — and because a
//! record never changes width or (short of a [`remove`](FlowTable::remove))
//! position, the checkpoint layer's byte-range deltas ship only the
//! records that moved. Restore ([`FlowTable::from_image`]) is total on
//! arbitrary bytes: a torn record, more records than the owner admits, an
//! encoding a field type rejects or a repeated key is a typed
//! [`SnapshotError`], and no table is returned.
//!
//! # Incremental snapshots: the write barrier `&mut` gives for free
//!
//! A table knows which of its records may differ from an image it
//! exported earlier, because nothing else can change them: a record is
//! reachable only through the table, a `&self` method cannot write one,
//! and every `&mut self` method that hands a record out or moves one is
//! in this file. From [`checkpoint_base`](FlowTable::checkpoint_base) on,
//! those methods mark the positions they touch in a bitmap (the *dirty
//! set*; records appended since the export need no mark — they lie past
//! the base's length), and [`checkpoint_delta`](FlowTable::checkpoint_delta)
//! emits the byte-range run list against the base image from the marked
//! records alone, read off the bitmap a word at a time. No method
//! rewrites a key in place, so only a marked record's *value* can differ:
//! the value is packed into a stack buffer and compared with its bytes
//! in the base, and the differing bytes become runs with a few bit
//! operations, each written through the checkpoint layer's
//! [`RunWriter`] as soon as no later change can extend it — a copy of
//! the value's width from the packed value. Every other byte is known
//! equal, and the list is the one a scan of the two images
//! ([`rbs_checkpoint::byte_runs`]) yields, byte for byte, for every
//! record shape: runs stop at a key wider than [`RUN_GAP`] and merge
//! across a narrower one. Nothing the size of the table is exported,
//! scanned or allocated.
//!
//! Marking too much is always safe: a record marked and left equal costs
//! one comparison and contributes no byte. Marking too little is the
//! only way to be wrong, which is why the mark sits in the accessor that
//! returns the `&mut`, not in its callers. A [`remove`](FlowTable::remove)
//! or [`retain`](FlowTable::retain) shrinks or reorders the image —
//! which the delta format answers by replacing the blob whole — so
//! either simply ends tracking, and `checkpoint_delta` says
//! [`StageDelta::Whole`] until the next base. A table that never exports
//! a base (every table outside a snapshotting tenant chain) pays one
//! not-tracking branch per mutable access and no memory.

use crate::flow::{FiveTuple, Fx64};
use crate::headers::ipv4::IpProto;
use crate::pipeline::StageDelta;
use rbs_checkpoint::diff::{RunWriter, RUN_GAP};
use rbs_checkpoint::{CheckpointCtx, Checkpointable, RestoreCtx, Snapshot, SnapshotError};
use std::net::Ipv4Addr;

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

/// A key or value with a fixed-width byte encoding: one field of a
/// packed table image's records.
pub trait Pack: Sized {
    /// Bytes the encoding occupies, for every value of the type.
    const WIDTH: usize;

    /// Writes the encoding into `out`, which is `WIDTH` bytes long.
    fn pack(&self, out: &mut [u8]);

    /// Reads a value back from `bytes`, which is `WIDTH` bytes long.
    /// `None` when the bytes are not an encoding `pack` produces.
    fn unpack(bytes: &[u8]) -> Option<Self>;
}

macro_rules! pack_le_int {
    ($($int:ty),*) => {$(
        impl Pack for $int {
            const WIDTH: usize = std::mem::size_of::<$int>();

            #[inline]
            fn pack(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn unpack(bytes: &[u8]) -> Option<Self> {
                Some(<$int>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

pack_le_int!(u16, u32, u64);

/// Addresses and ports in network order, as on the wire, then the IANA
/// protocol number: 13 bytes.
impl Pack for FiveTuple {
    const WIDTH: usize = 13;

    #[inline]
    fn pack(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.src_ip.octets());
        out[4..8].copy_from_slice(&self.dst_ip.octets());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = u8::from(self.proto);
    }

    #[inline]
    fn unpack(b: &[u8]) -> Option<Self> {
        let b: &[u8; 13] = b.try_into().ok()?;
        Some(FiveTuple {
            src_ip: Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            dst_ip: Ipv4Addr::new(b[4], b[5], b[6], b[7]),
            src_port: u16::from_be_bytes([b[8], b[9]]),
            dst_port: u16::from_be_bytes([b[10], b[11]]),
            proto: IpProto::from(b[12]),
        })
    }
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
/// such run: the tracker's capacity, the NAT's port pool, the limiter's
/// `max_flows` and the Maglev connection capacity are that bound.
pub struct FlowTable<K, V> {
    entries: Vec<(K, V)>,
    /// Open-addressed positions into `entries`; a power of two long, or
    /// empty until the first insert.
    index: Vec<u32>,
    /// What may differ from the last base image; `None` while there is
    /// no base to answer for (none exported yet, or a removal since —
    /// so while it is `Some`, the entries it was taken over are all
    /// still in place, and `entries` has only grown).
    dirty: Option<DirtySet>,
}

impl<K, V> Default for FlowTable<K, V> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            index: Vec::new(),
            dirty: None,
        }
    }
}

/// The records of a base image that may have changed since its export.
struct DirtySet {
    /// Entries the table held at the export. Positions from here on are
    /// the appended tail, changed by definition.
    base_len: usize,
    /// One bit per base position, set when the position is handed out
    /// mutably. (The last word's bits past `base_len` may get set too;
    /// readers stop at `base_len`.)
    marks: Vec<u64>,
}

impl DirtySet {
    #[inline]
    fn mark(&mut self, pos: usize) {
        if let Some(word) = self.marks.get_mut(pos / 64) {
            *word |= 1 << (pos % 64);
        }
    }

    /// How many base positions are marked: a population count per word,
    /// the last one's bits past `base_len` left out.
    fn marked_len(&self) -> usize {
        let (whole, rest) = (self.base_len / 64, self.base_len % 64);
        let words = self.marks[..whole].iter().map(|word| word.count_ones());
        let last = self
            .marks
            .get(whole)
            .map(|word| (word & ((1 << rest) - 1)).count_ones());
        words.chain(last).sum::<u32>() as usize
    }

    /// The marked base positions, ascending.
    fn marked(&self) -> Marked<'_> {
        Marked {
            marks: &self.marks,
            next_word: 0,
            bits: 0,
            base_len: self.base_len,
        }
    }
}

/// The marked positions of a [`DirtySet`], read off its bitmap a word at
/// a time: the lowest set bit first, cleared as it is yielded.
struct Marked<'a> {
    marks: &'a [u64],
    /// The word after the one `bits` came from.
    next_word: usize,
    /// What is left of that word.
    bits: u64,
    base_len: usize,
}

impl Iterator for Marked<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.marks.get(self.next_word)?;
            self.next_word += 1;
        }
        let pos = (self.next_word - 1) * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        // Positions ascend: the first past the base ends the walk.
        (pos < self.base_len).then_some(pos)
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

    /// Walks the probe sequence of `hash` (which must be `key`'s
    /// [`TableKey::table_hash`]): `Ok` with the index slot holding `key`
    /// and its position in `entries`, or `Err` with the empty slot that
    /// ended the run — where [`place`](Self::place) would put `key` —
    /// or with `None` while the table has no index at all.
    #[inline]
    fn probe(&self, hash: u64, key: &K) -> Result<(usize, usize), Option<usize>> {
        debug_assert!(hash == key.table_hash(), "probe with a foreign hash");
        if self.index.is_empty() {
            return Err(None);
        }
        let mask = self.index.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let pos = self.index[slot];
            if pos == EMPTY {
                return Err(Some(slot));
            }
            if self.entries[pos as usize].0 == *key {
                return Ok((slot, pos as usize));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Where `key` lives, if present: its index slot and the position in
    /// `entries` that slot holds.
    #[inline]
    fn find(&self, key: &K) -> Option<(usize, usize)> {
        self.probe(key.table_hash(), key).ok()
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_hashed(key.table_hash(), key)
    }

    /// [`get`](Self::get) for a caller that already holds `hash`, the
    /// key's [`TableKey::table_hash`].
    #[inline]
    pub fn get_hashed(&self, hash: u64, key: &K) -> Option<&V> {
        let (_, pos) = self.probe(hash, key).ok()?;
        Some(&self.entries[pos].1)
    }

    /// The value stored under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.get_mut_hashed(key.table_hash(), key)
    }

    /// [`get_mut`](Self::get_mut) for a caller that already holds
    /// `hash`, the key's [`TableKey::table_hash`].
    #[inline]
    pub fn get_mut_hashed(&mut self, hash: u64, key: &K) -> Option<&mut V> {
        let (_, pos) = self.probe(hash, key).ok()?;
        self.mark(pos);
        Some(&mut self.entries[pos].1)
    }

    /// Records that the entry at `pos` is about to be handed out
    /// mutably. Every path to a `&mut V` passes through here.
    #[inline]
    fn mark(&mut self, pos: usize) {
        if let Some(dirty) = &mut self.dirty {
            dirty.mark(pos);
        }
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Stores `value` under `key`. A new key is appended to the table
    /// order; an existing key keeps its place and its old value is
    /// returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = key.table_hash();
        if let Some(held) = self.get_mut_hashed(hash, &key) {
            return Some(std::mem::replace(held, value));
        }
        self.get_or_insert_with(hash, key, || Some(value));
        None
    }

    /// The value under `key`, which `make` supplies — appended to the
    /// table order — when the key is new: an upsert in one probe. `hash`
    /// must be `key`'s [`TableKey::table_hash`]. A `make` that declines
    /// (`None`) leaves the table as it was, and `None` is returned.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        hash: u64,
        key: K,
        make: impl FnOnce() -> Option<V>,
    ) -> Option<&mut V> {
        let free = match self.probe(hash, &key) {
            Ok((_, pos)) => {
                self.mark(pos);
                return Some(&mut self.entries[pos].1);
            }
            Err(free) => free,
        };
        let value = make()?;
        assert!(
            self.entries.len() < EMPTY as usize,
            "flow table positions are u32"
        );
        let pos = self.entries.len() as u32;
        match free {
            // The probe ended on the slot `place` would choose.
            Some(slot) if (self.entries.len() + 1) * 2 <= self.index.len() => {
                self.index[slot] = pos;
            }
            _ => {
                self.reindex((self.index.len() * 2).max(MIN_SLOTS));
                self.place(hash, pos);
            }
        }
        self.entries.push((key, value));
        self.entries.last_mut().map(|(_, value)| value)
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
        // The image shrinks and an entry moves: no delta describes that.
        self.dirty = None;
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
        // `keep` may write every value and drop any entry.
        self.dirty = None;
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

/// Widest record a table packs: the stack buffers a value is packed and
/// compared in hold it, and one mismatch bit per byte of it fits a word.
const MAX_RECORD_WIDTH: usize = 64;

impl<K: TableKey + Pack, V: Pack> FlowTable<K, V> {
    /// Bytes one entry occupies in a packed image: key, then value.
    pub const RECORD_WIDTH: usize = {
        assert!(
            K::WIDTH + V::WIDTH <= MAX_RECORD_WIDTH,
            "a packed flow record is at most 64 bytes"
        );
        K::WIDTH + V::WIDTH
    };

    /// Appends the records of the entries from position `first` on.
    fn append_records(&self, first: usize, out: &mut Vec<u8>) {
        let (entries, start) = (&self.entries[first..], out.len());
        out.resize(start + entries.len() * Self::RECORD_WIDTH, 0);
        let records = out[start..].chunks_exact_mut(Self::RECORD_WIDTH);
        for ((k, v), record) in entries.iter().zip(records) {
            let (key, value) = record.split_at_mut(K::WIDTH);
            k.pack(key);
            v.pack(value);
        }
    }

    /// Replaces `image`'s content with the packed image, in the
    /// buffer's own capacity when it has it.
    fn write_image(&self, image: &mut Vec<u8>) {
        image.clear();
        self.append_records(0, image);
    }

    /// The packed image — what [`Checkpointable::checkpoint`] returns —
    /// exported as the *base* of the deltas to come: the table forgets
    /// what it had marked and tracks its changes from here. `spent`, a
    /// base this one replaces, donates its buffer.
    pub fn checkpoint_base(&mut self, spent: Option<Snapshot>) -> Snapshot {
        let mut image = match spent {
            Some(Snapshot::Bytes(image)) => image,
            _ => Vec::new(),
        };
        self.write_image(&mut image);
        let base_len = self.entries.len();
        let mut marks = self.dirty.take().map_or_else(Vec::new, |spent| spent.marks);
        marks.clear();
        marks.resize(base_len.div_ceil(64), 0);
        self.dirty = Some(DirtySet { base_len, marks });
        Snapshot::Bytes(image)
    }

    /// The byte-range run list from `base` — the image the last
    /// [`checkpoint_base`](Self::checkpoint_base) returned — to the
    /// table's image now, built from the records marked since (see the
    /// module docs) and identical to what scanning the two images
    /// yields. The list is built in the buffer taken from `runs`.
    /// [`StageDelta::Whole`] when the table cannot vouch for `base`:
    /// it tracks no base, an entry was removed since, or `base` is not
    /// the image it exported.
    pub fn checkpoint_delta(&self, base: &Snapshot, runs: &mut Vec<u8>) -> StageDelta {
        let (Some(dirty), Snapshot::Bytes(base)) = (&self.dirty, base) else {
            return StageDelta::Whole;
        };
        if base.len() != dirty.base_len * Self::RECORD_WIDTH {
            return StageDelta::Whole;
        }
        let mut list = std::mem::take(runs);
        list.clear();
        self.write_runs(base, dirty, &mut list);
        if list.is_empty() {
            *runs = list;
            StageDelta::Unchanged
        } else {
            StageDelta::Runs(list)
        }
    }

    /// The record emitter: writes the run list from `base` to the
    /// present image into `list`, visiting the marked records and the
    /// appended tail alone. No method rewrites a key in place — a key is
    /// set when its record is appended and moves only with a removal,
    /// which ends tracking — so of a marked base record only the value
    /// can differ: it is packed and compared with the base's bytes, and
    /// each stretch of changed bytes, merged across unchanged stretches
    /// of at most [`RUN_GAP`], is one run. A run that ends within
    /// `RUN_GAP` of what may change next — the next record's value, when
    /// keys are that narrow, or the appended tail — is held open, and
    /// written once the next change shows whether it extends it; its
    /// bytes are then packed afresh from the table.
    fn write_runs(&self, base: &[u8], dirty: &DirtySet, list: &mut Vec<u8>) {
        let width = Self::RECORD_WIDTH;
        let (base_end, end) = (base.len(), self.entries.len() * width);
        let grows = end > base_end;
        // Room for every marked value to change whole, and the tail.
        let room = dirty.marked_len() * (V::WIDTH + 8) + (end - base_end) + V::WIDTH;
        let mut out = RunWriter::new(list, room);
        // Packed in the front half; the back half lets a run copy a
        // value's width from any offset in the value.
        let mut value = [0; 2 * MAX_RECORD_WIDTH];
        // A run `[start, end)` the next change may still extend.
        let mut open: Option<(usize, usize)> = None;
        for pos in dirty.marked() {
            let value_at = pos * width + K::WIDTH;
            let (key, held) = &self.entries[pos];
            debug_assert!(
                {
                    let mut packed = [0; MAX_RECORD_WIDTH];
                    key.pack(&mut packed[..K::WIDTH]);
                    packed[..K::WIDTH] == base[value_at - K::WIDTH..value_at]
                },
                "the key of marked record {pos} differs from the base's"
            );
            held.pack(&mut value[..V::WIDTH]);
            let mut differs = differing_bytes(&value[..V::WIDTH], &base[value_at..][..V::WIDTH]);
            while differs != 0 {
                let (first, stop) = take_run(&mut differs);
                let (at, run_end) = (value_at + first, value_at + stop);
                if let Some((start, held_end)) = open.take() {
                    if at - held_end <= RUN_GAP {
                        open = Some((start, run_end));
                        continue;
                    }
                    self.present_bytes(start, out.run(start, held_end - start));
                }
                // The next change lies past this record's value, or in
                // the appended tail: a run within `RUN_GAP` of either
                // waits for it.
                let to_record_end = V::WIDTH - stop;
                let may_extend = differs == 0
                    && (to_record_end + K::WIDTH <= RUN_GAP
                        || (grows && base_end - run_end <= RUN_GAP));
                if may_extend {
                    open = Some((at, run_end));
                } else {
                    out.put_run(at, stop - first, &value[first..first + V::WIDTH]);
                }
            }
        }
        // Every byte past the base's end has changed: the appended
        // records are a run of their own, or the end of the open one.
        let tail_start = match open {
            Some((start, held_end)) if grows && base_end - held_end <= RUN_GAP => start,
            Some((start, held_end)) => {
                self.present_bytes(start, out.run(start, held_end - start));
                base_end
            }
            None => base_end,
        };
        if grows {
            self.present_bytes(tail_start, out.run(tail_start, end - tail_start));
        }
        out.finish();
    }

    /// Writes the present image's bytes from `at` on into `out`, packed
    /// from the records they belong to.
    fn present_bytes(&self, at: usize, out: &mut [u8]) {
        let width = Self::RECORD_WIDTH;
        let mut record = [0; MAX_RECORD_WIDTH];
        let (mut pos, mut skip, mut done) = (at / width, at % width, 0);
        while done < out.len() {
            let (key, value) = &self.entries[pos];
            key.pack(&mut record[..K::WIDTH]);
            value.pack(&mut record[K::WIDTH..width]);
            let n = (width - skip).min(out.len() - done);
            out[done..done + n].copy_from_slice(&record[skip..skip + n]);
            (pos, skip, done) = (pos + 1, 0, done + n);
        }
    }

    /// Records a [`checkpoint_delta`](Self::checkpoint_delta) would visit
    /// now — those handed out mutably since the base plus those appended
    /// — or `None` where it would answer [`StageDelta::Whole`] for want
    /// of a tracked base.
    pub fn dirty_len(&self) -> Option<usize> {
        let dirty = self.dirty.as_ref()?;
        Some(dirty.marked_len() + (self.entries.len() - dirty.base_len))
    }

    /// Rebuilds a table from the packed image in `snap`, admitting at
    /// most `max_records` entries. The table is sized once, from the
    /// image's length, which the bound caps. Fails — returning no table
    /// — on
    ///
    /// - anything but a `Bytes` snapshot, a length that is not a whole
    ///   number of records (a torn record), or a field encoding its type
    ///   rejects: [`SnapshotError::TypeMismatch`];
    /// - more than `max_records` records: [`SnapshotError::WrongLength`];
    /// - a repeated key: `TypeMismatch { expected: "map with distinct
    ///   keys", .. }` — every entry of a table is distinct, so such an
    ///   image was not written by one.
    pub fn from_image(snap: &Snapshot, max_records: usize) -> Result<Self, SnapshotError> {
        let mismatch = |expected, found| SnapshotError::TypeMismatch { expected, found };
        let Snapshot::Bytes(image) = snap else {
            return Err(mismatch("packed flow table", snap.kind_name()));
        };
        if image.len() % Self::RECORD_WIDTH != 0 {
            return Err(mismatch("whole flow-table records", "torn record"));
        }
        let records = image.len() / Self::RECORD_WIDTH;
        if records > max_records {
            return Err(SnapshotError::WrongLength {
                expected: max_records,
                got: records,
            });
        }
        let mut table = FlowTable {
            entries: Vec::with_capacity(records),
            index: Vec::new(),
            dirty: None,
        };
        table.reindex((records * 2).next_power_of_two().max(MIN_SLOTS));
        for record in image.chunks_exact(Self::RECORD_WIDTH) {
            let (key, value) = record.split_at(K::WIDTH);
            let (Some(key), Some(value)) = (K::unpack(key), V::unpack(value)) else {
                return Err(mismatch("packed flow record", "invalid field encoding"));
            };
            // One probe: a key already present is found, not replaced.
            let held = table.len();
            table.get_or_insert_with(key.table_hash(), key, || Some(value));
            if table.len() == held {
                return Err(mismatch("map with distinct keys", "repeated key"));
            }
        }
        Ok(table)
    }
}

/// Takes the run at the lowest set bit out of `differs` — one bit per
/// changed byte of a value — and returns its first byte and the byte
/// after its last: the lowest stretch of set bits, then every further
/// stretch no more than [`RUN_GAP`] clear bits on (the unchanged bytes
/// between ride in the run).
#[inline]
fn take_run(differs: &mut u64) -> (usize, usize) {
    let bits = *differs;
    let first = bits.trailing_zeros();
    let mut end = first + (bits >> first).trailing_ones();
    loop {
        let rest = bits.checked_shr(end).unwrap_or(0);
        let gap = rest.trailing_zeros();
        if rest == 0 || gap as usize > RUN_GAP {
            break;
        }
        end += gap + (rest >> gap).trailing_ones();
    }
    *differs = bits & u64::MAX.checked_shl(end).unwrap_or(0);
    (first as usize, end as usize)
}

/// One bit per byte of `new` that differs from `old`'s (the two the same
/// length, at most 64), eight bytes per step.
#[inline]
fn differing_bytes(new: &[u8], old: &[u8]) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    debug_assert!(new.len() == old.len() && new.len() <= 64);
    let word = |bytes: &[u8]| {
        let mut word = [0; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    };
    let mut bits = 0;
    for (i, (new, old)) in new.chunks(8).zip(old.chunks(8)).enumerate() {
        let x = word(new) ^ word(old);
        // The high bit of every non-zero byte of `x`…
        let nonzero = (((x & LOW7) + LOW7) | x) & !LOW7;
        // …gathered into the top byte: byte k's lands on bit 56 + k, and
        // no two of the product's terms share a bit, so nothing carries.
        bits |= ((nonzero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    bits
}

// The packed image (see the module docs): a linear walk of the dense
// entries into one buffer. Restore re-inserts in image order, so the
// restored table exports the bytes it was built from.
impl<K: TableKey + Pack, V: Pack> Checkpointable for FlowTable<K, V> {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        let mut image = Vec::new();
        self.write_image(&mut image);
        Snapshot::Bytes(image)
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        Self::from_image(snap, usize::MAX)
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
    fn upsert_appends_where_insert_would_and_declines_cleanly() {
        let (mut inserted, mut upserted) = (FlowTable::new(), FlowTable::new());
        // Past several index growths, with repeats.
        for n in (0..300u16).chain(0..50) {
            let value = u64::from(n) * 3;
            if !inserted.contains_key(&tuple(n)) {
                inserted.insert(tuple(n), value);
            }
            let held =
                upserted.get_or_insert_with(tuple(n).stable_hash(), tuple(n), || Some(value));
            assert_eq!(held.copied(), Some(value));
        }
        assert_eq!(image_of(&upserted), image_of(&inserted));
        assert_eq!(
            upserted.index, inserted.index,
            "same slots, not just same order"
        );

        let declined = upserted.get_or_insert_with(tuple(999).stable_hash(), tuple(999), || None);
        assert_eq!(declined, None);
        assert_eq!(upserted.len(), 300);
        assert!(!upserted.contains_key(&tuple(999)));
        assert_eq!(
            upserted.index, inserted.index,
            "a declined upsert changes nothing"
        );
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
    fn image_is_fixed_width_records_in_table_order() {
        let mut t = FlowTable::new();
        t.insert(tuple(1), 0x0102_0304_0506_0708u64);
        t.insert(tuple(2), 9u64);
        let Snapshot::Bytes(image) = checkpoint(&t).root else {
            panic!("a table checkpoints as one blob");
        };
        assert_eq!(FlowTable::<FiveTuple, u64>::RECORD_WIDTH, 13 + 8);
        assert_eq!(image.len(), 2 * 21);
        // 10.0.0.1 -> 192.0.2.1, ports 1001 -> 80, UDP; then the value.
        assert_eq!(
            &image[..13],
            &[10, 0, 0, 1, 192, 0, 2, 1, 0x03, 0xE9, 0, 80, 17]
        );
        assert_eq!(&image[13..21], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(image[21 + 3], 2, "second record follows the first");
    }

    #[test]
    fn differing_bytes_is_the_bytewise_compare() {
        let naive = |a: &[u8; 64], b: &[u8; 64], width: usize| {
            (0..width).fold(0u64, |bits, i| bits | u64::from(a[i] != b[i]) << i)
        };
        let swar =
            |a: &[u8; 64], b: &[u8; 64], width: usize| differing_bytes(&a[..width], &b[..width]);
        let old: [u8; 64] = std::array::from_fn(|i| (i * 37) as u8);
        for width in [1, 5, 7, 8, 9, 16, 29, 45, 63, 64] {
            assert_eq!(swar(&old, &old, width), 0);
            // Every single byte, by its lowest and by its highest bit;
            // then every byte at once, then every other one.
            for at in 0..width {
                for flip in [0x01, 0x80, 0xFF] {
                    let mut new = old;
                    new[at] ^= flip;
                    assert_eq!(swar(&new, &old, width), 1 << at, "byte {at}");
                }
            }
            let all: [u8; 64] = std::array::from_fn(|i| if i < width { !old[i] } else { old[i] });
            assert_eq!(swar(&all, &old, width), naive(&all, &old, width));
            assert_eq!(naive(&all, &old, width).count_ones() as usize, width);
            let odd: [u8; 64] = std::array::from_fn(|i| {
                if i % 2 == 1 && i < width {
                    old[i] ^ 0x10
                } else {
                    old[i]
                }
            });
            assert_eq!(swar(&odd, &old, width), naive(&odd, &old, width));
        }
    }

    #[test]
    fn marks_are_walked_in_order_and_stop_at_the_base_length() {
        let mut dirty = DirtySet {
            base_len: 130,
            marks: vec![0; 3],
        };
        assert_eq!(dirty.marked().count(), 0);
        for pos in [129, 0, 64, 63, 7, 128, 64] {
            dirty.mark(pos);
        }
        // The last word has room for positions the base does not hold,
        // and the table never marks what lies past the words.
        dirty.mark(131);
        dirty.mark(192);
        dirty.mark(usize::MAX);
        assert_eq!(
            dirty.marked().collect::<Vec<_>>(),
            vec![0, 7, 63, 64, 128, 129]
        );
        assert_eq!(dirty.marked_len(), 6);
    }

    #[test]
    fn tracking_starts_at_the_first_base_and_costs_nothing_before() {
        let mut t = FlowTable::new();
        for n in 0..70 {
            t.insert(tuple(n), u64::from(n));
        }
        *t.get_mut(&tuple(3)).unwrap() += 1;
        assert!(t.dirty.is_none(), "no base, no bitmap");
        assert_eq!(t.dirty_len(), None);
        let base = t.checkpoint_base(None);
        assert_eq!(base, Snapshot::Bytes(image_of(&t)));
        assert_eq!(t.dirty.as_ref().map(|d| d.marks.len()), Some(2));
        *t.get_mut(&tuple(3)).unwrap() += 1;
        *t.get_mut(&tuple(3)).unwrap() += 1;
        t.get_or_insert_with(tuple(69).stable_hash(), tuple(69), || None);
        t.insert(tuple(200), 0);
        assert_eq!(t.dirty_len(), Some(3), "3 and 69 marked, 200 appended");
        // The spent base's buffer is the new base's.
        let Snapshot::Bytes(spent) = base else {
            panic!("a table checkpoints as one blob");
        };
        let (at, capacity) = (spent.as_ptr(), spent.capacity());
        t.remove(&tuple(200));
        assert!(t.dirty.is_none(), "a removal ends tracking");
        let Snapshot::Bytes(again) = t.checkpoint_base(Some(Snapshot::Bytes(spent))) else {
            panic!("a table checkpoints as one blob");
        };
        assert_eq!((again.as_ptr(), again.capacity()), (at, capacity));
        assert_eq!(again, image_of(&t));
        assert_eq!(t.dirty_len(), Some(0));
    }

    fn image_of(t: &FlowTable<FiveTuple, u64>) -> Vec<u8> {
        match checkpoint(t).root {
            Snapshot::Bytes(image) => image,
            other => panic!("a table checkpoints as one blob, not {other:?}"),
        }
    }

    #[test]
    fn from_image_rejects_what_no_table_wrote() {
        let mut t = FlowTable::new();
        t.insert(tuple(1), 1u64);
        t.insert(tuple(2), 2u64);
        let image = image_of(&t);
        let load = |image: Vec<u8>, max| {
            FlowTable::<FiveTuple, u64>::from_image(&Snapshot::Bytes(image), max).map(|t| t.len())
        };
        assert_eq!(load(image.clone(), 2), Ok(2));

        let mut repeated = image.clone();
        repeated.extend_from_slice(&image[..21]);
        assert_eq!(
            load(repeated, 8),
            Err(SnapshotError::TypeMismatch {
                expected: "map with distinct keys",
                found: "repeated key",
            })
        );
        assert!(matches!(
            load(image[..30].to_vec(), 8),
            Err(SnapshotError::TypeMismatch {
                found: "torn record",
                ..
            })
        ));
        assert_eq!(
            load(image, 1),
            Err(SnapshotError::WrongLength {
                expected: 1,
                got: 2
            })
        );
        assert!(matches!(
            FlowTable::<FiveTuple, u64>::from_image(&Snapshot::Map(vec![]), 8),
            Err(SnapshotError::TypeMismatch { found: "map", .. })
        ));
        assert_eq!(
            restore::<FlowTable<FiveTuple, u64>>(&checkpoint(&t))
                .map(|back| image_of(&back) == image_of(&t)),
            Ok(true),
            "a restored table seals the image it was built from"
        );
    }
}
