//! Oracle tests for incremental flow-table snapshots: the run list a
//! table builds from the records it marked dirty must be, **byte for
//! byte**, the list a scan of the two whole images produces
//! (`rbs_checkpoint::byte_runs` over byte slices — the generic path,
//! kept as the oracle), and a table that cannot vouch for its base must
//! say [`StageDelta::Whole`], never guess.
//!
//! - a table of narrow (10-byte) records — narrow so that changes in
//!   neighbouring records fall within, at and beyond the 8-byte merge
//!   gap — is driven through random `get_or_insert_with` (hit, miss,
//!   declining `make`), `get_mut_hashed` (changing the value, or taking
//!   the `&mut` and leaving it: over-marking), `insert` (replace, new),
//!   `remove`, `retain`, restore-from-image and `checkpoint_base` steps,
//!   and checked against the oracle **after every step** — and so are a
//!   table of 16-byte values whose changes lie eight and nine bytes
//!   apart within a value, a table of the shape the NAT's inbound map
//!   seals, a 3-byte key and a 7-byte value, whose value spans straddle
//!   the image's words and whose runs merge across the keys between,
//!   and a table of the shape the flow tracker seals, a 13-byte
//!   five-tuple and a 16-byte `FlowEntry`, whose runs never cross a key;
//! - the named shapes — runs merged across adjacent records, gaps of
//!   7/8/9 bytes, a pure-append tail, a tail merged into the last run
//!   (up to a gap of eight bytes, for a tracker record),
//!   an empty base, nothing changed, an invalid set, a whole 7-byte
//!   value across a word boundary — each pinned by a deterministic case
//!   that also says what the list looks like;
//! - at tracker level, `packets`/`bytes` counters carrying across byte
//!   boundaries (0xFF → 0x100, 0xFFFF → 0x1_0000);
//! - at pipeline level, a store driven by `record_from` over random
//!   traffic, random cadence and random respawns seals the bytes of a
//!   twin store fed whole exports.
//!
//! Mutation-checked: dropping the mark from `get_mut_hashed` or from the
//! hit arm of `get_or_insert_with`, keeping the dirty set across
//! `remove` or `retain`, keeping the old marks at a new base, moving
//! one byte's mismatch bit, or letting the walk merge changes nine
//! unchanged bytes apart within a value, each fails this file.
//! (`checkpoint_delta` takes `&self`: resetting the set there — every
//! delta is against the *base*, not against the previous delta — does
//! not compile.)

use proptest::prelude::*;
use rbs_checkpoint::{
    byte_runs, checkpoint, diff, BaseId, Checkpoint, Delta, Snapshot, SnapshotSource, SnapshotStore,
};
use rbs_netfx::flowtable::{FlowTable, Pack, TableKey};
use rbs_netfx::headers::ipv4::IpProto;
use rbs_netfx::headers::MacAddr;
use rbs_netfx::{
    FiveTuple, FlowEntry, FlowTracker, Operator, Packet, PacketBatch, PipelineSpec, StageDelta,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A two-byte key: with a `u64` value, a 10-byte record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key(u16);

impl TableKey for Key {
    fn table_hash(&self) -> u64 {
        u64::from(self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7
    }
}

impl Pack for Key {
    const WIDTH: usize = 2;

    fn pack(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.0.to_be_bytes());
    }

    fn unpack(bytes: &[u8]) -> Option<Self> {
        Some(Key(u16::from_be_bytes(bytes.try_into().ok()?)))
    }
}

type Table = FlowTable<Key, u64>;
const RECORD: usize = 10;
/// Offset of the value in a record.
const VALUE: usize = 2;

/// A three-byte key — a port and a protocol, as the NAT's inbound table
/// keys its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortKey(u16, u8);

impl TableKey for PortKey {
    fn table_hash(&self) -> u64 {
        (u64::from(self.0) << 8 | u64::from(self.1)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7
    }
}

impl Pack for PortKey {
    const WIDTH: usize = 3;

    fn pack(&self, out: &mut [u8]) {
        out[..2].copy_from_slice(&self.0.to_be_bytes());
        out[2] = self.1;
    }

    fn unpack(bytes: &[u8]) -> Option<Self> {
        let b: &[u8; 3] = bytes.try_into().ok()?;
        Some(PortKey(u16::from_be_bytes([b[0], b[1]]), b[2]))
    }
}

/// A seven-byte value — an inside address, port and protocol, as the
/// NAT's inbound table holds — kept as the low 56 bits of a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inside(u64);

impl Pack for Inside {
    const WIDTH: usize = 7;

    fn pack(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.0.to_le_bytes()[..7]);
    }

    fn unpack(bytes: &[u8]) -> Option<Self> {
        let mut word = [0; 8];
        word[..7].copy_from_slice(bytes);
        Some(Inside(u64::from_le_bytes(word)))
    }
}

/// A 10-byte record too, split 3 + 7: a value's bytes straddle the
/// image's words, and a change at a value's end and one at the next
/// value's start are three key bytes apart, so runs merge across records.
type PortTable = FlowTable<PortKey, Inside>;

/// A 16-byte value, as wide as the flow tracker's counters: the raw
/// number, then the same rotated by two bytes. A change to byte `a < 6`
/// recurs at byte `a + 10`, nine unchanged bytes on — two runs — while a
/// change to bytes `a` and `a + 1` leaves eight between — one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wide(u64);

impl Pack for Wide {
    const WIDTH: usize = 16;

    fn pack(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        out[8..].copy_from_slice(&self.0.rotate_left(16).to_le_bytes());
    }

    fn unpack(bytes: &[u8]) -> Option<Self> {
        let raw = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let rotated = u64::from_le_bytes(bytes[8..].try_into().ok()?);
        (rotated == raw.rotate_left(16)).then_some(Wide(raw))
    }
}

/// A two-byte key in front of a [`Wide`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WideKey(u16);

impl TableKey for WideKey {
    fn table_hash(&self) -> u64 {
        Key(self.0).table_hash()
    }
}

impl Pack for WideKey {
    const WIDTH: usize = 2;

    fn pack(&self, out: &mut [u8]) {
        Key(self.0).pack(out);
    }

    fn unpack(bytes: &[u8]) -> Option<Self> {
        Key::unpack(bytes).map(|key| WideKey(key.0))
    }
}

/// What the step oracle needs of a table shape: its keys and values
/// from small numbers, and its values as numbers again.
trait Shape {
    type K: TableKey + Pack + Copy + std::fmt::Debug;
    type V: Pack + Copy + PartialEq + std::fmt::Debug;
    /// The value bits a record holds.
    const BITS: u64;
    fn key(n: u16) -> Self::K;
    fn number(key: &Self::K) -> u16;
    fn value(raw: u64) -> Self::V;
    fn raw(value: &Self::V) -> u64;
}

impl Shape for Key {
    type K = Key;
    type V = u64;
    const BITS: u64 = u64::MAX;
    fn key(n: u16) -> Key {
        Key(n)
    }
    fn number(key: &Key) -> u16 {
        key.0
    }
    fn value(raw: u64) -> u64 {
        raw
    }
    fn raw(value: &u64) -> u64 {
        *value
    }
}

impl Shape for PortKey {
    type K = PortKey;
    type V = Inside;
    const BITS: u64 = (1 << 56) - 1;
    fn key(n: u16) -> PortKey {
        PortKey(40_000 + n, if n.is_multiple_of(3) { 6 } else { 17 })
    }
    fn number(key: &PortKey) -> u16 {
        key.0 - 40_000
    }
    fn value(raw: u64) -> Inside {
        Inside(raw & Self::BITS)
    }
    fn raw(value: &Inside) -> u64 {
        value.0
    }
}

impl Shape for WideKey {
    type K = WideKey;
    type V = Wide;
    const BITS: u64 = u64::MAX;
    fn key(n: u16) -> WideKey {
        WideKey(n)
    }
    fn number(key: &WideKey) -> u16 {
        key.0
    }
    fn value(raw: u64) -> Wide {
        Wide(raw)
    }
    fn raw(value: &Wide) -> u64 {
        value.0
    }
}

/// The shape the flow tracker seals — the storm's delta records: a
/// 13-byte five-tuple, wider than the merge gap, so a run never crosses
/// a key; then a 16-byte `FlowEntry` whose `bytes` is `packets` rotated
/// by three bytes, so a changed byte recurs three to eleven bytes on —
/// within one run or in a second.
impl Shape for FiveTuple {
    type K = FiveTuple;
    type V = FlowEntry;
    const BITS: u64 = u64::MAX;
    fn key(n: u16) -> FiveTuple {
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
    fn number(key: &FiveTuple) -> u16 {
        key.src_port - 1_000
    }
    fn value(raw: u64) -> FlowEntry {
        FlowEntry {
            packets: raw,
            bytes: raw.rotate_left(24),
        }
    }
    fn raw(value: &FlowEntry) -> u64 {
        value.packets
    }
}

fn image_of<K: TableKey + Pack, V: Pack>(table: &FlowTable<K, V>) -> Vec<u8> {
    match checkpoint(table).root {
        Snapshot::Bytes(image) => image,
        other => panic!("a table checkpoints as one blob, not {other:?}"),
    }
}

/// The scan: what comparing the two whole images yields.
fn scanned(base: &[u8], next: &[u8]) -> StageDelta {
    if next.len() < base.len() {
        return StageDelta::Whole;
    }
    let mut runs = Vec::new();
    byte_runs(base, next, &mut runs);
    if runs.is_empty() {
        StageDelta::Unchanged
    } else {
        StageDelta::Runs(runs)
    }
}

/// The walk: what the table says, starting from a scratch buffer that
/// still holds an earlier answer.
fn walked<K: TableKey + Pack, V: Pack>(table: &FlowTable<K, V>, base: &[u8]) -> StageDelta {
    let mut scratch = vec![0xEE; 7];
    let answer = table.checkpoint_delta(&Snapshot::Bytes(base.to_vec()), &mut scratch);
    if matches!(answer, StageDelta::Runs(_)) {
        assert!(scratch.is_empty(), "the list was built in the scratch");
    }
    answer
}

/// `(start, bytes)` of each run of a run list.
fn runs_of(delta: &StageDelta) -> Vec<(usize, Vec<u8>)> {
    let StageDelta::Runs(list) = delta else {
        return Vec::new();
    };
    let varint = |pos: &mut usize| {
        let (mut v, mut shift) = (0usize, 0);
        loop {
            let b = list[*pos];
            *pos += 1;
            v |= usize::from(b & 0x7F) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                return v;
            }
        }
    };
    let (mut pos, mut at, mut out) = (0, 0, Vec::new());
    while pos < list.len() {
        at += varint(&mut pos);
        let len = varint(&mut pos);
        out.push((at, list[pos..pos + len].to_vec()));
        pos += len;
        at += len;
    }
    out
}

#[derive(Debug, Clone)]
enum Op {
    /// `get_or_insert_with`: on a hit xor the value with the mask (zero:
    /// take the `&mut`, change nothing); on a miss insert the mask —
    /// unless `decline`.
    Upsert {
        key: u16,
        mask: u64,
        decline: bool,
    },
    /// `get_mut_hashed`, value xor mask.
    Touch {
        key: u16,
        mask: u64,
    },
    Insert {
        key: u16,
        value: u64,
    },
    Remove {
        key: u16,
    },
    /// Keep the keys that are not a multiple of this; bump the rest.
    Retain {
        modulus: u16,
    },
    /// Replace the table by one restored from its own image.
    Restore,
    /// `checkpoint_base`, recycling the previous base's buffer or not.
    Base {
        recycle: bool,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // A small key space, so steps hit existing keys as often as new ones
    // and neighbouring records change together.
    let key = || 0u16..40;
    // Mostly one changed byte, anywhere in the value; sometimes nothing,
    // sometimes everything.
    let mask = || {
        prop_oneof![
            6 => (0u32..8, 1u64..256).prop_map(|(byte, bits)| bits << (8 * byte)),
            2 => Just(0u64),
            1 => any::<u64>(),
        ]
    };
    let op = prop_oneof![
        5 => (key(), mask(), any::<bool>())
            .prop_map(|(key, mask, decline)| Op::Upsert { key, mask, decline }),
        6 => (key(), mask()).prop_map(|(key, mask)| Op::Touch { key, mask }),
        3 => (key(), any::<u64>()).prop_map(|(key, value)| Op::Insert { key, value }),
        1 => key().prop_map(|key| Op::Remove { key }),
        1 => (2u16..9).prop_map(|modulus| Op::Retain { modulus }),
        1 => Just(Op::Restore),
        3 => any::<bool>().prop_map(|recycle| Op::Base { recycle }),
    ];
    proptest::collection::vec(op, 1..60)
}

/// Drives a table of shape `S` through `ops` from `seed` records, and
/// holds the walk to the scan after every step.
fn walk_is_scan_after_every_step<S: Shape>(seed: u16, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut table = FlowTable::<S::K, S::V>::new();
    let mut oracle = BTreeMap::new();
    for key in 0..seed {
        table.insert(S::key(key), S::value(u64::from(key) << 20));
        oracle.insert(key, u64::from(key) << 20);
    }
    // The last base image, and whether the table still tracks it.
    let mut base: Option<Vec<u8>> = None;
    let mut tracked = false;
    for op in ops {
        match *op {
            Op::Upsert { key, mask, decline } => {
                let mask = mask & S::BITS;
                let hash = S::key(key).table_hash();
                let made = (!decline).then(|| S::value(mask));
                match table.get_or_insert_with(hash, S::key(key), || made) {
                    Some(value) if oracle.contains_key(&key) => {
                        *value = S::value(S::raw(value) ^ mask);
                    }
                    Some(value) => prop_assert_eq!(S::raw(value), mask),
                    None => prop_assert!(decline && !oracle.contains_key(&key)),
                }
                match oracle.get_mut(&key) {
                    Some(value) => *value ^= mask,
                    None if !decline => drop(oracle.insert(key, mask)),
                    None => {}
                }
            }
            Op::Touch { key, mask } => {
                let mask = mask & S::BITS;
                let held = table.get_mut_hashed(S::key(key).table_hash(), &S::key(key));
                prop_assert_eq!(held.is_some(), oracle.contains_key(&key));
                if let (Some(value), Some(known)) = (held, oracle.get_mut(&key)) {
                    *value = S::value(S::raw(value) ^ mask);
                    *known ^= mask;
                }
            }
            Op::Insert { key, value } => {
                let value = value & S::BITS;
                prop_assert_eq!(
                    table
                        .insert(S::key(key), S::value(value))
                        .map(|v| S::raw(&v)),
                    oracle.insert(key, value)
                );
            }
            Op::Remove { key } => {
                let removed = oracle.remove(&key);
                prop_assert_eq!(table.remove(&S::key(key)).map(|v| S::raw(&v)), removed);
                tracked &= removed.is_none();
            }
            Op::Retain { modulus } => {
                table.retain(|k, v| {
                    *v = S::value(S::raw(v).wrapping_add(1));
                    S::number(k) % modulus != 0
                });
                oracle.retain(|k, v| {
                    *v = v.wrapping_add(1) & S::BITS;
                    k % modulus != 0
                });
                tracked = false;
            }
            Op::Restore => {
                let image = Snapshot::Bytes(image_of(&table));
                table = FlowTable::from_image(&image, usize::MAX).expect("own image");
                tracked = false;
            }
            Op::Base { recycle } => {
                let spent = base.take().filter(|_| recycle).map(Snapshot::Bytes);
                let Snapshot::Bytes(image) = table.checkpoint_base(spent) else {
                    panic!("a table checkpoints as one blob");
                };
                prop_assert_eq!(&image, &image_of(&table), "a base is the full image");
                base = Some(image);
                tracked = true;
            }
        }
        prop_assert_eq!(table.len(), oracle.len());
        let now = image_of(&table);
        match &base {
            Some(base) if tracked => {
                prop_assert_eq!(walked(&table, base), scanned(base, &now), "after {:?}", op);
                prop_assert!(table.dirty_len().is_some());
            }
            // A base the table no longer (or never did) vouch for.
            Some(base) => {
                prop_assert_eq!(walked(&table, base), StageDelta::Whole, "after {:?}", op);
            }
            None => prop_assert_eq!(walked(&table, &now), StageDelta::Whole),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn the_dirty_walk_is_the_scan_after_every_step(seed in 0u16..24, ops in ops()) {
        walk_is_scan_after_every_step::<Key>(seed, &ops)?;
    }

    /// Values of 16 bytes whose changes lie eight and nine unchanged
    /// bytes apart within one value: the walk's runs must merge across
    /// the one and stop at the other, as the builder's runs do.
    #[test]
    fn the_dirty_walk_is_the_scan_for_a_sixteen_byte_value(seed in 0u16..24, ops in ops()) {
        walk_is_scan_after_every_step::<WideKey>(seed, &ops)?;
    }

    /// The shape the NAT's inbound table seals: a 3-byte key and a
    /// 7-byte value.
    #[test]
    fn the_dirty_walk_is_the_scan_for_a_three_and_seven_byte_record(
        seed in 0u16..24,
        ops in ops(),
    ) {
        walk_is_scan_after_every_step::<PortKey>(seed, &ops)?;
    }

    /// The shape the flow tracker seals: a 13-byte key no run crosses,
    /// then a 16-byte value.
    #[test]
    fn the_dirty_walk_is_the_scan_for_the_tracker_record(seed in 0u16..24, ops in ops()) {
        walk_is_scan_after_every_step::<FiveTuple>(seed, &ops)?;
    }
}

/// A table of `n` records, `key → key << 8`, exported as a base.
fn based(n: u16) -> (Table, Vec<u8>) {
    let mut table = Table::new();
    for key in 0..n {
        table.insert(Key(key), u64::from(key) << 8);
    }
    let Snapshot::Bytes(base) = table.checkpoint_base(None) else {
        panic!("a table checkpoints as one blob");
    };
    (table, base)
}

/// Changes byte `byte` of record `record`'s value.
fn poke(table: &mut Table, record: u16, byte: usize) {
    *table.get_mut(&Key(record)).expect("present") ^= 0x55 << (8 * byte);
}

#[test]
fn changes_in_adjacent_records_merge_up_to_a_gap_of_eight() {
    // The last value byte of record 3 and value byte `b` of record 4 are
    // `2 + b` unchanged bytes apart: 7, 8 and 9 for b = 5, 6, 7.
    for (byte, merged) in [(5, true), (6, true), (7, false)] {
        let (mut table, base) = based(8);
        poke(&mut table, 3, 7);
        poke(&mut table, 4, byte);
        let answer = walked(&table, &base);
        assert_eq!(answer, scanned(&base, &image_of(&table)));
        let runs = runs_of(&answer);
        let (first, second) = (3 * RECORD + VALUE + 7, 4 * RECORD + VALUE + byte);
        if merged {
            assert_eq!(runs.len(), 1, "gap {}", second - first - 1);
            assert_eq!(runs[0].0, first);
            assert_eq!(runs[0].1.len(), second - first + 1);
        } else {
            assert_eq!(
                runs.iter()
                    .map(|(at, bytes)| (*at, bytes.len()))
                    .collect::<Vec<_>>(),
                vec![(first, 1), (second, 1)],
                "gap {}",
                second - first - 1
            );
        }
    }
}

/// A `PortTable` of `n` records, `n → n << 16`, exported as a base.
fn port_based(n: u16) -> (PortTable, Vec<u8>) {
    let mut table = PortTable::new();
    for n in 0..n {
        table.insert(PortKey::key(n), Inside(u64::from(n) << 16));
    }
    let Snapshot::Bytes(base) = table.checkpoint_base(None) else {
        panic!("a table checkpoints as one blob");
    };
    (table, base)
}

#[test]
fn seven_byte_values_merge_across_three_byte_keys_and_straddle_words() {
    const RECORD: usize = 10;
    const VALUE: usize = 3;
    let poke = |table: &mut PortTable, record: u16, byte: usize| {
        table.get_mut(&PortKey::key(record)).expect("present").0 ^= 0x55 << (8 * byte);
    };
    let spans = |table: &PortTable, base: &[u8]| {
        let answer = walked(table, base);
        assert_eq!(answer, scanned(base, &image_of(table)));
        runs_of(&answer)
            .iter()
            .map(|(at, bytes)| (*at, bytes.len()))
            .collect::<Vec<_>>()
    };
    // A value's last byte and the next value's first: the three key
    // bytes between ride in one run.
    let (mut table, base) = port_based(8);
    poke(&mut table, 2, 6);
    poke(&mut table, 3, 0);
    assert_eq!(spans(&table, &base), vec![(2 * RECORD + VALUE + 6, 5)]);

    // A whole value, bytes 43..50 of the image: across the word
    // boundary at 48, one span.
    let (mut table, base) = port_based(8);
    table.get_mut(&PortKey::key(4)).expect("present").0 ^= (1 << 56) - 1;
    assert_eq!(spans(&table, &base), vec![(4 * RECORD + VALUE, 7)]);

    // Value byte 6 of record 5 and byte 5 or 6 of record 6: eight
    // unchanged bytes between merge, nine do not.
    let (mut table, base) = port_based(8);
    poke(&mut table, 5, 6);
    poke(&mut table, 6, 5);
    assert_eq!(spans(&table, &base), vec![(5 * RECORD + VALUE + 6, 10)]);
    let (mut table, base) = port_based(8);
    poke(&mut table, 5, 6);
    poke(&mut table, 6, 6);
    assert_eq!(spans(&table, &base), vec![(59, 1), (69, 1)]);
    assert_eq!(table.dirty_len(), Some(2));
}

#[test]
fn a_run_spans_as_many_records_as_keep_changing() {
    let (mut table, base) = based(12);
    for record in 2..9 {
        poke(&mut table, record, 0);
        poke(&mut table, record, 7);
    }
    let answer = walked(&table, &base);
    assert_eq!(answer, scanned(&base, &image_of(&table)));
    let runs = runs_of(&answer);
    assert_eq!(runs.len(), 1, "one run across seven records");
    assert_eq!(runs[0].0, 2 * RECORD + VALUE);
    assert_eq!(runs[0].1.len(), 6 * RECORD + 8);
    assert_eq!(table.dirty_len(), Some(7));
}

#[test]
fn appended_records_are_the_tail_alone_or_on_the_last_run() {
    // Nothing else changed: one run that starts at the base's end.
    let (mut table, base) = based(5);
    for key in 100..103 {
        table.insert(Key(key), 9);
    }
    let answer = walked(&table, &base);
    assert_eq!(answer, scanned(&base, &image_of(&table)));
    assert_eq!(
        runs_of(&answer),
        vec![(base.len(), image_of(&table)[base.len()..].to_vec())]
    );
    assert_eq!(table.dirty_len(), Some(3));

    // A change within eight bytes of the base's end: the tail rides on
    // its run. (Value byte 0 of the last record is 7 bytes short.)
    poke(&mut table, 4, 0);
    let answer = walked(&table, &base);
    assert_eq!(answer, scanned(&base, &image_of(&table)));
    let runs = runs_of(&answer);
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].0, 4 * RECORD + VALUE);
    assert_eq!(runs[0].1.len(), 8 + 3 * RECORD);

    // A change further back: its own run, then the tail's.
    let (mut table, base) = based(5);
    poke(&mut table, 1, 3);
    table.insert(Key(100), 9);
    let answer = walked(&table, &base);
    assert_eq!(answer, scanned(&base, &image_of(&table)));
    assert_eq!(
        runs_of(&answer)
            .iter()
            .map(|(at, bytes)| (*at, bytes.len()))
            .collect::<Vec<_>>(),
        vec![(RECORD + VALUE + 3, 1), (base.len(), RECORD)]
    );

    // A tail long enough for a two-byte run length.
    let (mut table, base) = based(3);
    for key in 100..140 {
        table.insert(Key(key), u64::from(key));
    }
    let answer = walked(&table, &base);
    assert_eq!(answer, scanned(&base, &image_of(&table)));
    assert_eq!(runs_of(&answer)[0].1.len(), 40 * RECORD);
}

#[test]
fn a_tracker_record_takes_in_the_tail_up_to_a_gap_of_eight() {
    // The last base record's `packets` byte 7 or 6 and the appended
    // record after it: 8 and 9 unchanged bytes apart, the `bytes` word
    // between.
    const RECORD: usize = 29;
    for (byte, merged) in [(7, true), (6, false)] {
        let mut table = FlowTable::<FiveTuple, FlowEntry>::new();
        for n in 0..4 {
            table.insert(FiveTuple::key(n), FlowEntry::default());
        }
        let Snapshot::Bytes(base) = table.checkpoint_base(None) else {
            panic!("a table checkpoints as one blob");
        };
        table.get_mut(&FiveTuple::key(3)).expect("present").packets = 0x55 << (8 * byte);
        table.insert(FiveTuple::key(4), FlowEntry::default());
        let answer = walked(&table, &base);
        assert_eq!(answer, scanned(&base, &image_of(&table)));
        let at = 3 * RECORD + 13 + byte;
        let runs: Vec<(usize, usize)> = runs_of(&answer)
            .iter()
            .map(|(at, bytes)| (*at, bytes.len()))
            .collect();
        if merged {
            assert_eq!(runs, vec![(at, 4 * RECORD + RECORD - at)]);
        } else {
            assert_eq!(runs, vec![(at, 1), (base.len(), RECORD)]);
        }
    }
}

#[test]
fn an_empty_base_and_an_unchanged_table() {
    let (mut table, base) = based(0);
    assert!(base.is_empty());
    assert_eq!(walked(&table, &base), StageDelta::Unchanged);
    table.insert(Key(1), 1);
    table.insert(Key(2), 2);
    let answer = walked(&table, &base);
    assert_eq!(answer, scanned(&base, &image_of(&table)));
    assert_eq!(runs_of(&answer), vec![(0, image_of(&table))]);

    // Marked and left equal — a lookup through `&mut`, a value written
    // back as it was, a value changed and changed back — is unchanged.
    let (mut table, base) = based(6);
    assert_eq!(walked(&table, &base), StageDelta::Unchanged);
    assert_eq!(table.dirty_len(), Some(0));
    let _ = table.get_mut(&Key(2));
    table.insert(Key(3), 3 << 8);
    poke(&mut table, 4, 1);
    poke(&mut table, 4, 1);
    assert_eq!(table.dirty_len(), Some(3), "over-marked");
    assert_eq!(walked(&table, &base), StageDelta::Unchanged);
    // Reads mark nothing, and asking for a delta resets nothing.
    poke(&mut table, 5, 2);
    let _ = (
        table.get(&Key(1)),
        table.contains_key(&Key(0)),
        table.iter().count(),
    );
    assert_eq!(table.dirty_len(), Some(4));
    let first = walked(&table, &base);
    assert_eq!(walked(&table, &base), first);
    assert_eq!(runs_of(&first).len(), 1);
}

#[test]
fn a_table_that_cannot_vouch_for_the_base_says_whole() {
    let whole = |table: &Table, base: &[u8]| assert_eq!(walked(table, base), StageDelta::Whole);

    // Never based.
    let mut table = Table::new();
    table.insert(Key(1), 1);
    whole(&table, &image_of(&table));
    assert_eq!(table.dirty_len(), None);

    // A removal — even of the last entry, which moves nothing — and a
    // retain — even one that keeps everything.
    let (mut table, base) = based(6);
    assert_eq!(table.remove(&Key(9)), None, "absent: nothing happened");
    assert_eq!(walked(&table, &base), StageDelta::Unchanged);
    table.remove(&Key(5));
    whole(&table, &base);
    let (mut table, base) = based(6);
    table.retain(|_, _| true);
    whole(&table, &base);

    // Not the base it exported: another length, another kind.
    let (table, base) = based(6);
    whole(&table, &base[RECORD..]);
    whole(&table, &[base.clone(), base.clone()].concat());
    assert_eq!(
        table.checkpoint_delta(&Snapshot::UInt(3), &mut Vec::new()),
        StageDelta::Whole
    );

    // A new base takes over: the old one's marks are gone with it.
    let (mut table, _) = based(6);
    poke(&mut table, 1, 1);
    let Snapshot::Bytes(rebased) = table.checkpoint_base(None) else {
        panic!("a table checkpoints as one blob");
    };
    assert_eq!(walked(&table, &rebased), StageDelta::Unchanged);
    assert_eq!(table.dirty_len(), Some(0));
}

// ---- tracker and pipeline level ----

fn packet(flow: u16) -> Packet {
    Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, (flow >> 8) as u8, flow as u8),
        Ipv4Addr::new(192, 0, 2, 1),
        1_000 + flow,
        80,
        18,
    )
}

fn batch(flows: impl IntoIterator<Item = u16>) -> PacketBatch {
    flows.into_iter().map(packet).collect()
}

fn tracker_spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(rbs_netfx::operators::NullFilter::new)
        .stage(|| FlowTracker::new(64))
}

/// The tracker's packed image inside a `tracker_spec` checkpoint.
fn tracker_image(cp: &mut Checkpoint) -> &mut Vec<u8> {
    let Snapshot::Seq(stages) = &mut cp.root else {
        panic!("pipeline state is a seq");
    };
    match &mut stages[1] {
        Snapshot::Opt(Some(state)) => match state.as_mut() {
            Snapshot::Bytes(image) => image,
            other => panic!("the tracker checkpoints as one blob, not {other:?}"),
        },
        other => panic!("the tracker is stateful, got {other:?}"),
    }
}

/// What `source` answers for `id`: the delta it fills, or `None` when
/// it declines.
fn delta_of(source: &impl SnapshotSource, id: BaseId, base: &Checkpoint) -> Option<Delta> {
    let mut delta = Delta::default();
    source.export_delta(id, base, &mut delta).then_some(delta)
}

#[test]
fn tracker_counters_carry_across_byte_boundaries() {
    // Three flows; the middle one's counters are set just short of a
    // carry by editing the image it is restored from: `packets` and
    // `bytes` are the two little-endian words after the 13-byte tuple.
    const PACKETS: std::ops::Range<usize> = 29 + 13..29 + 21;
    const BYTES: std::ops::Range<usize> = 29 + 21..29 + 29;
    let frame = packet(6).len() as u64;
    for (packets, bytes) in [
        (0xFFu64, 0x100 - frame),
        (0xFFFF, 0x1_0000 - frame),
        (0xFF_FFFF, 0xFFFF_FFFF),
        (0x00FF_FFFF_FFFF_FFFF, 0x0100),
        (7, 0xFFFF_FFFF_FFFF_FF00),
    ] {
        let mut seen = tracker_spec().build();
        seen.run_batch(batch([5, 6, 7]));
        let mut cp = seen.export_state();
        tracker_image(&mut cp)[PACKETS].copy_from_slice(&packets.to_le_bytes());
        tracker_image(&mut cp)[BYTES].copy_from_slice(&bytes.to_le_bytes());

        let mut live = tracker_spec().build_with_state(&cp).expect("own shape");
        let (base, id) = live.export_base(None);
        assert_eq!(base.root, cp.root);
        live.run_batch(batch([6]));
        let delta = delta_of(&live, id, &base).expect("the pipeline produced this base");
        let mut next = live.export_state();
        assert_eq!(delta, diff(&base, &next), "{packets:#x}/{bytes:#x}");
        assert_eq!(
            rbs_checkpoint::apply(&base, &delta).unwrap().root,
            next.root
        );
        let image = tracker_image(&mut next);
        assert_eq!(image[PACKETS], (packets + 1).to_le_bytes());
        assert_eq!(image[BYTES], (bytes + frame).to_le_bytes());
    }
}

#[test]
fn a_pipeline_answers_only_for_the_base_it_produced() {
    let spec = tracker_spec();
    let mut live = spec.build();
    live.run_batch(batch(0..10));
    let (base, id) = live.export_base(None);
    assert_eq!(base, live.export_state(), "a base is the full export");

    // Nothing happened: the empty delta, as `diff` gives.
    assert_eq!(delta_of(&live, id, &base), Some(diff(&base, &base)));
    live.run_batch(batch([3, 4, 11]));
    let delta = delta_of(&live, id, &base).expect("tracked");
    assert_eq!(delta, diff(&base, &live.export_state()));
    assert_eq!(delta.replacements.len(), 1);

    // A twin built from the same state never produced `id`; neither did
    // a pipeline restored from the base, nor this one once it re-bases
    // or has state imported.
    let twin = spec
        .build_with_state(&live.export_state())
        .expect("own shape");
    assert_eq!(delta_of(&twin, id, &base), None);
    let (rebased, next_id) = live.export_base(Some(base.clone()));
    assert_ne!(next_id, id);
    assert_eq!(delta_of(&live, id, &base), None, "re-based");
    assert_eq!(delta_of(&live, next_id, &rebased), Some(Default::default()));
    live.import_state(&rebased).expect("own state");
    assert_eq!(delta_of(&live, next_id, &rebased), None, "restored");

    // A stage that tracks nothing makes the whole pipeline decline.
    struct Seen(u64);
    impl Operator for Seen {
        fn process(&mut self, batch: PacketBatch) -> PacketBatch {
            self.0 += batch.len() as u64;
            batch
        }
        fn checkpoint_state(&self, _ctx: &mut rbs_checkpoint::CheckpointCtx) -> Option<Snapshot> {
            Some(Snapshot::UInt(self.0))
        }
    }
    let mut mixed = rbs_netfx::Pipeline::new()
        .add(FlowTracker::new(8))
        .add(Seen(0));
    let (base, id) = mixed.export_base(None);
    assert_eq!(delta_of(&mixed, id, &base), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engines' loop — traffic, then `record_from` — against a twin
    /// store fed `export_state()`, at any cadence, through respawns from
    /// the latest record (a chain the store has never based) and ticks
    /// with no traffic at all.
    #[test]
    fn a_driven_store_seals_the_bytes_of_a_fed_one(
        full_every in 1u32..7,
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0u16..48, 0..12), 0u8..8),
            1..40,
        ),
    ) {
        let spec = tracker_spec().with_state_schema(3);
        let mut live = spec.build();
        let (mut driven, mut fed) = (SnapshotStore::new(full_every), SnapshotStore::new(full_every));
        for (tick, (flows, respawn)) in rounds.iter().enumerate() {
            if *respawn == 0 {
                if let Some(sealed) = driven.latest() {
                    live = spec.build_with_state(&sealed.open().unwrap()).unwrap();
                }
            }
            live.run_batch(batch(flows.iter().copied()));
            let state: Checkpoint = live.export_state();
            let (tick, items) = (tick as u64, live.state_items());
            let meta = driven.record_from(&mut live, tick, items, 3);
            prop_assert_eq!(fed.record(&state, tick, items, 3), meta);
            let (a, b) = (driven.latest().unwrap(), fed.latest().unwrap());
            prop_assert_eq!(a.envelopes(), b.envelopes());
            prop_assert_eq!(&a.open().unwrap().root, &state.root);
            prop_assert_eq!(driven.stats(), fed.stats());
        }
    }
}
