//! Tests for the generic half of the snapshot fast path — what the
//! checkpoint layer does with a `Bytes` blob such as a packed flow-table
//! image, and the envelope checksum over it:
//!
//! - `apply(base, diff(base, next)) == next` for arbitrary blob pairs —
//!   equal, touched, grown, shrunk, emptied, blob↔non-blob — in memory
//!   and through the delta wire format, with a sparse update shipping a
//!   small fraction of the blob in a single replacement;
//! - `apply` and `decode_delta` are total **and bounded** on hostile run
//!   lists: a run past the blob's end, a length the list does not hold
//!   or a broken varint is `PathMismatch`, nothing is resized to a size
//!   an attacker names, and a failed `apply` leaves its base alone;
//! - `SealedSnapshot::open` on a delta record rebuilds exactly the
//!   checkpoint that was recorded;
//! - a store *driven* by `record_from` over a scripted `SnapshotSource`
//!   seals, record for record, the bytes of a twin store *fed* whole
//!   exports — without asking for one — through three full/delta cycles;
//!   a source that cannot answer (an unknown `BaseId`, a part that does
//!   not track, a shrunk blob, a rebuild between records) is exported
//!   and compared, to the same bytes; a `CheckpointEncode` panic inside
//!   a base record or a delta record commits nothing, and the record
//!   taken next is the one a store that never saw the failure takes;
//! - the four-lane envelope checksum detects every single-bit flip and
//!   every truncation — each with the typed error that names it — on an
//!   envelope of more than 16 KiB (every lane position) and on every tail
//!   length from 0 to 31 bytes; two flips of the same high bit do not
//!   cancel, nor do two flips of the same bit at the same word index in
//!   two lanes of a block of a zeroed blob;
//! - the scan emits, for arbitrary blob pairs, the list a byte-at-a-time
//!   reading of the run format's rules gives.

use proptest::prelude::*;
use rbs_checkpoint::diff::{DiffError, PathSeg, Replacement, Target};
use rbs_checkpoint::envelope::{open, seal_full};
use rbs_checkpoint::{
    apply, checkpoint, decode_delta, diff, encode, encode_delta, Checkpoint, Delta, RestoreError,
    Snapshot, SnapshotMeta, SnapshotStore,
};

/// A pipeline-shaped checkpoint: a stateless stage, then `state`.
fn staged(state: Snapshot) -> Checkpoint {
    Checkpoint {
        root: Snapshot::Seq(vec![
            Snapshot::Opt(None),
            Snapshot::Opt(Some(Box::new(state))),
        ]),
        shared: vec![],
        stats: Default::default(),
    }
}

/// The path `staged` puts its state at.
fn state_path() -> Vec<PathSeg> {
    vec![PathSeg::Index(1), PathSeg::OptInner]
}

/// How `next` is derived from `base`.
#[derive(Debug, Clone)]
enum Change {
    Equal,
    /// Overwrite the byte at each (position mod len) with the value.
    Touch(Vec<(usize, u8)>),
    Grow(Vec<u8>),
    TouchAndGrow(Vec<(usize, u8)>, Vec<u8>),
    /// Keep this many bytes (mod len + 1).
    Shrink(usize),
    Empty,
    Unrelated(Vec<u8>),
    NotABlob(u64),
}

fn change() -> impl Strategy<Value = Change> {
    let touches = || proptest::collection::vec((any::<usize>(), any::<u8>()), 1..12);
    let tail = || proptest::collection::vec(any::<u8>(), 1..80);
    prop_oneof![
        Just(Change::Equal),
        touches().prop_map(Change::Touch),
        tail().prop_map(Change::Grow),
        (touches(), tail()).prop_map(|(t, g)| Change::TouchAndGrow(t, g)),
        any::<usize>().prop_map(Change::Shrink),
        Just(Change::Empty),
        proptest::collection::vec(any::<u8>(), 0..300).prop_map(Change::Unrelated),
        any::<u64>().prop_map(Change::NotABlob),
    ]
}

fn changed(base: &[u8], change: &Change) -> Snapshot {
    let touch = |blob: &mut Vec<u8>, touches: &[(usize, u8)]| {
        for &(at, v) in touches {
            if !blob.is_empty() {
                let at = at % blob.len();
                blob[at] = v;
            }
        }
    };
    let mut next = base.to_vec();
    match change {
        Change::Equal => {}
        Change::Touch(t) => touch(&mut next, t),
        Change::Grow(g) => next.extend_from_slice(g),
        Change::TouchAndGrow(t, g) => {
            touch(&mut next, t);
            next.extend_from_slice(g);
        }
        Change::Shrink(keep) => next.truncate(keep % (base.len() + 1)),
        Change::Empty => next.clear(),
        Change::Unrelated(other) => next = other.clone(),
        Change::NotABlob(n) => return Snapshot::UInt(*n),
    }
    Snapshot::Bytes(next)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The delta law over blobs, both directions, in memory and through
    /// the wire format.
    #[test]
    fn blob_deltas_apply_back_exactly(
        base in proptest::collection::vec(any::<u8>(), 0..300),
        change in change(),
    ) {
        let a = staged(Snapshot::Bytes(base.clone()));
        let b = staged(changed(&base, &change));
        for (from, to) in [(&a, &b), (&b, &a)] {
            let delta = diff(from, to);
            prop_assert_eq!(delta.is_empty(), from == to);
            prop_assert_eq!(&apply(from, &delta).unwrap(), to);
            let wired = decode_delta(&encode_delta(&delta)).unwrap();
            prop_assert_eq!(&wired, &delta);
            prop_assert_eq!(&apply(from, &wired).unwrap(), to);
        }
    }

    /// `apply` on a run list nobody diffed: total, and the blob grows by
    /// at most what the list carries.
    #[test]
    fn hostile_run_lists_are_rejected_or_bounded(
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        runs in hostile_runs(),
    ) {
        let base = staged(Snapshot::Bytes(blob.clone()));
        let delta = byte_ranges(state_path(), Snapshot::Bytes(runs.clone()));
        match apply(&base, &delta) {
            Ok(next) => {
                let Snapshot::Bytes(out) = state_of(&next) else {
                    panic!("a run list turned a blob into something else");
                };
                prop_assert!(out.len() >= blob.len());
                prop_assert!(out.len() <= blob.len() + runs.len());
            }
            Err(e) => prop_assert_eq!(e, DiffError::PathMismatch),
        }
        prop_assert_eq!(&base, &staged(Snapshot::Bytes(blob)), "base touched");
        // The same list off the wire behaves the same.
        let wired = decode_delta(&encode_delta(&delta)).unwrap();
        prop_assert_eq!(apply(&base, &wired).is_ok(), apply(&base, &delta).is_ok());
    }

    /// A damaged delta payload decodes to an error or to a delta that
    /// `apply` handles — never a panic, never an attacker-sized blob.
    #[test]
    fn damaged_delta_payloads_are_total_and_bounded(
        at in any::<usize>(),
        to in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let mut image = vec![7u8; 600];
        let a = staged(Snapshot::Bytes(image.clone()));
        for at in [3, 4, 200, 431] {
            image[at] ^= 0x55;
        }
        image.extend_from_slice(&[9; 58]);
        let b = staged(Snapshot::Bytes(image));
        let mut payload = encode_delta(&diff(&a, &b));
        let at = at % payload.len();
        payload[at] = to;
        payload.truncate(1 + cut % payload.len());
        if let Ok(delta) = decode_delta(&payload) {
            if let Ok(next) = apply(&a, &delta) {
                prop_assert!(encode(&next).len() <= encode(&a).len() + payload.len());
            }
        }
    }
}

/// The run list by the format's rules, a byte at a time: a byte has
/// changed when it differs from the base's or lies past the base's end;
/// a run starts at a changed byte, takes in every later changed byte
/// that follows the last one taken by at most eight unchanged bytes, and
/// carries the new blob's bytes from its first to its last changed byte.
fn runs_by_the_rules(base: &[u8], next: &[u8]) -> Vec<u8> {
    let changed = |i: usize| i >= base.len() || base[i] != next[i];
    let (mut out, mut written, mut i) = (Vec::new(), 0, 0);
    while i < next.len() {
        if !changed(i) {
            i += 1;
            continue;
        }
        let (start, mut end) = (i, i + 1);
        let mut j = end;
        while j < next.len() && j - end <= 8 {
            if changed(j) {
                end = j + 1;
            }
            j += 1;
        }
        rbs_checkpoint::codec::write_varint(&mut out, (start - written) as u64);
        rbs_checkpoint::codec::write_varint(&mut out, (end - start) as u64);
        out.extend_from_slice(&next[start..end]);
        (written, i) = (end, end);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `byte_runs` is the list the rules give, appended after what the
    /// buffer held. A three-letter alphabet and sparse edits make equal
    /// and changed stretches of every length common.
    #[test]
    fn the_span_builder_is_the_byte_at_a_time_rules(
        base in proptest::collection::vec(0u8..3, 0..200),
        edits in proptest::collection::vec(0u8..8, 0..200),
        grown in proptest::collection::vec(0u8..3, 0..24),
    ) {
        // An edit of 3 or more keeps the base's byte.
        let mut next = base.clone();
        for (byte, &edit) in next.iter_mut().zip(&edits) {
            if edit < 3 {
                *byte = edit;
            }
        }
        next.extend_from_slice(&grown);
        let rules = runs_by_the_rules(&base, &next);
        let mut scanned = vec![0xEE];
        byte_runs(&base, &next, &mut scanned);
        prop_assert_eq!(&scanned[1..], &rules[..], "appended after what the buffer held");
    }
}

/// Arbitrary bytes, or structurally plausible `(gap, len, bytes)` runs
/// with hostile numbers in them.
fn hostile_runs() -> impl Strategy<Value = Vec<u8>> {
    let varint = |v: u64| {
        let mut out = Vec::new();
        rbs_checkpoint::codec::write_varint(&mut out, v);
        out
    };
    let number = prop_oneof![
        4 => 0u64..80,
        1 => any::<u64>(),
        1 => Just(u64::MAX),
        1 => Just(usize::MAX as u64),
    ];
    let run = (
        number.clone(),
        number,
        proptest::collection::vec(any::<u8>(), 0..24),
        any::<bool>(),
    )
        .prop_map(move |(gap, len, bytes, honest)| {
            let len = if honest { bytes.len() as u64 } else { len };
            [varint(gap), varint(len), bytes].concat()
        });
    prop_oneof![
        1 => proptest::collection::vec(any::<u8>(), 0..64),
        3 => proptest::collection::vec(run, 0..5).prop_map(|runs| runs.concat()),
    ]
}

/// A delta of one replacement at `path` + `ByteRanges`.
fn byte_ranges(mut path: Vec<PathSeg>, subtree: Snapshot) -> Delta {
    path.push(PathSeg::ByteRanges);
    let mut delta = Delta::default();
    delta.replacements.push(Replacement {
        target: Target::Root(path),
        subtree,
    });
    delta
}

fn state_of(cp: &Checkpoint) -> &Snapshot {
    match &cp.root {
        Snapshot::Seq(stages) => match &stages[1] {
            Snapshot::Opt(Some(state)) => state,
            other => panic!("stage 1 holds state, got {}", other.kind_name()),
        },
        other => panic!("pipeline state is a seq, got {}", other.kind_name()),
    }
}

fn runs(list: &[(u64, &[u8])]) -> Snapshot {
    let mut out = Vec::new();
    for (gap, bytes) in list {
        rbs_checkpoint::codec::write_varint(&mut out, *gap);
        rbs_checkpoint::codec::write_varint(&mut out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }
    Snapshot::Bytes(out)
}

#[test]
fn run_lists_splice_overwrite_and_append() {
    let base = staged(Snapshot::Bytes(b"0123456789".to_vec()));
    let spliced = |list: &[(u64, &[u8])]| {
        apply(&base, &byte_ranges(state_path(), runs(list))).map(|cp| state_of(&cp).clone())
    };
    let blob = |s: &[u8]| Ok(Snapshot::Bytes(s.to_vec()));
    assert_eq!(spliced(&[]), blob(b"0123456789"));
    assert_eq!(spliced(&[(2, b"ab"), (3, b"c")]), blob(b"01ab456c89"));
    // Straddling the end, and starting exactly at it.
    assert_eq!(spliced(&[(8, b"xyz")]), blob(b"01234567xyz"));
    assert_eq!(spliced(&[(10, b"!")]), blob(b"0123456789!"));
    assert_eq!(spliced(&[(0, b"A"), (9, b"BC")]), blob(b"A123456789BC"));
    // One past the end is out of range — also after an earlier run.
    assert_eq!(spliced(&[(11, b"!")]), Err(DiffError::PathMismatch));
    assert_eq!(
        spliced(&[(0, b"A"), (10, b"!")]),
        Err(DiffError::PathMismatch)
    );
}

#[test]
fn diff_emits_the_changed_runs_coalesced_and_nothing_else() {
    let base = vec![b'.'; 40];
    let emitted = |next: &[u8]| {
        let delta = diff(
            &staged(Snapshot::Bytes(base.clone())),
            &staged(Snapshot::Bytes(next.to_vec())),
        );
        assert_eq!(delta.replacements.len(), 1);
        delta.replacements[0].subtree.clone()
    };
    // Two changes three bytes apart travel as one run, the far one as
    // its own, and the appended tail rides on the run that reaches it.
    let mut next = base.clone();
    (next[2], next[5], next[37]) = (b'A', b'B', b'C');
    next.extend_from_slice(b"DE");
    assert_eq!(emitted(&next), runs(&[(2, b"A..B"), (31, b"C..DE")]));
    // A change near the end of an unchanged-length blob ships alone, not
    // with the equal bytes after it.
    let mut next = base.clone();
    next[37] = b'C';
    assert_eq!(emitted(&next), runs(&[(37, b"C")]));
    // Changes more than a word apart stay apart.
    let mut next = base.clone();
    (next[10], next[19], next[20]) = (b'A', b'B', b'C');
    assert_eq!(emitted(&next), runs(&[(10, b"A........BC")]));
    (next[19], next[20]) = (b'.', b'B');
    assert_eq!(emitted(&next), runs(&[(10, b"A"), (9, b"B")]));
}

#[test]
fn hostile_byte_ranges_are_path_mismatches_not_resizes() {
    let base = staged(Snapshot::Bytes(vec![1, 2, 3, 4]));
    let rejected = |delta: &Delta| {
        assert_eq!(apply(&base, delta).unwrap_err(), DiffError::PathMismatch);
    };
    let varint = |v: u64| {
        let mut out = Vec::new();
        rbs_checkpoint::codec::write_varint(&mut out, v);
        out
    };
    let raw = |bytes: Vec<u8>| byte_ranges(state_path(), Snapshot::Bytes(bytes));

    // A gap of 2^64 - 1 and of usize::MAX: no resize is attempted.
    rejected(&raw([varint(u64::MAX), varint(1), vec![0]].concat()));
    rejected(&raw([
        varint(2),
        varint(1),
        vec![0],
        varint(u64::MAX - 2),
        varint(0),
    ]
    .concat()));
    // A length the list does not hold, honest gap.
    rejected(&raw([varint(0), varint(u64::MAX)].concat()));
    rejected(&raw([varint(4), varint(1 << 40), vec![0; 16]].concat()));
    // A varint that never ends, and one cut short.
    rejected(&raw(vec![0xFF; 11]));
    rejected(&raw(vec![0, 0x80]));
    // The subtree is not a run list; the target is not a blob; the
    // segment is not last.
    rejected(&byte_ranges(state_path(), Snapshot::UInt(3)));
    rejected(&byte_ranges(vec![PathSeg::Index(1)], runs(&[(0, b"x")])));
    rejected(&byte_ranges(
        vec![PathSeg::Index(1), PathSeg::ByteRanges, PathSeg::OptInner],
        runs(&[(0, b"x")]),
    ));
    assert_eq!(base, staged(Snapshot::Bytes(vec![1, 2, 3, 4])));
}

/// A packed-table-like image: `records` records of 29 bytes.
fn image(records: usize) -> Vec<u8> {
    (0..records * 29).map(|i| (i * 31 % 251) as u8).collect()
}

#[test]
fn sparse_update_ships_the_touched_records_in_one_replacement() {
    let mut next = image(565); // 16 385 bytes
    let base = staged(Snapshot::Bytes(next.clone()));
    for record in [3, 4, 200, 431] {
        next[record * 29 + 13] ^= 1; // the packet counter's low byte …
        next[record * 29 + 21] ^= 0x40; // … and the byte counter's
    }
    next.extend(image(2));
    let next = staged(Snapshot::Bytes(next));

    let delta = diff(&base, &next);
    assert_eq!(delta.replacements.len(), 1, "one run list per blob");
    assert_eq!(delta.payload_nodes(), 1, "and no node per record");
    let mut path = state_path();
    path.push(PathSeg::ByteRanges);
    assert_eq!(delta.replacements[0].target, Target::Root(path));
    let (payload, full) = (encode_delta(&delta).len(), encode(&next).len());
    // Four touched records (9 bytes each, counters coalesced) plus the
    // two appended ones and framing — not the 16 KiB image.
    assert!(payload < 4 * 16 + 2 * 29 + 32, "{payload} bytes of delta");
    assert!(payload * 100 < full, "{payload} of {full}");
    assert_eq!(apply(&base, &delta).unwrap(), next);
}

#[test]
fn a_delta_record_opens_to_the_checkpoint_that_was_recorded() {
    let mut store = SnapshotStore::new(4);
    let mut table = image(100);
    store.record(&staged(Snapshot::Bytes(table.clone())), 1, 100, 0);
    for tick in 2..=4u64 {
        table[tick as usize * 29 + 13] += 1;
        table.extend(image(1));
        let cp = staged(Snapshot::Bytes(table.clone()));
        let meta = store.record(&cp, tick, 100 + tick, 0);
        assert!(meta.is_delta());
        let sealed = store.latest().unwrap();
        assert_eq!(sealed.open().unwrap(), cp);
        assert!(
            sealed.payload_bytes() * 10 < store.stats().full_bytes as usize,
            "a delta record of {} bytes",
            sealed.payload_bytes()
        );
        // Opening applies in place on a fresh decode: the shared base
        // envelope is unharmed and opens again.
        assert_eq!(sealed.open().unwrap(), cp);
    }
    assert_eq!(store.stats().delta_snapshots, 3);
}

fn meta() -> SnapshotMeta {
    SnapshotMeta {
        epoch: 1,
        base_epoch: 1,
        tick: 300,
        items: 565,
        schema: 0,
    }
}

/// Every single-bit flip and every cut of `sealed` fails to open, with
/// the error that says why: a flip in the magic is a bad header, one in
/// the version byte a foreign version, any other a checksum mismatch; a
/// cut too short for a header and footer is truncated, any longer one a
/// checksum mismatch (its last eight bytes are no footer of the rest).
fn assert_every_flip_and_cut_is_detected(sealed: &[u8]) {
    assert!(open(sealed).is_ok());
    let mut tampered = sealed.to_vec();
    for byte in 0..sealed.len() {
        for bit in 0..8 {
            tampered[byte] ^= 1 << bit;
            let error = open(&tampered).expect_err("a flipped bit opened");
            match byte {
                0..4 => assert_eq!(error, RestoreError::BadHeader, "bit {bit} of byte {byte}"),
                4 => assert!(
                    matches!(error, RestoreError::VersionMismatch { .. }),
                    "bit {bit} of the version byte: {error:?}"
                ),
                _ => assert!(
                    matches!(error, RestoreError::ChecksumMismatch { .. }),
                    "bit {bit} of byte {byte}: {error:?}"
                ),
            }
            tampered[byte] ^= 1 << bit;
        }
    }
    for cut in 0..sealed.len() {
        let error = open(&sealed[..cut]).expect_err("a cut envelope opened");
        assert!(
            matches!(
                error,
                RestoreError::Truncated | RestoreError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: {error:?}"
        );
    }
}

#[test]
fn checksum_detects_every_flip_and_truncation_of_a_16k_envelope() {
    // Every word of every lane of more than 500 blocks.
    let sealed = seal_full(meta(), &staged(Snapshot::Bytes(image(565))));
    assert!(sealed.len() > 16 * 1024);
    assert_every_flip_and_cut_is_detected(&sealed);
}

#[test]
fn checksum_detects_every_flip_and_truncation_at_every_tail_length() {
    // Thirty-two consecutive content lengths past two whole blocks: every
    // tail from 0 to 31 bytes — 0 to 3 whole words left for the fold,
    // then 0 to 7 bytes.
    let lengths: Vec<usize> = (64..96)
        .map(|n| {
            let sealed = seal_full(meta(), &checkpoint(&vec![0xA5u8; n]));
            assert_every_flip_and_cut_is_detected(&sealed);
            sealed.len()
        })
        .collect();
    assert!(lengths.windows(2).all(|w| w[1] == w[0] + 1), "{lengths:?}");
    let tails: std::collections::BTreeSet<usize> =
        lengths.iter().map(|len| (len - 8) % 32).collect();
    assert_eq!(tails.len(), 32, "every tail length once");
}

#[test]
fn checksum_does_not_let_two_high_bit_flips_cancel() {
    // Under a bare multiply a flipped top bit stays a top-bit difference
    // through every later word, so a second one cancels it; the xorshift
    // in each step is what spreads it. Both flips land inside the blob,
    // where nothing but the checksum could notice.
    let sealed = seal_full(meta(), &staged(Snapshot::Bytes(image(20))));
    let top_bit_of_word = |w: usize| 8 * w + 7;
    assert!(top_bit_of_word(40) < sealed.len() - 8 - 29);
    let mut tampered = sealed.clone();
    for i in 8..40 {
        for j in i + 1..=40 {
            tampered[top_bit_of_word(i)] ^= 0x80;
            tampered[top_bit_of_word(j)] ^= 0x80;
            assert!(open(&tampered).is_err(), "words {i} and {j}");
            tampered[top_bit_of_word(i)] ^= 0x80;
            tampered[top_bit_of_word(j)] ^= 0x80;
        }
    }
    assert_eq!(tampered, sealed);
}

#[test]
fn checksum_detects_the_same_flip_in_two_lanes_of_a_block() {
    // Inside a zeroed blob every lane reads the same words, and the two
    // flips change the same bit of the same word index in two lanes.
    let sealed = seal_full(meta(), &staged(Snapshot::Bytes(vec![0; 1024])));
    let blocks = 2..(sealed.len() - 8) / 32 - 1;
    assert!(blocks.len() >= 28, "the blob spans the blocks flipped");
    let mut tampered = sealed.clone();
    for block in blocks {
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            for (byte, bit) in [(0, 0), (3, 5), (7, 7)] {
                let (x, y) = (block * 32 + 8 * a + byte, block * 32 + 8 * b + byte);
                tampered[x] ^= 1 << bit;
                tampered[y] ^= 1 << bit;
                assert!(
                    matches!(open(&tampered), Err(RestoreError::ChecksumMismatch { .. })),
                    "block {block}, lanes {a} and {b}, byte {byte} bit {bit}"
                );
                tampered[x] ^= 1 << bit;
                tampered[y] ^= 1 << bit;
            }
        }
    }
    assert_eq!(tampered, sealed);
}

// ---- `SnapshotStore::record_from`: the store drives a source ----

use rbs_checkpoint::{byte_runs, BaseId, SnapshotSource};
use rbs_core::fault::{self, FaultKind, FaultPlan, FaultSite};
use std::cell::Cell;
use std::sync::Arc;

/// A scripted [`SnapshotSource`]: a `staged` blob that knows its base by
/// keeping a copy (tracking by brute force — what it must *answer* is
/// the point here, not how cheaply), with switches for each way a real
/// source loses track.
struct Script {
    blob: Vec<u8>,
    based: Option<(BaseId, Vec<u8>)>,
    /// Answer like a stage that does not track changes.
    whole: bool,
    /// Whole exports asked for: the fallback's footprint.
    exports: Cell<usize>,
    /// Spent bases handed back for reuse.
    recycled: usize,
}

impl Script {
    fn new(blob: Vec<u8>) -> Self {
        Script {
            blob,
            based: None,
            whole: false,
            exports: Cell::new(0),
            recycled: 0,
        }
    }

    /// What a respawn or a restore does to a real source: same state,
    /// no memory of any base.
    fn rebuild(&mut self) {
        self.based = None;
    }
}

impl SnapshotSource for Script {
    fn export_state(&self) -> Checkpoint {
        self.exports.set(self.exports.get() + 1);
        staged(Snapshot::Bytes(self.blob.clone()))
    }

    fn export_base(&mut self, spent: Option<Checkpoint>) -> (Checkpoint, BaseId) {
        self.recycled += usize::from(spent.is_some());
        let id = BaseId::fresh();
        self.based = Some((id, self.blob.clone()));
        (staged(Snapshot::Bytes(self.blob.clone())), id)
    }

    fn export_delta(&self, id: BaseId, base: &Checkpoint, delta: &mut Delta) -> bool {
        let Some((based, old)) = self.based.as_ref() else {
            return false;
        };
        if *based != id || self.whole || self.blob.len() < old.len() {
            return false;
        }
        assert_eq!(state_of(base), &Snapshot::Bytes(old.clone()), "not my base");
        let mut runs = Vec::new();
        byte_runs(old, &self.blob, &mut runs);
        if !runs.is_empty() {
            delta
                .replacements
                .append(&mut byte_ranges(state_path(), Snapshot::Bytes(runs)).replacements);
        }
        true
    }
}

/// A store driven by a source and its twin fed whole exports of the
/// same states: after every record the two hold the same sealed bytes.
struct Twins {
    driven: SnapshotStore,
    fed: SnapshotStore,
    tick: u64,
}

impl Twins {
    fn new(full_every: u32) -> Self {
        Twins {
            driven: SnapshotStore::new(full_every),
            fed: SnapshotStore::new(full_every),
            tick: 0,
        }
    }

    fn record(&mut self, source: &mut Script) -> SnapshotMeta {
        self.tick += 1;
        let state = staged(Snapshot::Bytes(source.blob.clone()));
        let items = source.blob.len() as u64 / 29;
        let meta = self.driven.record_from(source, self.tick, items, 7);
        assert_eq!(self.fed.record(&state, self.tick, items, 7), meta);
        self.assert_identical();
        assert_eq!(self.driven.latest().unwrap().open().unwrap(), state);
        meta
    }

    fn assert_identical(&self) {
        assert_eq!(self.driven.stats(), self.fed.stats());
        for (a, b) in [
            (self.driven.latest(), self.fed.latest()),
            (self.driven.previous(), self.fed.previous()),
        ] {
            assert_eq!(a.map(|r| r.meta()), b.map(|r| r.meta()));
            assert_eq!(
                a.map(|r| r.envelopes()),
                b.map(|r| r.envelopes()),
                "sealed bytes differ at tick {}",
                self.tick
            );
        }
    }
}

/// One interval of tenant-like traffic: some counters move, now and
/// then a record arrives.
fn traffic(blob: &mut Vec<u8>, round: usize) {
    let records = blob.len() / 29;
    for k in 0..5 {
        let record = (round * 37 + k * 11) % records;
        blob[record * 29 + 13] = blob[record * 29 + 13].wrapping_add(1);
        blob[record * 29 + 21] = blob[record * 29 + 21].wrapping_add(60);
    }
    if round % 3 == 1 {
        blob.extend(image(1));
    }
}

#[test]
fn a_driven_store_seals_what_a_fed_store_seals_without_exporting() {
    let mut twins = Twins::new(4);
    let mut source = Script::new(image(120));
    let mut history = Vec::new();
    for round in 0..13 {
        traffic(&mut source.blob, round);
        let meta = twins.record(&mut source);
        assert_eq!(meta.is_delta(), round % 4 != 0, "cadence at record {round}");
        history.push(staged(Snapshot::Bytes(source.blob.clone())));
        // `previous` still opens to the state one record back.
        if let Some(previous) = twins.driven.previous() {
            assert_eq!(&previous.open().unwrap(), &history[round - 1]);
        }
    }
    assert_eq!(twins.driven.stats().full_snapshots, 4);
    assert_eq!(twins.driven.stats().delta_snapshots, 9);
    assert_eq!(source.exports.get(), 0, "no record needed a whole export");
    assert_eq!(source.recycled, 3, "every base but the first replaced one");
    // Nothing happened since the base (the 13th record was a full one):
    // an empty delta, as `diff` of two equal checkpoints gives.
    assert!(twins.record(&mut source).is_delta());
    assert!(twins.driven.latest().unwrap().payload_bytes() < 40);
}

#[test]
fn a_source_that_cannot_answer_is_exported_and_compared() {
    let mut twins = Twins::new(4);
    let mut source = Script::new(image(60));
    let fallbacks = |source: &Script| source.exports.get();
    twins.record(&mut source); // full

    // A stage that does not track changes.
    source.whole = true;
    traffic(&mut source.blob, 1);
    assert!(twins.record(&mut source).is_delta());
    assert_eq!(fallbacks(&source), 1);
    source.whole = false;

    // The source was rebuilt (a respawn, a restore): it knows no base,
    // and the id the store holds names nothing it produced.
    source.rebuild();
    traffic(&mut source.blob, 2);
    assert!(twins.record(&mut source).is_delta());
    assert_eq!(fallbacks(&source), 2);

    // Still unknown on the next delta; the next full record re-bases,
    // and the deltas after it are answered again.
    traffic(&mut source.blob, 3);
    assert!(twins.record(&mut source).is_delta());
    assert_eq!(fallbacks(&source), 3);
    traffic(&mut source.blob, 4);
    assert!(!twins.record(&mut source).is_delta());
    traffic(&mut source.blob, 5);
    assert!(twins.record(&mut source).is_delta());
    assert_eq!(fallbacks(&source), 3);

    // The blob shrank: no run list describes that, the scan replaces it
    // whole.
    source.blob.truncate(29 * 20);
    assert!(twins.record(&mut source).is_delta());
    assert_eq!(fallbacks(&source), 4);
    let shrunk = twins.driven.latest().unwrap();
    assert!(shrunk.payload_bytes() > 29 * 20, "the blob travels whole");

    // A source the store has never based — `record` came first.
    let mut mixed = SnapshotStore::new(4);
    mixed.record(&staged(Snapshot::Bytes(source.blob.clone())), 1, 20, 7);
    let before = fallbacks(&source);
    traffic(&mut source.blob, 6);
    assert!(mixed.record_from(&mut source, 2, 20, 7).is_delta());
    assert_eq!(fallbacks(&source), before + 1);
    assert_eq!(
        mixed.latest().unwrap().open().unwrap(),
        staged(Snapshot::Bytes(source.blob.clone()))
    );
}

/// Runs `record` with the encoder set to panic on its next use.
fn with_encode_panic(record: impl FnOnce()) {
    let plan = Arc::new(FaultPlan::new(0).inject_window(
        FaultSite::CheckpointEncode,
        FaultKind::Panic,
        0,
        0,
        1,
    ));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = fault::scoped(plan, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(record))
    });
    std::panic::set_hook(hook);
    assert!(outcome.is_err(), "the injected fault must fire");
}

#[test]
fn an_encode_panic_mid_record_commits_nothing_and_the_next_record_is_right() {
    // Records 0 and 4 are base records, the rest deltas: fail one of
    // each kind, after the source has already been asked.
    for failing in [4, 6] {
        let mut twins = Twins::new(4);
        let mut source = Script::new(image(80));
        for round in 0..9 {
            traffic(&mut source.blob, round);
            if round == failing {
                let was = (
                    twins.driven.latest().map(|r| r.meta()),
                    twins.driven.previous().map(|r| r.meta()),
                    twins.driven.stats(),
                );
                with_encode_panic(|| {
                    twins.driven.record_from(&mut source, 99, 0, 7);
                });
                let is = (
                    twins.driven.latest().map(|r| r.meta()),
                    twins.driven.previous().map(|r| r.meta()),
                    twins.driven.stats(),
                );
                assert_eq!(is, was, "a failed record left a mark");
                twins.assert_identical();
                // More traffic, then the record is taken again: same
                // kind, same epoch, same bytes as a store that never saw
                // the failure.
                traffic(&mut source.blob, 100 + round);
            }
            let meta = twins.record(&mut source);
            assert_eq!(meta.epoch, round as u64 + 1);
            assert_eq!(meta.is_delta(), round % 4 != 0);
        }
        assert_eq!(source.exports.get(), 0, "failing record {failing}");
    }
}
