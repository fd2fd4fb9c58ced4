//! Structural deltas between checkpoints.
//!
//! §5 motivates snapshotting with checkpointing, transactions *and
//! replication*; replication wants increments, not full copies. A
//! [`Delta`] records the minimal set of subtree replacements that turns
//! one checkpoint into another; shipping the delta (see
//! [`crate::codec`] for bytes) costs space proportional to what
//! *changed*, not to the structure's size.
//!
//! Trees are compared node by node. A `Bytes` blob — the packed image a
//! flow table snapshots as — is compared *inside*: the delta carries the
//! changed byte runs and the appended tail, as one run list per blob
//! ([`PathSeg::ByteRanges`]), so an image in which a few records moved
//! costs those records, not the table, and costs no heap node per
//! record either.
//!
//! The run list has one builder, [`byte_runs`] — where a run starts,
//! which neighbours it absorbs, what becomes of the tail — and any
//! number of *span finders* behind the [`BlobView`] trait, each
//! reporting the stretches of changed bytes the builder copies whole. A
//! byte slice finds them by scanning both blobs a word at a time (what
//! [`diff`] does, and the oracle every other finder is tested against);
//! a structure that already knows which of its bytes may have changed
//! since the base — a flow table that tracked the records it handed out
//! mutably — answers from that knowledge, and gets the same list without
//! materialising the blob.
//!
//! The diff is exact and total: `apply(base, &diff(base, next)) == next`
//! for any two checkpoints (property-tested below and in
//! `tests/snapshot_fast_path.rs`). [`apply`] borrows its base and builds
//! the next checkpoint beside it; [`apply_in_place`] is the same
//! operation on a base the caller owns and no longer needs.

use crate::codec;
use crate::ctx::{Checkpoint, CheckpointStats};
use crate::snapshot::{Snapshot, SnapshotError};
use std::fmt;

/// One step into a snapshot tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PathSeg {
    /// Index into a `Seq`.
    Index(usize),
    /// Index into a `Map`'s pair list (0 = key, 1 = value via `Side`).
    MapEntry(usize, Side),
    /// Into the `Some` of an `Opt`.
    OptInner,
    /// Into the bytes of a `Bytes` blob. Valid only as a path's last
    /// segment, on a replacement whose subtree is a `Bytes` *run list*:
    /// zero or more of
    ///
    /// ```text
    /// gap: varint   unchanged bytes skipped since the previous run's end
    /// len: varint   bytes in this run
    /// len bytes     written over the blob from there, extending it where
    ///               the run reaches past its end
    /// ```
    ///
    /// A run may start at the blob's end (a pure append) but not beyond
    /// it, so a blob grows by no more than the bytes the list itself
    /// carries.
    ByteRanges,
}

/// Which half of a map entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The key.
    Key,
    /// The value.
    Value,
}

/// Where a replacement applies.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Within the root snapshot.
    Root(Vec<PathSeg>),
    /// Within shared-table entry `id`.
    Shared(usize, Vec<PathSeg>),
}

/// One subtree replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct Replacement {
    /// Where the new subtree goes.
    pub target: Target,
    /// The new subtree.
    pub subtree: Snapshot,
}

/// The delta between two checkpoints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Subtree replacements, in application order.
    pub replacements: Vec<Replacement>,
    /// New shared-table entries appended beyond the base's length.
    pub appended_shared: Vec<Snapshot>,
    /// New shared-table length when the table *shrank* (rare: only a
    /// structurally different re-checkpoint does this).
    pub truncate_shared_to: Option<usize>,
}

impl Delta {
    /// True when the checkpoints were identical.
    pub fn is_empty(&self) -> bool {
        self.replacements.is_empty()
            && self.appended_shared.is_empty()
            && self.truncate_shared_to.is_none()
    }

    /// Total snapshot nodes carried by the delta — the replication
    /// payload size metric.
    pub fn payload_nodes(&self) -> usize {
        self.replacements
            .iter()
            .map(|r| r.subtree.node_count())
            .sum::<usize>()
            + self
                .appended_shared
                .iter()
                .map(Snapshot::node_count)
                .sum::<usize>()
    }
}

/// Errors from applying a delta to an incompatible base.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// A path segment did not match the base's structure.
    PathMismatch,
    /// A shared-table index was out of range.
    BadSharedIndex(usize),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::PathMismatch => write!(f, "delta path does not fit the base snapshot"),
            DiffError::BadSharedIndex(i) => write!(f, "shared index {i} out of range"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<DiffError> for SnapshotError {
    fn from(_: DiffError) -> Self {
        SnapshotError::TypeMismatch {
            expected: "compatible base",
            found: "mismatched delta",
        }
    }
}

/// Computes the delta from `base` to `next`.
pub fn diff(base: &Checkpoint, next: &Checkpoint) -> Delta {
    let mut delta = Delta::default();
    diff_snapshot(
        &base.root,
        &next.root,
        &mut Vec::new(),
        &mut |path, subtree| {
            delta.replacements.push(Replacement {
                target: Target::Root(path),
                subtree,
            });
        },
    );
    let common = base.shared.len().min(next.shared.len());
    for id in 0..common {
        diff_snapshot(
            &base.shared[id],
            &next.shared[id],
            &mut Vec::new(),
            &mut |path, subtree| {
                delta.replacements.push(Replacement {
                    target: Target::Shared(id, path),
                    subtree,
                });
            },
        );
    }
    if next.shared.len() > base.shared.len() {
        delta.appended_shared = next.shared[base.shared.len()..].to_vec();
    } else if next.shared.len() < base.shared.len() {
        delta.truncate_shared_to = Some(next.shared.len());
    }
    delta
}

fn diff_snapshot(
    a: &Snapshot,
    b: &Snapshot,
    path: &mut Vec<PathSeg>,
    emit: &mut impl FnMut(Vec<PathSeg>, Snapshot),
) {
    if a == b {
        return;
    }
    match (a, b) {
        (Snapshot::Seq(xs), Snapshot::Seq(ys)) if xs.len() == ys.len() => {
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                path.push(PathSeg::Index(i));
                diff_snapshot(x, y, path, emit);
                path.pop();
            }
        }
        (Snapshot::Map(xs), Snapshot::Map(ys)) if xs.len() == ys.len() => {
            for (i, ((xk, xv), (yk, yv))) in xs.iter().zip(ys).enumerate() {
                path.push(PathSeg::MapEntry(i, Side::Key));
                diff_snapshot(xk, yk, path, emit);
                path.pop();
                path.push(PathSeg::MapEntry(i, Side::Value));
                diff_snapshot(xv, yv, path, emit);
                path.pop();
            }
        }
        (Snapshot::Opt(Some(x)), Snapshot::Opt(Some(y))) => {
            path.push(PathSeg::OptInner);
            diff_snapshot(x, y, path, emit);
            path.pop();
        }
        // A blob that kept its length or grew. (One that shrank is
        // replaced whole: tables that snapshot as blobs only grow between
        // a full record and the deltas on it.)
        (Snapshot::Bytes(xs), Snapshot::Bytes(ys)) if xs.len() <= ys.len() => {
            let mut runs = Vec::new();
            byte_runs(xs, &mut ys.as_slice(), &mut runs);
            let mut target = Vec::with_capacity(path.len() + 1);
            target.extend_from_slice(path);
            target.push(PathSeg::ByteRanges);
            emit(target, Snapshot::Bytes(runs));
        }
        // Shape change (or scalar change): replace the whole subtree.
        _ => emit(path.clone(), b.clone()),
    }
}

/// The newer side of a byte-range diff: a blob at least as long as its
/// base that can say where it next departs from the base, a *span* at a
/// time. [`byte_runs`] turns the spans into a run list — the unchanged
/// bytes between two spans it merges it copies from the base itself, so
/// a view is asked for bytes only where it reported a change and past
/// the base's end.
///
/// A byte slice is one such view — it *finds* the changes by scanning,
/// and serves any pair of blobs. A view that already *knows* which bytes
/// may have changed (a flow table that tracked the records it handed out
/// mutably) answers without materialising the blob; whatever it skips it
/// asserts equal to the base, and its run list is then the scan's, byte
/// for byte.
#[expect(
    clippy::len_without_is_empty,
    reason = "a length to diff against, not a collection"
)]
pub trait BlobView {
    /// Length of the blob this view stands for; at least the base's.
    fn len(&self) -> usize;

    /// The next span at or after `from` (and below `base.len()`) where
    /// the blob differs from `base`: its start and the blob's bytes
    /// there. A span's first and last bytes differ from the base's; the
    /// bytes between may include unchanged stretches of at most
    /// [`RUN_GAP`] bytes — the builder would merge across those anyway —
    /// so a view may hand over a record's changes in one span. Every
    /// byte no span covers equals the base's; two spans may abut. `None`
    /// when the blob agrees with the rest of `base`. The run builder asks
    /// in ascending order, each time from the end of the span it was
    /// given last.
    fn next_span(&mut self, base: &[u8], from: usize) -> Option<(usize, &[u8])>;

    /// Appends the blob's bytes from `from` — the base's length — to its
    /// end: what it grew by.
    fn copy_tail(&mut self, from: usize, out: &mut Vec<u8>);
}

/// The scan: compares all of both blobs, eight bytes at a time, and
/// reports each stretch of changed bytes as a span.
impl BlobView for &[u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn next_span(&mut self, base: &[u8], from: usize) -> Option<(usize, &[u8])> {
        let at = first_mismatch(base, self, from);
        if at == base.len() {
            return None;
        }
        let end = first_match(base, self, at);
        Some((at, &self[at..end]))
    }

    fn copy_tail(&mut self, from: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self[from..]);
    }
}

/// Changed spans separated by at most this many unchanged bytes ship as
/// one run: a run's two varints and its turn of the splice loop cost
/// about what the bytes between do.
pub const RUN_GAP: usize = 8;

/// Appends to `runs` the run list ([`PathSeg::ByteRanges`]) that turns
/// the blob `base` into the blob `next` stands for; everything past
/// `base`'s end counts as changed. Nothing is appended when the two are
/// equal.
pub fn byte_runs(base: &[u8], next: &mut impl BlobView, runs: &mut Vec<u8>) {
    let len = next.len();
    // The run being built — where it starts, where its length byte sits
    // in `runs` — and where the last change written ends.
    let (mut open, mut end) = (None, 0);
    while let Some((at, bytes)) = next.next_span(base, end) {
        debug_assert!(at >= end && !bytes.is_empty() && at + bytes.len() <= base.len());
        reach(runs, base, &mut open, end, at);
        runs.extend_from_slice(bytes);
        end = at + bytes.len();
    }
    // Past the base's end every byte counts as changed: the growth.
    if len > base.len() {
        reach(runs, base, &mut open, end, base.len());
        next.copy_tail(base.len(), runs);
        end = len;
    }
    if let Some((start, len_at)) = open {
        close_run(runs, len_at, end - start);
    }
}

/// Brings the run list to a change at `at`, the last one having ended at
/// `end`: the open run takes in the unchanged bytes between when there
/// are at most [`RUN_GAP`] of them (copied from the base); otherwise it
/// is closed and a run starting at `at` is opened. (Left to choose, the
/// compiler keeps this out of line, and a delta walk pays a call per
/// span: 5–10 % of its cycles.)
#[inline(always)]
fn reach(
    runs: &mut Vec<u8>,
    base: &[u8],
    open: &mut Option<(usize, usize)>,
    end: usize,
    at: usize,
) {
    match *open {
        Some(_) if at - end <= RUN_GAP => runs.extend_from_slice(&base[end..at]),
        _ => {
            if let Some((start, len_at)) = *open {
                close_run(runs, len_at, end - start);
            }
            *open = Some(start_run(runs, at, end));
        }
    }
}

/// Writes a run's gap — `start` less `written`, where the previous run
/// ended (0 for the first) — and reserves the byte its length goes in:
/// the run's start and where that byte sits.
#[inline]
fn start_run(runs: &mut Vec<u8>, start: usize, written: usize) -> (usize, usize) {
    codec::write_varint(runs, (start - written) as u64);
    runs.push(0);
    (start, runs.len() - 1)
}

/// Writes a finished run's length into the byte `start_run` reserved:
/// LEB128, as `write_varint` writes it — the low seven bits in the byte
/// reserved, whatever is left (rarely anything) behind it.
#[inline]
fn close_run(runs: &mut Vec<u8>, len_at: usize, run: usize) {
    runs[len_at] = (run & 0x7F) as u8;
    if run >= 0x80 {
        runs[len_at] |= 0x80;
        let appended = runs.len();
        codec::write_varint(runs, (run >> 7) as u64);
        let width = runs.len() - appended;
        runs[len_at + 1..].rotate_right(width);
    }
}

/// The first index at or after `from` where `a` and `b` differ, or
/// `a.len()` when `b` agrees with the rest of `a`. Eight bytes per
/// comparison: an unchanged blob is skipped at word speed.
fn first_mismatch(a: &[u8], b: &[u8], from: usize) -> usize {
    first_where(a, b, from, |x| x)
}

/// The first index at or after `from` where `a` and `b` agree, or
/// `a.len()` when they differ through the end of `a`.
fn first_match(a: &[u8], b: &[u8], from: usize) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    // The high bit of each zero byte of `x`: exact for the lowest one,
    // which is the only one read (a borrow can only set bits above it).
    first_where(a, b, from, |x| x.wrapping_sub(LOW) & !x & (LOW << 7))
}

/// The first index at or after `from` whose byte `hit` flags, eight
/// bytes per step: `hit` maps the xor of a word of `a` and one of `b` to
/// a word whose lowest set bit lies in the first flagged byte (zero when
/// none is). The tail is compared a byte at a time.
#[inline]
fn first_where(a: &[u8], b: &[u8], from: usize, hit: impl Fn(u64) -> u64) -> usize {
    let (rest_a, rest_b) = (&a[from..], &b[from..a.len()]);
    let mut at = from;
    let (mut words_a, mut words_b) = (rest_a.chunks_exact(8), rest_b.chunks_exact(8));
    for (x, y) in (&mut words_a).zip(&mut words_b) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        let flagged = hit(x ^ y);
        if flagged != 0 {
            return at + (flagged.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let (tail_a, tail_b) = (words_a.remainder(), words_b.remainder());
    at + tail_a
        .iter()
        .zip(tail_b)
        .position(|(x, y)| hit(u64::from(x ^ y)) & 0xFF != 0)
        .unwrap_or(tail_a.len())
}

/// Applies a delta, producing the `next` checkpoint it was computed for.
/// `base` is left as it was, whether or not the delta fits.
pub fn apply(base: &Checkpoint, delta: &Delta) -> Result<Checkpoint, DiffError> {
    let mut next = Checkpoint {
        root: base.root.clone(),
        shared: base.shared.clone(),
        stats: CheckpointStats::default(),
    };
    apply_in_place(&mut next, delta.clone())?;
    Ok(next)
}

/// Turns `cp` into the checkpoint `delta` was computed for, moving the
/// delta's subtrees in and copying nothing of `cp`. On an error `cp` is
/// left partly rewritten: this is for a base the caller owns and drops
/// on failure (a warm restore's freshly decoded envelope); everything
/// else wants [`apply`].
pub fn apply_in_place(cp: &mut Checkpoint, delta: Delta) -> Result<(), DiffError> {
    for r in delta.replacements {
        let (tree, path) = match &r.target {
            Target::Root(path) => (&mut cp.root, path),
            Target::Shared(id, path) => (
                cp.shared
                    .get_mut(*id)
                    .ok_or(DiffError::BadSharedIndex(*id))?,
                path,
            ),
        };
        replace(tree, path, r.subtree)?;
    }
    if let Some(n) = delta.truncate_shared_to {
        cp.shared.truncate(n);
    }
    cp.shared.extend(delta.appended_shared);
    cp.stats = CheckpointStats::default();
    Ok(())
}

/// Puts `subtree` at `path` inside `tree`: a node replacement, or — for
/// a path ending in [`PathSeg::ByteRanges`] — a run list spliced into the
/// blob there.
fn replace(tree: &mut Snapshot, path: &[PathSeg], subtree: Snapshot) -> Result<(), DiffError> {
    let Some((PathSeg::ByteRanges, blob_path)) = path.split_last() else {
        *navigate(tree, path)? = subtree;
        return Ok(());
    };
    match (navigate(tree, blob_path)?, &subtree) {
        (Snapshot::Bytes(blob), Snapshot::Bytes(runs)) => splice_runs(blob, runs),
        _ => Err(DiffError::PathMismatch),
    }
}

/// Writes a run list into `blob`. Total on arbitrary lists: a run that
/// starts past the blob's end, a length the list does not hold or a
/// broken varint is a `PathMismatch`, and the blob never grows by more
/// than the list is long.
fn splice_runs(blob: &mut Vec<u8>, runs: &[u8]) -> Result<(), DiffError> {
    let field = |pos: &mut usize| {
        let v = codec::read_varint(runs, pos).map_err(|_| DiffError::PathMismatch)?;
        usize::try_from(v).map_err(|_| DiffError::PathMismatch)
    };
    let (mut pos, mut at) = (0, 0usize);
    while pos < runs.len() {
        let (gap, len) = (field(&mut pos)?, field(&mut pos)?);
        at = at
            .checked_add(gap)
            .filter(|&at| at <= blob.len())
            .ok_or(DiffError::PathMismatch)?;
        let run = pos
            .checked_add(len)
            .and_then(|end| runs.get(pos..end))
            .ok_or(DiffError::PathMismatch)?;
        let overwritten = len.min(blob.len() - at);
        blob[at..at + overwritten].copy_from_slice(&run[..overwritten]);
        blob.extend_from_slice(&run[overwritten..]);
        pos += len;
        at += len;
    }
    Ok(())
}

fn navigate<'a>(snap: &'a mut Snapshot, path: &[PathSeg]) -> Result<&'a mut Snapshot, DiffError> {
    let mut cur = snap;
    for seg in path {
        cur = match (seg, cur) {
            (PathSeg::Index(i), Snapshot::Seq(items)) => {
                items.get_mut(*i).ok_or(DiffError::PathMismatch)?
            }
            (PathSeg::MapEntry(i, side), Snapshot::Map(pairs)) => {
                let pair = pairs.get_mut(*i).ok_or(DiffError::PathMismatch)?;
                match side {
                    Side::Key => &mut pair.0,
                    Side::Value => &mut pair.1,
                }
            }
            (PathSeg::OptInner, Snapshot::Opt(Some(inner))) => inner.as_mut(),
            _ => return Err(DiffError::PathMismatch),
        };
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::checkpoint;
    use proptest::prelude::*;

    fn cp(root: Snapshot, shared: Vec<Snapshot>) -> Checkpoint {
        Checkpoint {
            root,
            shared,
            stats: CheckpointStats::default(),
        }
    }

    #[test]
    fn identical_checkpoints_empty_delta() {
        let a = checkpoint(&vec![1u32, 2, 3]);
        let d = diff(&a, &a);
        assert!(d.is_empty());
        assert_eq!(apply(&a, &d).unwrap().root, a.root);
    }

    #[test]
    fn scalar_change_is_one_replacement() {
        let a = checkpoint(&vec![1u32, 2, 3]);
        let b = checkpoint(&vec![1u32, 9, 3]);
        let d = diff(&a, &b);
        assert_eq!(d.replacements.len(), 1);
        assert_eq!(
            d.replacements[0].target,
            Target::Root(vec![PathSeg::Index(1)])
        );
        assert_eq!(apply(&a, &d).unwrap(), strip_stats(&b));
    }

    #[test]
    fn length_change_replaces_the_seq() {
        let a = checkpoint(&vec![1u32, 2]);
        let b = checkpoint(&vec![1u32, 2, 3]);
        let d = diff(&a, &b);
        assert_eq!(d.replacements.len(), 1);
        assert_eq!(d.replacements[0].target, Target::Root(vec![]));
        assert_eq!(apply(&a, &d).unwrap(), strip_stats(&b));
    }

    #[test]
    fn shared_table_changes_tracked() {
        use crate::CkRc;
        let x = CkRc::new(1u32);
        let a = checkpoint(&vec![x.clone(), x.clone()]);
        // Same shape, different shared content.
        let y = CkRc::new(2u32);
        let b = checkpoint(&vec![y.clone(), y]);
        let d = diff(&a, &b);
        assert_eq!(d.replacements.len(), 1);
        assert!(matches!(d.replacements[0].target, Target::Shared(0, _)));
        assert_eq!(apply(&a, &d).unwrap(), strip_stats(&b));
    }

    #[test]
    fn shared_table_growth_appends() {
        let a = cp(Snapshot::Shared(0), vec![Snapshot::UInt(1)]);
        let b = cp(
            Snapshot::Seq(vec![Snapshot::Shared(0), Snapshot::Shared(1)]),
            vec![Snapshot::UInt(1), Snapshot::UInt(2)],
        );
        let d = diff(&a, &b);
        assert_eq!(d.appended_shared.len(), 1);
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn shared_table_shrink_truncates() {
        let a = cp(
            Snapshot::Shared(0),
            vec![Snapshot::UInt(1), Snapshot::UInt(2)],
        );
        let b = cp(Snapshot::Shared(0), vec![Snapshot::UInt(1)]);
        let d = diff(&a, &b);
        assert_eq!(d.truncate_shared_to, Some(1));
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn small_change_in_big_structure_has_small_payload() {
        let mut big: Vec<Vec<u8>> = (0..200).map(|i| vec![i as u8; 64]).collect();
        let a = checkpoint(&crate::traits::VecOf(big.clone()));
        big[42][0] ^= 0xFF;
        let b = checkpoint(&crate::traits::VecOf(big));
        let d = diff(&a, &b);
        assert_eq!(d.replacements.len(), 1);
        assert!(
            d.payload_nodes() * 20 < a.total_nodes(),
            "delta ({}) must be tiny vs. full ({})",
            d.payload_nodes(),
            a.total_nodes()
        );
    }

    #[test]
    fn apply_to_wrong_base_fails_cleanly() {
        let a = checkpoint(&vec![1u32, 2, 3]);
        let b = checkpoint(&vec![1u32, 9, 3]);
        let d = diff(&a, &b);
        let unrelated = checkpoint(&42u32);
        assert_eq!(apply(&unrelated, &d).unwrap_err(), DiffError::PathMismatch);
    }

    fn strip_stats(c: &Checkpoint) -> Checkpoint {
        Checkpoint {
            root: c.root.clone(),
            shared: c.shared.clone(),
            stats: CheckpointStats::default(),
        }
    }

    fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
        let leaf = prop_oneof![
            any::<u64>().prop_map(Snapshot::UInt),
            any::<i64>().prop_map(Snapshot::Int),
            any::<bool>().prop_map(Snapshot::Bool),
            "[a-z]{0,6}".prop_map(Snapshot::Str),
            proptest::collection::vec(0u8..3, 0..40).prop_map(Snapshot::Bytes),
            (0usize..4).prop_map(Snapshot::Shared),
            Just(Snapshot::Opt(None)),
        ];
        leaf.prop_recursive(3, 48, 6, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Snapshot::Seq),
                proptest::collection::vec((inner.clone(), inner.clone()), 0..3)
                    .prop_map(Snapshot::Map),
                inner.prop_map(|s| Snapshot::Opt(Some(Box::new(s)))),
            ]
        })
    }

    proptest! {
        /// The delta law: apply(base, diff(base, next)) == next.
        #[test]
        fn diff_apply_roundtrip(
            root_a in arb_snapshot(),
            root_b in arb_snapshot(),
            shared_a in proptest::collection::vec(arb_snapshot(), 0..4),
            shared_b in proptest::collection::vec(arb_snapshot(), 0..4),
        ) {
            let a = cp(root_a, shared_a);
            let b = cp(root_b, shared_b);
            let d = diff(&a, &b);
            prop_assert_eq!(apply(&a, &d).unwrap(), b);
        }

        /// Deltas of identical checkpoints are empty, and empty deltas
        /// are identity transformations.
        #[test]
        fn empty_delta_laws(root in arb_snapshot(), shared in proptest::collection::vec(arb_snapshot(), 0..3)) {
            let a = cp(root, shared);
            let d = diff(&a, &a);
            prop_assert!(d.is_empty());
            prop_assert_eq!(apply(&a, &d).unwrap(), a);
        }
    }
}
