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
//! A run list is written by one [`RunWriter`]: a run's header once its
//! extent is known, then its bytes, into room reserved up front. Two
//! builders decide where the runs lie, one per input: [`byte_runs`]
//! scans two byte slices a word at a time (what [`diff`] does, and the
//! oracle the other is tested against), and a flow table that tracked
//! the records it handed out mutably emits its runs from those records
//! alone, without materialising the image. Both follow the same rule:
//! changes at most [`RUN_GAP`] unchanged bytes apart share a run.
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

/// Where a replacement applies. Two targets are equal when they name
/// the same place, whichever arm names it.
#[derive(Debug, Clone)]
pub enum Target {
    /// Within the root snapshot.
    Root(Vec<PathSeg>),
    /// Within shared-table entry `id`.
    Shared(usize, Vec<PathSeg>),
    /// Into the bytes of stage `i`'s blob in a pipeline's checkpoint:
    /// `Root([Index(i), OptInner, ByteRanges])`, the path held inline —
    /// the target of every stage delta a pipeline assembles, so building
    /// one allocates no path. It encodes as that `Root` path does.
    Stage(usize),
}

impl Target {
    /// Hands `f` the shared-table entry the target lies in (`None` for
    /// the root) and its path there.
    pub(crate) fn with_path<R>(&self, f: impl FnOnce(Option<usize>, &[PathSeg]) -> R) -> R {
        match self {
            Target::Root(path) => f(None, path),
            Target::Shared(id, path) => f(Some(*id), path),
            Target::Stage(i) => f(
                None,
                &[PathSeg::Index(*i), PathSeg::OptInner, PathSeg::ByteRanges],
            ),
        }
    }
}

impl PartialEq for Target {
    fn eq(&self, other: &Self) -> bool {
        self.with_path(|id, path| {
            other.with_path(|other_id, other_path| (id, path) == (other_id, other_path))
        })
    }
}

/// One subtree replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct Replacement {
    /// Where the new subtree goes.
    pub target: Target,
    /// The new subtree.
    pub subtree: Snapshot,
}

/// The delta between two checkpoints. Equality compares the three
/// public fields.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Subtree replacements, in application order.
    pub replacements: Vec<Replacement>,
    /// New shared-table entries appended beyond the base's length.
    pub appended_shared: Vec<Snapshot>,
    /// New shared-table length when the table *shrank* (rare: only a
    /// structurally different re-checkpoint does this).
    pub truncate_shared_to: Option<usize>,
    /// Run-list buffers kept by [`clear`](Self::clear), for
    /// [`with_spare_buffer`](Self::with_spare_buffer) to lend out again.
    pub(crate) spare: Vec<Vec<u8>>,
}

impl PartialEq for Delta {
    fn eq(&self, other: &Self) -> bool {
        (
            &self.replacements,
            &self.appended_shared,
            self.truncate_shared_to,
        ) == (
            &other.replacements,
            &other.appended_shared,
            other.truncate_shared_to,
        )
    }
}

impl Delta {
    /// Empties the delta for the next one to be built in it, keeping its
    /// buffers: the lists' capacity, and the run list of every
    /// [`Target::Stage`] replacement, which
    /// [`with_spare_buffer`](Self::with_spare_buffer) lends out again. A
    /// delta cleared before each use allocates nothing once its buffers
    /// have grown to the deltas it holds.
    pub(crate) fn clear(&mut self) {
        for Replacement { target, subtree } in self.replacements.drain(..) {
            if let (Target::Stage(_), Snapshot::Bytes(mut runs)) = (target, subtree) {
                runs.clear();
                self.spare.push(runs);
            }
        }
        self.appended_shared.clear();
        self.truncate_shared_to = None;
    }

    /// Lends `build` an empty buffer to write a run list in — one kept
    /// from a [`Target::Stage`] replacement the delta held before the
    /// store last cleared it, when there is one — and keeps what `build`
    /// leaves in it (nothing, when it took the buffer for a replacement).
    pub fn with_spare_buffer<R>(&mut self, build: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let mut buffer = self.spare.pop().unwrap_or_default();
        let built = build(&mut buffer);
        if buffer.capacity() > 0 {
            buffer.clear();
            self.spare.push(buffer);
        }
        built
    }

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
            byte_runs(xs, ys, &mut runs);
            let mut target = Vec::with_capacity(path.len() + 1);
            target.extend_from_slice(path);
            target.push(PathSeg::ByteRanges);
            emit(target, Snapshot::Bytes(runs));
        }
        // Shape change (or scalar change): replace the whole subtree.
        _ => emit(path.clone(), b.clone()),
    }
}

/// Changed bytes separated by at most this many unchanged bytes ship as
/// one run: a run's two varints and its turn of the splice loop cost
/// about what the bytes between do.
pub const RUN_GAP: usize = 8;

/// Appends to `runs` the run list ([`PathSeg::ByteRanges`]) that turns
/// the blob `base` into `next`, which is at least as long; everything
/// past `base`'s end counts as changed. Nothing is appended when the two
/// are equal.
///
/// The scan: both blobs are compared eight bytes at a time, and each run
/// is found whole — its first change, then every further change at most
/// [`RUN_GAP`] bytes on — before the writer is handed it.
pub fn byte_runs(base: &[u8], next: &[u8], runs: &mut Vec<u8>) {
    debug_assert!(next.len() >= base.len(), "a blob diffed by runs only grows");
    let grows = next.len() > base.len();
    let mut out = RunWriter::new(runs, 0);
    let mut at = first_mismatch(base, next, 0);
    while at < base.len() {
        let mut end = first_match(base, next, at);
        let mut following = first_mismatch(base, next, end);
        while following < base.len() && following - end <= RUN_GAP {
            end = first_match(base, next, following);
            following = first_mismatch(base, next, end);
        }
        // The last run takes in the growth when it ends close enough.
        if following == base.len() && grows && base.len() - end <= RUN_GAP {
            end = next.len();
        }
        out.put_run(at, end - at, &next[at..end]);
        at = following;
    }
    if grows && out.end() <= base.len() {
        out.put_run(base.len(), next.len() - base.len(), &next[base.len()..]);
    }
    out.finish();
}

/// Appends a run list ([`PathSeg::ByteRanges`]) to a buffer, a run at a
/// time, in ascending order: each run's header — its gap from the
/// previous run's end, its length — is written once its extent is known,
/// then its bytes. Capacity for the room asked for is reserved once; the
/// buffer is lengthened ahead of the cursor geometrically, within that
/// capacity, and cut back to what was written by
/// [`finish`](Self::finish). A run costs two short varints and a copy
/// into bytes already there, with no capacity check per byte.
pub struct RunWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Where the next byte goes in `out`.
    pos: usize,
    /// Where in the blob the last run ended (0 before the first).
    end: usize,
}

/// Bytes two varint headers may take.
const MAX_HEADER: usize = 20;

impl<'a> RunWriter<'a> {
    /// A writer appending to `out`, with capacity for `room` bytes of
    /// runs reserved.
    pub fn new(out: &'a mut Vec<u8>, room: usize) -> Self {
        let pos = out.len();
        out.reserve(room + MAX_HEADER);
        Self { out, pos, end: 0 }
    }

    /// Where in the blob the last run ended.
    pub(crate) fn end(&self) -> usize {
        self.end
    }

    /// Writes the header of a run of `len` bytes at `at` — at or past
    /// the last run's end — and returns the `len` bytes of `out` for the
    /// caller to fill with the run's bytes.
    #[inline]
    pub fn run(&mut self, at: usize, len: usize) -> &mut [u8] {
        let data = self.header(at, len, len);
        self.pos += len;
        &mut self.out[data..data + len]
    }

    /// Writes a run of `len` bytes at `at` — at or past the last run's
    /// end — taking its bytes from the front of `bytes`. What `bytes`
    /// holds past `len` is written too, and overwritten by whatever comes
    /// next: a caller that passes a slice of constant length gets a copy
    /// of constant length, which compiles to a few moves.
    #[inline]
    pub fn put_run(&mut self, at: usize, len: usize, bytes: &[u8]) {
        debug_assert!(len <= bytes.len());
        let data = self.header(at, len, bytes.len());
        self.out[data..data + bytes.len()].copy_from_slice(bytes);
        self.pos += len;
    }

    /// Writes a run's header with room for `room` bytes behind it, and
    /// returns where its bytes go.
    #[inline(always)]
    fn header(&mut self, at: usize, len: usize, room: usize) -> usize {
        debug_assert!(at >= self.end && len > 0, "runs ascend and are not empty");
        let need = self.pos + MAX_HEADER + room;
        if need > self.out.len() {
            let doubled = (2 * self.out.len()).min(self.out.capacity());
            self.out.resize(need.max(doubled), 0);
        }
        let pos = put_varint(self.out, self.pos, (at - self.end) as u64);
        self.pos = put_varint(self.out, pos, len as u64);
        self.end = at + len;
        self.pos
    }

    /// Cuts the buffer back to the runs written.
    pub fn finish(self) {
        self.out.truncate(self.pos);
    }
}

/// Writes `v` at `at` as LEB128, as `codec::write_varint` does, and
/// returns where it ends. `out` has room for ten bytes there. Below
/// 2¹⁴ — every gap and length of a table's runs short of a 16 KiB
/// stride — two bytes are written whatever the length: the continuation
/// bit and the length are arithmetic, not branches.
#[inline(always)]
fn put_varint(out: &mut [u8], at: usize, v: u64) -> usize {
    if v < 1 << 14 {
        let long = u8::from(v >= 0x80);
        let pair: &mut [u8; 2] = (&mut out[at..at + 2]).try_into().expect("two bytes");
        *pair = [v as u8 & 0x7F | long << 7, (v >> 7) as u8];
        return at + 1 + usize::from(long);
    }
    let mut at = at;
    let mut v = v;
    while v >= 0x80 {
        out[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
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
    for Replacement { target, subtree } in delta.replacements {
        target.with_path(|shared, path| {
            let tree = match shared {
                None => &mut cp.root,
                Some(id) => cp.shared.get_mut(id).ok_or(DiffError::BadSharedIndex(id))?,
            };
            replace(tree, path, subtree)
        })?;
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
