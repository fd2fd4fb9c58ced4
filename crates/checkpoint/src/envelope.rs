//! Sealed snapshot envelopes: integrity metadata around the wire format.
//!
//! The codec ([`crate::codec`]) turns checkpoints into bytes; an
//! *envelope* makes those bytes safe to trust after a crash. Each
//! envelope carries a monotonic epoch, the logical tick and item count
//! of the state it holds, a declared payload length, and a checksum
//! footer over everything before it: a multiplicative hash run in four
//! independent lanes over 32-byte blocks, so sealing a 16 KiB table
//! image costs a few cycles per block rather than a multiply's latency
//! per word.
//! Verification happens before a single payload byte is parsed, so a
//! truncated or corrupted snapshot is *detected* — surfaced as a typed
//! [`RestoreError`] — and never restored into a domain as garbage.
//!
//! The magic and the format version sit at fixed offsets and are read
//! first: the version names the checksum, so an envelope of another
//! version is reported as [`RestoreError::VersionMismatch`] without
//! judging its footer by this version's rule.
//!
//! Envelopes come in two kinds: `Full` (a complete checkpoint) and
//! `Delta` (an incremental [`Delta`](crate::diff::Delta) against an
//! earlier full envelope, identified by `base_epoch`). The
//! [`store`](crate::store) pairs them into restorable units.

use crate::codec::{self, CodecError};
use crate::ctx::Checkpoint;
use crate::diff::{Delta, DiffError};
use crate::snapshot::SnapshotError;
use std::fmt;

const MAGIC: &[u8; 4] = b"RBSE";
/// Envelope wire-format version. 2 added the state-schema varint to the
/// header (live-upgrade support); 3 replaced the byte-wise FNV-1a footer
/// with a word-wise checksum and admits byte-range deltas and packed
/// table images in the payload; 4 runs that checksum in four lanes over
/// 32-byte blocks, so a version-4 envelope differs from the version-3
/// envelope of the same state in this byte and the footer alone. An
/// envelope sealed by a different format version is rejected with
/// [`RestoreError::VersionMismatch`] — found and expected versions
/// attached — before its footer or any metadata is read.
pub const VERSION: u8 = 4;
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;
/// Bytes of the checksum footer.
const FOOTER_LEN: usize = 8;
/// Magic + version + kind: the fixed-width part of the header.
const FIXED_HEADER_LEN: usize = 6;

/// Why a snapshot could not be restored.
///
/// Every failure mode of the verify → decode → apply chain is a typed
/// variant; none of them panic. The supervisor's fallback chain matches
/// on nothing finer than "this snapshot is unusable", but reports carry
/// [`RestoreError::kind`] so corrupted-snapshot events are attributable.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// Too short to even hold a header and footer.
    Truncated,
    /// Bad magic or unknown envelope kind.
    BadHeader,
    /// The envelope was sealed by a different wire-format version. Kept
    /// distinct from [`RestoreError::BadHeader`] so an upgrade path can
    /// tell "foreign format" from "garbage": the magic is right and the
    /// version byte names other code. Nothing else was checked — how the
    /// footer is computed is part of what a version defines.
    VersionMismatch {
        /// Version byte the envelope carries.
        found: u8,
        /// Version this build understands ([`VERSION`]).
        expected: u8,
    },
    /// The declared payload length does not match the bytes present.
    LengthMismatch {
        /// Length the header declared.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The footer checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
    /// The payload failed to decode (possible only when the envelope was
    /// sealed around bad bytes — a flipped bit is caught by the checksum
    /// first).
    Codec(CodecError),
    /// The decoded checkpoint failed to restore into a value.
    Snapshot(SnapshotError),
    /// The delta did not fit its base checkpoint.
    Diff(DiffError),
    /// A delta envelope was paired with a full envelope of a different
    /// epoch than the one it was diffed against.
    EpochMismatch {
        /// Base epoch the delta requires.
        required: u64,
        /// Epoch of the full envelope it was applied to.
        found: u64,
    },
    /// No snapshot exists to restore from (empty store).
    MissingSnapshot,
}

impl RestoreError {
    /// Stable short name (used in reports and JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            RestoreError::Truncated => "truncated",
            RestoreError::BadHeader => "bad-header",
            RestoreError::VersionMismatch { .. } => "version-mismatch",
            RestoreError::LengthMismatch { .. } => "length-mismatch",
            RestoreError::ChecksumMismatch { .. } => "checksum-mismatch",
            RestoreError::Codec(_) => "codec",
            RestoreError::Snapshot(_) => "snapshot",
            RestoreError::Diff(_) => "diff",
            RestoreError::EpochMismatch { .. } => "epoch-mismatch",
            RestoreError::MissingSnapshot => "missing-snapshot",
        }
    }
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Truncated => write!(f, "envelope truncated"),
            RestoreError::BadHeader => write!(f, "bad envelope magic or kind"),
            RestoreError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "envelope format version {found}, this build reads {expected}"
                )
            }
            RestoreError::LengthMismatch { declared, actual } => {
                write!(f, "payload length {declared} declared, {actual} present")
            }
            RestoreError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum {stored:#018x} stored, {computed:#018x} computed"
                )
            }
            RestoreError::Codec(e) => write!(f, "payload decode: {e}"),
            RestoreError::Snapshot(e) => write!(f, "restore: {e}"),
            RestoreError::Diff(e) => write!(f, "delta apply: {e}"),
            RestoreError::EpochMismatch { required, found } => {
                write!(f, "delta needs base epoch {required}, found {found}")
            }
            RestoreError::MissingSnapshot => write!(f, "no snapshot to restore"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<CodecError> for RestoreError {
    fn from(e: CodecError) -> Self {
        RestoreError::Codec(e)
    }
}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> Self {
        RestoreError::Snapshot(e)
    }
}

impl From<DiffError> for RestoreError {
    fn from(e: DiffError) -> Self {
        RestoreError::Diff(e)
    }
}

/// Metadata describing one sealed envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Monotonic sequence number assigned by the store.
    pub epoch: u64,
    /// Epoch of the full envelope this one builds on; equals `epoch`
    /// for full envelopes.
    pub base_epoch: u64,
    /// Logical supervision tick the state was captured on.
    pub tick: u64,
    /// State items (rules, flows) the snapshot holds, as reported by the
    /// owner — the unit of state-loss accounting.
    pub items: u64,
    /// State-schema version of the pipeline that exported this snapshot
    /// (the owner's declared layout generation, not the envelope format
    /// version). Restore paths compare it against the target pipeline's
    /// schema and route mismatches through a
    /// [`StateMigrator`](crate::migrate::StateMigrator) instead of
    /// restoring a layout the new code no longer understands.
    pub schema: u32,
}

impl SnapshotMeta {
    /// True when this envelope is an incremental delta.
    pub fn is_delta(&self) -> bool {
        self.base_epoch != self.epoch
    }
}

/// A verified envelope's payload.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A complete checkpoint.
    Full(Checkpoint),
    /// An incremental delta against the `base_epoch` full envelope.
    Delta(Delta),
}

/// The footer checksum: a 64-bit multiplicative hash in four lanes. The
/// content is read in 32-byte blocks, word `i` of every block feeding
/// lane `i`; the four lane states are then folded into one in lane order,
/// followed by the words left after the last whole block, the bytes left
/// after the last whole word, and the length. Not cryptographic — the
/// threat model is bit rot and torn writes, not an adversary.
///
/// Every step, in a lane or in the fold, is `h ← m(h ^ v)` with
/// `m(x) = (x·K) ^ ((x·K) >> 32)` and `K` odd. Xor with a constant,
/// multiplication by an odd number modulo 2⁶⁴ and a right xorshift are
/// each bijections of the 64-bit state, so a step is a bijection of `h`
/// for a fixed `v` and of `v` for a fixed `h`. A flipped bit changes one
/// step's `v`, hence that step's `h`; every later step of its lane
/// carries the difference to the lane's final state, which the fold then
/// consumes as one step's `v` — so any single-bit flip anywhere in the
/// content provably changes the hash. The lanes start from four distinct
/// seeds and the fold is a chain, not an xor, so identical blocks in two
/// lanes do not cancel. A truncation changes the length mixed in last
/// (and, sooner, fails the declared-payload-length check). The four
/// lanes are independent chains of multiplies, which is the point: they
/// run side by side instead of one multiply waiting on the last.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    #[inline]
    fn step(h: u64, v: u64) -> u64 {
        let x = (h ^ v).wrapping_mul(K);
        x ^ (x >> 32)
    }
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    let mut blocks = bytes.chunks_exact(32);
    let mut lanes = [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3];
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut h = lanes.into_iter().fold(SEED, step);
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    for &b in words.remainder() {
        h = step(h, u64::from(b));
    }
    step(h, bytes.len() as u64)
}

/// Seals one envelope into `out`, replacing what it held: the header,
/// the `payload_len` bytes `write_payload` appends, the footer. `out` is
/// sized once, before the first byte, and the payload is serialized in
/// place — a buffer with the capacity already (the store hands back the
/// one a rotated-out record held) is reused as it is.
fn seal_into(
    out: &mut Vec<u8>,
    kind: u8,
    meta: SnapshotMeta,
    payload_len: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let fields = [
        meta.epoch,
        meta.base_epoch,
        meta.tick,
        meta.items,
        u64::from(meta.schema),
        payload_len as u64,
    ];
    let header_len = FIXED_HEADER_LEN + fields.map(codec::varint_len).iter().sum::<usize>();
    out.clear();
    out.reserve_exact(header_len + payload_len + FOOTER_LEN);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(kind);
    for field in fields {
        codec::write_varint(out, field);
    }
    write_payload(out);
    // The header has already declared the length: an encoder that
    // disagrees with its own size function must not seal.
    assert_eq!(
        out.len(),
        header_len + payload_len,
        "payload length differs from the length declared for it"
    );
    let footer = checksum(out);
    out.extend_from_slice(&footer.to_le_bytes());
}

/// Seals a full checkpoint into an envelope. Serialization runs through
/// [`codec::encode_into`], so the `CheckpointEncode` chaos site fires
/// here.
pub fn seal_full(meta: SnapshotMeta, cp: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    seal_full_into(&mut out, meta, cp);
    out
}

/// [`seal_full`] into a buffer the caller supplies (and whose old
/// content is discarded).
pub fn seal_full_into(out: &mut Vec<u8>, meta: SnapshotMeta, cp: &Checkpoint) {
    seal_into(out, KIND_FULL, meta, codec::encoded_len(cp), |out| {
        codec::encode_into(out, cp)
    });
}

/// Seals an incremental delta into an envelope. Serialization runs
/// through [`codec::encode_delta_into`], so the `CheckpointEncode` chaos
/// site fires here too.
pub fn seal_delta(meta: SnapshotMeta, delta: &Delta) -> Vec<u8> {
    let mut out = Vec::new();
    seal_delta_into(&mut out, meta, delta);
    out
}

/// [`seal_delta`] into a buffer the caller supplies (and whose old
/// content is discarded).
pub fn seal_delta_into(out: &mut Vec<u8>, meta: SnapshotMeta, delta: &Delta) {
    seal_into(
        out,
        KIND_DELTA,
        meta,
        codec::encoded_delta_len(delta),
        |out| codec::encode_delta_into(out, delta),
    );
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, RestoreError> {
    codec::read_varint(bytes, pos).map_err(|e| match e {
        CodecError::UnexpectedEof => RestoreError::Truncated,
        other => RestoreError::Codec(other),
    })
}

/// Verifies and opens one envelope: magic and version at their fixed
/// offsets, then the checksum that version defines, then the header,
/// then payload decode. Total — arbitrary bytes produce an error, never
/// a panic and never a wrong value.
pub fn open(bytes: &[u8]) -> Result<(SnapshotMeta, Payload), RestoreError> {
    if bytes.len() < FIXED_HEADER_LEN + FOOTER_LEN {
        return Err(RestoreError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(RestoreError::BadHeader);
    }
    if bytes[4] != VERSION {
        return Err(RestoreError::VersionMismatch {
            found: bytes[4],
            expected: VERSION,
        });
    }
    let (content, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let stored = u64::from_le_bytes(footer.try_into().expect("footer is 8 bytes"));
    let computed = checksum(content);
    if stored != computed {
        return Err(RestoreError::ChecksumMismatch { stored, computed });
    }
    let kind = content[5];
    let mut pos = FIXED_HEADER_LEN;
    let epoch = read_varint(content, &mut pos)?;
    let base_epoch = read_varint(content, &mut pos)?;
    let tick = read_varint(content, &mut pos)?;
    let items = read_varint(content, &mut pos)?;
    let schema = u32::try_from(read_varint(content, &mut pos)?)
        .map_err(|_| RestoreError::Codec(CodecError::VarintOverflow))?;
    let declared =
        usize::try_from(read_varint(content, &mut pos)?).map_err(|_| RestoreError::Truncated)?;
    let payload = &content[pos..];
    if payload.len() != declared {
        return Err(RestoreError::LengthMismatch {
            declared,
            actual: payload.len(),
        });
    }
    let meta = SnapshotMeta {
        epoch,
        base_epoch,
        tick,
        items,
        schema,
    };
    let payload = match kind {
        KIND_FULL if base_epoch == epoch => Payload::Full(codec::decode(payload)?),
        KIND_DELTA if base_epoch != epoch => Payload::Delta(codec::decode_delta(payload)?),
        _ => return Err(RestoreError::BadHeader),
    };
    Ok((meta, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::checkpoint;
    use crate::diff::diff;

    fn meta(epoch: u64) -> SnapshotMeta {
        SnapshotMeta {
            epoch,
            base_epoch: epoch,
            tick: 10,
            items: 3,
            schema: 7,
        }
    }

    #[test]
    fn full_envelope_roundtrips() {
        let cp = checkpoint(&vec![1u32, 2, 3]);
        let bytes = seal_full(meta(5), &cp);
        let (m, payload) = open(&bytes).unwrap();
        assert_eq!(m, meta(5));
        assert!(!m.is_delta());
        let Payload::Full(back) = payload else {
            panic!("expected full payload")
        };
        assert_eq!(back.root, cp.root);
    }

    #[test]
    fn delta_envelope_roundtrips() {
        let a = checkpoint(&vec![1u32, 2, 3]);
        let b = checkpoint(&vec![1u32, 9, 3]);
        let d = diff(&a, &b);
        let m = SnapshotMeta {
            epoch: 6,
            base_epoch: 5,
            tick: 11,
            items: 3,
            schema: 2,
        };
        let bytes = seal_delta(m, &d);
        let (back_meta, payload) = open(&bytes).unwrap();
        assert_eq!(back_meta, m);
        assert!(back_meta.is_delta());
        let Payload::Delta(back) = payload else {
            panic!("expected delta payload")
        };
        assert_eq!(back, d);
    }

    #[test]
    fn every_single_byte_truncation_detected() {
        let bytes = seal_full(meta(1), &checkpoint(&String::from("state")));
        for cut in 0..bytes.len() {
            assert!(open(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn every_single_bit_flip_detected() {
        let bytes = seal_full(meta(1), &checkpoint(&vec![7u64, 8, 9]));
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut tampered = bytes.clone();
                tampered[i] ^= 1 << bit;
                assert!(
                    open(&tampered).is_err(),
                    "flip of bit {bit} in byte {i} must be detected"
                );
            }
        }
    }

    #[test]
    fn checksum_tells_lengths_apart() {
        // A zero word and a zero tail byte feed a step the same value;
        // only the length mixed in last separates the two contents.
        assert_ne!(checksum(&[0; 8]), checksum(&[0]));
        assert_ne!(checksum(&[0; 16]), checksum(&[0; 9]));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn checksum_lanes_reading_the_same_words_do_not_cancel() {
        // Zeros feed every lane the same words, so lanes seeded alike
        // would hold the same state, and the same flip in two of them
        // would change both alike — which an xor of the lanes cancels.
        let zeros = [0u8; 256];
        let clean = checksum(&zeros);
        for block in 0..8 {
            for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
                for bit in [0, 31, 63] {
                    let mut flipped = zeros;
                    for lane in [a, b] {
                        flipped[block * 32 + lane * 8 + bit / 8] ^= 1 << (bit % 8);
                    }
                    assert_ne!(
                        checksum(&flipped),
                        clean,
                        "block {block}, lanes {a}+{b}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn kind_and_base_epoch_must_agree() {
        // A "full" envelope whose base_epoch differs is malformed even
        // when its checksum is intact.
        let cp = checkpoint(&1u32);
        let m = SnapshotMeta {
            epoch: 2,
            base_epoch: 1,
            tick: 0,
            items: 0,
            schema: 0,
        };
        let mut bytes = Vec::new();
        seal_into(&mut bytes, KIND_FULL, m, codec::encoded_len(&cp), |out| {
            codec::encode_into(out, &cp)
        });
        assert_eq!(open(&bytes).unwrap_err(), RestoreError::BadHeader);
    }

    #[test]
    fn foreign_version_is_typed_not_garbage() {
        // Only the version byte is restamped: the footer no longer
        // matches the content under this version's checksum, and the
        // envelope must still be reported as the foreign version it
        // claims — the version is read before the footer is judged.
        let mut bytes = seal_full(meta(1), &checkpoint(&vec![1u8, 2]));
        bytes[4] = VERSION - 1;
        assert_eq!(
            open(&bytes).unwrap_err(),
            RestoreError::VersionMismatch {
                found: VERSION - 1,
                expected: VERSION,
            }
        );
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(RestoreError::Truncated.kind(), "truncated");
        assert_eq!(
            RestoreError::ChecksumMismatch {
                stored: 0,
                computed: 1
            }
            .kind(),
            "checksum-mismatch"
        );
        assert_eq!(RestoreError::MissingSnapshot.kind(), "missing-snapshot");
        assert_eq!(
            RestoreError::VersionMismatch {
                found: 9,
                expected: VERSION
            }
            .kind(),
            "version-mismatch"
        );
    }
}
