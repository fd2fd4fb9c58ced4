//! A compact binary wire format for checkpoints.
//!
//! Checkpoints that only live in memory cover rollback; durability and
//! migration (ship a domain's state to another process, write it to
//! disk) need bytes. The format is deliberately simple and dependency-
//! free: one tag byte per node, LEB128 varints for integers and lengths,
//! IEEE-754 bits for floats. Shared-node structure is preserved exactly,
//! so a decoded checkpoint restores with identical sharing.

use crate::ctx::{Checkpoint, CheckpointStats};
use crate::diff::{Delta, PathSeg, Replacement, Side, Target};
use crate::snapshot::Snapshot;
use std::fmt;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value.
    UnexpectedEof,
    /// An unknown tag byte.
    BadTag(u8),
    /// A varint ran over its maximum width.
    VarintOverflow,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A char value outside the Unicode scalar range.
    BadChar(u32),
    /// The magic header is missing or the version is unsupported.
    BadHeader,
    /// Input had trailing bytes after a complete checkpoint.
    TrailingBytes(usize),
    /// Nesting deeper than [`MAX_DECODE_DEPTH`] — real checkpoints never
    /// get here; corrupt input must not be allowed to overflow the
    /// decoder's stack.
    TooDeep,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "input truncated"),
            CodecError::BadTag(t) => write!(f, "unknown snapshot tag {t:#04x}"),
            CodecError::VarintOverflow => write!(f, "varint too long"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::BadChar(c) => write!(f, "invalid char scalar {c:#x}"),
            CodecError::BadHeader => write!(f, "bad magic or unsupported version"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after checkpoint"),
            CodecError::TooDeep => write!(f, "nesting exceeds decoder depth limit"),
        }
    }
}

impl std::error::Error for CodecError {}

const MAGIC: &[u8; 4] = b"RBSC";
const DELTA_MAGIC: &[u8; 4] = b"RBSD";
const VERSION: u8 = 1;

/// Maximum snapshot nesting the decoder accepts. Generous for real
/// structures (a full-depth IPv4 trie nests ~120 levels) yet small
/// enough that adversarial input cannot recurse the decoder off a 2 MiB
/// thread stack even with debug-sized frames.
pub const MAX_DECODE_DEPTH: usize = 512;

mod tag {
    pub const UNIT: u8 = 0x00;
    pub const BOOL_FALSE: u8 = 0x01;
    pub const BOOL_TRUE: u8 = 0x02;
    pub const UINT: u8 = 0x03;
    pub const INT: u8 = 0x04;
    pub const FLOAT: u8 = 0x05;
    pub const CHAR: u8 = 0x06;
    pub const STR: u8 = 0x07;
    pub const BYTES: u8 = 0x08;
    pub const SEQ: u8 = 0x09;
    pub const MAP: u8 = 0x0A;
    pub const OPT_NONE: u8 = 0x0B;
    pub const OPT_SOME: u8 = 0x0C;
    pub const SHARED: u8 = 0x0D;
}

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`write_varint`] appends for `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Zig-zag encodes a signed value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zig-zag encodes a signed value then varints it.
pub fn write_varint_signed(out: &mut Vec<u8>, v: i64) {
    write_varint(out, zigzag(v));
}

/// Reads one unsigned LEB128 varint from `bytes` at `*pos`, advancing it.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::VarintOverflow)
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        read_varint(self.data, &mut self.pos)
    }

    fn varint_signed(&mut self) -> Result<i64, CodecError> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }
}

fn encode_snapshot(out: &mut Vec<u8>, snap: &Snapshot) {
    match snap {
        Snapshot::Unit => out.push(tag::UNIT),
        Snapshot::Bool(false) => out.push(tag::BOOL_FALSE),
        Snapshot::Bool(true) => out.push(tag::BOOL_TRUE),
        Snapshot::UInt(v) => {
            out.push(tag::UINT);
            write_varint(out, *v);
        }
        Snapshot::Int(v) => {
            out.push(tag::INT);
            write_varint_signed(out, *v);
        }
        Snapshot::Float(v) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Snapshot::Char(c) => {
            out.push(tag::CHAR);
            write_varint(out, u64::from(u32::from(*c)));
        }
        Snapshot::Str(s) => {
            out.push(tag::STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Snapshot::Bytes(b) => {
            out.push(tag::BYTES);
            write_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Snapshot::Seq(items) => {
            out.push(tag::SEQ);
            write_varint(out, items.len() as u64);
            for item in items {
                encode_snapshot(out, item);
            }
        }
        Snapshot::Map(pairs) => {
            out.push(tag::MAP);
            write_varint(out, pairs.len() as u64);
            for (k, v) in pairs {
                encode_snapshot(out, k);
                encode_snapshot(out, v);
            }
        }
        Snapshot::Opt(None) => out.push(tag::OPT_NONE),
        Snapshot::Opt(Some(inner)) => {
            out.push(tag::OPT_SOME);
            encode_snapshot(out, inner);
        }
        Snapshot::Shared(id) => {
            out.push(tag::SHARED);
            write_varint(out, *id as u64);
        }
    }
}

/// Bytes [`encode_snapshot`] appends for `snap`: the encoders reserve
/// their output once instead of growing it through a packed table image.
fn snapshot_len(snap: &Snapshot) -> usize {
    1 + match snap {
        Snapshot::Unit | Snapshot::Bool(_) | Snapshot::Opt(None) => 0,
        Snapshot::UInt(v) => varint_len(*v),
        Snapshot::Int(v) => varint_len(zigzag(*v)),
        Snapshot::Float(_) => 8,
        Snapshot::Char(c) => varint_len(u64::from(u32::from(*c))),
        Snapshot::Str(s) => varint_len(s.len() as u64) + s.len(),
        Snapshot::Bytes(b) => varint_len(b.len() as u64) + b.len(),
        Snapshot::Seq(items) => {
            varint_len(items.len() as u64) + items.iter().map(snapshot_len).sum::<usize>()
        }
        Snapshot::Map(pairs) => {
            varint_len(pairs.len() as u64)
                + pairs
                    .iter()
                    .map(|(k, v)| snapshot_len(k) + snapshot_len(v))
                    .sum::<usize>()
        }
        Snapshot::Opt(Some(inner)) => snapshot_len(inner),
        Snapshot::Shared(id) => varint_len(*id as u64),
    }
}

fn decode_snapshot(r: &mut Reader<'_>, depth: usize) -> Result<Snapshot, CodecError> {
    if depth >= MAX_DECODE_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let t = r.byte()?;
    Ok(match t {
        tag::UNIT => Snapshot::Unit,
        tag::BOOL_FALSE => Snapshot::Bool(false),
        tag::BOOL_TRUE => Snapshot::Bool(true),
        tag::UINT => Snapshot::UInt(r.varint()?),
        tag::INT => Snapshot::Int(r.varint_signed()?),
        tag::FLOAT => {
            let bytes: [u8; 8] = r.take(8)?.try_into().expect("take returned 8 bytes");
            Snapshot::Float(f64::from_bits(u64::from_le_bytes(bytes)))
        }
        tag::CHAR => {
            let raw = u32::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)?;
            Snapshot::Char(char::from_u32(raw).ok_or(CodecError::BadChar(raw))?)
        }
        tag::STR => {
            let len = r.varint()? as usize;
            let bytes = r.take(len)?;
            Snapshot::Str(
                std::str::from_utf8(bytes)
                    .map_err(|_| CodecError::BadUtf8)?
                    .to_string(),
            )
        }
        tag::BYTES => {
            let len = r.varint()? as usize;
            Snapshot::Bytes(r.take(len)?.to_vec())
        }
        tag::SEQ => {
            let len = r.varint()? as usize;
            // Guard against absurd preallocation from corrupt input.
            let mut items = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                items.push(decode_snapshot(r, depth + 1)?);
            }
            Snapshot::Seq(items)
        }
        tag::MAP => {
            let len = r.varint()? as usize;
            let mut pairs = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                let k = decode_snapshot(r, depth + 1)?;
                let v = decode_snapshot(r, depth + 1)?;
                pairs.push((k, v));
            }
            Snapshot::Map(pairs)
        }
        tag::OPT_NONE => Snapshot::Opt(None),
        tag::OPT_SOME => Snapshot::Opt(Some(Box::new(decode_snapshot(r, depth + 1)?))),
        tag::SHARED => {
            let id = usize::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)?;
            Snapshot::Shared(id)
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Serializes a checkpoint (header, root, shared table). Traversal
/// statistics are measurement artifacts and are not encoded.
///
/// This is a chaos injection site: when an ambient
/// [`rbs_core::fault::FaultPlan`] schedules a fault at
/// [`CheckpointEncode`](rbs_core::fault::FaultSite::CheckpointEncode),
/// the encoder panics (or sleeps) here, exactly as if serialization had
/// hit a bug mid-snapshot. Without an ambient plan the check is one
/// thread-local read.
pub fn encode(cp: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(cp));
    encode_into(&mut out, cp);
    out
}

/// Bytes [`encode`] produces for `cp`.
pub fn encoded_len(cp: &Checkpoint) -> usize {
    MAGIC.len()
        + 1
        + snapshot_len(&cp.root)
        + varint_len(cp.shared.len() as u64)
        + cp.shared.iter().map(snapshot_len).sum::<usize>()
}

/// [`encode`], appended to `out` — which an envelope sizes for it with
/// [`encoded_len`], so the payload is written where it is sealed. The
/// chaos site fires before the first byte.
pub fn encode_into(out: &mut Vec<u8>, cp: &Checkpoint) {
    chaos_checkpoint_encode();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    encode_snapshot(out, &cp.root);
    write_varint(out, cp.shared.len() as u64);
    for s in &cp.shared {
        encode_snapshot(out, s);
    }
}

/// Deserializes a checkpoint produced by [`encode`]; rejects trailing
/// garbage.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CodecError> {
    let mut r = Reader {
        data: bytes,
        pos: 0,
    };
    if r.take(4)? != MAGIC || r.byte()? != VERSION {
        return Err(CodecError::BadHeader);
    }
    let root = decode_snapshot(&mut r, 0)?;
    let count = r.varint()? as usize;
    let mut shared = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        shared.push(decode_snapshot(&mut r, 0)?);
    }
    if r.pos != bytes.len() {
        return Err(CodecError::TrailingBytes(bytes.len() - r.pos));
    }
    Ok(Checkpoint {
        root,
        shared,
        stats: CheckpointStats::default(),
    })
}

/// The same fault hook for every serialization entry point: both full
/// encodes and delta encodes count as one `CheckpointEncode` occurrence,
/// so a chaos schedule's rates apply uniformly regardless of the
/// snapshot kind the store chose.
fn chaos_checkpoint_encode() {
    use rbs_core::fault::{self, FaultSite};
    let site = FaultSite::CheckpointEncode;
    fault::fire(site, fault::ambient_decide(site));
}

mod delta_tag {
    pub const TARGET_ROOT: u8 = 0x00;
    pub const TARGET_SHARED: u8 = 0x01;
    pub const SEG_INDEX: u8 = 0x00;
    pub const SEG_MAP_KEY: u8 = 0x01;
    pub const SEG_MAP_VALUE: u8 = 0x02;
    pub const SEG_OPT_INNER: u8 = 0x03;
    pub const SEG_BYTE_RANGES: u8 = 0x04;
}

fn path_len(path: &[PathSeg]) -> usize {
    varint_len(path.len() as u64)
        + path
            .iter()
            .map(|seg| match seg {
                PathSeg::Index(i) | PathSeg::MapEntry(i, _) => 1 + varint_len(*i as u64),
                PathSeg::OptInner | PathSeg::ByteRanges => 1,
            })
            .sum::<usize>()
}

fn encode_path(out: &mut Vec<u8>, path: &[PathSeg]) {
    write_varint(out, path.len() as u64);
    for seg in path {
        match seg {
            PathSeg::Index(i) => {
                out.push(delta_tag::SEG_INDEX);
                write_varint(out, *i as u64);
            }
            PathSeg::MapEntry(i, Side::Key) => {
                out.push(delta_tag::SEG_MAP_KEY);
                write_varint(out, *i as u64);
            }
            PathSeg::MapEntry(i, Side::Value) => {
                out.push(delta_tag::SEG_MAP_VALUE);
                write_varint(out, *i as u64);
            }
            PathSeg::OptInner => out.push(delta_tag::SEG_OPT_INNER),
            PathSeg::ByteRanges => out.push(delta_tag::SEG_BYTE_RANGES),
        }
    }
}

fn decode_path(r: &mut Reader<'_>) -> Result<Vec<PathSeg>, CodecError> {
    let len = r.varint()? as usize;
    let mut path = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        let seg = match r.byte()? {
            delta_tag::SEG_INDEX => PathSeg::Index(decode_usize(r)?),
            delta_tag::SEG_MAP_KEY => PathSeg::MapEntry(decode_usize(r)?, Side::Key),
            delta_tag::SEG_MAP_VALUE => PathSeg::MapEntry(decode_usize(r)?, Side::Value),
            delta_tag::SEG_OPT_INNER => PathSeg::OptInner,
            delta_tag::SEG_BYTE_RANGES => PathSeg::ByteRanges,
            other => return Err(CodecError::BadTag(other)),
        };
        path.push(seg);
    }
    Ok(path)
}

fn decode_usize(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    usize::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)
}

/// Serializes a [`Delta`] (incremental snapshot payload). Fires the same
/// [`CheckpointEncode`](rbs_core::fault::FaultSite::CheckpointEncode)
/// chaos site as [`encode`].
pub fn encode_delta(delta: &Delta) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_delta_len(delta));
    encode_delta_into(&mut out, delta);
    out
}

/// Bytes [`encode_delta`] produces for `delta`.
pub fn encoded_delta_len(delta: &Delta) -> usize {
    let replacements = delta.replacements.iter().map(|rep| {
        let target = rep.target.with_path(|shared, path| {
            shared.map_or(0, |id| varint_len(id as u64)) + path_len(path)
        });
        1 + target + snapshot_len(&rep.subtree)
    });
    DELTA_MAGIC.len()
        + 1
        + varint_len(delta.replacements.len() as u64)
        + replacements.sum::<usize>()
        + varint_len(delta.appended_shared.len() as u64)
        + delta
            .appended_shared
            .iter()
            .map(snapshot_len)
            .sum::<usize>()
        + 1
        + delta.truncate_shared_to.map_or(0, |n| varint_len(n as u64))
}

/// [`encode_delta`], appended to `out`; see [`encode_into`].
pub fn encode_delta_into(out: &mut Vec<u8>, delta: &Delta) {
    chaos_checkpoint_encode();
    out.extend_from_slice(DELTA_MAGIC);
    out.push(VERSION);
    write_varint(out, delta.replacements.len() as u64);
    for rep in &delta.replacements {
        rep.target.with_path(|shared, path| {
            match shared {
                None => out.push(delta_tag::TARGET_ROOT),
                Some(id) => {
                    out.push(delta_tag::TARGET_SHARED);
                    write_varint(out, id as u64);
                }
            }
            encode_path(out, path);
        });
        encode_snapshot(out, &rep.subtree);
    }
    write_varint(out, delta.appended_shared.len() as u64);
    for s in &delta.appended_shared {
        encode_snapshot(out, s);
    }
    match delta.truncate_shared_to {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            write_varint(out, n as u64);
        }
    }
}

/// Deserializes a delta produced by [`encode_delta`]; rejects trailing
/// garbage.
pub fn decode_delta(bytes: &[u8]) -> Result<Delta, CodecError> {
    let mut r = Reader {
        data: bytes,
        pos: 0,
    };
    if r.take(4)? != DELTA_MAGIC || r.byte()? != VERSION {
        return Err(CodecError::BadHeader);
    }
    let n_reps = r.varint()? as usize;
    let mut replacements = Vec::with_capacity(n_reps.min(4096));
    for _ in 0..n_reps {
        let target = match r.byte()? {
            delta_tag::TARGET_ROOT => Target::Root(decode_path(&mut r)?),
            delta_tag::TARGET_SHARED => {
                let id = decode_usize(&mut r)?;
                Target::Shared(id, decode_path(&mut r)?)
            }
            other => return Err(CodecError::BadTag(other)),
        };
        let subtree = decode_snapshot(&mut r, 0)?;
        replacements.push(Replacement { target, subtree });
    }
    let n_appended = r.varint()? as usize;
    let mut appended_shared = Vec::with_capacity(n_appended.min(4096));
    for _ in 0..n_appended {
        appended_shared.push(decode_snapshot(&mut r, 0)?);
    }
    let truncate_shared_to = match r.byte()? {
        0 => None,
        1 => Some(decode_usize(&mut r)?),
        other => return Err(CodecError::BadTag(other)),
    };
    if r.pos != bytes.len() {
        return Err(CodecError::TrailingBytes(bytes.len() - r.pos));
    }
    Ok(Delta {
        replacements,
        appended_shared,
        truncate_shared_to,
        ..Delta::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::checkpoint;
    use crate::CkRc;
    use proptest::prelude::*;

    fn roundtrip_snapshot(s: &Snapshot) -> Snapshot {
        let cp = Checkpoint {
            root: s.clone(),
            shared: vec![],
            stats: CheckpointStats::default(),
        };
        decode(&encode(&cp)).expect("roundtrip").root
    }

    #[test]
    fn encode_is_a_chaos_site() {
        use rbs_core::fault::{self, FaultKind, FaultPlan, FaultSite, InjectedFault};
        use std::sync::Arc;
        let cp = Checkpoint {
            root: Snapshot::UInt(7),
            shared: vec![],
            stats: CheckpointStats::default(),
        };
        // Encode occurrence 1 (the second encode in the scope) panics.
        let plan = Arc::new(FaultPlan::new(0).inject_window(
            FaultSite::CheckpointEncode,
            FaultKind::Panic,
            0,
            1,
            2,
        ));
        fault::scoped(plan, || {
            let bytes = encode(&cp);
            assert_eq!(decode(&bytes).unwrap().root, Snapshot::UInt(7));
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| encode(&cp))).unwrap_err();
            let payload = err.downcast_ref::<InjectedFault>().expect("typed payload");
            assert_eq!(payload.site, FaultSite::CheckpointEncode);
            // The schedule has passed; encoding works again.
            assert!(!encode(&cp).is_empty());
        });
    }

    #[test]
    fn scalar_roundtrips() {
        for s in [
            Snapshot::Unit,
            Snapshot::Bool(true),
            Snapshot::Bool(false),
            Snapshot::UInt(0),
            Snapshot::UInt(u64::MAX),
            Snapshot::Int(i64::MIN),
            Snapshot::Int(-1),
            Snapshot::Float(1.5),
            Snapshot::Float(f64::NEG_INFINITY),
            Snapshot::Char('λ'),
            Snapshot::Str("firewall".into()),
            Snapshot::Str(String::new()),
            Snapshot::Bytes(vec![0, 255, 127]),
            Snapshot::Opt(None),
            Snapshot::Opt(Some(Box::new(Snapshot::UInt(7)))),
            Snapshot::Shared(12345),
        ] {
            assert_eq!(roundtrip_snapshot(&s), s);
        }
    }

    #[test]
    fn nan_float_roundtrips_bitwise() {
        let s = Snapshot::Float(f64::NAN);
        let back = roundtrip_snapshot(&s);
        let Snapshot::Float(f) = back else { panic!() };
        assert!(f.is_nan());
    }

    #[test]
    fn full_checkpoint_roundtrip_with_sharing() {
        let shared = CkRc::new(String::from("rule"));
        let table = vec![shared.clone(), shared];
        let cp = checkpoint(&table);
        let decoded = decode(&encode(&cp)).unwrap();
        assert_eq!(decoded.root, cp.root);
        assert_eq!(decoded.shared, cp.shared);
        // And the decoded checkpoint restores with sharing intact.
        let back: Vec<CkRc<String>> = crate::ctx::restore(&decoded).unwrap();
        assert!(CkRc::ptr_eq(&back[0], &back[1]));
    }

    #[test]
    fn header_is_checked() {
        let cp = checkpoint(&1u32);
        let mut bytes = encode(&cp);
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadHeader);
        let mut bytes = encode(&cp);
        bytes[4] = 99; // bad version
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadHeader);
    }

    #[test]
    fn truncation_detected() {
        let cp = checkpoint(&vec![String::from("abcdef")]);
        let bytes = encode(&cp);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let cp = checkpoint(&1u32);
        let mut bytes = encode(&cp);
        bytes.push(0);
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::TrailingBytes(1));
    }

    #[test]
    fn bad_tag_detected() {
        let cp = checkpoint(&1u32);
        let mut bytes = encode(&cp);
        bytes[5] = 0xEE; // the root tag
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadTag(0xEE));
    }

    #[test]
    fn bad_utf8_detected() {
        let cp = checkpoint(&String::from("ab"));
        let mut bytes = encode(&cp);
        // Root is STR tag, len 2, then the two content bytes.
        let n = bytes.len();
        bytes[n - 3] = 0xFF;
        bytes[n - 2] = 0xFE;
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadUtf8);
    }

    #[test]
    fn adversarial_nesting_rejected_not_overflowed() {
        // A hand-built bomb: OPT_SOME repeated far past any real
        // structure's depth. Without the depth guard this recurses the
        // decoder off its stack; with it, a clean typed error.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.extend(std::iter::repeat_n(tag::OPT_SOME, MAX_DECODE_DEPTH + 10));
        bytes.push(tag::UNIT);
        write_varint(&mut bytes, 0); // empty shared table
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::TooDeep);
    }

    #[test]
    fn legitimate_deep_nesting_roundtrips() {
        let mut s = Snapshot::UInt(1);
        for _ in 0..(MAX_DECODE_DEPTH - 2) {
            s = Snapshot::Opt(Some(Box::new(s)));
        }
        assert_eq!(roundtrip_snapshot(&s), s);
    }

    #[test]
    fn delta_roundtrips() {
        use crate::diff::diff;
        let a = checkpoint(&vec![1u32, 2, 3]);
        let b = checkpoint(&vec![1u32, 9, 3]);
        let d = diff(&a, &b);
        let back = decode_delta(&encode_delta(&d)).unwrap();
        assert_eq!(back, d);
        assert_eq!(crate::diff::apply(&a, &back).unwrap().root, b.root);
    }

    #[test]
    fn delta_decoder_rejects_garbage() {
        assert_eq!(decode_delta(b"RBS"), Err(CodecError::UnexpectedEof));
        assert_eq!(decode_delta(b"RBSC\x01"), Err(CodecError::BadHeader));
        assert_eq!(decode_delta(b"XXXXX"), Err(CodecError::BadHeader));
        let d = Delta::default();
        let mut bytes = encode_delta(&d);
        bytes.push(7);
        assert_eq!(decode_delta(&bytes), Err(CodecError::TrailingBytes(1)));
        let bytes = encode_delta(&d);
        for cut in 0..bytes.len() {
            assert!(decode_delta(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn delta_encode_is_a_chaos_site() {
        use rbs_core::fault::{self, FaultKind, FaultPlan, FaultSite, InjectedFault};
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new(0).inject_window(
            FaultSite::CheckpointEncode,
            FaultKind::Panic,
            0,
            0,
            1,
        ));
        fault::scoped(plan, || {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                encode_delta(&Delta::default())
            }))
            .unwrap_err();
            let payload = err.downcast_ref::<InjectedFault>().expect("typed payload");
            assert_eq!(payload.site, FaultSite::CheckpointEncode);
        });
    }

    #[test]
    fn varint_encoding_is_compact() {
        let mut small = Vec::new();
        write_varint(&mut small, 5);
        assert_eq!(small.len(), 1);
        let mut big = Vec::new();
        write_varint(&mut big, u64::MAX);
        assert_eq!(big.len(), 10);
        assert_eq!((varint_len(0), varint_len(5), varint_len(127)), (1, 1, 1));
        assert_eq!((varint_len(128), varint_len(u64::MAX)), (2, 10));
    }

    fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
        let leaf = prop_oneof![
            Just(Snapshot::Unit),
            any::<bool>().prop_map(Snapshot::Bool),
            any::<u64>().prop_map(Snapshot::UInt),
            any::<i64>().prop_map(Snapshot::Int),
            any::<f64>()
                .prop_filter("nan compares oddly", |f| !f.is_nan())
                .prop_map(Snapshot::Float),
            any::<char>().prop_map(Snapshot::Char),
            ".*".prop_map(Snapshot::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Snapshot::Bytes),
            (0usize..1000).prop_map(Snapshot::Shared),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Snapshot::Seq),
                proptest::collection::vec((inner.clone(), inner.clone()), 0..4)
                    .prop_map(Snapshot::Map),
                inner.clone().prop_map(|s| Snapshot::Opt(Some(Box::new(s)))),
                Just(Snapshot::Opt(None)),
            ]
        })
    }

    proptest! {
        /// Any snapshot tree survives encode → decode byte-exactly.
        #[test]
        fn arbitrary_snapshots_roundtrip(root in arb_snapshot(), shared in proptest::collection::vec(arb_snapshot(), 0..4)) {
            let cp = Checkpoint { root, shared, stats: CheckpointStats::default() };
            let bytes = encode(&cp);
            prop_assert_eq!(encoded_len(&cp), bytes.len(), "the buffer is reserved exactly");
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(back.root, cp.root);
            prop_assert_eq!(back.shared, cp.shared);
        }

        /// Decoding arbitrary bytes never panics — it fails cleanly.
        #[test]
        fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
        }

        /// The delta wire format roundtrips any diff exactly.
        #[test]
        fn arbitrary_deltas_roundtrip(
            root_a in arb_snapshot(),
            root_b in arb_snapshot(),
            shared_a in proptest::collection::vec(arb_snapshot(), 0..3),
            shared_b in proptest::collection::vec(arb_snapshot(), 0..3),
        ) {
            let a = Checkpoint { root: root_a, shared: shared_a, stats: CheckpointStats::default() };
            let b = Checkpoint { root: root_b, shared: shared_b, stats: CheckpointStats::default() };
            let d = crate::diff::diff(&a, &b);
            let bytes = encode_delta(&d);
            prop_assert_eq!(encoded_delta_len(&d), bytes.len(), "the buffer is reserved exactly");
            prop_assert_eq!(decode_delta(&bytes).unwrap(), d);
        }

        /// The delta decoder is total over arbitrary bytes too.
        #[test]
        fn delta_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_delta(&bytes);
        }

        /// Varints roundtrip for all values.
        #[test]
        fn varint_roundtrip(v in any::<u64>(), s in any::<i64>()) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            prop_assert_eq!(varint_len(v), buf.len());
            let mut r = Reader { data: &buf, pos: 0 };
            prop_assert_eq!(r.varint().unwrap(), v);

            let mut buf = Vec::new();
            write_varint_signed(&mut buf, s);
            let mut r = Reader { data: &buf, pos: 0 };
            prop_assert_eq!(r.varint_signed().unwrap(), s);
        }
    }
}
