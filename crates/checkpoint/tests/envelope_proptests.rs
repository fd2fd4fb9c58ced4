//! Property tests for the sealed-envelope boundary: randomly aliased
//! `CkRc`/`CkArc` graphs survive seal → open → restore with their
//! sharing structure rebuilt exactly; any single bit flip anywhere in a
//! sealed envelope is detected, as the typed error its position calls
//! for (never a wrong value); `open` is total over arbitrary bytes; and
//! an envelope of another format version — version 3, which differs
//! from this one in the version byte and the footer alone, among them —
//! is a typed version mismatch.

use proptest::prelude::*;
use rbs_checkpoint::envelope::{open, seal_delta, seal_full, Payload, VERSION};
use rbs_checkpoint::{
    checkpoint, checkpointable, diff, restore, CkArc, CkRc, RestoreError, SnapshotMeta,
};

/// Leaf payload held behind the shared pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    label: u64,
    tags: Vec<u8>,
}

checkpointable!(struct Node { label, tags });

/// A value whose aliasing structure is the thing under test: `arcs` and
/// `rcs` index into two pools, so distinct slots may point at the same
/// allocation.
#[derive(Debug, Clone, PartialEq)]
struct Doc {
    arcs: Vec<CkArc<Node>>,
    rcs: Vec<CkRc<Vec<u64>>>,
}

checkpointable!(struct Doc { arcs, rcs });

/// Builds a randomly aliased document from raw draws. Pools are small
/// and the pick lists longer, so aliasing (including repeated aliasing)
/// is the common case, not the corner. Returns the document plus the
/// alias maps that define its expected sharing: `arc_refs[i]` is the
/// pool slot `doc.arcs[i]` points at (ditto `rc_refs`).
fn build_doc(
    arc_labels: &[u64],
    arc_picks: &[u64],
    rc_pool: &[Vec<u64>],
    rc_picks: &[u64],
) -> (Doc, Vec<usize>, Vec<usize>) {
    let arc_pool: Vec<CkArc<Node>> = arc_labels
        .iter()
        .map(|&label| {
            CkArc::new(Node {
                label,
                tags: label.to_le_bytes()[..(label % 5) as usize].to_vec(),
            })
        })
        .collect();
    let rc_pool: Vec<CkRc<Vec<u64>>> = rc_pool.iter().cloned().map(CkRc::new).collect();
    let arc_refs: Vec<usize> = arc_picks
        .iter()
        .map(|&p| (p % arc_pool.len() as u64) as usize)
        .collect();
    let rc_refs: Vec<usize> = rc_picks
        .iter()
        .map(|&p| (p % rc_pool.len() as u64) as usize)
        .collect();
    let doc = Doc {
        arcs: arc_refs.iter().map(|&i| arc_pool[i].clone()).collect(),
        rcs: rc_refs.iter().map(|&i| rc_pool[i].clone()).collect(),
    };
    (doc, arc_refs, rc_refs)
}

fn meta(epoch: u64) -> SnapshotMeta {
    SnapshotMeta {
        epoch,
        base_epoch: epoch,
        tick: epoch,
        items: 0,
        schema: 0,
    }
}

/// Whether `error` is the one a flip in byte `at` must give: the magic
/// is a bad header, the version byte a foreign version, and anything
/// else — header, payload or footer — a checksum mismatch, found before
/// a byte of it is parsed.
fn names_the_flip(at: usize, error: &RestoreError) -> bool {
    match at {
        0..4 => *error == RestoreError::BadHeader,
        4 => matches!(error, RestoreError::VersionMismatch { .. }),
        _ => matches!(error, RestoreError::ChecksumMismatch { .. }),
    }
}

/// Reseals an envelope the way format version 2 did — 64-bit FNV-1a over
/// everything before the 8-byte footer — which is the footer an older
/// build's snapshot arrives with. This build never computes it.
fn reseal_as_version_2(bytes: &mut [u8]) {
    let content_len = bytes.len() - 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..content_len] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[content_len..].copy_from_slice(&h.to_le_bytes());
}

/// Reseals an envelope the way format version 3 did — version byte 3,
/// and the single-lane checksum: `h ← m(h ^ v)` over every whole word,
/// then every tail byte, then the length — which is what an envelope an
/// older build sealed arrives as. This build never computes it.
fn reseal_as_version_3(bytes: &mut [u8]) {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, v: u64| {
        let x = (h ^ v).wrapping_mul(K);
        x ^ (x >> 32)
    };
    bytes[4] = 3;
    let content_len = bytes.len() - 8;
    let content = &bytes[..content_len];
    let mut words = content.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for word in &mut words {
        h = step(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    for &b in words.remainder() {
        h = step(h, u64::from(b));
    }
    let footer = step(h, content_len as u64);
    bytes[content_len..].copy_from_slice(&footer.to_le_bytes());
}

/// An envelope a version-3 build sealed, byte for byte.
const SEALED_BY_VERSION_3: [u8; 41] = [
    82, 66, 83, 69, 3, 0, 7, 7, 3, 2, 1, 21, 82, 66, 83, 67, 1, 9, 2, 9, 3, 3, 1, 3, 2, 3, 3, 7, 3,
    114, 98, 115, 0, 219, 72, 46, 104, 231, 188, 112, 29,
];

#[test]
fn version_4_differs_from_version_3_in_the_version_byte_and_footer_alone() {
    assert_eq!(VERSION, 4);
    let m = SnapshotMeta {
        epoch: 7,
        base_epoch: 7,
        tick: 3,
        items: 2,
        schema: 1,
    };
    let sealed = seal_full(m, &checkpoint(&(vec![1u64, 2, 3], String::from("rbs"))));
    let mut resealed = sealed.clone();
    reseal_as_version_3(&mut resealed);
    assert_eq!(
        resealed, SEALED_BY_VERSION_3,
        "the helper is version 3's sealer"
    );
    let differing: Vec<usize> = (0..sealed.len())
        .filter(|&i| sealed[i] != SEALED_BY_VERSION_3[i])
        .collect();
    assert_eq!(differing[0], 4, "the version byte");
    assert!(
        differing[1..].iter().all(|&i| i >= sealed.len() - 8),
        "{differing:?}"
    );
    assert_eq!(
        open(&SEALED_BY_VERSION_3).unwrap_err(),
        RestoreError::VersionMismatch {
            found: 3,
            expected: 4
        }
    );
}

proptest! {
    /// Seal → open → restore over a randomly aliased graph: values come
    /// back equal, and two slots share an allocation after restore
    /// exactly when they shared one before.
    #[test]
    fn aliased_graphs_roundtrip_with_sharing_rebuilt(
        arc_labels in proptest::collection::vec(any::<u64>(), 1..5),
        rc_pool in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..4), 1..4),
        arc_picks in proptest::collection::vec(any::<u64>(), 0..10),
        rc_picks in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let (doc, arc_refs, rc_refs) = build_doc(&arc_labels, &arc_picks, &rc_pool, &rc_picks);
        let cp = checkpoint(&doc);
        let sealed = seal_full(meta(1), &cp);
        let (m, payload) = open(&sealed).expect("own seal verifies");
        prop_assert_eq!(m, meta(1));
        let Payload::Full(reopened) = payload else {
            panic!("sealed full, opened a delta");
        };
        prop_assert_eq!(&reopened.root, &cp.root);
        prop_assert_eq!(&reopened.shared, &cp.shared);

        let back: Doc = restore(&reopened).expect("restore");
        prop_assert_eq!(&back, &doc);
        for i in 0..arc_refs.len() {
            for j in 0..arc_refs.len() {
                prop_assert_eq!(
                    CkArc::ptr_eq(&back.arcs[i], &back.arcs[j]),
                    arc_refs[i] == arc_refs[j],
                    "arc aliasing between slots {} and {}", i, j
                );
            }
        }
        for i in 0..rc_refs.len() {
            for j in 0..rc_refs.len() {
                prop_assert_eq!(
                    CkRc::ptr_eq(&back.rcs[i], &back.rcs[j]),
                    rc_refs[i] == rc_refs[j],
                    "rc aliasing between slots {} and {}", i, j
                );
            }
        }
    }

    /// Flipping any single bit of a sealed envelope — header, payload,
    /// or the checksum footer itself — must surface as an error.
    #[test]
    fn any_single_bit_flip_is_detected(
        arc_labels in proptest::collection::vec(any::<u64>(), 1..5),
        rc_pool in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..4), 1..4),
        arc_picks in proptest::collection::vec(any::<u64>(), 0..10),
        rc_picks in proptest::collection::vec(any::<u64>(), 0..8),
        raw_bit in any::<u64>(),
    ) {
        let (doc, _, _) = build_doc(&arc_labels, &arc_picks, &rc_pool, &rc_picks);
        let sealed = seal_full(meta(3), &checkpoint(&doc));
        let bit = (raw_bit % (sealed.len() as u64 * 8)) as usize;
        let mut flipped = sealed;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let error = open(&flipped).expect_err("a flipped bit opened");
        prop_assert!(names_the_flip(bit / 8, &error), "bit {}: {:?}", bit, error);
    }

    /// Incremental envelopes get the same guarantees: a sealed delta
    /// reopens equal (and applies back to the exact next checkpoint),
    /// and any single bit flip in it is detected.
    #[test]
    fn delta_envelopes_roundtrip_and_detect_bit_flips(
        arc_labels in proptest::collection::vec(any::<u64>(), 1..5),
        rc_pool in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..4), 1..4),
        arc_picks in proptest::collection::vec(any::<u64>(), 0..10),
        rc_picks in proptest::collection::vec(any::<u64>(), 0..8),
        extra in any::<u64>(),
        raw_bit in any::<u64>(),
    ) {
        let (doc, arc_refs, rc_refs) = build_doc(&arc_labels, &arc_picks, &rc_pool, &rc_picks);
        let base = checkpoint(&doc);
        let mut grown = doc.clone();
        grown.rcs.push(CkRc::new(vec![extra]));
        let next = checkpoint(&grown);
        let delta = diff(&base, &next);

        let sealed = seal_delta(
            SnapshotMeta { epoch: 2, base_epoch: 1, tick: 5, items: 0, schema: 0 },
            &delta,
        );
        let (m, payload) = open(&sealed).expect("own seal verifies");
        prop_assert!(m.is_delta());
        let Payload::Delta(reopened) = payload else {
            panic!("sealed delta, opened a full");
        };
        prop_assert_eq!(&reopened, &delta);
        let rebuilt = rbs_checkpoint::apply(&base, &reopened).expect("apply");
        prop_assert_eq!(&rebuilt.root, &next.root);
        prop_assert_eq!(&rebuilt.shared, &next.shared);
        let back: Doc = restore(&rebuilt).expect("restore");
        prop_assert_eq!(back.arcs.len(), arc_refs.len());
        prop_assert_eq!(back.rcs.len(), rc_refs.len() + 1);

        let bit = (raw_bit % (sealed.len() as u64 * 8)) as usize;
        let mut flipped = sealed;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let error = open(&flipped).expect_err("a flipped bit opened");
        prop_assert!(names_the_flip(bit / 8, &error), "bit {}: {:?}", bit, error);
    }

    /// `open` is total: arbitrary bytes produce `Ok` or `Err`, never a
    /// panic — and without a valid checksum they cannot produce `Ok`.
    #[test]
    fn open_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert!(open(&bytes).is_err(), "random bytes passed verification");
    }

    /// An envelope sealed by *any* other format version — an older
    /// build's snapshot, or a future one's, landing on this build: the
    /// live-upgrade hazard — must fail with the typed `VersionMismatch`
    /// carrying the found and expected versions, whatever its footer
    /// holds: this version's checksum, the FNV-1a footer version 2
    /// wrote, or noise. Never a checksum error (a version defines its
    /// checksum), never a panic, and never a successful open.
    #[test]
    fn other_versions_fail_typed(
        arc_labels in proptest::collection::vec(any::<u64>(), 1..5),
        rc_pool in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..4), 1..4),
        arc_picks in proptest::collection::vec(any::<u64>(), 0..10),
        rc_picks in proptest::collection::vec(any::<u64>(), 0..8),
        epoch in any::<u64>(),
        foreign_version in any::<u8>().prop_filter("must differ", |v| *v != VERSION),
        footer in prop_oneof![Just(None), Just(Some(None)), any::<u64>().prop_map(|n| Some(Some(n)))],
    ) {
        let (doc, _, _) = build_doc(&arc_labels, &arc_picks, &rc_pool, &rc_picks);
        let mut sealed = seal_full(meta(epoch), &checkpoint(&doc));
        // Byte 4 is the format version.
        sealed[4] = foreign_version;
        match footer {
            None => {}
            Some(None) => reseal_as_version_2(&mut sealed),
            Some(Some(noise)) => {
                let at = sealed.len() - 8;
                sealed[at..].copy_from_slice(&noise.to_le_bytes());
            }
        }
        prop_assert_eq!(
            open(&sealed).unwrap_err(),
            RestoreError::VersionMismatch { found: foreign_version, expected: VERSION }
        );
    }

    /// A version-3 envelope — the previous format, whose footer alone
    /// differs — is a typed version mismatch, whatever it holds.
    #[test]
    fn version_3_envelopes_fail_typed(
        arc_labels in proptest::collection::vec(any::<u64>(), 1..5),
        rc_pool in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..4), 1..4),
        arc_picks in proptest::collection::vec(any::<u64>(), 0..10),
        rc_picks in proptest::collection::vec(any::<u64>(), 0..8),
        epoch in any::<u64>(),
    ) {
        let (doc, _, _) = build_doc(&arc_labels, &arc_picks, &rc_pool, &rc_picks);
        let mut sealed = seal_full(meta(epoch), &checkpoint(&doc));
        reseal_as_version_3(&mut sealed);
        prop_assert_eq!(
            open(&sealed).unwrap_err(),
            RestoreError::VersionMismatch { found: 3, expected: 4 }
        );
    }

    /// Truncating a valid envelope anywhere must be detected too (torn
    /// writes are the main non-flip corruption).
    #[test]
    fn truncation_is_detected(
        arc_labels in proptest::collection::vec(any::<u64>(), 1..5),
        rc_pool in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..4), 1..4),
        arc_picks in proptest::collection::vec(any::<u64>(), 0..10),
        rc_picks in proptest::collection::vec(any::<u64>(), 0..8),
        raw_cut in any::<u64>(),
    ) {
        let (doc, _, _) = build_doc(&arc_labels, &arc_picks, &rc_pool, &rc_picks);
        let sealed = seal_full(meta(9), &checkpoint(&doc));
        // Strictly shorter than the sealed envelope.
        let cut = (raw_cut % sealed.len() as u64) as usize;
        prop_assert!(open(&sealed[..cut]).is_err(), "truncation at {} undetected", cut);
    }
}
