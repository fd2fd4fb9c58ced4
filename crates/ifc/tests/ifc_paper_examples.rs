//! Integration: the §4 narrative through the public API, plus
//! differential checks between the analysis pipelines.

use rbs_ifc::examples::{
    BUFFER_ALIAS_EXPLOIT_SRC, BUFFER_LEAK_SRC, SECURE_STORE_BUGGY_SRC, SECURE_STORE_SRC,
};
use rbs_ifc::verify::{verify_source, Verdict};
use rbs_ifc::{alias, interp, parse, progen, summary};

#[test]
fn buffer_program_line16_leak() {
    let v = verify_source(BUFFER_LEAK_SRC).expect("shipped example parses");
    let Verdict::Leaky(violations) = v else {
        panic!("expected a leak verdict, got {v:?}");
    };
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].channel, "term");
}

#[test]
fn line17_exploit_needs_ownership_or_alias_analysis() {
    // Rust mode: rejected outright.
    let v = verify_source(BUFFER_ALIAS_EXPLOIT_SRC).expect("parses");
    assert!(matches!(v, Verdict::OwnershipRejected(_)), "{v:?}");

    // C mode: the leak is visible only through the points-to relation.
    let p = parse::parse(BUFFER_ALIAS_EXPLOIT_SRC).unwrap();
    let (with_pts, stats) = alias::analyze_alias(&p);
    assert!(!with_pts.is_empty());
    assert!(stats.pts_edges > 0);
    assert!(
        alias::analyze_naive(&p).is_empty(),
        "strawman misses the alias leak"
    );
}

#[test]
fn secure_store_and_seeded_bug() {
    assert!(verify_source(SECURE_STORE_SRC).unwrap().is_safe());
    let v = verify_source(SECURE_STORE_BUGGY_SRC).unwrap();
    let Verdict::Leaky(violations) = v else {
        panic!("the seeded bug must be found, got {v:?}");
    };
    assert_eq!(violations.len(), 1);
    assert!(violations[0].loc.0.contains("else"));
}

/// Differential: monolithic interpretation and compositional summaries
/// agree on every generated program family.
#[test]
fn monolithic_and_compositional_agree_on_families() {
    for depth in [1usize, 3, 5, 7] {
        let p = progen::call_diamond(depth);
        let mono = interp::analyze(&p).unwrap();
        let comp = summary::analyze_with_summaries(&p).unwrap();
        assert_eq!(mono.len(), comp.len(), "depth {depth}");
        for (m, c) in mono.iter().zip(&comp) {
            assert_eq!(m.label, c.label, "depth {depth}");
            assert_eq!(m.channel, c.channel, "depth {depth}");
        }
    }
    for n in [1usize, 10, 50] {
        let p = progen::straightline(n);
        assert_eq!(
            interp::analyze(&p).unwrap().len(),
            summary::analyze_with_summaries(&p).unwrap().len(),
            "straightline {n}"
        );
    }
}

/// The precision ordering holds across sizes: move-mode never reports
/// more than the alias baseline on ownership-clean programs (its extra
/// reports are exactly the baseline's false positives).
#[test]
fn precision_ordering_on_churn() {
    for n in [1usize, 7, 23] {
        let p = progen::rebind_churn(n);
        let mv = interp::analyze(&p).unwrap().len();
        let (al, _) = alias::analyze_alias(&p);
        assert_eq!(mv, 0);
        assert_eq!(al.len(), n);
    }
}

/// Round-trip: a program printed from the examples parses to the same
/// verdict when re-verified (the text frontend is stable).
#[test]
fn source_constants_are_canonical() {
    for (src, safe) in [
        (SECURE_STORE_SRC, true),
        (SECURE_STORE_BUGGY_SRC, false),
        (BUFFER_LEAK_SRC, false),
    ] {
        assert_eq!(verify_source(src).unwrap().is_safe(), safe);
    }
}
