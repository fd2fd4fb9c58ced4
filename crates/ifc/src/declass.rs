//! Declassification semantics, end to end.
//!
//! The mechanism itself lives in the IR ([`crate::ir::Stmt::Declassify`]),
//! the parser (`let d = declassify e;`, `fn f(...) authority L {...}`)
//! and each analysis; this module holds the cross-cutting documentation
//! and the behavioural test-suite.
//!
//! # Model
//!
//! Following the decentralized label model the paper cites \[29\], code
//! runs with an *authority*: the set of secrecy atoms it is trusted to
//! release. `declassify e` strips exactly those atoms from `e`'s label.
//! Two safety conditions apply:
//!
//! - atoms outside the authority are never stripped — declassification
//!   is bounded, not a universal laundering primitive;
//! - **robust declassification**: the program counter at the
//!   declassification site must itself flow to the authority. Otherwise
//!   secret data could *decide* whether a release happens, leaking
//!   through the decision; the analyses report this as a violation on
//!   the pseudo-channel `<declassify …>`.

#[cfg(test)]
mod tests {
    use crate::alias;
    use crate::label::Label;
    use crate::parse::parse;
    use crate::verify::{verify_source, Verdict};

    #[test]
    fn declassify_releases_within_authority() {
        // An average over secret data, released by code with `secret`
        // authority, may go to a public channel.
        let v = verify_source(
            "channel report public;
             fn main() authority secret {
                 let salary1 = 100 label secret;
                 let salary2 = 200 label secret;
                 let avg = declassify (salary1 + salary2);
                 output report, avg;
             }",
        )
        .unwrap();
        assert!(v.is_safe(), "{v:?}");
    }

    #[test]
    fn without_authority_nothing_is_released() {
        let v = verify_source(
            "channel report public;
             fn main() {
                 let s = 100 label secret;
                 let d = declassify s;
                 output report, d;
             }",
        )
        .unwrap();
        let Verdict::Leaky(vs) = v else {
            panic!("no authority ⇒ no release: {v:?}");
        };
        // The output still leaks (nothing was stripped).
        assert!(vs.iter().any(|x| x.channel == "report"));
    }

    #[test]
    fn authority_is_bounded_to_its_atoms() {
        // Authority over `alice` does not release `bob` data.
        let v = verify_source(
            "channel t public;
             fn main() authority {alice} {
                 let a = 1 label {alice};
                 let b = 2 label {bob};
                 let d = declassify (a + b);
                 output t, d;
             }",
        )
        .unwrap();
        let Verdict::Leaky(vs) = v else {
            panic!("bob's atom must survive: {v:?}");
        };
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].channel, "t");
    }

    #[test]
    fn robust_declassification_rejects_secret_control() {
        // The *decision* to declassify is controlled by `other`-labelled
        // data outside the authority: flagged even though the released
        // value itself is fine.
        let v = verify_source(
            "channel t public;
             fn main() authority {alice} {
                 let a = 1 label {alice};
                 let decide = 1 label {other};
                 if decide {
                     let d = declassify a;
                     output t, d;
                 }
             }",
        )
        .unwrap();
        let Verdict::Leaky(vs) = v else {
            panic!("expected robustness violation: {v:?}");
        };
        assert!(
            vs.iter().any(|x| x.channel.starts_with("<declassify")),
            "{vs:?}"
        );
    }

    #[test]
    fn pc_within_authority_is_robust() {
        // Branching on data the authority covers does not trip the
        // robustness check — but outputting *inside* that branch would
        // still (correctly) leak the condition. The safe pattern is to
        // declassify first and branch on the released value.
        let v = verify_source(
            "channel t public;
             fn main() authority {alice} {
                 let a = 1 label {alice};
                 let d = declassify a;
                 if d {
                     output t, d;
                 }
             }",
        )
        .unwrap();
        assert!(v.is_safe(), "{v:?}");

        // Same branch, output inside: the pc leak is reported on the
        // output (not the declassify — robustness itself was satisfied).
        let v = verify_source(
            "channel t public;
             fn main() authority {alice} {
                 let a = 1 label {alice};
                 if a {
                     let d = declassify a;
                     output t, d;
                 }
             }",
        )
        .unwrap();
        let Verdict::Leaky(vs) = v else {
            panic!("output under an alice pc leaks the condition: {v:?}");
        };
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].channel, "t");
        assert!(!vs[0].loc.0.contains("declassify"));
    }

    #[test]
    fn callee_authority_is_scoped() {
        // A trusted release function has the authority; its caller does
        // not. The call releases; the caller's own declassify does not.
        let v = verify_source(
            "channel t public;
             fn release(x label secret) authority secret {
                 let d = declassify x;
                 return d;
             }
             fn main() {
                 let s = 5 label secret;
                 let ok = call release(s);
                 output t, ok;
             }",
        )
        .unwrap();
        assert!(v.is_safe(), "{v:?}");
    }

    #[test]
    fn alias_mode_honors_declassification_too() {
        let p = parse(
            "channel t public;
             fn main() authority secret {
                 let buf = alloc;
                 let sec = vec[1] label secret;
                 append buf, sec;
                 let raw = read buf;
                 let d = declassify raw;
                 output t, d;
             }",
        )
        .unwrap();
        let (violations, _) = alias::analyze_alias(&p);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(alias::analyze_naive(&p).is_empty());
    }

    #[test]
    fn declassified_value_is_public_in_state() {
        let p = parse(
            "channel t public;
             fn main() authority secret {
                 let s = 9 label secret;
                 let d = declassify s;
                 output t, d;
             }",
        )
        .unwrap();
        let (violations, state) = crate::interp::analyze_with_state(&p).unwrap();
        assert!(violations.is_empty());
        assert_eq!(state["s"], Label::SECRET);
        assert_eq!(state["d"], Label::PUBLIC);
    }

    #[test]
    fn ownership_checker_handles_declassify() {
        // declassify borrows its operand; the scalar stays usable.
        let v = verify_source(
            "channel t public;
             fn main() authority secret {
                 let s = 1 label secret;
                 let d = declassify s;
                 let d2 = declassify s;
                 output t, d + d2;
             }",
        )
        .unwrap();
        assert!(v.is_safe(), "{v:?}");
    }

    #[test]
    fn summaries_are_conservative_about_declassified_params() {
        // Summary mode cannot strip unknown parameter labels, so it may
        // report a (sound) false positive where the monolithic analysis
        // proves safety — conservatism, never unsoundness.
        let p = parse(
            "channel t public;
             fn release(x) authority secret {
                 let d = declassify x;
                 return d;
             }
             fn main() {
                 let s = 5 label secret;
                 let ok = call release(s);
                 output t, ok;
             }",
        )
        .unwrap();
        let mono = crate::interp::analyze(&p).unwrap();
        assert!(mono.is_empty(), "monolithic proves this safe: {mono:?}");
        let comp = crate::summary::analyze_with_summaries(&p).unwrap();
        // Either outcome is sound for summaries; it must not be *less*
        // strict than monolithic.
        assert!(comp.len() >= mono.len());
    }
}
