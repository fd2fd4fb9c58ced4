//! Deterministic fault injection.
//!
//! Chaos testing is only useful when a failing run can be replayed: a
//! [`FaultPlan`] therefore makes every injection decision a *pure
//! function* of `(seed, site, stream, occurrence)`. No shared counters,
//! no RNG state — two threads consulting the same plan in any
//! interleaving see exactly the same faults, and re-running a seed
//! reproduces the whole failure schedule bit for bit.
//!
//! Terminology:
//!
//! - **site** — a named program location that consults the plan
//!   ([`FaultSite`]): an operator in a pipeline, a checkpoint encode, a
//!   live upgrade's seal or restore.
//! - **stream** — the caller-chosen sub-identity at a site (a lane or
//!   tenant index), so faults can target one lane or tenant.
//! - **occurrence** — the caller-maintained count of how many times
//!   *this stream* has reached the site. Callers own their counters;
//!   keeping them caller-local is what removes cross-thread ordering
//!   from the decision.
//!
//! A plan combines probabilistic rules (`rate_ppm` of occurrences fire)
//! and windowed rules (occurrences `[start, end)` always fire), which
//! covers both background fault rates and scripted crash loops.

use std::cell::RefCell;
use std::sync::Arc;

/// A named injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Inside pipeline execution, at the given stage index (runtimes
    /// that inject around the whole pipeline use stage 0).
    Operator(u16),
    /// Checkpoint serialization ([`encode`](FaultSite::CheckpointEncode)
    /// of a captured snapshot).
    CheckpointEncode,
    /// A live upgrade sealing one tenant's state inside its running
    /// chain's domain (stream = tenant index, occurrence = upgrades
    /// accepted before this one). A kill here is a fault of the running
    /// chain, and the upgrade rolls back.
    UpgradeQuiesce,
    /// A live upgrade building the target chain with the migrated state
    /// in a fresh domain (same stream/occurrence convention). A kill
    /// here destroys only that domain, and the upgrade rolls back.
    UpgradeRestore,
}

impl FaultSite {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::Operator(_) => "operator",
            FaultSite::CheckpointEncode => "checkpoint-encode",
            FaultSite::UpgradeQuiesce => "upgrade-quiesce",
            FaultSite::UpgradeRestore => "upgrade-restore",
        }
    }

    /// The site's salt in every decision. Tags 1 and 2 belonged to two
    /// retired sites; they are not reused, so no other site's decisions
    /// move.
    fn tag(&self) -> u64 {
        match self {
            FaultSite::Operator(stage) => 0x10_000 + u64::from(*stage),
            FaultSite::CheckpointEncode => 3,
            FaultSite::UpgradeQuiesce => 4,
            FaultSite::UpgradeRestore => 5,
        }
    }
}

/// What an injection does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (unwinds to the nearest domain boundary).
    Panic,
    /// An artificial processing delay: the site sleeps, then carries on.
    Delay {
        /// Sleep duration in microseconds.
        micros: u64,
    },
}

impl FaultKind {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay { .. } => "delay",
        }
    }
}

/// One injection rule of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Site this rule applies to.
    pub site: FaultSite,
    /// Fault fired when the rule matches.
    pub kind: FaultKind,
    /// Probability of firing per occurrence, in parts per million
    /// (1_000_000 = always).
    pub rate_ppm: u32,
    /// When set, the rule only applies to this stream.
    pub stream: Option<u64>,
    /// When set, the rule only applies to occurrences in `[start, end)`.
    pub window: Option<(u64, u64)>,
}

/// SplitMix64: the statistically solid 64-bit mixer used to derive
/// per-decision hashes from the seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded, immutable fault schedule.
///
/// Build once, wrap in an [`Arc`], hand to every component under test.
/// [`FaultPlan::decide`] is pure: it never mutates the plan, so the same
/// arguments always yield the same decision.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (never fires) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Adds a rule; builder style. Rules are evaluated in insertion
    /// order and the first one that fires wins.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a probabilistic rule firing on `rate_ppm` of occurrences at
    /// `site` (all streams).
    pub fn inject(self, site: FaultSite, kind: FaultKind, rate_ppm: u32) -> Self {
        self.rule(FaultRule {
            site,
            kind,
            rate_ppm,
            stream: None,
            window: None,
        })
    }

    /// Adds a scripted rule: `stream`'s occurrences in `[start, end)` at
    /// `site` always fire. This is how a deterministic crash loop is
    /// written down.
    pub fn inject_window(
        self,
        site: FaultSite,
        kind: FaultKind,
        stream: u64,
        start: u64,
        end: u64,
    ) -> Self {
        self.rule(FaultRule {
            site,
            kind,
            rate_ppm: 1_000_000,
            stream: Some(stream),
            window: Some((start, end)),
        })
    }

    /// The injection decision for one occurrence of a site.
    ///
    /// Pure: depends only on the plan and the arguments, never on call
    /// order or thread interleaving.
    pub fn decide(&self, site: FaultSite, stream: u64, occurrence: u64) -> Option<FaultKind> {
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            if let Some(s) = rule.stream {
                if s != stream {
                    continue;
                }
            }
            if let Some((start, end)) = rule.window {
                if occurrence < start || occurrence >= end {
                    continue;
                }
            }
            if rule.rate_ppm == 0 {
                continue;
            }
            if rule.rate_ppm >= 1_000_000 {
                return Some(rule.kind);
            }
            let h = splitmix64(
                self.seed
                    ^ splitmix64(site.tag())
                    ^ splitmix64(stream.wrapping_mul(0x2545_F491_4F6C_DD1D))
                    ^ splitmix64(occurrence.wrapping_add(i as u64) << 1),
            );
            if (h % 1_000_000) < u64::from(rule.rate_ppm) {
                return Some(rule.kind);
            }
        }
        None
    }
}

/// The panic payload used by injected panics, so tests and supervisors
/// can tell an injected fault from a genuine bug when they care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site the panic fired at.
    pub site: FaultSite,
}

/// Panics with an [`InjectedFault`] payload; the panic unwinds to the
/// enclosing domain boundary like any operator bug.
pub fn fire_panic(site: FaultSite) -> ! {
    std::panic::panic_any(InjectedFault { site })
}

/// Acts on a decision taken at `site`: [`fire_panic`] for
/// [`FaultKind::Panic`], a sleep for [`FaultKind::Delay`], nothing for
/// `None`.
#[inline]
pub fn fire(site: FaultSite, decision: Option<FaultKind>) {
    match decision {
        Some(FaultKind::Panic) => fire_panic(site),
        Some(FaultKind::Delay { micros }) => {
            std::thread::sleep(std::time::Duration::from_micros(micros))
        }
        None => {}
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<AmbientScope>> = const { RefCell::new(Vec::new()) };
}

struct AmbientScope {
    plan: Arc<FaultPlan>,
    stream: u64,
    counters: Vec<(FaultSite, u64)>,
}

/// Runs `f` with `plan` installed as the thread's ambient fault plan.
///
/// Library code that cannot be handed an explicit plan (e.g. the
/// checkpoint codec deep inside a call chain) consults the ambient plan
/// via [`ambient_decide`]. Scopes nest; the innermost plan wins. The
/// scope is thread-local on purpose: concurrent tests in one process
/// cannot perturb each other.
pub fn scoped<R>(plan: Arc<FaultPlan>, f: impl FnOnce() -> R) -> R {
    scoped_stream(plan, 0, f)
}

/// Like [`scoped`], but ambient decisions made inside `f` use `stream`
/// as their stream identity — this is how a lane thread makes its index
/// visible to injection sites buried in library code, so a plan can
/// target one lane out of many.
pub fn scoped_stream<R>(plan: Arc<FaultPlan>, stream: u64, f: impl FnOnce() -> R) -> R {
    AMBIENT.with(|a| {
        a.borrow_mut().push(AmbientScope {
            plan,
            stream,
            counters: Vec::new(),
        })
    });
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            AMBIENT.with(|a| {
                a.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// Consults the ambient plan (if any) for the next occurrence of `site`
/// on this thread; occurrence counting is per scope and per site.
///
/// Returns `None` — at the cost of one thread-local read — when no scope
/// is active, so permanent call sites are effectively free in
/// production.
pub fn ambient_decide(site: FaultSite) -> Option<FaultKind> {
    AMBIENT.with(|a| {
        let mut scopes = a.borrow_mut();
        let scope = scopes.last_mut()?;
        let occurrence = match scope.counters.iter_mut().find(|(s, _)| *s == site) {
            Some((_, n)) => {
                *n += 1;
                *n - 1
            }
            None => {
                scope.counters.push((site, 1));
                0
            }
        };
        let plan = Arc::clone(&scope.plan);
        let stream = scope.stream;
        drop(scopes);
        plan.decide(site, stream, occurrence)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::new(1);
        for n in 0..1000 {
            assert_eq!(p.decide(FaultSite::Operator(0), 0, n), None);
        }
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = FaultPlan::new(42).inject(FaultSite::Operator(0), FaultKind::Panic, 100_000);
        let b = FaultPlan::new(42).inject(FaultSite::Operator(0), FaultKind::Panic, 100_000);
        let c = FaultPlan::new(43).inject(FaultSite::Operator(0), FaultKind::Panic, 100_000);
        let da: Vec<_> = (0..512)
            .map(|n| a.decide(FaultSite::Operator(0), 3, n))
            .collect();
        let db: Vec<_> = (0..512)
            .map(|n| b.decide(FaultSite::Operator(0), 3, n))
            .collect();
        let dc: Vec<_> = (0..512)
            .map(|n| c.decide(FaultSite::Operator(0), 3, n))
            .collect();
        assert_eq!(da, db, "same seed, same schedule");
        assert_ne!(da, dc, "different seed, different schedule");
    }

    #[test]
    fn rate_is_roughly_respected() {
        let p = FaultPlan::new(7).inject(
            FaultSite::CheckpointEncode,
            FaultKind::Delay { micros: 1 },
            10_000,
        );
        let fired = (0..100_000u64)
            .filter(|&n| p.decide(FaultSite::CheckpointEncode, 0, n).is_some())
            .count();
        // 1% of 100k = 1000; allow a generous band.
        assert!((500..2000).contains(&fired), "fired {fired} of 100k at 1%");
    }

    #[test]
    fn window_rules_are_exact() {
        let p =
            FaultPlan::new(0).inject_window(FaultSite::CheckpointEncode, FaultKind::Panic, 2, 5, 8);
        for n in 0..12 {
            let hit = p.decide(FaultSite::CheckpointEncode, 2, n).is_some();
            assert_eq!(hit, (5..8).contains(&n), "occurrence {n}");
            assert_eq!(
                p.decide(FaultSite::CheckpointEncode, 1, n),
                None,
                "other stream"
            );
        }
    }

    #[test]
    fn streams_are_independent() {
        let p = FaultPlan::new(9).inject(FaultSite::Operator(1), FaultKind::Panic, 500_000);
        let s0: Vec<_> = (0..64)
            .map(|n| p.decide(FaultSite::Operator(1), 0, n))
            .collect();
        let s1: Vec<_> = (0..64)
            .map(|n| p.decide(FaultSite::Operator(1), 1, n))
            .collect();
        assert_ne!(s0, s1, "streams draw from independent sequences");
    }

    #[test]
    fn sites_do_not_alias() {
        let p = FaultPlan::new(5)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 300_000)
            .inject(
                FaultSite::CheckpointEncode,
                FaultKind::Delay { micros: 1 },
                300_000,
            );
        let op: Vec<_> = (0..64)
            .map(|n| p.decide(FaultSite::Operator(0), 0, n))
            .collect();
        let ch: Vec<_> = (0..64)
            .map(|n| p.decide(FaultSite::CheckpointEncode, 0, n))
            .collect();
        assert!(op.iter().flatten().all(|k| *k == FaultKind::Panic));
        assert!(ch
            .iter()
            .flatten()
            .all(|k| *k == FaultKind::Delay { micros: 1 }));
        assert_ne!(
            op.iter().map(|d| d.is_some()).collect::<Vec<_>>(),
            ch.iter().map(|d| d.is_some()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = FaultPlan::new(1)
            .inject_window(FaultSite::Operator(0), FaultKind::Panic, 0, 0, 1)
            .inject_window(
                FaultSite::Operator(0),
                FaultKind::Delay { micros: 1 },
                0,
                0,
                10,
            );
        assert_eq!(
            p.decide(FaultSite::Operator(0), 0, 0),
            Some(FaultKind::Panic)
        );
        assert_eq!(
            p.decide(FaultSite::Operator(0), 0, 1),
            Some(FaultKind::Delay { micros: 1 })
        );
    }

    #[test]
    fn injected_panic_payload_is_identifiable() {
        let err = std::panic::catch_unwind(|| fire_panic(FaultSite::Operator(2))).unwrap_err();
        let payload = err.downcast_ref::<InjectedFault>().expect("typed payload");
        assert_eq!(payload.site, FaultSite::Operator(2));
    }

    #[test]
    fn ambient_scope_counts_per_site() {
        let plan = Arc::new(FaultPlan::new(0).inject_window(
            FaultSite::CheckpointEncode,
            FaultKind::Panic,
            0,
            1,
            2,
        ));
        assert_eq!(
            ambient_decide(FaultSite::CheckpointEncode),
            None,
            "no scope"
        );
        scoped(plan, || {
            assert_eq!(
                ambient_decide(FaultSite::CheckpointEncode),
                None,
                "occurrence 0"
            );
            assert_eq!(
                ambient_decide(FaultSite::CheckpointEncode),
                Some(FaultKind::Panic),
                "occurrence 1"
            );
            assert_eq!(
                ambient_decide(FaultSite::CheckpointEncode),
                None,
                "occurrence 2"
            );
        });
        assert_eq!(
            ambient_decide(FaultSite::CheckpointEncode),
            None,
            "scope popped"
        );
    }

    #[test]
    fn ambient_scopes_nest_innermost_wins() {
        let outer = Arc::new(FaultPlan::new(0).inject(
            FaultSite::CheckpointEncode,
            FaultKind::Panic,
            1_000_000,
        ));
        let inner = Arc::new(FaultPlan::new(0));
        scoped(outer, || {
            scoped(inner, || {
                assert_eq!(ambient_decide(FaultSite::CheckpointEncode), None);
            });
            assert_eq!(
                ambient_decide(FaultSite::CheckpointEncode),
                Some(FaultKind::Panic)
            );
        });
    }

    #[test]
    fn ambient_stream_targets_one_worker() {
        let plan = Arc::new(FaultPlan::new(0).inject_window(
            FaultSite::Operator(0),
            FaultKind::Panic,
            2, // only stream 2
            0,
            u64::MAX,
        ));
        scoped_stream(Arc::clone(&plan), 1, || {
            assert_eq!(ambient_decide(FaultSite::Operator(0)), None);
        });
        scoped_stream(plan, 2, || {
            assert_eq!(
                ambient_decide(FaultSite::Operator(0)),
                Some(FaultKind::Panic)
            );
        });
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FaultSite::Operator(3).name(), "operator");
        assert_eq!(FaultSite::CheckpointEncode.name(), "checkpoint-encode");
        assert_eq!(FaultKind::Panic.name(), "panic");
        assert_eq!(FaultKind::Delay { micros: 1 }.name(), "delay");
    }
}
