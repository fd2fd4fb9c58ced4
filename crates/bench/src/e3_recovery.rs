//! E3 — §3: the cost of fault recovery.
//!
//! "Finally, we measure the cost of recovery by simulating a panic in
//! the null-filter and measuring the time it takes to catch it, clean up
//! the old domain, and create a new one. The recovery took 4389 cycles
//! on average."
//!
//! Measured here as the duration of the faulting invocation itself: it
//! begins when the callee panics and ends when the caller gets its error
//! back — by which point the stack is unwound, the reference table is
//! cleared, and the recovery function has rebuilt the operator.

use crate::harness::silence_panics;
use rbs_core::cycles::CycleTimer;
use rbs_core::stats::Summary;
use rbs_core::table::{fmt_f64, Table};
use rbs_netfx::batch::PacketBatch;
use rbs_netfx::operators::PanicAfter;
use rbs_netfx::pipeline::Operator;
use rbs_sfi::{Domain, DomainManager, RRef};

/// Distribution of recovery costs in cycles.
#[derive(Debug, Clone)]
pub struct RecoveryCosts {
    /// Summary over all measured recoveries.
    pub cycles: Summary,
}

/// Measures `rounds` fault-recovery cycles on a null-filter domain.
pub fn measure(rounds: usize) -> RecoveryCosts {
    silence_panics();
    let mgr = DomainManager::new();
    let domain = mgr.create_domain("null-filter").expect("no quota");
    // Recovery re-creates the (immediately faulting) operator so every
    // round exercises the identical catch/clean/rebuild path.
    let slot: std::sync::Arc<rbs_core::sync::Mutex<Option<RRef<PanicAfter>>>> =
        std::sync::Arc::new(rbs_core::sync::Mutex::new(None));
    {
        let slot = std::sync::Arc::clone(&slot);
        domain.set_recovery(move |d: &Domain| {
            *slot.lock() = Some(RRef::new(d, PanicAfter::new(0)));
        });
    }
    let mut rref = RRef::new(&domain, PanicAfter::new(0));

    // Warmup: the first panic pays one-time unwinder initialization that
    // a long-running system would have amortized long ago.
    for _ in 0..5.min(rounds) {
        let _ = rref.invoke_mut(|op| {
            let b = op.process(PacketBatch::new());
            b.len()
        });
        if let Some(fresh) = slot.lock().take() {
            rref = fresh;
        }
    }

    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = CycleTimer::start();
        let err = rref.invoke_mut(|op| {
            let b = op.process(PacketBatch::new());
            b.len()
        });
        let c = t.elapsed();
        assert!(err.is_err(), "the injected fault must fire");
        samples.push(c as f64);
        rref = slot.lock().take().expect("recovery repopulated the slot");
    }
    RecoveryCosts {
        cycles: Summary::of(&samples).expect("rounds > 0"),
    }
}

/// Regenerates the §3 recovery number as a text table.
pub fn run(quick: bool) -> String {
    let rounds = if quick { 300 } else { 3_000 };
    let costs = measure(rounds);
    let s = &costs.cycles;
    let mut t = Table::new(&["metric", "cycles"]);
    t.row_owned(vec!["recoveries measured".into(), s.count.to_string()]);
    t.row_owned(vec!["mean".into(), fmt_f64(s.mean, 0)]);
    t.row_owned(vec!["median".into(), fmt_f64(s.p50, 0)]);
    t.row_owned(vec!["p99".into(), fmt_f64(s.p99, 0)]);
    t.row_owned(vec!["min".into(), fmt_f64(s.min, 0)]);
    let mut out = String::from("E3 — fault recovery cost (paper: 4389 cycles on average)\n");
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_is_thousands_not_millions_of_cycles() {
        let costs = measure(100);
        let median = costs.cycles.p50;
        // The paper reports ~4.4k cycles on a 2008 Xeon in release mode.
        // Accept a wide band (debug build, unwinder variance, different
        // silicon), but insist on the order of magnitude: more than a
        // bare call, less than a millisecond.
        assert!(median > 500.0, "suspiciously cheap recovery: {median}");
        assert!(
            median < 3_000_000.0,
            "recovery should be microseconds-scale: {median}"
        );
    }

    #[test]
    fn every_round_actually_recovers() {
        let costs = measure(20);
        assert_eq!(costs.cycles.count, 20);
    }

    #[test]
    fn run_renders() {
        let out = run(true);
        assert!(out.contains("median"), "{out}");
    }
}
