//! Pluggable isolation backends — the cost model behind the boundary.
//!
//! The paper's claim is that linear types make fault isolation
//! essentially *free*: moving ownership across a domain boundary compiles
//! to nothing. Related work disputes where that boundary holds —
//! copy-in/copy-out serialization is the conventional-language baseline,
//! and MPK-style guarded regions price every switch in `wrpkru` cycles.
//! This module turns that argument into a seam: every cross-domain
//! crossing in the crate (remote invocation entry/return, channel
//! hand-off) reports through an
//! [`IsolationBackend`], and three backends span the cost spectrum:
//!
//! - [`TypedSfi`] — the paper's model and the **default**. Zero-cost by
//!   construction: it declares itself [`IsolationBackend::zero_cost`],
//!   so the hot path never even calls into it. Behavior is byte-identical
//!   to the pre-seam crate.
//! - [`MpkSim`] — a guarded-region simulation. Data still moves by
//!   ownership (MPK domains share the address space), but every crossing
//!   burns a calibrated number of cycles standing in for the `wrpkru`
//!   pair plus call-gate hardening. Constants documented on
//!   [`MpkCostModel`].
//! - [`CopyBoundary`] — the conventional-language strawman: every
//!   crossing physically copies the payload bytes through a scratch
//!   buffer (copy-in) and back (copy-out), the way a process boundary or
//!   serializing RPC would. Ownership semantics are unchanged — the copy
//!   is a *cost*, not a transport — which keeps fault semantics identical
//!   across backends and is exactly what makes the comparison fair.
//!
//! Experiment E13 sweeps backend × workload × batch size and emits the
//! measured spectrum (`BENCH_isolation.json`).

use std::cell::RefCell;
use std::fmt;
use std::hint::black_box;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::tls::DomainId;

/// The kind of domain crossing being charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossing {
    /// Entry into a domain: `Domain::execute` or an [`crate::RRef`]
    /// invocation crossing *into* the callee's domain.
    Call,
    /// Return back out of a domain with the result value.
    Return,
    /// A value moved into a domain through a bounded channel
    /// ([`crate::channel`](mod@crate::channel)).
    ChannelSend,
    /// A value received out of a channel by its owning domain.
    ChannelRecv,
    /// A work-stealing transfer: a batch pulled out of another lane's
    /// deque crosses from the victim's domain into the thief's. Charged
    /// by the thief (cost attribution follows the CPU doing the work)
    /// with the batch's wire bytes, so the steal tax is visible per
    /// backend exactly like a channel hand-off.
    Steal,
}

impl Crossing {
    /// Short label used in stats and experiment records.
    pub fn label(self) -> &'static str {
        match self {
            Crossing::Call => "call",
            Crossing::Return => "return",
            Crossing::ChannelSend => "send",
            Crossing::ChannelRecv => "recv",
            Crossing::Steal => "steal",
        }
    }
}

/// Aggregate counters a backend keeps about the crossings it charged.
///
/// All counters are relaxed atomics: they are accounting, not
/// synchronization.
#[derive(Debug, Default)]
pub struct BackendStats {
    crossings: AtomicU64,
    bytes: AtomicU64,
    model_cycles: AtomicU64,
}

impl BackendStats {
    /// A zeroed stats block.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record(&self, bytes: usize, model_cycles: u64) {
        self.crossings.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.model_cycles.fetch_add(model_cycles, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> BackendTotals {
        BackendTotals {
            crossings: self.crossings.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            model_cycles: self.model_cycles.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a backend's [`BackendStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendTotals {
    /// Number of crossings charged.
    pub crossings: u64,
    /// Payload bytes that crossed a boundary (as reported by the
    /// channel's meter function or the invocation's result size).
    pub bytes: u64,
    /// Cycles the backend's cost model charged for those crossings.
    /// Deterministic — a pure function of (crossings, bytes) — unlike
    /// wall-clock cycles, so experiment records built from it are
    /// byte-stable.
    pub model_cycles: u64,
}

/// The isolation backend seam.
///
/// A backend observes every cross-domain crossing and may charge a cost
/// for it. The *mechanism* of isolation (ownership moves, reference
/// tables, poisoning) is identical across backends — a backend is a cost
/// model, not a transport — so fault containment, drain/poison on
/// recovery, and the accounting invariants must hold on every backend
/// (`tests/backend_invariants.rs` proves they do).
///
/// Hot-path contract: when [`IsolationBackend::zero_cost`] returns true
/// the crate caches that fact at construction time and never calls
/// [`IsolationBackend::crossing`] at all, so the default backend adds a
/// single predictable branch to the invocation fast path (the same trick
/// the policy `interposed` flag uses).
pub trait IsolationBackend: Send + Sync + 'static {
    /// Stable machine-readable name ("typed-sfi", "copy-boundary",
    /// "mpk-sim").
    fn name(&self) -> &'static str;

    /// True when crossings are free and need not be observed. The crate
    /// reads this once per domain/channel construction and elides every
    /// hook when set.
    fn zero_cost(&self) -> bool {
        false
    }

    /// Charge one crossing of `kind` into/out of `domain` carrying
    /// `bytes` payload bytes. Only called when [`zero_cost`] is false.
    ///
    /// [`zero_cost`]: IsolationBackend::zero_cost
    fn crossing(&self, domain: DomainId, kind: Crossing, bytes: usize);

    /// Model cycles a single crossing of `bytes` costs under this
    /// backend's cost model. Pure and deterministic; E13 stable records
    /// are built from it.
    fn model_cycles(&self, bytes: usize) -> u64;

    /// Lifecycle observation: a domain was created.
    fn domain_created(&self, domain: DomainId) {
        let _ = domain;
    }

    /// Lifecycle observation: a domain faulted (a panic unwound to its
    /// boundary).
    fn domain_faulted(&self, domain: DomainId) {
        let _ = domain;
    }

    /// Lifecycle observation: a domain recovered.
    fn domain_recovered(&self, domain: DomainId) {
        let _ = domain;
    }

    /// Lifecycle observation: a domain was destroyed.
    fn domain_destroyed(&self, domain: DomainId) {
        let _ = domain;
    }

    /// Lifecycle observation: a thread attached to a domain.
    fn thread_attached(&self, domain: DomainId) {
        let _ = domain;
    }

    /// The backend's crossing counters.
    fn stats(&self) -> BackendTotals;
}

/// Selects one of the built-in backends; the `FromStr` impl accepts the
/// short and long spellings used by the examples' `--backend` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// [`TypedSfi`] — linear-type SFI, zero cost (the default).
    #[default]
    TypedSfi,
    /// [`CopyBoundary`] — copy-in/copy-out at every crossing.
    CopyBoundary,
    /// [`MpkSim`] — MPK-style per-switch cycle charge.
    MpkSim,
}

impl BackendKind {
    /// All built-in kinds, in ascending expected cost order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::TypedSfi,
        BackendKind::MpkSim,
        BackendKind::CopyBoundary,
    ];

    /// The backend's stable name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::TypedSfi => "typed-sfi",
            BackendKind::CopyBoundary => "copy-boundary",
            BackendKind::MpkSim => "mpk-sim",
        }
    }

    /// Builds a fresh backend instance of this kind with default cost
    /// models.
    pub fn instantiate(self) -> Arc<dyn IsolationBackend> {
        match self {
            BackendKind::TypedSfi => Arc::new(TypedSfi),
            BackendKind::CopyBoundary => Arc::new(CopyBoundary::new(CopyCostModel::default())),
            BackendKind::MpkSim => Arc::new(MpkSim::new(MpkCostModel::default())),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "typed" | "typed-sfi" | "sfi" => Ok(BackendKind::TypedSfi),
            "copy" | "copy-boundary" => Ok(BackendKind::CopyBoundary),
            "mpk" | "mpk-sim" => Ok(BackendKind::MpkSim),
            other => Err(format!(
                "unknown backend '{other}' (expected typed|copy|mpk)"
            )),
        }
    }
}

/// The paper's model: isolation enforced by the type system, crossings
/// compile to plain moves. Declares itself zero-cost, so no hook is ever
/// invoked and no counter is kept — instrumentation itself would be a
/// tax the model says does not exist.
#[derive(Debug, Default)]
pub struct TypedSfi;

impl IsolationBackend for TypedSfi {
    fn name(&self) -> &'static str {
        "typed-sfi"
    }

    fn zero_cost(&self) -> bool {
        true
    }

    fn crossing(&self, _domain: DomainId, _kind: Crossing, _bytes: usize) {}

    fn model_cycles(&self, _bytes: usize) -> u64 {
        0
    }

    fn stats(&self) -> BackendTotals {
        BackendTotals::default()
    }
}

/// Cost model for [`CopyBoundary`].
///
/// A copying boundary pays a fixed per-crossing setup (length/permission
/// checks, allocator round-trip amortized by the scratch buffer) plus a
/// per-byte charge for the copy-in/copy-out pair. The defaults model a
/// serializing IPC at memcpy speed: 2 bytes/cycle throughput per
/// direction → 1 cycle/byte for the round trip, plus 180 cycles fixed —
/// the order of magnitude the paper's §2 cites for copying/serializing
/// boundaries ("microkernels, SFI") and far from hypothetical: a
/// same-core L4-style IPC costs hundreds of cycles before touching a
/// single payload byte.
#[derive(Debug, Clone, Copy)]
pub struct CopyCostModel {
    /// Fixed cycles per crossing, payload-independent.
    pub per_crossing_cycles: u64,
    /// Model cycles charged per payload byte (round trip).
    pub cycles_per_byte_num: u64,
    /// Denominator for fractional per-byte rates.
    pub cycles_per_byte_den: u64,
}

impl Default for CopyCostModel {
    fn default() -> Self {
        Self {
            per_crossing_cycles: 180,
            cycles_per_byte_num: 1,
            cycles_per_byte_den: 1,
        }
    }
}

thread_local! {
    /// Per-thread scratch pair for [`CopyBoundary`]'s copy-in/copy-out.
    /// Grows to the largest payload seen and is then reused, so the
    /// steady-state cost is the copy itself, not allocation.
    static COPY_SCRATCH: RefCell<(Vec<u8>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The conventional-language strawman: every crossing copies the payload
/// in and back out through thread-local scratch buffers.
///
/// The copy is physically performed (a real `memcpy` of `bytes` in each
/// direction, kept alive with [`black_box`]) so end-to-end throughput
/// measurements feel the true memory-system cost, while
/// [`CopyCostModel`] provides the deterministic figure used in stable
/// experiment records.
#[derive(Debug)]
pub struct CopyBoundary {
    model: CopyCostModel,
    stats: BackendStats,
}

impl CopyBoundary {
    /// A copying backend with the given cost model.
    pub fn new(model: CopyCostModel) -> Self {
        Self {
            model,
            stats: BackendStats::new(),
        }
    }

    /// The configured cost model.
    pub fn model(&self) -> CopyCostModel {
        self.model
    }
}

impl IsolationBackend for CopyBoundary {
    fn name(&self) -> &'static str {
        "copy-boundary"
    }

    fn crossing(&self, _domain: DomainId, _kind: Crossing, bytes: usize) {
        if bytes > 0 {
            COPY_SCRATCH.with(|cell| {
                let (src, dst) = &mut *cell.borrow_mut();
                if src.len() < bytes {
                    src.resize(bytes, 0xA5);
                    dst.resize(bytes, 0);
                }
                // Copy-in ...
                dst[..bytes].copy_from_slice(&src[..bytes]);
                // ... and copy-out.
                src[..bytes].copy_from_slice(&dst[..bytes]);
                black_box(&dst[..bytes]);
            });
        }
        self.stats.record(bytes, self.model_cycles(bytes));
    }

    fn model_cycles(&self, bytes: usize) -> u64 {
        self.model.per_crossing_cycles
            + (bytes as u64 * self.model.cycles_per_byte_num) / self.model.cycles_per_byte_den
    }

    fn stats(&self) -> BackendTotals {
        self.stats.snapshot()
    }
}

/// Cost model for [`MpkSim`].
///
/// Calibration (documented in DESIGN.md "Isolation backends"): a raw
/// `wrpkru` is ~26 cycles on Skylake-class parts; a hardened domain
/// switch needs two of them (enter + leave) plus register scrubbing and
/// a stack check in the call gate, which published gate implementations
/// put at ~99–130 cycles end to end. The default charges 130 cycles per
/// crossing. x86 exposes 16 protection keys with one reserved — with
/// more than 15 live domains a real deployment must virtualize keys
/// (re-program `PKRU` maps on a miss), which the simulation prices at an
/// extra switch.
#[derive(Debug, Clone, Copy)]
pub struct MpkCostModel {
    /// Cycles per domain switch (the `wrpkru` pair + call-gate
    /// hardening).
    pub per_crossing_cycles: u64,
    /// Live-domain count beyond which key virtualization kicks in.
    pub pkey_budget: u64,
    /// Extra cycles per crossing once the key budget is exceeded.
    pub virtualization_cycles: u64,
}

impl Default for MpkCostModel {
    fn default() -> Self {
        Self {
            per_crossing_cycles: 130,
            pkey_budget: 15,
            virtualization_cycles: 130,
        }
    }
}

/// MPK-style guarded-region simulation: data still moves by ownership
/// (the domains share an address space — that is MPK's selling point),
/// but every crossing spins for the modeled number of TSC cycles so
/// end-to-end measurements feel the per-switch tax.
#[derive(Debug)]
pub struct MpkSim {
    model: MpkCostModel,
    stats: BackendStats,
    live_domains: AtomicU64,
}

impl MpkSim {
    /// An MPK simulation with the given cost model.
    pub fn new(model: MpkCostModel) -> Self {
        Self {
            model,
            stats: BackendStats::new(),
            live_domains: AtomicU64::new(0),
        }
    }

    /// The configured cost model.
    pub fn model(&self) -> MpkCostModel {
        self.model
    }

    /// Live domains currently holding a (simulated) protection key.
    pub fn live_domains(&self) -> u64 {
        self.live_domains.load(Ordering::Relaxed)
    }

    #[inline]
    fn per_crossing(&self) -> u64 {
        let mut cycles = self.model.per_crossing_cycles;
        if self.live_domains() > self.model.pkey_budget {
            cycles += self.model.virtualization_cycles;
        }
        cycles
    }

    /// Burn approximately `cycles` TSC cycles.
    #[inline]
    fn spin(cycles: u64) {
        let start = rbs_core::cycles::rdtsc();
        while rbs_core::cycles::rdtsc().wrapping_sub(start) < cycles {
            std::hint::spin_loop();
        }
    }
}

impl IsolationBackend for MpkSim {
    fn name(&self) -> &'static str {
        "mpk-sim"
    }

    fn crossing(&self, _domain: DomainId, _kind: Crossing, bytes: usize) {
        let cycles = self.per_crossing();
        Self::spin(cycles);
        self.stats.record(bytes, cycles);
    }

    fn model_cycles(&self, _bytes: usize) -> u64 {
        self.per_crossing()
    }

    fn domain_created(&self, _domain: DomainId) {
        self.live_domains.fetch_add(1, Ordering::Relaxed);
    }

    fn domain_destroyed(&self, _domain: DomainId) {
        // Saturating decrement: destroy is idempotent and may be called
        // on domains created before this backend was installed.
        let _ = self
            .live_domains
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    fn stats(&self) -> BackendTotals {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::KERNEL_DOMAIN;

    #[test]
    fn kind_round_trips_through_fromstr() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!(
            "typed".parse::<BackendKind>().unwrap(),
            BackendKind::TypedSfi
        );
        assert_eq!(
            "copy".parse::<BackendKind>().unwrap(),
            BackendKind::CopyBoundary
        );
        assert_eq!("mpk".parse::<BackendKind>().unwrap(), BackendKind::MpkSim);
        assert!("vmexit".parse::<BackendKind>().is_err());
    }

    #[test]
    fn typed_sfi_is_zero_cost_and_countless() {
        let b = TypedSfi;
        assert!(b.zero_cost());
        b.crossing(KERNEL_DOMAIN, Crossing::Call, 4096);
        assert_eq!(b.stats(), BackendTotals::default());
        assert_eq!(b.model_cycles(1 << 20), 0);
    }

    #[test]
    fn copy_boundary_counts_and_charges_per_byte() {
        let b = CopyBoundary::new(CopyCostModel::default());
        assert!(!b.zero_cost());
        b.crossing(KERNEL_DOMAIN, Crossing::ChannelSend, 1024);
        b.crossing(KERNEL_DOMAIN, Crossing::ChannelRecv, 0);
        let t = b.stats();
        assert_eq!(t.crossings, 2);
        assert_eq!(t.bytes, 1024);
        assert_eq!(t.model_cycles, 180 + 1024 + 180);
    }

    #[test]
    fn mpk_sim_charges_flat_per_switch() {
        let b = MpkSim::new(MpkCostModel::default());
        b.crossing(KERNEL_DOMAIN, Crossing::Call, 0);
        b.crossing(KERNEL_DOMAIN, Crossing::Return, 4096);
        let t = b.stats();
        assert_eq!(t.crossings, 2);
        assert_eq!(t.bytes, 4096);
        assert_eq!(
            t.model_cycles,
            2 * 130,
            "byte count does not change the charge"
        );
    }

    #[test]
    fn mpk_sim_prices_pkey_virtualization() {
        let model = MpkCostModel::default();
        let b = MpkSim::new(model);
        for i in 0..=model.pkey_budget {
            b.domain_created(DomainId::new(100 + i));
        }
        assert_eq!(b.live_domains(), 16);
        assert_eq!(
            b.model_cycles(0),
            model.per_crossing_cycles + model.virtualization_cycles
        );
        b.domain_destroyed(DomainId::new(100));
        assert_eq!(b.model_cycles(0), model.per_crossing_cycles);
        // Idempotent destroys never underflow.
        for _ in 0..64 {
            b.domain_destroyed(DomainId::new(100));
        }
        assert_eq!(b.live_domains(), 0);
    }

    #[test]
    fn spectrum_is_ordered_per_crossing() {
        let typed = TypedSfi;
        let mpk = MpkSim::new(MpkCostModel::default());
        let copy = CopyBoundary::new(CopyCostModel::default());
        for bytes in [0usize, 64, 1500, 64 * 1500] {
            assert!(typed.model_cycles(bytes) <= mpk.model_cycles(bytes));
            assert!(mpk.model_cycles(bytes) <= copy.model_cycles(bytes));
        }
    }
}
