//! Protection domains and their manager.
//!
//! A [`Domain`] is a logical protection boundary: all domains allocate
//! from the common process heap (allocation is already safe in Rust), but
//! they share no data — every object a domain exports is reachable only
//! through its reference table, and every value passed in or out moves
//! ownership. The [`DomainManager`] is the paper's "domain manager"
//! context: it creates domains, enumerates them, and can destroy them.
//!
//! # Fault recovery
//!
//! "When a panic occurs inside the domain ..., we first unwind the stack
//! of the calling thread to the domain entry point and return an error
//! code to the caller. Next, we clear the domain reference table and
//! finally run the user-provided recovery function to re-initialize the
//! domain from clean state." (§3) That sequence is implemented in
//! [`Domain::handle_fault`], invoked from [`Domain::execute`] and from
//! [`crate::RRef`] invocation when the callee panics.

use crate::backend::{BackendKind, BackendTotals, Crossing, IsolationBackend};
use crate::error::RpcError;
use crate::policy::{AllowAll, Policy};
use crate::reftable::RefTable;
use crate::stats::DomainStats;
use crate::tls::{enter_domain, DomainId};
use rbs_core::sync::{Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

/// Lifecycle state of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainState {
    /// Accepting invocations.
    Active,
    /// A fault occurred and no recovery function brought the domain
    /// back; all invocations fail until one is installed and
    /// [`Domain::recover`] is called.
    Failed,
    /// Destroyed by the manager; terminal.
    Destroyed,
}

/// A recovery function: re-initializes a cleared domain. It runs inside
/// the domain and typically re-populates the reference table, "making the
/// failure transparent to clients".
pub type RecoveryFn = Box<dyn Fn(&Domain) + Send + Sync>;

pub(crate) struct DomainInner {
    id: DomainId,
    name: String,
    /// Lifecycle state as an atomic (0 = Active, 1 = Failed,
    /// 2 = Destroyed): the invocation fast path is a single load.
    state: AtomicU8,
    generation: AtomicU64,
    pub(crate) ref_table: RefTable,
    pub(crate) stats: DomainStats,
    /// True once a non-default policy is installed; lets the fast path
    /// skip the policy lock entirely for uninterposed domains.
    interposed: AtomicBool,
    /// When set, invocations measure and attribute cycles to the domain.
    pub(crate) accounting: AtomicBool,
    /// The isolation cost model every crossing of this boundary reports
    /// to (see [`crate::backend`]).
    pub(crate) backend: Arc<dyn IsolationBackend>,
    /// Cached `!backend.zero_cost()`: the hot path charges crossings
    /// only when true, so the default [`crate::backend::TypedSfi`]
    /// backend costs one predictable branch (the `interposed` trick).
    pub(crate) charged: bool,
    policy: RwLock<Arc<dyn Policy>>,
    recovery: Mutex<Option<Arc<RecoveryFn>>>,
}

impl DomainInner {
    pub(crate) fn id(&self) -> DomainId {
        self.id
    }

    /// Charge one boundary crossing to the backend. Free (one branch)
    /// under a zero-cost backend.
    #[inline]
    pub(crate) fn charge(&self, kind: Crossing, bytes: usize) {
        if self.charged {
            self.backend.crossing(self.id, kind, bytes);
        }
    }

    fn load_state(&self) -> DomainState {
        match self.state.load(Ordering::Acquire) {
            0 => DomainState::Active,
            1 => DomainState::Failed,
            _ => DomainState::Destroyed,
        }
    }

    fn store_state(&self, s: DomainState) {
        let raw = match s {
            DomainState::Active => 0,
            DomainState::Failed => 1,
            DomainState::Destroyed => 2,
        };
        self.state.store(raw, Ordering::Release);
    }

    /// The invocation fast path: one atomic state load, and a policy
    /// check only when a policy has actually been installed.
    #[inline]
    pub(crate) fn check_callable(
        &self,
        caller: DomainId,
        method: &'static str,
    ) -> Result<(), RpcError> {
        match self.load_state() {
            DomainState::Active => {}
            DomainState::Failed => {
                return Err(RpcError::DomainFailed { domain: self.id });
            }
            DomainState::Destroyed => {
                return Err(RpcError::DomainDestroyed { domain: self.id });
            }
        }
        // Calls from inside the domain itself are never interposed.
        if self.interposed.load(Ordering::Acquire)
            && caller != self.id
            && !self.policy.read().allow(caller, method)
        {
            self.stats.record_denial();
            return Err(RpcError::AccessDenied { caller, method });
        }
        Ok(())
    }
}

/// A handle to a protection domain. Cloning the handle does not clone the
/// domain; all clones refer to the same boundary.
#[derive(Clone)]
pub struct Domain {
    pub(crate) inner: Arc<DomainInner>,
}

impl Domain {
    fn new(id: DomainId, name: String, backend: Arc<dyn IsolationBackend>) -> Self {
        let charged = !backend.zero_cost();
        Self {
            inner: Arc::new(DomainInner {
                id,
                name,
                state: AtomicU8::new(0),
                generation: AtomicU64::new(0),
                ref_table: RefTable::new(),
                stats: DomainStats::new(),
                interposed: AtomicBool::new(false),
                accounting: AtomicBool::new(false),
                backend,
                charged,
                policy: RwLock::new(Arc::new(AllowAll)),
                recovery: Mutex::new(None),
            }),
        }
    }

    /// The domain's identifier.
    pub fn id(&self) -> DomainId {
        self.inner.id
    }

    /// The domain's human-readable name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DomainState {
        self.inner.load_state()
    }

    /// How many times the domain has been recovered from a fault.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Invocation statistics.
    pub fn stats(&self) -> &DomainStats {
        &self.inner.stats
    }

    /// Number of objects currently exported through the reference table.
    pub fn exported_objects(&self) -> usize {
        self.inner.ref_table.len()
    }

    /// Enables or disables per-domain cycle accounting: while on, every
    /// invocation adds its in-domain time to
    /// [`DomainStats::cycles_in_domain`]. Off by default — the two TSC
    /// reads it costs would be visible at the ~90-cycle call scale.
    pub fn set_accounting(&self, on: bool) {
        self.inner.accounting.store(on, Ordering::Release);
    }

    /// Installs an interposition policy; replaces any previous policy.
    pub fn set_policy(&self, policy: impl Policy + 'static) {
        *self.inner.policy.write() = Arc::new(policy);
        self.inner.interposed.store(true, Ordering::Release);
    }

    /// Installs the recovery function run after a fault.
    pub fn set_recovery(&self, f: impl Fn(&Domain) + Send + Sync + 'static) {
        *self.inner.recovery.lock() = Some(Arc::new(Box::new(f)));
    }

    pub(crate) fn check_callable(
        &self,
        caller: DomainId,
        method: &'static str,
    ) -> Result<(), RpcError> {
        self.inner.check_callable(caller, method)
    }

    /// Runs `f` inside the domain: the current-domain marker is switched
    /// for the duration, and a panic in `f` is caught at this boundary
    /// and triggers fault handling.
    ///
    /// This is the "domain entry point" of the paper's listing:
    ///
    /// ```
    /// use rbs_sfi::{DomainManager, RRef};
    ///
    /// let mgr = DomainManager::new();
    /// let d = mgr.create_domain("storage").unwrap();
    /// let rref = d.execute(|| RRef::new(&d, vec![1u8, 2, 3])).unwrap();
    /// assert_eq!(rref.invoke(|v| v.len()).unwrap(), 3);
    /// ```
    pub fn execute<R>(&self, f: impl FnOnce() -> R) -> Result<R, RpcError> {
        self.check_callable(crate::tls::current_domain(), "execute")?;
        self.inner.charge(Crossing::Call, 0);
        let accounting = self.inner.accounting.load(Ordering::Acquire);
        let start = if accounting {
            rbs_core::cycles::rdtsc()
        } else {
            0
        };
        let _guard = enter_domain(self.id());
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => {
                if accounting {
                    self.inner
                        .stats
                        .record_cycles(rbs_core::cycles::rdtsc().saturating_sub(start));
                }
                self.inner.stats.record_invocation();
                self.inner
                    .charge(Crossing::Return, std::mem::size_of::<R>());
                Ok(r)
            }
            Err(_) => {
                drop(_guard);
                self.handle_fault();
                Err(RpcError::Fault { domain: self.id() })
            }
        }
    }

    /// Charges one boundary crossing of `kind` carrying `bytes` to this
    /// domain's backend without entering the domain.
    ///
    /// This is the metering hook for transfers that move data across
    /// the boundary outside `execute`/channel plumbing — today the
    /// work-stealing path ([`Crossing::Steal`]), where the thief charges
    /// the transfer on its own domain. Free (one cached-bool branch)
    /// under a zero-cost backend, exactly like every other crossing.
    #[inline]
    pub fn meter_crossing(&self, kind: Crossing, bytes: usize) {
        self.inner.charge(kind, bytes);
    }

    /// Dedicates the current thread to this domain until the returned
    /// attachment drops (see [`crate::tls::attach_thread`]).
    ///
    /// Worker threads owned by a domain attach once at startup; their
    /// subsequent [`Domain::execute`] calls on the *same* domain then run
    /// with `caller == self`, so installed policies never interpose on
    /// the domain's own data path.
    ///
    /// Fails when the domain is not active — a supervisor must
    /// [`Domain::recover`] before respawning a worker onto it.
    pub fn attach_thread(&self) -> Result<crate::tls::ThreadAttachment, RpcError> {
        match self.state() {
            DomainState::Active => {
                if self.inner.charged {
                    self.inner.backend.thread_attached(self.id());
                }
                Ok(crate::tls::attach_thread(self.id()))
            }
            DomainState::Failed => Err(RpcError::DomainFailed { domain: self.id() }),
            DomainState::Destroyed => Err(RpcError::DomainDestroyed { domain: self.id() }),
        }
    }

    /// The fault-handling sequence: mark failed, poison the reference
    /// table (revoking every capability, freeing every exported object,
    /// and recording which objects are still pinned by in-flight
    /// invocations), then run the recovery function if one is installed.
    ///
    /// Returns `true` when the domain is active again.
    pub(crate) fn handle_fault(&self) -> bool {
        self.inner.stats.record_fault();
        self.inner.backend.domain_faulted(self.id());
        self.inner.store_state(DomainState::Failed);
        let (_revoked, inflight) = self.inner.ref_table.poison();
        self.inner.stats.record_inflight_at_fault(inflight as u64);
        self.try_recover()
    }

    /// Attempts recovery of a failed domain; also callable manually when
    /// a recovery function is installed after the fault.
    ///
    /// Returns `true` when the domain is active afterwards.
    pub fn recover(&self) -> bool {
        if self.state() != DomainState::Failed {
            return self.state() == DomainState::Active;
        }
        self.try_recover()
    }

    fn try_recover(&self) -> bool {
        let recovery = self.inner.recovery.lock().clone();
        let Some(recovery) = recovery else {
            return false;
        };
        // Before the table is reused, wait out invocations that were
        // mid-call on the dead generation's objects: their strong
        // references pin objects the fault already disowned. The wait is
        // bounded — a call that outlives it is counted as a leaked slot
        // rather than allowed to wedge recovery forever.
        let leaked = self
            .inner
            .ref_table
            .drain_inflight(std::time::Duration::from_millis(200));
        if leaked > 0 {
            self.inner.stats.record_leaked_slots(leaked as u64);
        }
        // Run the user function inside the domain. If recovery itself
        // panics, the domain stays failed.
        let guard = enter_domain(self.id());
        let outcome = catch_unwind(AssertUnwindSafe(|| recovery(self)));
        drop(guard);
        match outcome {
            Ok(()) => {
                self.inner.store_state(DomainState::Active);
                self.inner.generation.fetch_add(1, Ordering::Relaxed);
                self.inner.stats.record_recovery();
                self.inner.backend.domain_recovered(self.id());
                true
            }
            Err(_) => false,
        }
    }

    /// Destroys the domain: clears the table (freeing exported objects)
    /// and rejects all future calls. Idempotent.
    pub fn destroy(&self) {
        let was_live = self.state() != DomainState::Destroyed;
        self.inner.store_state(DomainState::Destroyed);
        self.inner.ref_table.clear();
        if was_live {
            self.inner.backend.domain_destroyed(self.id());
        }
    }

    /// The isolation backend this domain's crossings report to.
    pub fn backend(&self) -> &Arc<dyn IsolationBackend> {
        &self.inner.backend
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("id", &self.id())
            .field("name", &self.name())
            .field("state", &self.state())
            .field("generation", &self.generation())
            .field("exported_objects", &self.exported_objects())
            .finish()
    }
}

/// Errors from domain creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// The manager's configured domain quota is exhausted.
    QuotaExceeded {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::QuotaExceeded { limit } => {
                write!(f, "domain quota of {limit} exhausted")
            }
        }
    }
}

impl std::error::Error for DomainError {}

/// Creates domains and controls their lifecycle.
#[derive(Clone)]
pub struct DomainManager {
    inner: Arc<ManagerInner>,
}

struct ManagerInner {
    next_id: AtomicU64,
    registry: Mutex<Vec<Weak<DomainInner>>>,
    max_domains: Option<usize>,
    backend: Arc<dyn IsolationBackend>,
}

impl DomainManager {
    /// A manager with no domain quota, on the default zero-cost
    /// [`crate::backend::TypedSfi`] backend.
    pub fn new() -> Self {
        Self::with_quota(None)
    }

    /// A manager that refuses to create more than `max` live domains.
    pub fn with_quota(max: Option<usize>) -> Self {
        Self::with_quota_and_backend(max, BackendKind::default().instantiate())
    }

    /// A manager whose domains run on one of the built-in isolation
    /// backends.
    pub fn with_backend_kind(kind: BackendKind) -> Self {
        Self::with_quota_and_backend(None, kind.instantiate())
    }

    /// A manager whose domains run on `backend`.
    pub fn with_backend(backend: Arc<dyn IsolationBackend>) -> Self {
        Self::with_quota_and_backend(None, backend)
    }

    /// A manager with both a domain quota and an isolation backend.
    pub fn with_quota_and_backend(max: Option<usize>, backend: Arc<dyn IsolationBackend>) -> Self {
        Self {
            inner: Arc::new(ManagerInner {
                next_id: AtomicU64::new(1), // 0 is KERNEL_DOMAIN
                registry: Mutex::new(Vec::new()),
                max_domains: max,
                backend,
            }),
        }
    }

    /// The isolation backend new domains are created on.
    pub fn backend(&self) -> &Arc<dyn IsolationBackend> {
        &self.inner.backend
    }

    /// Crossing totals accumulated by this manager's backend. Always
    /// zero under the default zero-cost backend (nothing is counted, by
    /// design — instrumentation would itself be a tax).
    pub fn backend_totals(&self) -> BackendTotals {
        self.inner.backend.stats()
    }

    /// Creates a new, active protection domain.
    pub fn create_domain(&self, name: impl Into<String>) -> Result<Domain, DomainError> {
        let mut registry = self.inner.registry.lock();
        registry.retain(|w| w.strong_count() > 0);
        if let Some(limit) = self.inner.max_domains {
            let live = registry
                .iter()
                .filter_map(Weak::upgrade)
                .filter(|d| d.load_state() != DomainState::Destroyed)
                .count();
            if live >= limit {
                return Err(DomainError::QuotaExceeded { limit });
            }
        }
        let id = DomainId::new(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let domain = Domain::new(id, name.into(), Arc::clone(&self.inner.backend));
        registry.push(Arc::downgrade(&domain.inner));
        self.inner.backend.domain_created(id);
        Ok(domain)
    }

    /// All live (not dropped) domains, including failed/destroyed ones.
    pub fn domains(&self) -> Vec<Domain> {
        self.inner
            .registry
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|inner| Domain { inner })
            .collect()
    }

    /// Finds a live domain by id.
    pub fn find(&self, id: DomainId) -> Option<Domain> {
        self.domains().into_iter().find(|d| d.id() == id)
    }

    /// Destroys `domain` (same as [`Domain::destroy`], kept on the
    /// manager because destruction is a management-plane action).
    pub fn destroy_domain(&self, domain: &Domain) {
        domain.destroy();
    }
}

impl Default for DomainManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rref::RRef;
    use crate::tls::{current_domain, KERNEL_DOMAIN};

    #[test]
    fn create_assigns_unique_ids_and_names() {
        let mgr = DomainManager::new();
        let a = mgr.create_domain("a").unwrap();
        let b = mgr.create_domain("b").unwrap();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), KERNEL_DOMAIN);
        assert_eq!(a.name(), "a");
        assert_eq!(a.state(), DomainState::Active);
        assert_eq!(a.generation(), 0);
    }

    #[test]
    fn execute_runs_inside_domain() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        assert_eq!(current_domain(), KERNEL_DOMAIN);
        let seen = d.execute(current_domain).unwrap();
        assert_eq!(seen, d.id());
        assert_eq!(current_domain(), KERNEL_DOMAIN);
    }

    #[test]
    fn execute_returns_values_by_move() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        let v = d.execute(|| vec![1, 2, 3]).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn panic_in_execute_fails_domain_without_recovery() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        let err = d.execute(|| panic!("bug")).unwrap_err();
        assert_eq!(err, RpcError::Fault { domain: d.id() });
        assert_eq!(d.state(), DomainState::Failed);
        assert_eq!(d.stats().faults(), 1);
        // Subsequent calls are rejected.
        assert_eq!(
            d.execute(|| ()).unwrap_err(),
            RpcError::DomainFailed { domain: d.id() }
        );
    }

    #[test]
    fn recovery_reinitializes_and_bumps_generation() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        d.set_recovery(|_d| { /* re-init from clean state */ });
        let err = d.execute(|| panic!("bug")).unwrap_err();
        assert_eq!(err, RpcError::Fault { domain: d.id() });
        assert_eq!(d.state(), DomainState::Active, "recovery should reactivate");
        assert_eq!(d.generation(), 1);
        assert_eq!(d.stats().recoveries(), 1);
        assert_eq!(d.execute(|| 42).unwrap(), 42);
    }

    #[test]
    fn fault_clears_reference_table() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        let rref = d.execute(|| RRef::new(&d, 7u32)).unwrap();
        assert_eq!(d.exported_objects(), 1);
        let _ = d.execute(|| panic!("bug"));
        assert_eq!(d.exported_objects(), 0);
        assert_eq!(
            rref.invoke(|v| *v).unwrap_err(),
            RpcError::Poisoned { domain: d.id() }
        );
    }

    #[test]
    fn recovery_can_repopulate_table() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        let d2 = d.clone();
        d.set_recovery(move |dom| {
            let _ = RRef::new(dom, 0u32);
        });
        let _ = d2.execute(|| RRef::new(&d2, 1u32)).unwrap();
        let _ = d2.execute(|| panic!("bug"));
        assert_eq!(d2.state(), DomainState::Active);
        assert_eq!(d2.exported_objects(), 1, "recovery repopulated the table");
    }

    #[test]
    fn panicking_recovery_leaves_domain_failed() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        d.set_recovery(|_| panic!("recovery is broken too"));
        let _ = d.execute(|| panic!("bug"));
        assert_eq!(d.state(), DomainState::Failed);
        assert_eq!(d.stats().recoveries(), 0);
    }

    #[test]
    fn late_recovery_installation() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        let _ = d.execute(|| panic!("bug"));
        assert_eq!(d.state(), DomainState::Failed);
        assert!(!d.recover(), "no recovery function installed yet");
        d.set_recovery(|_| ());
        assert!(d.recover());
        assert_eq!(d.state(), DomainState::Active);
    }

    #[test]
    fn recover_on_active_domain_is_noop_true() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        assert!(d.recover());
        assert_eq!(d.generation(), 0);
    }

    #[test]
    fn destroy_is_terminal() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        let rref = d.execute(|| RRef::new(&d, 1u8)).unwrap();
        mgr.destroy_domain(&d);
        assert_eq!(d.state(), DomainState::Destroyed);
        assert_eq!(rref.invoke(|v| *v).unwrap_err(), RpcError::Revoked);
        assert_eq!(
            d.execute(|| ()).unwrap_err(),
            RpcError::DomainDestroyed { domain: d.id() }
        );
        d.destroy(); // idempotent
        assert_eq!(d.state(), DomainState::Destroyed);
    }

    #[test]
    fn quota_enforced_and_released() {
        let mgr = DomainManager::with_quota(Some(2));
        let a = mgr.create_domain("a").unwrap();
        let _b = mgr.create_domain("b").unwrap();
        assert_eq!(
            mgr.create_domain("c").unwrap_err(),
            DomainError::QuotaExceeded { limit: 2 }
        );
        // Destroying one frees a slot.
        a.destroy();
        assert!(mgr.create_domain("c").is_ok());
    }

    #[test]
    fn registry_lists_and_finds() {
        let mgr = DomainManager::new();
        let a = mgr.create_domain("a").unwrap();
        let b = mgr.create_domain("b").unwrap();
        let ids: Vec<_> = mgr.domains().iter().map(Domain::id).collect();
        assert!(ids.contains(&a.id()) && ids.contains(&b.id()));
        assert_eq!(mgr.find(a.id()).unwrap().name(), "a");
        drop(b);
        // Dropped handles disappear from the registry lazily.
        let mgr2 = mgr.clone();
        let _ = mgr2.create_domain("c").unwrap();
        assert!(mgr.domains().iter().all(|d| d.name() != "b"));
    }

    #[test]
    fn execute_respects_policy_for_external_callers() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("d").unwrap();
        d.set_policy(crate::policy::DenyAll);
        let err = d.execute(|| 1).unwrap_err();
        assert!(matches!(
            err,
            RpcError::AccessDenied {
                method: "execute",
                ..
            }
        ));
        assert_eq!(d.stats().denials(), 1);
    }

    #[test]
    fn quota_none_is_unlimited() {
        let mgr = DomainManager::new();
        for i in 0..64 {
            mgr.create_domain(format!("d{i}")).unwrap();
        }
    }

    #[test]
    fn debug_output() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("dbg").unwrap();
        let s = format!("{d:?}");
        assert!(s.contains("dbg"));
        assert!(s.contains("Active"));
    }
}
