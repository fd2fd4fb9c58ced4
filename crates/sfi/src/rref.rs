//! Remote references.
//!
//! An [`RRef<T>`] is the paper's rref smart pointer: the object it names
//! stays in its home domain's reference table, and holders reach it only
//! through proxied invocation. Concretely the rref holds a *weak*
//! pointer to the table entry; each invocation upgrades it ("a weak
//! pointer ... must be upgraded to a strong pointer before use"), so a
//! revoked or recovered domain makes every outstanding rref fail with
//! [`RpcError::Revoked`] instead of touching freed state.
//!
//! # Ownership across the boundary
//!
//! Invocation closures follow Rust's ordinary capture rules, which is
//! exactly the paper's cross-domain semantics:
//!
//! - a closure capturing `&x` grants the callee access *for the duration
//!   of the call*;
//! - a `move` closure transfers ownership permanently — after the call
//!   the sender provably cannot touch the value:
//!
//! ```compile_fail
//! use rbs_sfi::{DomainManager, RRef};
//!
//! let mgr = DomainManager::new();
//! let d = mgr.create_domain("sink").unwrap();
//! let rref = d.execute(|| RRef::new(&d, Vec::<Vec<u8>>::new())).unwrap();
//!
//! let buffer = vec![1u8, 2, 3];
//! rref.invoke_mut(move |sink| sink.push(buffer)).unwrap();
//! // ERROR: `buffer` was moved into the other domain; zero-copy SFI
//! // means the sender loses access, enforced at compile time.
//! let _ = buffer.len();
//! ```

use crate::domain::{Domain, DomainInner};
use crate::error::RpcError;
use crate::reftable::SlotHandle;
use crate::tls::{current_domain, enter_domain};
use rbs_core::sync::Mutex;
use rbs_core::Exchangeable;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};

/// A remote reference to a `T` living in another protection domain.
///
/// Cloning an `RRef` clones the *capability*, not the object; all clones
/// are revoked together.
pub struct RRef<T: Send + 'static> {
    weak: Weak<Mutex<T>>,
    home: Arc<DomainInner>,
    slot: SlotHandle,
}

impl<T: Send + 'static> Clone for RRef<T> {
    fn clone(&self) -> Self {
        Self {
            weak: self.weak.clone(),
            home: Arc::clone(&self.home),
            slot: self.slot,
        }
    }
}

impl<T: Send + 'static> RRef<T> {
    /// Exports `value` from `home`, placing the object in the domain's
    /// reference table and returning the remote reference.
    ///
    /// The object itself never moves again: it is owned by the table
    /// until revocation, fault, or destruction.
    pub fn new(home: &Domain, value: T) -> Self {
        let strong = Arc::new(Mutex::new(value));
        let weak = Arc::downgrade(&strong);
        let slot = home.inner.ref_table.insert(strong);
        Self {
            weak,
            home: Arc::clone(&home.inner),
            slot,
        }
    }

    /// The id of the domain the object lives in.
    pub fn home_domain(&self) -> crate::tls::DomainId {
        self.home.id()
    }

    fn home_domain_handle(&self) -> Domain {
        Domain {
            inner: Arc::clone(&self.home),
        }
    }

    /// True while the reference has not been revoked.
    pub fn is_alive(&self) -> bool {
        self.weak.strong_count() > 0
    }

    /// Revokes this reference (and all its clones) by removing the proxy
    /// from the home domain's table. Returns `true` if this call did the
    /// revocation, `false` if it was already gone.
    ///
    /// The object is deallocated here unless an invocation is currently
    /// executing on another thread, in which case it is freed when that
    /// call completes.
    pub fn revoke(&self) -> bool {
        self.home.ref_table.remove(self.slot).is_some()
    }

    /// Invokes `f` with shared access to the object, under the method
    /// name `"invoke"`. See [`RRef::invoke_named`].
    pub fn invoke<R: Exchangeable>(&self, f: impl FnOnce(&T) -> R) -> Result<R, RpcError> {
        self.invoke_named("invoke", f)
    }

    /// Invokes `f` with exclusive access to the object, under the method
    /// name `"invoke"`. See [`RRef::invoke_mut_named`].
    pub fn invoke_mut<R: Exchangeable>(&self, f: impl FnOnce(&mut T) -> R) -> Result<R, RpcError> {
        self.invoke_mut_named("invoke", f)
    }

    /// Remote invocation with a method name for the interposition
    /// policy: upgrade the weak proxy, check domain state and policy,
    /// switch the current-domain marker, run `f` with shared access.
    ///
    /// On callee panic the stack unwinds to this boundary, the home
    /// domain's fault handling runs (table clear + recovery), and the
    /// caller gets [`RpcError::Fault`].
    ///
    /// # Deadlocks
    ///
    /// Re-entrant invocation on the same object from within `f`
    /// deadlocks, like any mutex re-entry. Cross-object and cross-domain
    /// nesting is fine.
    pub fn invoke_named<R: Exchangeable>(
        &self,
        method: &'static str,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, RpcError> {
        self.call(method, |obj| f(&*obj))
    }

    /// Like [`RRef::invoke_named`] with exclusive access.
    pub fn invoke_mut_named<R: Exchangeable>(
        &self,
        method: &'static str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, RpcError> {
        self.call(method, f)
    }

    fn call<R: Exchangeable>(
        &self,
        method: &'static str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, RpcError> {
        // Upgrade the weak proxy first; failure means the capability was
        // revoked (explicitly, by fault cleanup, or by destruction) — the
        // paper's "fail to upgrade the weak pointer and ... return an
        // error". Domain state is checked second, for the window where an
        // entry is still live but the domain is failed or destroyed.
        let Some(strong) = self.weak.upgrade() else {
            self.home.stats.record_revoked_call();
            // Distinguish a capability that died with a fault (its epoch
            // was poisoned by fault cleanup) from a clean revocation.
            if self.home.ref_table.handle_poisoned(self.slot) {
                return Err(RpcError::Poisoned {
                    domain: self.home.id(),
                });
            }
            return Err(RpcError::Revoked);
        };
        self.home.check_callable(current_domain(), method)?;
        // Entering the home domain is a boundary crossing; the return
        // value moving back out is the second one.
        self.home.charge(crate::backend::Crossing::Call, 0);
        let accounting = self
            .home
            .accounting
            .load(std::sync::atomic::Ordering::Acquire);
        let start = if accounting {
            rbs_core::cycles::rdtsc()
        } else {
            0
        };
        let guard = enter_domain(self.home_domain());
        let mut obj = strong.lock();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut obj)));
        drop(obj);
        drop(strong);
        drop(guard);
        if accounting {
            self.home
                .stats
                .record_cycles(rbs_core::cycles::rdtsc().saturating_sub(start));
        }
        match outcome {
            Ok(r) => {
                self.home.stats.record_invocation();
                self.home
                    .charge(crate::backend::Crossing::Return, std::mem::size_of::<R>());
                Ok(r)
            }
            Err(_) => {
                let home = self.home_domain_handle();
                home.handle_fault();
                Err(RpcError::Fault { domain: home.id() })
            }
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for RRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RRef")
            .field("home", &self.home_domain())
            .field("alive", &self.is_alive())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainManager, DomainState};
    use crate::policy::AclPolicy;
    use crate::tls::KERNEL_DOMAIN;

    fn setup() -> (DomainManager, Domain) {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("test").unwrap();
        (mgr, d)
    }

    #[test]
    fn paper_listing_shape() {
        // Mirrors the listing in §3: create a PD, create an object inside
        // it wrapped in an RRef, invoke it from outside, handle errors.
        let (_mgr, d) = setup();
        let rref = d.execute(|| RRef::new(&d, String::from("obj"))).unwrap();
        match rref.invoke_named("method1", |s| s.len()) {
            Ok(ret) => assert_eq!(ret, 3),
            Err(e) => panic!("method1() failed: {e}"),
        }
    }

    #[test]
    fn invoke_runs_in_home_domain() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, ());
        let seen = rref.invoke(|_| current_domain()).unwrap();
        assert_eq!(seen, d.id());
        assert_eq!(current_domain(), KERNEL_DOMAIN);
    }

    #[test]
    fn invoke_mut_mutates() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, 0u64);
        for _ in 0..5 {
            rref.invoke_mut(|v| *v += 1).unwrap();
        }
        assert_eq!(rref.invoke(|v| *v).unwrap(), 5);
        assert_eq!(d.stats().invocations(), 6);
    }

    #[test]
    fn ownership_transfer_into_domain() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, Vec::<String>::new());
        let s = String::from("moved across the boundary");
        rref.invoke_mut(move |sink| sink.push(s)).unwrap();
        // `s` is gone from this scope (see the compile_fail doctest).
        assert_eq!(rref.invoke(|v| v.len()).unwrap(), 1);
    }

    #[test]
    fn borrowed_arguments_for_call_duration() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, 10u32);
        let local = 32u32;
        // The callee borrows `local` only for the duration of the call.
        let sum = rref.invoke(|v| *v + local).unwrap();
        assert_eq!(sum, 42);
        assert_eq!(local, 32, "caller keeps its borrowed value");
    }

    #[test]
    fn revoke_kills_all_clones() {
        let (_mgr, d) = setup();
        let a = RRef::new(&d, 1u8);
        let b = a.clone();
        assert!(a.is_alive() && b.is_alive());
        assert!(b.revoke());
        assert!(!a.revoke(), "second revoke is a no-op");
        assert_eq!(a.invoke(|v| *v).unwrap_err(), RpcError::Revoked);
        assert_eq!(b.invoke(|v| *v).unwrap_err(), RpcError::Revoked);
        assert_eq!(d.stats().revoked_calls(), 2);
        assert!(!a.is_alive());
    }

    #[test]
    fn revocation_deallocates_object() {
        struct DropFlag(Arc<std::sync::atomic::AtomicBool>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, DropFlag(Arc::clone(&dropped)));
        assert!(!dropped.load(std::sync::atomic::Ordering::SeqCst));
        rref.revoke();
        assert!(
            dropped.load(std::sync::atomic::Ordering::SeqCst),
            "revocation must free the object"
        );
    }

    #[test]
    fn callee_panic_faults_domain_and_revokes_everything() {
        let (_mgr, d) = setup();
        let a = RRef::new(&d, 1u32);
        let b = RRef::new(&d, 2u32);
        let err = a.invoke(|_| -> u32 { panic!("callee bug") }).unwrap_err();
        assert_eq!(err, RpcError::Fault { domain: d.id() });
        assert_eq!(d.state(), DomainState::Failed);
        // The *other* object is torn down too: fault cleanup poisons the
        // whole table, so its weak proxy no longer upgrades — and the
        // error says it died with the fault, not that it was revoked.
        assert_eq!(
            b.invoke(|v| *v).unwrap_err(),
            RpcError::Poisoned { domain: d.id() }
        );
    }

    #[test]
    fn recovery_makes_failure_transparent_via_new_rrefs() {
        let (_mgr, d) = setup();
        d.set_recovery(|_| ());
        let old = RRef::new(&d, 7u32);
        let _ = old.invoke(|_| -> u32 { panic!("bug") });
        assert_eq!(d.state(), DomainState::Active);
        // Old rrefs report the fault that killed them; fresh exports work.
        assert_eq!(
            old.invoke(|v| *v).unwrap_err(),
            RpcError::Poisoned { domain: d.id() }
        );
        let fresh = RRef::new(&d, 8u32);
        assert_eq!(fresh.invoke(|v| *v).unwrap(), 8);
    }

    #[test]
    fn policy_interposes_on_named_methods() {
        let (_mgr, d) = setup();
        d.set_policy(AclPolicy::new().grant(KERNEL_DOMAIN, "read"));
        let rref = RRef::new(&d, 5u32);
        assert_eq!(rref.invoke_named("read", |v| *v).unwrap(), 5);
        let err = rref.invoke_mut_named("write", |v| *v = 6).unwrap_err();
        assert_eq!(
            err,
            RpcError::AccessDenied {
                caller: KERNEL_DOMAIN,
                method: "write"
            }
        );
        assert_eq!(d.stats().denials(), 1);
        // Denied call must not have touched the object.
        assert_eq!(rref.invoke_named("read", |v| *v).unwrap(), 5);
    }

    #[test]
    fn calls_from_inside_domain_bypass_policy() {
        let (_mgr, d) = setup();
        d.set_policy(crate::policy::DenyAll);
        let rref = RRef::new(&d, 1u32);
        // From kernel: denied.
        assert!(matches!(
            rref.invoke(|v| *v),
            Err(RpcError::AccessDenied { .. })
        ));
        // From the domain itself: allowed (intra-domain calls are not
        // remote invocations). Enter via tls directly since execute() is
        // itself interposed.
        let guard = crate::tls::enter_domain(d.id());
        assert_eq!(rref.invoke(|v| *v).unwrap(), 1);
        drop(guard);
    }

    #[test]
    fn cross_domain_call_chains() {
        // Domain A holds a counter; domain B holds an object whose method
        // calls into A — nested remote invocation.
        let mgr = DomainManager::new();
        let a = mgr.create_domain("a").unwrap();
        let b = mgr.create_domain("b").unwrap();
        let counter = RRef::new(&a, 0u64);
        let proxy = RRef::new(&b, counter.clone());
        let v = proxy
            .invoke(|inner| {
                inner.invoke_mut(|c| {
                    *c += 1;
                    *c
                })
            })
            .unwrap()
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(current_domain(), KERNEL_DOMAIN);
    }

    #[test]
    fn concurrent_invocations_serialize() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, 0u64);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = rref.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.invoke_mut(|v| *v += 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rref.invoke(|v| *v).unwrap(), 8000);
    }

    #[test]
    fn pre_fault_rref_is_poisoned_after_fault() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, 1u32);
        let _ = d.execute(|| panic!("bug"));
        assert_eq!(
            rref.invoke(|v| *v).unwrap_err(),
            RpcError::Poisoned { domain: d.id() }
        );
    }

    #[test]
    fn live_rref_in_failed_domain_reports_domain_failed() {
        // Exporting from a failed domain produces a live table entry, so
        // the upgrade succeeds and the state check fires instead.
        let (_mgr, d) = setup();
        let _ = d.execute(|| panic!("bug"));
        assert_eq!(d.state(), DomainState::Failed);
        let rref = RRef::new(&d, 1u32);
        assert_eq!(
            rref.invoke(|v| *v).unwrap_err(),
            RpcError::DomainFailed { domain: d.id() }
        );
    }

    #[test]
    fn debug_formatting() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, 1u32);
        let s = format!("{rref:?}");
        assert!(s.contains("alive: true"), "{s}");
    }

    #[test]
    fn accounting_attributes_cycles_when_enabled() {
        let (_mgr, d) = setup();
        let rref = RRef::new(&d, 0u64);
        // Disabled by default: no cycles attributed.
        rref.invoke_mut(|v| *v += 1).unwrap();
        assert_eq!(d.stats().cycles_in_domain(), 0);

        d.set_accounting(true);
        rref.invoke_mut(|v| {
            for i in 0..50_000u64 {
                *v = v.wrapping_add(std::hint::black_box(i));
            }
        })
        .unwrap();
        let after_work = d.stats().cycles_in_domain();
        assert!(
            after_work > 1_000,
            "50k additions cost real cycles: {after_work}"
        );

        // Turning it back off freezes the counter.
        d.set_accounting(false);
        rref.invoke_mut(|v| *v += 1).unwrap();
        assert_eq!(d.stats().cycles_in_domain(), after_work);
    }

    #[test]
    fn accounting_covers_execute_too() {
        let (_mgr, d) = setup();
        d.set_accounting(true);
        d.execute(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
        })
        .unwrap();
        assert!(d.stats().cycles_in_domain() > 0);
    }
}
