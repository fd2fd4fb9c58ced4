//! Typed remote interfaces over [`RRef`](crate::RRef).
//!
//! The paper's listing invokes *named methods* on rrefs:
//!
//! ```text
//! match rref.method1() {
//!     Ok(ret) => println!("Result: {}", ret),
//!     Err(_)  => println!("method1() failed")
//! }
//! ```
//!
//! [`remote_interface!`](crate::remote_interface) generates exactly that
//! surface: given a trait-like description, it emits a typed proxy whose
//! every method performs a remote invocation under its own method name —
//! so interposition policies can allow/deny individual methods — and
//! returns `Result<_, RpcError>`.
//!
//! ```
//! use rbs_sfi::{remote_interface, AclPolicy, DomainManager, RpcError, KERNEL_DOMAIN};
//!
//! struct KvStore {
//!     entries: Vec<(String, u64)>,
//! }
//!
//! impl KvStore {
//!     fn get(&self, key: String) -> Option<u64> {
//!         self.entries.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
//!     }
//!     fn put(&mut self, key: String, value: u64) {
//!         self.entries.push((key, value));
//!     }
//!     fn len(&self) -> usize {
//!         self.entries.len()
//!     }
//! }
//!
//! remote_interface! {
//!     /// A typed remote key-value store.
//!     proxy KvStoreRef for KvStore {
//!         fn get(&self, key: String) -> Option<u64>;
//!         fn put(&mut self, key: String, value: u64) -> ();
//!         fn len(&self) -> usize;
//!     }
//! }
//!
//! let mgr = DomainManager::new();
//! let d = mgr.create_domain("kv").unwrap();
//! let kv = KvStoreRef::export(&d, KvStore { entries: Vec::new() });
//!
//! kv.put("requests".into(), 7).unwrap();
//! assert_eq!(kv.get("requests".into()).unwrap(), Some(7));
//! assert_eq!(kv.len().unwrap(), 1);
//!
//! // Methods are individually interposable: allow reads, deny writes.
//! d.set_policy(
//!     AclPolicy::new()
//!         .grant(KERNEL_DOMAIN, "get")
//!         .grant(KERNEL_DOMAIN, "len"),
//! );
//! assert_eq!(kv.len().unwrap(), 1);
//! assert!(matches!(
//!     kv.put("blocked".into(), 1),
//!     Err(RpcError::AccessDenied { method: "put", .. })
//! ));
//! ```

/// Generates a typed remote proxy for methods of a service struct.
///
/// Grammar (per method): `fn name(&self, arg: Ty, ...) -> Ret;` or
/// `fn name(&mut self, ...) -> Ret;`. Arguments are taken by value and
/// *move* across the domain boundary; the return value moves back. Every
/// generated method returns `Result<Ret, RpcError>` and presents its own
/// name to the domain's interposition policy.
///
/// The proxy also exposes:
///
/// - `export(&Domain, service) -> Self` — place the service in the
///   domain and mint the proxy;
/// - `from_rref(RRef<S>) -> Self` / `rref(&self) -> &RRef<S>` — interop
///   with raw remote references;
/// - `revoke(&self) -> bool` — capability revocation, as on [`RRef`].
///
/// [`RRef`]: crate::RRef
#[macro_export]
macro_rules! remote_interface {
    (
        $(#[$meta:meta])*
        proxy $proxy:ident for $service:ty {
            $($methods:tt)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone)]
        pub struct $proxy {
            rref: $crate::RRef<$service>,
        }

        // The proxy inherits the *effective* visibility of the service
        // type it wraps; suppress the lint for private-service users
        // (e.g. test modules).
        #[allow(private_interfaces)]
        impl $proxy {
            /// Exports `service` from `domain` and returns the proxy.
            pub fn export(domain: &$crate::Domain, service: $service) -> Self {
                Self {
                    rref: $crate::RRef::new(domain, service),
                }
            }

            /// Wraps an existing remote reference.
            pub fn from_rref(rref: $crate::RRef<$service>) -> Self {
                Self { rref }
            }

            /// The underlying remote reference.
            pub fn rref(&self) -> &$crate::RRef<$service> {
                &self.rref
            }

            /// Revokes the capability (all clones die together).
            pub fn revoke(&self) -> bool {
                self.rref.revoke()
            }

            remote_interface!(@methods $service, { $($methods)* });
        }
    };

    // Muncher: exclusive-access method.
    (@methods $service:ty, {
        fn $method:ident ( &mut self $(, $arg:ident : $argty:ty)* $(,)? ) -> $ret:ty;
        $($rest:tt)*
    }) => {
        /// Remote invocation of the service method of the same name
        /// (exclusive access; arguments move across the boundary).
        pub fn $method(&self, $($arg : $argty),*) -> Result<$ret, $crate::RpcError> {
            self.rref
                .invoke_mut_named(stringify!($method), move |svc: &mut $service| {
                    svc.$method($($arg),*)
                })
        }

        remote_interface!(@methods $service, { $($rest)* });
    };

    // Muncher: shared-access method.
    (@methods $service:ty, {
        fn $method:ident ( &self $(, $arg:ident : $argty:ty)* $(,)? ) -> $ret:ty;
        $($rest:tt)*
    }) => {
        /// Remote invocation of the service method of the same name
        /// (shared access; arguments move across the boundary).
        pub fn $method(&self, $($arg : $argty),*) -> Result<$ret, $crate::RpcError> {
            self.rref
                .invoke_named(stringify!($method), move |svc: &$service| {
                    svc.$method($($arg),*)
                })
        }

        remote_interface!(@methods $service, { $($rest)* });
    };

    (@methods $service:ty, {}) => {};
}

#[cfg(test)]
mod tests {
    use crate::domain::{DomainManager, DomainState};
    use crate::error::RpcError;
    use crate::policy::AclPolicy;
    use crate::tls::KERNEL_DOMAIN;

    /// A small stats service used across the tests.
    struct StatsService {
        values: Vec<i64>,
    }

    impl StatsService {
        fn record(&mut self, v: i64) -> usize {
            self.values.push(v);
            self.values.len()
        }

        fn sum(&self) -> i64 {
            self.values.iter().sum()
        }

        fn reset(&mut self) -> Vec<i64> {
            std::mem::take(&mut self.values)
        }

        fn crash(&self) -> i64 {
            panic!("injected service bug");
        }
    }

    remote_interface! {
        /// Typed access to [`StatsService`] in another domain.
        proxy StatsRef for StatsService {
            fn record(&mut self, v: i64) -> usize;
            fn sum(&self) -> i64;
            fn reset(&mut self) -> Vec<i64>;
            fn crash(&self) -> i64;
        }
    }

    fn setup() -> (DomainManager, crate::Domain, StatsRef) {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("stats").unwrap();
        let proxy = StatsRef::export(&d, StatsService { values: vec![] });
        (mgr, d, proxy)
    }

    #[test]
    fn typed_calls_roundtrip() {
        let (_mgr, _d, stats) = setup();
        assert_eq!(stats.record(10).unwrap(), 1);
        assert_eq!(stats.record(32).unwrap(), 2);
        assert_eq!(stats.sum().unwrap(), 42);
        assert_eq!(stats.reset().unwrap(), vec![10, 32]);
        assert_eq!(stats.sum().unwrap(), 0);
    }

    #[test]
    fn per_method_policy() {
        let (_mgr, d, stats) = setup();
        stats.record(1).unwrap();
        d.set_policy(AclPolicy::new().grant(KERNEL_DOMAIN, "sum"));
        assert_eq!(stats.sum().unwrap(), 1);
        assert!(matches!(
            stats.record(2),
            Err(RpcError::AccessDenied {
                method: "record",
                ..
            })
        ));
        assert!(matches!(
            stats.reset(),
            Err(RpcError::AccessDenied {
                method: "reset",
                ..
            })
        ));
    }

    #[test]
    fn paper_listing_shape_with_named_method() {
        let (_mgr, _d, stats) = setup();
        // The §3 listing, verbatim shape.
        match stats.sum() {
            Ok(ret) => assert_eq!(ret, 0),
            Err(_) => panic!("method1() failed"),
        }
    }

    #[test]
    fn service_fault_flows_through_proxy() {
        let (_mgr, d, stats) = setup();
        let err = stats.crash().unwrap_err();
        assert!(matches!(err, RpcError::Fault { .. }));
        assert_eq!(d.state(), DomainState::Failed);
        // The proxy's capability died with the domain's table.
        assert_eq!(
            stats.sum().unwrap_err(),
            RpcError::Poisoned { domain: d.id() }
        );
    }

    #[test]
    fn clones_and_revocation() {
        let (_mgr, _d, stats) = setup();
        let other = stats.clone();
        other.record(5).unwrap();
        assert!(stats.revoke());
        assert_eq!(other.sum().unwrap_err(), RpcError::Revoked);
    }

    #[test]
    fn from_rref_interop() {
        let mgr = DomainManager::new();
        let d = mgr.create_domain("raw").unwrap();
        let raw = crate::RRef::new(&d, StatsService { values: vec![7] });
        let typed = StatsRef::from_rref(raw.clone());
        assert_eq!(typed.sum().unwrap(), 7);
        assert!(typed.rref().is_alive());
        raw.revoke();
        assert!(!typed.rref().is_alive());
    }
}
