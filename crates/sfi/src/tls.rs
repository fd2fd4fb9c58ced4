//! Thread-local tracking of the current protection domain.
//!
//! The paper: "we use thread-local store \[7\] to store ID of the current
//! protection domain." Every cross-domain invocation swaps the marker for
//! the duration of the call (scoped-tls style: set, run, restore), so
//! code can always ask "which domain am I executing in?" — the policy
//! layer uses this to identify the *caller* of a remote invocation.

use std::cell::Cell;
use std::fmt;

/// An opaque protection-domain identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u64);

impl DomainId {
    /// Constructs an id from its raw value (the manager allocates these).
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw value.
    pub const fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == KERNEL_DOMAIN {
            write!(f, "DomainId(kernel)")
        } else {
            write!(f, "DomainId({})", self.0)
        }
    }
}

/// The distinguished domain of code that runs outside any created domain
/// (the "domain manager" context in the paper's listing).
pub const KERNEL_DOMAIN: DomainId = DomainId::new(0);

thread_local! {
    static CURRENT_DOMAIN: Cell<DomainId> = const { Cell::new(KERNEL_DOMAIN) };
}

/// The domain the current thread is executing in.
pub fn current_domain() -> DomainId {
    CURRENT_DOMAIN.with(Cell::get)
}

/// Sets the current domain for the lifetime of the returned guard;
/// restores the previous value on drop (including drop during unwind,
/// which is what lets a domain fault leave the marker consistent).
pub fn enter_domain(id: DomainId) -> DomainGuard {
    let previous = CURRENT_DOMAIN.with(|c| c.replace(id));
    DomainGuard { previous }
}

/// Restores the previous current-domain marker on drop.
#[must_use = "dropping the guard immediately exits the domain"]
pub struct DomainGuard {
    previous: DomainId,
}

impl Drop for DomainGuard {
    fn drop(&mut self) {
        CURRENT_DOMAIN.with(|c| c.set(self.previous));
    }
}

/// Dedicates the *whole current thread* to `id` until the returned guard
/// drops.
///
/// [`enter_domain`] scopes one cross-domain call; this scopes a thread's
/// lifetime. A worker thread owned by a domain attaches once at startup,
/// and from then on every `Domain::execute` on its own domain sees
/// `caller == self` — the policy interposition on the invocation fast
/// path is skipped, which is what makes a per-worker domain affordable on
/// the per-batch path.
///
/// # Panics
///
/// Panics when the thread is already inside a domain (attached or mid
/// cross-domain call): a dedicated thread must start from kernel context,
/// otherwise the marker discipline of nested [`DomainGuard`]s would be
/// silently broken.
pub fn attach_thread(id: DomainId) -> ThreadAttachment {
    let current = current_domain();
    assert_eq!(
        current, KERNEL_DOMAIN,
        "cannot attach a thread already executing in {current:?}"
    );
    CURRENT_DOMAIN.with(|c| c.set(id));
    ThreadAttachment { id }
}

/// Marks the thread as dedicated to one domain; detaches (restoring
/// kernel context) on drop — including drop during unwind, so a worker
/// panic leaves the thread reusable.
#[must_use = "dropping the attachment immediately detaches the thread"]
pub struct ThreadAttachment {
    id: DomainId,
}

impl ThreadAttachment {
    /// The domain this thread is dedicated to.
    pub fn domain(&self) -> DomainId {
        self.id
    }
}

impl Drop for ThreadAttachment {
    fn drop(&mut self) {
        CURRENT_DOMAIN.with(|c| c.set(KERNEL_DOMAIN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_kernel() {
        assert_eq!(current_domain(), KERNEL_DOMAIN);
    }

    #[test]
    fn guard_sets_and_restores() {
        let d = DomainId::new(7);
        {
            let _g = enter_domain(d);
            assert_eq!(current_domain(), d);
        }
        assert_eq!(current_domain(), KERNEL_DOMAIN);
    }

    #[test]
    fn guards_nest() {
        let a = DomainId::new(1);
        let b = DomainId::new(2);
        let _ga = enter_domain(a);
        {
            let _gb = enter_domain(b);
            assert_eq!(current_domain(), b);
        }
        assert_eq!(current_domain(), a);
    }

    #[test]
    fn guard_restores_during_unwind() {
        let d = DomainId::new(9);
        let r = std::panic::catch_unwind(|| {
            let _g = enter_domain(d);
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(current_domain(), KERNEL_DOMAIN);
    }

    #[test]
    fn ids_are_per_thread() {
        let d = DomainId::new(4);
        let _g = enter_domain(d);
        std::thread::spawn(|| {
            assert_eq!(current_domain(), KERNEL_DOMAIN);
        })
        .join()
        .unwrap();
        assert_eq!(current_domain(), d);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{KERNEL_DOMAIN:?}"), "DomainId(kernel)");
        assert_eq!(format!("{:?}", DomainId::new(3)), "DomainId(3)");
    }

    #[test]
    fn attach_dedicates_thread_until_drop() {
        std::thread::spawn(|| {
            let d = DomainId::new(11);
            {
                let att = attach_thread(d);
                assert_eq!(att.domain(), d);
                assert_eq!(current_domain(), d);
                // Scoped calls still nest on top of the attachment.
                {
                    let _g = enter_domain(DomainId::new(12));
                    assert_eq!(current_domain(), DomainId::new(12));
                }
                assert_eq!(current_domain(), d);
            }
            assert_eq!(current_domain(), KERNEL_DOMAIN);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn attach_detaches_during_unwind() {
        std::thread::spawn(|| {
            let r = std::panic::catch_unwind(|| {
                let _att = attach_thread(DomainId::new(21));
                panic!("worker died");
            });
            assert!(r.is_err());
            assert_eq!(current_domain(), KERNEL_DOMAIN);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn double_attach_panics() {
        std::thread::spawn(|| {
            let _att = attach_thread(DomainId::new(31));
            let r = std::panic::catch_unwind(|| attach_thread(DomainId::new(32)));
            assert!(r.is_err());
        })
        .join()
        .unwrap();
    }
}
