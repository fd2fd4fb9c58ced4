//! The [`Exchangeable`] marker for values that may cross protection-domain
//! boundaries.
//!
//! Singularity's Sing# confined zero-copy communication to a special
//! *exchange heap* of linearly-typed values. In Rust the analogous
//! constraint falls out of the ordinary trait system: a value may move
//! between protection domains iff it owns all of its reachable state
//! (`'static` — no borrows back into the sender's stack) and is safe to
//! hand to another thread (`Send`, since domains may run on distinct
//! threads).
//!
//! The SFI layer bounds every cross-domain argument and return type by
//! [`Exchangeable`]. The blanket impl makes the bound zero-effort for user
//! types, while the trait name keeps the *intent* (this value is about to
//! change protection domains) explicit in signatures — mirroring how the
//! paper leans on ownership transfer as the isolation mechanism itself.

/// Marker for types whose values may be moved across a protection-domain
/// boundary.
///
/// Blanket-implemented for every `Send + 'static` type. Notably this
/// excludes:
///
/// - `&T` / `&mut T` with non-static lifetimes: a borrow crossing domains
///   would let the *sender* retain access while the receiver runs, exactly
///   the aliasing SFI must rule out. (Static borrows of immutable data are
///   fine — both sides may read `&'static str` forever.)
/// - `Rc<T>`: not `Send`; reference counts would be racy and the cycle of
///   shared ownership would straddle the boundary.
///
/// `Arc<T>` *is* exchangeable when `T: Send + Sync`; this is Rust's "safe
/// read-only sharing" which the paper explicitly permits across domains.
pub trait Exchangeable: Send + 'static {}

impl<T: Send + 'static> Exchangeable for T {}

/// Asserts at compile time that `T` is [`Exchangeable`].
///
/// Useful in tests and examples to document why a type may or may not
/// cross domains:
///
/// ```
/// rbs_core::exchange::assert_exchangeable::<Vec<u8>>();
/// rbs_core::exchange::assert_exchangeable::<std::sync::Arc<String>>();
/// ```
///
/// Non-exchangeable types are rejected by the compiler:
///
/// ```compile_fail
/// // `Rc` is not `Send`, so it cannot cross a domain boundary.
/// rbs_core::exchange::assert_exchangeable::<std::rc::Rc<u8>>();
/// ```
///
/// ```compile_fail
/// // A borrowed slice is not `'static`: the sender would keep access.
/// fn f(slice: &[u8]) {
///     fn check<T: rbs_core::Exchangeable>(_t: &T) {}
///     check(&slice);
/// }
/// ```
pub fn assert_exchangeable<T: Exchangeable>() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::sync::Arc;

    #[test]
    fn owned_types_are_exchangeable() {
        assert_exchangeable::<u64>();
        assert_exchangeable::<String>();
        assert_exchangeable::<Vec<Vec<u8>>>();
        assert_exchangeable::<Option<Box<[u8]>>>();
    }

    #[test]
    fn shared_sync_types_are_exchangeable() {
        assert_exchangeable::<Arc<String>>();
        assert_exchangeable::<Arc<Mutex<Vec<u8>>>>();
    }

    #[test]
    fn static_borrows_are_exchangeable() {
        assert_exchangeable::<&'static str>();
    }
}
