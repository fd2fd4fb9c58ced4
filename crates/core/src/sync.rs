//! The workspace's locks: `std::sync`'s, with lock poisoning ignored.
//!
//! SFI recovery unwinds a panicking domain at its boundary (§3), so a
//! holder that panics inside a critical section is routine, not a bug,
//! and must not wedge the lock for every later user. Each type here
//! wraps its `std::sync` counterpart and takes the guard out of a
//! `PoisonError` instead of returning it; otherwise the calls are
//! `std`'s, minus the `Result`. This is the one place that decision is
//! made: no other file in the workspace imports a lock from `std::sync`
//! (`tests/dependency_inventory.rs` holds that).
//!
//! A lock from here is for data that every critical section leaves
//! valid at each step, or that recovery discards along with the domain
//! that panicked.
//!
//! Atomics, `Barrier` and `Arc` carry no such policy and stay plain
//! `std::sync`.
//!
//! Every [`Mutex::lock`] also bumps a per-thread count,
//! [`locks_taken`]: a plain thread-local cell, not an atomic, so
//! counting adds no read-modify-write to the lock it counts. Reading it
//! before and after a call gives the locks that call took on this
//! thread.

use std::cell::Cell;
use std::sync::{self, PoisonError};

pub use std::sync::MutexGuard;

thread_local! {
    static LOCKS_TAKEN: Cell<u64> = const { Cell::new(0) };
}

/// [`Mutex::lock`] calls made on the calling thread so far.
pub fn locks_taken() -> u64 {
    LOCKS_TAKEN.with(Cell::get)
}

/// A mutual-exclusion lock that does not poison on panic.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        LOCKS_TAKEN.with(|n| n.set(n.get() + 1));
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock that does not poison on panic.
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable over a [`Mutex`]'s guard that does not poison.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub const fn new() -> Self {
        Self {
            inner: sync::Condvar::new(),
        }
    }

    /// Releases `guard`, blocks until notified, and re-acquires the lock.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.inner
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// Panics while holding `m`, as a faulting domain does.
    fn panic_holding(m: &Mutex<u32>, write: u32) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let mut g = m.lock();
            *g = write;
            panic!("poison attempt");
        }));
    }

    #[test]
    fn mutex_does_not_poison() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = catch_unwind(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        });
        assert_eq!(*m.lock(), 1, "lock usable after a panic while held");
    }

    #[test]
    fn lock_counts_this_threads_acquisitions_only() {
        let m = Arc::new(Mutex::new(0u32));
        let before = locks_taken();
        *m.lock() += 1;
        *m.lock() += 1;
        let other = Arc::clone(&m);
        std::thread::spawn(move || *other.lock() += 1)
            .join()
            .unwrap();
        assert_eq!(locks_taken() - before, 2);
        assert_eq!(*m.lock(), 3);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn rwlock_survives_a_panicking_writer() {
        let l = RwLock::new(vec![1u32]);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let mut g = l.write();
            g.push(2);
            panic!("poison attempt");
        }));
        assert_eq!(*l.read(), [1, 2], "what the writer wrote stays");
        l.write().push(3);
        assert_eq!(*l.read(), [1, 2, 3]);
    }

    #[test]
    fn condvar_hands_back_a_usable_guard_after_a_panicking_holder() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        panic_holding(&m, 7);
        assert_eq!(*m.lock(), 7, "the lock outlived its holder's panic");

        // The notifier panics holding the lock while the waiter is
        // parked; the waiter's guard comes back usable all the same.
        std::thread::scope(|s| {
            let mut g = m.lock();
            s.spawn(|| {
                panic_holding(&m, 8);
                *m.lock() += 1;
                cv.notify_all();
            });
            while *g != 9 {
                g = cv.wait(g);
            }
            *g += 1;
        });
        assert_eq!(*m.lock(), 10, "wait re-acquired the lock");
    }
}
