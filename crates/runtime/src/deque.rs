//! The lanes' work-stealing deque: one lock around a `VecDeque`.
//!
//! Work is pushed and popped at the *back*; any number of thieves steal
//! from the *front*. The lane engine's owner pushes its own work, while
//! the tenant engine's caller pushes each tick's claims between ticks,
//! with every lane parked: a claim is a whole tenant, moved, and the
//! lane that pops or steals it owns that tenant for the tick. Every
//! operation takes the same [`rbs_core::sync::Mutex`], so each item is
//! claimed exactly once by construction: no `unsafe`, no memory-ordering
//! argument, and a thief never loses a race it has to retry. The items
//! are coarse — a lane trades 256-packet batches, a tenant lane one
//! tenant-tick — so one uncontended lock per operation is small beside
//! the work an item carries.
//!
//! The owner handle is not `Clone` (single owner, like the pool);
//! [`Stealer`] handles are cheap clones shared with every other lane.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rbs_core::sync::Mutex;

/// Result of a [`Stealer::steal`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// Claimed the front item.
    Taken(T),
    /// The deque was empty.
    Empty,
}

/// The owner-side handle: push/pop at the back.
pub struct LaneDeque<T> {
    state: Arc<Mutex<VecDeque<T>>>,
}

/// A thief-side handle; clone one per stealing lane.
pub struct Stealer<T> {
    state: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            state: Arc::clone(&self.state),
        }
    }
}

impl<T> fmt::Debug for LaneDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneDeque")
            .field("len", &self.len())
            .finish()
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stealer").finish()
    }
}

impl<T> LaneDeque<T> {
    /// Creates a deque that holds at least `capacity` items before its
    /// first reallocation.
    pub fn with_capacity(capacity: usize) -> (LaneDeque<T>, Stealer<T>) {
        let state = Arc::new(Mutex::new(VecDeque::with_capacity(capacity)));
        (
            LaneDeque {
                state: Arc::clone(&state),
            },
            Stealer { state },
        )
    }

    /// Pushes `value` at the back.
    pub fn push(&self, value: T) {
        self.state.lock().push_back(value);
    }

    /// Pops from the back (LIFO relative to the owner's pushes).
    pub fn pop(&self) -> Option<T> {
        self.state.lock().pop_back()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Stealer<T> {
    /// Claims the front item, unless the deque is empty.
    pub fn steal(&self) -> Steal<T> {
        match self.state.lock().pop_front() {
            Some(value) => Steal::Taken(value),
            None => Steal::Empty,
        }
    }

    /// True when the deque is empty right now. Items may appear or
    /// vanish immediately after; termination protocols must pair this
    /// with their own quiescence condition.
    pub fn is_empty(&self) -> bool {
        self.state.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn owner_lifo_fifo_shape() {
        let (d, s) = LaneDeque::with_capacity(4);
        for i in 0..4 {
            d.push(i);
        }
        // Owner pops newest first…
        assert_eq!(d.pop(), Some(3));
        // …thieves take oldest first.
        assert_eq!(s.steal(), Steal::Taken(0));
        assert_eq!(s.steal(), Steal::Taken(1));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (d, _s) = LaneDeque::with_capacity(8);
        for i in 0..1000 {
            d.push(i);
        }
        assert_eq!(d.len(), 1000);
        for i in (0..1000).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert!(d.is_empty());
    }

    #[test]
    fn drop_releases_queued_items() {
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicUsize::new(0);
        {
            let (d, _s) = LaneDeque::with_capacity(4);
            for _ in 0..10 {
                d.push(Counted(&drops));
            }
            drop(d.pop()); // 1 explicit
        }
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }

    /// Every pushed item is claimed exactly once across a racing owner
    /// and multiple thieves — the property the lane engine's packet
    /// conservation rests on.
    #[test]
    fn concurrent_claims_are_exactly_once() {
        const ITEMS: usize = 20_000;
        const THIEVES: usize = 3;
        let (d, s) = LaneDeque::with_capacity(16);
        let stealers: Vec<_> = (0..THIEVES).map(|_| s.clone()).collect();
        let done = Arc::new(AtomicBool::new(false));

        let handles: Vec<_> = stealers
            .into_iter()
            .map(|st| {
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match st.steal() {
                            Steal::Taken(v) => got.push(v),
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) && st.is_empty() {
                                    break;
                                }
                                thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let mut owner_got = Vec::new();
        for i in 0..ITEMS {
            d.push(i);
            if i % 3 == 0 {
                if let Some(v) = d.pop() {
                    owner_got.push(v);
                }
            }
        }
        while let Some(v) = d.pop() {
            owner_got.push(v);
        }
        done.store(true, Ordering::Release);

        let mut all: Vec<usize> = owner_got;
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), ITEMS, "lost or duplicated items");
        let distinct: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(distinct.len(), ITEMS, "duplicated items");
    }
}
