//! Chase–Lev work-stealing deque.
//!
//! One owner thread pushes and pops work at the *bottom*; any number of
//! thief threads steal from the *top*. The implementation follows the
//! C11 formulation of Lê, Pop, Cohen & Zappa Nardelli, "Correct and
//! Efficient Work-Stealing for Weak Memory Models" (PPoPP 2013): the
//! owner's `pop` publishes its claim on the bottom slot with a seq-cst
//! fence before reading `top`, and thieves claim the top slot with a
//! seq-cst compare-exchange, so for each index exactly one side wins.
//!
//! Two deliberate simplifications versus a general-purpose deque:
//!
//! - **Retired buffers are kept until the deque drops.** When the owner
//!   grows the ring it swaps in a doubled buffer and parks the old one
//!   instead of freeing it, so a thief that loaded the stale buffer
//!   pointer still reads valid memory; its subsequent claim on `top`
//!   fails (the owner's copy already advanced past it) and the stale
//!   read is discarded. Lanes size the ring to their burst up front, so
//!   in steady state nothing grows and nothing is parked.
//! - **A `closed` latch for live upgrades.** A lane entering `Upgrading`
//!   stops advertising its deque: thieves see [`Steal::Closed`] and move
//!   on, while the owner keeps full access. Closing is advisory — it
//!   never races with item ownership, which only the `top`/`bottom`
//!   protocol decides.
//!
//! The owner handle is `Send` but not `Sync`/`Clone` (single owner, like
//! the pool); [`Stealer`] handles are cheap clones shared with every
//! other lane.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Arc;

use rbs_core::sync::Mutex;

/// Smallest ring the deque will allocate.
const MIN_CAPACITY: usize = 8;

/// A fixed-capacity power-of-two ring of `MaybeUninit` slots.
///
/// Slots are bitwise copies managed entirely by the `top`/`bottom`
/// protocol; the buffer itself never drops items (the deque does, once,
/// at drop time, for the live range of the *current* buffer only).
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
}

impl<T> Buffer<T> {
    fn alloc(capacity: usize) -> *mut Buffer<T> {
        debug_assert!(capacity.is_power_of_two());
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Buffer {
            slots,
            mask: capacity - 1,
        }))
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Bitwise-writes `value` into the slot for logical index `i`.
    ///
    /// # Safety
    ///
    /// Caller must hold the owner role and `i` must be outside the live
    /// `top..bottom` range (it becomes live only when `bottom` is
    /// published afterwards).
    unsafe fn write(&self, i: isize, value: T) {
        let slot = self.slots[(i as usize) & self.mask].get();
        slot.write(MaybeUninit::new(value));
    }

    /// Bitwise-reads the slot for logical index `i`.
    ///
    /// # Safety
    ///
    /// The copy duplicates ownership: the caller must either win the
    /// `top`/`bottom` claim for `i` or `mem::forget` the result.
    unsafe fn read(&self, i: isize) -> T {
        let slot = self.slots[(i as usize) & self.mask].get();
        slot.read().assume_init()
    }
}

struct Inner<T> {
    /// Next index thieves claim. Only ever increments.
    top: AtomicIsize,
    /// One past the owner's last pushed index.
    bottom: AtomicIsize,
    /// Current ring; swapped (never mutated in place) on grow.
    buffer: AtomicPtr<Buffer<T>>,
    /// Rings replaced by grow, parked until drop so stale thief loads
    /// stay backed by live memory.
    retired: Mutex<Vec<*mut Buffer<T>>>,
    /// Steal-advertising latch (see module docs).
    closed: AtomicBool,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole reference left: plain loads are fine.
        let top = self.top.load(Ordering::Relaxed);
        let bottom = self.bottom.load(Ordering::Relaxed);
        let buf = self.buffer.load(Ordering::Relaxed);
        unsafe {
            for i in top..bottom {
                drop((*buf).read(i));
            }
            drop(Box::from_raw(buf));
            for &old in self.retired.lock().iter() {
                // Retired rings hold only stale bitwise copies; their
                // live items were re-homed by grow. Free the memory
                // without dropping any slot.
                drop(Box::from_raw(old));
            }
        }
    }
}

/// Result of a [`Stealer::steal`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// Claimed the top item.
    Taken(T),
    /// The deque was observably empty.
    Empty,
    /// Lost a race (another thief or the owner claimed the item);
    /// retrying immediately may succeed.
    Retry,
    /// The owner has closed the deque to thieves (e.g. mid-upgrade).
    Closed,
}

/// The owner-side handle: push/pop at the bottom, plus the
/// steal-advertising latch. Single-owner by construction.
pub struct LaneDeque<T> {
    inner: Arc<Inner<T>>,
    /// !Sync: the owner role is a single-thread contract.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

unsafe impl<T: Send> Send for LaneDeque<T> {}

/// A thief-side handle; clone one per stealing lane.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
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
    /// Creates a deque whose initial ring holds at least `capacity`
    /// items without growing (rounded up to a power of two).
    pub fn with_capacity(capacity: usize) -> (LaneDeque<T>, Stealer<T>) {
        let cap = capacity.max(MIN_CAPACITY).next_power_of_two();
        let inner = Arc::new(Inner {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Buffer::alloc(cap)),
            retired: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        });
        (
            LaneDeque {
                inner: Arc::clone(&inner),
                _not_sync: PhantomData,
            },
            Stealer { inner },
        )
    }

    /// Pushes `value` at the bottom. Grows (doubling) when full.
    pub fn push(&self, value: T) {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Acquire);
        let mut buf = self.inner.buffer.load(Ordering::Relaxed);
        unsafe {
            if b - t >= (*buf).capacity() as isize {
                buf = self.grow(buf, t, b);
            }
            (*buf).write(b, value);
        }
        self.inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pops from the bottom (LIFO relative to the owner's pushes).
    pub fn pop(&self) -> Option<T> {
        let b = self.inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.inner.buffer.load(Ordering::Relaxed);
        self.inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.inner.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty; restore bottom.
            self.inner.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        if t < b {
            // More than one item: the bottom slot is uncontended.
            return Some(unsafe { (*buf).read(b) });
        }
        // Exactly one item: race thieves for it via `top`.
        let won = self
            .inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        self.inner.bottom.store(b + 1, Ordering::Relaxed);
        if won {
            // Thieves can no longer touch index t: safe to read after
            // the claim.
            Some(unsafe { (*buf).read(b) })
        } else {
            None
        }
    }

    /// Number of queued items as the owner sees it.
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// True when the owner sees no queued items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops advertising the deque to thieves: steals return
    /// [`Steal::Closed`] until [`open_steals`](Self::open_steals).
    pub fn close_steals(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }

    /// Re-advertises the deque to thieves.
    pub fn open_steals(&self) {
        self.inner.closed.store(false, Ordering::Release);
    }

    /// Doubles the ring, copying the live `t..b` range across, and
    /// parks the old ring. Owner-only.
    unsafe fn grow(&self, old: *mut Buffer<T>, t: isize, b: isize) -> *mut Buffer<T> {
        let new = Buffer::alloc((*old).capacity() * 2);
        for i in t..b {
            let slot = (*old).slots[(i as usize) & (*old).mask].get();
            (*new).write(i, slot.read().assume_init());
        }
        self.inner.buffer.store(new, Ordering::Release);
        self.inner.retired.lock().push(old);
        new
    }
}

impl<T> Stealer<T> {
    /// Attempts to claim the top item.
    pub fn steal(&self) -> Steal<T> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Steal::Closed;
        }
        let t = self.inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = self.inner.buffer.load(Ordering::Acquire);
        // Speculative copy: only the winner of the `top` claim keeps it.
        let value = unsafe { (*buf).read(t) };
        if self
            .inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Taken(value)
        } else {
            std::mem::forget(value);
            Steal::Retry
        }
    }

    /// Snapshot of the queued-item count (may be stale immediately).
    pub fn len(&self) -> usize {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }

    /// True when the deque looks empty right now. Items may appear or
    /// vanish immediately after; termination protocols must pair this
    /// with their own quiescence condition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True while the owner has the deque closed to thieves.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
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
        let (d, _s) = LaneDeque::with_capacity(MIN_CAPACITY);
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
    fn closed_latch_gates_thieves_not_owner() {
        let (d, s) = LaneDeque::with_capacity(8);
        d.push(1);
        d.close_steals();
        assert_eq!(s.steal(), Steal::Closed);
        assert!(s.is_closed());
        assert_eq!(d.pop(), Some(1));
        d.push(2);
        d.open_steals();
        assert_eq!(s.steal(), Steal::Taken(2));
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
                d.push(Counted(&drops)); // forces a grow, exercising retired rings
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
                            Steal::Retry => {}
                            Steal::Empty | Steal::Closed => {
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
