//! The per-domain reference table.
//!
//! Every object a domain exports lives behind an entry here: the table
//! holds the *strong* reference (an `Arc` to the object's mutex), and the
//! [`crate::RRef`] handed to other domains holds only a *weak* one. That
//! asymmetry is the whole revocation mechanism: removing the entry drops
//! the strong count to zero, after which every outstanding weak pointer
//! fails to upgrade and the object is deallocated. Clearing the table
//! therefore "automatically deallocate\[s\] all memory and resources owned
//! by the domain" (§3), which is the first step of fault recovery.

use rbs_core::sync::Mutex;
use std::any::Any;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A type-erased strong entry: the `Arc<Mutex<T>>` an `RRef<T>` weakly
/// points at.
type Entry = Arc<dyn Any + Send + Sync>;

/// A slotted table of strong object references.
///
/// Slots are reused via a free list so long-lived domains exporting and
/// revoking many objects do not grow without bound.
#[derive(Default)]
pub struct RefTable {
    inner: Mutex<Slots>,
}

#[derive(Default)]
struct Slots {
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Bumped on every `clear`, so stale slot handles from before a
    /// recovery can be told apart from fresh ones.
    epoch: u64,
    /// Epochs below this were ended by a *fault* ([`RefTable::poison`]),
    /// not a clean revocation; their stale handles report poisoning.
    poison_floor: u64,
    /// Entries that were still referenced by an in-flight invocation
    /// when the table was poisoned: the table's strong reference is
    /// gone, but the object stays alive until the call returns. Tracked
    /// so recovery can wait for the old domain's objects to actually
    /// die before the table is reused.
    inflight: Vec<Weak<dyn Any + Send + Sync>>,
}

/// A handle naming a slot in a specific table epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHandle {
    /// Slot index.
    pub index: usize,
    /// Table epoch the slot was allocated in.
    pub epoch: u64,
}

impl RefTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a strong entry, returning its slot handle.
    pub fn insert(&self, entry: Entry) -> SlotHandle {
        let mut slots = self.inner.lock();
        let epoch = slots.epoch;
        let index = match slots.free.pop() {
            Some(i) => {
                slots.entries[i] = Some(entry);
                i
            }
            None => {
                slots.entries.push(Some(entry));
                slots.entries.len() - 1
            }
        };
        SlotHandle { index, epoch }
    }

    /// Removes one entry (revoking the capability). Returns the strong
    /// reference if the slot was live in the handle's epoch.
    pub fn remove(&self, handle: SlotHandle) -> Option<Entry> {
        let mut slots = self.inner.lock();
        if handle.epoch != slots.epoch || handle.index >= slots.entries.len() {
            return None;
        }
        let taken = slots.entries[handle.index].take();
        if taken.is_some() {
            slots.free.push(handle.index);
        }
        taken
    }

    /// Drops every entry and starts a new epoch. Returns how many live
    /// entries were revoked.
    ///
    /// This is the bulk-deallocation step of domain recovery: objects
    /// whose only strong reference was the table are freed here, and all
    /// outstanding weak references die together.
    pub fn clear(&self) -> usize {
        let mut slots = self.inner.lock();
        let live = slots.entries.iter().filter(|e| e.is_some()).count();
        slots.entries.clear();
        slots.free.clear();
        slots.epoch += 1;
        live
    }

    /// Fault-path variant of [`RefTable::clear`]: drops every entry,
    /// starts a new epoch, marks all prior epochs *poisoned*, and
    /// records which objects were still held by in-flight invocations at
    /// the moment of the fault.
    ///
    /// Poisoned epochs matter for diagnosis: a stale handle from before
    /// a fault reports "died with a fault" instead of a clean
    /// revocation. The in-flight set matters for reuse: a respawned
    /// worker must not assume the dead generation's objects are gone —
    /// [`RefTable::drain_inflight`] waits them out.
    ///
    /// Returns `(revoked_entries, inflight_entries)`.
    pub fn poison(&self) -> (usize, usize) {
        let mut slots = self.inner.lock();
        let live = slots.entries.iter().filter(|e| e.is_some()).count();
        let mut inflight: Vec<Weak<dyn Any + Send + Sync>> =
            slots.entries.iter().flatten().map(Arc::downgrade).collect();
        slots.entries.clear();
        slots.free.clear();
        slots.epoch += 1;
        slots.poison_floor = slots.epoch;
        // Only objects an invocation still holds survive the clear.
        inflight.retain(|w| w.strong_count() > 0);
        let n_inflight = inflight.len();
        slots.inflight.retain(|w| w.strong_count() > 0);
        slots.inflight.append(&mut inflight);
        (live, n_inflight)
    }

    /// True when `handle` belongs to an epoch that was ended by a fault
    /// (so the object it named died with the domain, not by clean
    /// revocation).
    pub fn handle_poisoned(&self, handle: SlotHandle) -> bool {
        let slots = self.inner.lock();
        handle.epoch < slots.poison_floor
    }

    /// Objects of poisoned epochs still kept alive by in-flight
    /// invocations.
    pub fn inflight(&self) -> usize {
        let mut slots = self.inner.lock();
        slots.inflight.retain(|w| w.strong_count() > 0);
        slots.inflight.len()
    }

    /// Waits (bounded) for every object of the poisoned epochs to be
    /// dropped — i.e. for all invocations that were mid-call at fault
    /// time to return. Returns the number of objects still alive at the
    /// deadline (0 = fully drained, table safe to reuse).
    pub fn drain_inflight(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            let still = self.inflight();
            if still == 0 || Instant::now() >= deadline {
                return still;
            }
            std::thread::yield_now();
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .entries
            .iter()
            .filter(|e| e.is_some())
            .count()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch (bumped by [`RefTable::clear`]).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }
}

impl std::fmt::Debug for RefTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.inner.lock();
        f.debug_struct("RefTable")
            .field(
                "live",
                &slots.entries.iter().filter(|e| e.is_some()).count(),
            )
            .field("capacity", &slots.entries.len())
            .field("epoch", &slots.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    fn entry(v: u32) -> (Entry, Weak<Mutex<u32>>) {
        let strong = Arc::new(Mutex::new(v));
        let weak = Arc::downgrade(&strong);
        (strong as Entry, weak)
    }

    #[test]
    fn insert_and_len() {
        let t = RefTable::new();
        assert!(t.is_empty());
        let (e, _) = entry(1);
        t.insert(e);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn remove_revokes_weak() {
        let t = RefTable::new();
        let (e, weak) = entry(1);
        let h = t.insert(e);
        assert!(weak.upgrade().is_some());
        assert!(t.remove(h).is_some());
        assert!(
            weak.upgrade().is_none(),
            "weak must die with the table entry"
        );
        assert!(t.is_empty());
    }

    #[test]
    fn double_remove_is_none() {
        let t = RefTable::new();
        let (e, _) = entry(1);
        let h = t.insert(e);
        assert!(t.remove(h).is_some());
        assert!(t.remove(h).is_none());
    }

    #[test]
    fn slots_are_reused() {
        let t = RefTable::new();
        let (e1, _) = entry(1);
        let h1 = t.insert(e1);
        t.remove(h1);
        let (e2, _) = entry(2);
        let h2 = t.insert(e2);
        assert_eq!(h1.index, h2.index, "freed slot should be reused");
        assert_eq!(h1.epoch, h2.epoch);
    }

    #[test]
    fn clear_kills_everything_and_bumps_epoch() {
        let t = RefTable::new();
        let weaks: Vec<_> = (0..5)
            .map(|i| {
                let (e, w) = entry(i);
                t.insert(e);
                w
            })
            .collect();
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.clear(), 5);
        assert_eq!(t.epoch(), 1);
        assert!(t.is_empty());
        for w in weaks {
            assert!(w.upgrade().is_none());
        }
    }

    #[test]
    fn stale_epoch_handle_cannot_remove() {
        let t = RefTable::new();
        let (e, _) = entry(1);
        let h = t.insert(e);
        t.clear();
        let (e2, w2) = entry(2);
        let h2 = t.insert(e2);
        // Old handle may alias the same index but its epoch is stale.
        assert_eq!(h.index, h2.index);
        assert!(t.remove(h).is_none());
        assert!(
            w2.upgrade().is_some(),
            "stale handle must not revoke a fresh entry"
        );
    }

    #[test]
    fn clear_counts_only_live() {
        let t = RefTable::new();
        let (e1, _) = entry(1);
        let (e2, _) = entry(2);
        let h = t.insert(e1);
        t.insert(e2);
        t.remove(h);
        assert_eq!(t.clear(), 1);
    }

    #[test]
    fn debug_format_mentions_counts() {
        let t = RefTable::new();
        let (e, _) = entry(1);
        t.insert(e);
        let s = format!("{t:?}");
        assert!(s.contains("live: 1"), "{s}");
    }

    #[test]
    fn poison_marks_prior_epochs() {
        let t = RefTable::new();
        let (e, _) = entry(1);
        let h = t.insert(e);
        assert!(!t.handle_poisoned(h));
        let (revoked, inflight) = t.poison();
        assert_eq!((revoked, inflight), (1, 0));
        assert!(t.handle_poisoned(h), "pre-fault handle is poisoned");
        // A post-poison insert gets a clean epoch.
        let (e2, _) = entry(2);
        let h2 = t.insert(e2);
        assert!(!t.handle_poisoned(h2));
        // A clean clear does not poison.
        t.clear();
        assert!(!t.handle_poisoned(h2));
    }

    #[test]
    fn poison_tracks_and_drains_inflight() {
        let t = RefTable::new();
        let strong = Arc::new(Mutex::new(5u32));
        t.insert(Arc::clone(&strong) as Entry);
        // `strong` plays the role of an invocation that upgraded the
        // entry and is still mid-call when the fault hits.
        let (revoked, inflight) = t.poison();
        assert_eq!((revoked, inflight), (1, 1));
        assert_eq!(t.inflight(), 1);
        assert_eq!(
            t.drain_inflight(Duration::from_millis(10)),
            1,
            "cannot drain while the call holds the object"
        );
        drop(strong); // the in-flight call returns
        assert_eq!(t.drain_inflight(Duration::from_secs(1)), 0);
        assert_eq!(t.inflight(), 0);
    }

    #[test]
    fn repeated_poison_accumulates_only_live_inflight() {
        let t = RefTable::new();
        let s1 = Arc::new(Mutex::new(1u32));
        t.insert(Arc::clone(&s1) as Entry);
        t.poison();
        assert_eq!(t.inflight(), 1);
        drop(s1);
        let s2 = Arc::new(Mutex::new(2u32));
        t.insert(Arc::clone(&s2) as Entry);
        t.poison();
        assert_eq!(t.inflight(), 1, "dead weaks from round 1 were pruned");
        drop(s2);
        assert_eq!(t.inflight(), 0);
    }

    #[test]
    fn concurrent_insert_remove() {
        let t = Arc::new(RefTable::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for j in 0..100 {
                    let (e, _) = entry(i * 100 + j);
                    let h = t.insert(e);
                    if j % 2 == 0 {
                        t.remove(h);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8 * 50);
    }
}
