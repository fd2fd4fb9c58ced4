//! [`CkArc`]: the thread-safe alias-aware shared pointer.
//!
//! §5 notes the `Rc` treatment "can be extended similarly" to `Arc`;
//! this is that extension. The epoch mark is an `(epoch, shared_id)`
//! pair behind a tiny mutex (uncontended in the common single-checkpoint
//! case). Runs never trust marks from other epochs, so concurrent
//! checkpoint runs cannot corrupt each other — a cross-run interleaving
//! at worst costs an extra copy (losing one dedup opportunity within one
//! run), never a wrong snapshot. Combined with the impl for
//! [`rbs_core::sync::Mutex`] in [`crate::traits`], this is the paper's
//! "efficient and thread-safe" checkpointing of shared mutable state.

use crate::ctx::{CheckpointCtx, DedupMode, RestoreCtx};
use crate::snapshot::{mismatch, Snapshot, SnapshotError};
use crate::traits::Checkpointable;
use rbs_core::sync::Mutex;
use std::ops::Deref;
use std::sync::Arc;

struct CkArcNode<T> {
    /// `(epoch, shared_id)` of the last run that copied this node,
    /// updated under the (uncontended in the common case) mark lock.
    mark: Mutex<(u64, usize)>,
    value: T,
}

/// A thread-safe shared pointer whose targets checkpoint once per run
/// regardless of alias count.
pub struct CkArc<T> {
    inner: Arc<CkArcNode<T>>,
}

impl<T> CkArc<T> {
    /// Wraps `value` in a new shared allocation.
    pub fn new(value: T) -> Self {
        Self {
            inner: Arc::new(CkArcNode {
                mark: Mutex::new((0, 0)),
                value,
            }),
        }
    }

    /// True when both pointers alias the same allocation.
    pub fn ptr_eq(a: &CkArc<T>, b: &CkArc<T>) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// Number of live aliases.
    pub fn strong_count(this: &CkArc<T>) -> usize {
        Arc::strong_count(&this.inner)
    }

    /// The allocation's address (the [`DedupMode::AddressSet`] key).
    pub fn as_ptr_addr(this: &CkArc<T>) -> usize {
        Arc::as_ptr(&this.inner) as *const () as usize
    }
}

impl<T> Clone for CkArc<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Deref for CkArc<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CkArc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CkArc").field(&self.inner.value).finish()
    }
}

impl<T: PartialEq> PartialEq for CkArc<T> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.value == other.inner.value
    }
}

impl<T: Checkpointable + 'static> Checkpointable for CkArc<T> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        match ctx.mode() {
            DedupMode::EpochFlag => {
                {
                    let mark = self.inner.mark.lock();
                    if mark.0 == ctx.epoch() {
                        ctx.stats.shared_hits += 1;
                        return Snapshot::Shared(mark.1);
                    }
                }
                let id = ctx.alloc_shared();
                *self.inner.mark.lock() = (ctx.epoch(), id);
                ctx.stats.shared_copied += 1;
                let snap = self.inner.value.checkpoint(ctx);
                ctx.fill_shared(id, snap);
                Snapshot::Shared(id)
            }
            DedupMode::AddressSet => {
                let addr = CkArc::as_ptr_addr(self);
                if let Some(id) = ctx.address_lookup(addr) {
                    ctx.stats.shared_hits += 1;
                    return Snapshot::Shared(id);
                }
                let id = ctx.alloc_shared();
                ctx.address_insert(addr, id);
                ctx.stats.shared_copied += 1;
                let snap = self.inner.value.checkpoint(ctx);
                ctx.fill_shared(id, snap);
                Snapshot::Shared(id)
            }
            DedupMode::None => {
                ctx.stats.duplicate_copies += 1;
                self.inner.value.checkpoint(ctx)
            }
        }
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Shared(id) => {
                if let Some(arc) = ctx.rebuilt_handle::<Arc<CkArcNode<T>>>(*id)? {
                    return Ok(CkArc { inner: arc });
                }
                ctx.begin_rebuild(*id)?;
                let inner_snap = ctx.shared_snapshot(*id)?;
                let value = T::restore(inner_snap, ctx)?;
                let arc = Arc::new(CkArcNode {
                    mark: Mutex::new((0, 0)),
                    value,
                });
                ctx.finish_rebuild(*id, Arc::clone(&arc));
                Ok(CkArc { inner: arc })
            }
            other => Ok(CkArc::new(T::restore(other, ctx)?)),
        }
    }
}

impl<T: Checkpointable + 'static> Checkpointable for Vec<CkArc<T>> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(self.iter().map(|e| e.checkpoint(ctx)).collect())
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Seq(items) => items.iter().map(|s| CkArc::restore(s, ctx)).collect(),
            other => Err(mismatch("vec", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{checkpoint, checkpoint_with_mode, restore};

    #[test]
    fn basic_identity() {
        let a = CkArc::new(5u32);
        let b = a.clone();
        assert_eq!(*b, 5);
        assert!(CkArc::ptr_eq(&a, &b));
        assert_eq!(CkArc::strong_count(&a), 2);
        assert_eq!(format!("{a:?}"), "CkArc(5)");
    }

    #[test]
    fn aliases_dedup() {
        let a = CkArc::new(String::from("shared"));
        let v = vec![a.clone(), a.clone(), a];
        let cp = checkpoint(&v);
        assert_eq!(cp.stats.shared_copied, 1);
        assert_eq!(cp.stats.shared_hits, 2);
        let back: Vec<CkArc<String>> = restore(&cp).unwrap();
        assert!(CkArc::ptr_eq(&back[0], &back[2]));
    }

    #[test]
    fn all_three_modes_behave() {
        let a = CkArc::new(9u64);
        let v = vec![a.clone(), a];
        let flag = checkpoint(&v);
        let addr = checkpoint_with_mode(&v, DedupMode::AddressSet);
        let naive = checkpoint_with_mode(&v, DedupMode::None);
        assert_eq!(flag.shared, addr.shared);
        assert_eq!(naive.stats.duplicate_copies, 2);
    }

    #[test]
    fn shared_mutable_state_via_mutex() {
        // The paper's "thread-safe" claim: Arc<Mutex<T>>-style shared
        // mutable state, checkpointed consistently.
        let counter = CkArc::new(Mutex::new(0u64));
        let v = vec![counter.clone(), counter.clone()];
        *v[0].lock() = 42;
        let cp = checkpoint(&v);
        assert_eq!(cp.stats.shared_copied, 1);
        let back: Vec<CkArc<Mutex<u64>>> = restore(&cp).unwrap();
        assert_eq!(*back[1].lock(), 42);
        assert!(CkArc::ptr_eq(&back[0], &back[1]));
    }

    #[test]
    fn checkpoint_while_other_threads_mutate() {
        // Writers mutate shared cells while a checkpoint runs; the run
        // must complete and contain internally-consistent per-cell
        // values (each cell's lock is held during its copy).
        let cells: Vec<CkArc<Mutex<u64>>> = (0..16).map(|_| CkArc::new(Mutex::new(0))).collect();
        let shared = cells.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer_stop = std::sync::Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut i = 0u64;
            while !writer_stop.load(std::sync::atomic::Ordering::Relaxed) {
                *shared[(i % 16) as usize].lock() = i;
                i += 1;
            }
        });
        for _ in 0..50 {
            let cp = checkpoint(&cells);
            assert_eq!(cp.stats.shared_copied, 16);
            let back: Vec<CkArc<Mutex<u64>>> = restore(&cp).unwrap();
            assert_eq!(back.len(), 16);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_checkpoints_of_shared_structure() {
        // Two threads checkpoint the same structure simultaneously; each
        // run has its own epoch, so both must dedup correctly.
        let node = CkArc::new(vec![1u64, 2, 3]);
        let v = std::sync::Arc::new(vec![node.clone(), node]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = std::sync::Arc::clone(&v);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let cp = checkpoint(&*v);
                        // Either the run saw its own mark (1 copy + 1 hit)
                        // or a concurrent run overwrote the mark mid-way
                        // (2 copies, still a *correct* snapshot).
                        let total = cp.stats.shared_copied + cp.stats.shared_hits;
                        assert_eq!(total, 2);
                        assert!(cp.stats.shared_copied >= 1);
                        let back: Vec<CkArc<Vec<u64>>> = restore(&cp).unwrap();
                        assert_eq!(*back[0], vec![1, 2, 3]);
                        assert_eq!(*back[1], vec![1, 2, 3]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CkArc<u64>>();
        assert_send_sync::<CkArc<Mutex<Vec<u8>>>>();
    }
}
