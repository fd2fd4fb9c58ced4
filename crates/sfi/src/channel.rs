//! Ownership-transferring channels between protection domains.
//!
//! The paper's cross-domain semantics cover both call paths: "after
//! passing an object reference to a function **or channel**, the caller
//! loses access to the object" (§3). [`channel`] is the channel half:
//! a typed, bounded queue whose send endpoint lives *outside* the
//! receiving domain and whose every [`DomainSender::send`] moves the
//! value — zero-copy by construction, like Singularity's exchange heap
//! but enforced statically.
//!
//! The receive side is registered in the receiving domain's reference
//! table, so the channel participates in the domain lifecycle exactly
//! like an [`crate::RRef`]: clearing the table (revocation, fault
//! cleanup, destruction) closes the channel, and senders start failing
//! with [`ChannelError::Revoked`] instead of feeding a dead domain.
//!
//! The bounded queue is the channel's own: one mutex guards the queue
//! together with the revocation and receiver-liveness flags, so a
//! sender parked on a full queue is woken by the revocation itself,
//! never by polling.
//!
//! ```compile_fail
//! use rbs_sfi::{channel::channel, DomainManager};
//!
//! let mgr = DomainManager::new();
//! let d = mgr.create_domain("consumer").unwrap();
//! let (tx, _rx) = channel::<Vec<u8>>(&d, 8);
//!
//! let payload = vec![1u8, 2, 3];
//! tx.send(payload).unwrap();
//! // ERROR: `payload` moved into the other domain through the channel.
//! let _ = payload.len();
//! ```

use crate::backend::{Crossing, IsolationBackend};
use crate::domain::Domain;
use crate::reftable::SlotHandle;
use crate::tls::DomainId;
use rbs_core::sync::{Condvar, Mutex, MutexGuard};
use rbs_core::Exchangeable;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Why a channel operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The receive endpoint's table entry is gone: the domain revoked
    /// the channel, faulted, or was destroyed.
    Revoked,
    /// The bounded queue is full (with `try_send`).
    Full,
    /// The receiver endpoint itself was dropped.
    Disconnected,
    /// No message available right now (with `try_recv`).
    Empty,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Revoked => write!(f, "channel revoked by the receiving domain"),
            ChannelError::Full => write!(f, "channel is full"),
            ChannelError::Disconnected => write!(f, "receive endpoint dropped"),
            ChannelError::Empty => write!(f, "no message available"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// What the core's mutex guards.
struct State<T> {
    queue: VecDeque<T>,
    /// Set once the receive side's table entry is dropped.
    revoked: bool,
    /// Cleared when the [`DomainReceiver`] is dropped.
    receiver_alive: bool,
}

/// The shared core, held by every sender, the receiver and the table
/// entry. Every wait re-checks `revoked` and `receiver_alive` under the
/// same lock the queue sits behind, and both flags are set with a
/// `notify_all`, so no waiter can miss either.
struct ChannelCore<T: Exchangeable> {
    /// Every critical section leaves `State` consistent, so a holder's
    /// panic cannot leave it torn; the lock ignores poisoning.
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The receiving domain's isolation backend; sends charge a
    /// [`Crossing::ChannelSend`] against it when `charged` is set.
    backend: Arc<dyn IsolationBackend>,
    /// Cached `!backend.zero_cost()` (see [`crate::backend`]).
    charged: bool,
    /// Reports a value's boundary size in bytes. Defaults to
    /// `size_of::<T>()`; containers should meter their payload (e.g. a
    /// packet batch's total bytes) via [`channel_metered`].
    meter: fn(&T) -> usize,
}

/// The value actually stored in the reference table: dropping it (table
/// clear on fault/destroy, or explicit revocation) closes the channel.
struct TableEntry<T: Exchangeable> {
    core: Arc<ChannelCore<T>>,
}

impl<T: Exchangeable> Drop for TableEntry<T> {
    fn drop(&mut self) {
        self.core.state.lock().revoked = true;
        self.core.not_full.notify_all();
        self.core.not_empty.notify_all();
    }
}

/// The sending endpoint, held outside the receiving domain.
pub struct DomainSender<T: Exchangeable> {
    core: Arc<ChannelCore<T>>,
    target: DomainId,
}

impl<T: Exchangeable> Clone for DomainSender<T> {
    fn clone(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
            target: self.target,
        }
    }
}

impl<T: Exchangeable> DomainSender<T> {
    /// The domain this sender feeds.
    pub fn target_domain(&self) -> DomainId {
        self.target
    }

    /// True while the receiving domain still accepts messages.
    pub fn is_open(&self) -> bool {
        !self.core.state.lock().revoked
    }

    /// Moves `value` into the receiving domain, blocking while the
    /// bounded queue is full.
    ///
    /// A sender parked on a full queue wakes as soon as a slot frees,
    /// the channel is revoked, or the receiver is dropped.
    ///
    /// On failure the value comes back in the error's payload slot —
    /// ownership returns to the caller rather than being silently
    /// dropped.
    pub fn send(&self, value: T) -> Result<(), (ChannelError, T)> {
        self.send_parked(value, true)
    }

    /// Like [`DomainSender::send`] but fails immediately when full.
    pub fn try_send(&self, value: T) -> Result<(), (ChannelError, T)> {
        self.send_parked(value, false)
    }

    /// Fails with `Revoked`, then `Disconnected`, then (unless `park`)
    /// `Full`: the first that holds when the sender looks.
    fn send_parked(&self, value: T, park: bool) -> Result<(), (ChannelError, T)> {
        let core = &*self.core;
        let bytes = if core.charged {
            (core.meter)(&value)
        } else {
            0
        };
        let mut state = core.state.lock();
        loop {
            if state.revoked {
                return Err((ChannelError::Revoked, value));
            }
            if !state.receiver_alive {
                return Err((ChannelError::Disconnected, value));
            }
            if state.queue.len() < core.capacity {
                break;
            }
            if !park {
                return Err((ChannelError::Full, value));
            }
            state = core.not_full.wait(state);
        }
        state.queue.push_back(value);
        drop(state);
        core.not_empty.notify_one();
        if core.charged {
            core.backend
                .crossing(self.target, Crossing::ChannelSend, bytes);
        }
        Ok(())
    }
}

impl<T: Exchangeable> fmt::Debug for DomainSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomainSender")
            .field("target", &self.target)
            .field("open", &self.is_open())
            .finish()
    }
}

/// The receiving endpoint, intended to be used by code running in (or on
/// behalf of) the receiving domain.
pub struct DomainReceiver<T: Exchangeable> {
    core: Arc<ChannelCore<T>>,
    home: Domain,
    slot: SlotHandle,
}

impl<T: Exchangeable> DomainReceiver<T> {
    /// Hands a dequeued value out: frees its slot for a parked sender
    /// and charges the copy-out half of the hand-off, the value leaving
    /// the queue and landing in the receiving domain.
    fn take(&self, state: MutexGuard<'_, State<T>>, value: T) -> T {
        drop(state);
        self.core.not_full.notify_one();
        if self.home.inner.charged {
            self.home
                .inner
                .charge(Crossing::ChannelRecv, (self.core.meter)(&value));
        }
        value
    }

    /// Receives the next message, blocking until one arrives. Once the
    /// channel is revoked, what was queued still drains, then this
    /// fails with [`ChannelError::Disconnected`].
    pub fn recv(&self) -> Result<T, ChannelError> {
        let mut state = self.core.state.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(self.take(state, v));
            }
            if state.revoked {
                return Err(ChannelError::Disconnected);
            }
            state = self.core.not_empty.wait(state);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, ChannelError> {
        let mut state = self.core.state.lock();
        match state.queue.pop_front() {
            Some(v) => Ok(self.take(state, v)),
            None if state.revoked => Err(ChannelError::Disconnected),
            None => Err(ChannelError::Empty),
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.core.state.lock().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the channel from the receiving side by revoking its table
    /// entry; queued messages remain receivable, new sends fail.
    pub fn revoke(&self) -> bool {
        self.home.inner.ref_table.remove(self.slot).is_some()
    }
}

impl<T: Exchangeable> Drop for DomainReceiver<T> {
    /// Senders outlive the receiver, so what is still queued is dropped
    /// here rather than with the last sender, and parked senders fail
    /// with [`ChannelError::Disconnected`].
    fn drop(&mut self) {
        let mut state = self.core.state.lock();
        state.receiver_alive = false;
        let queued = std::mem::take(&mut state.queue);
        drop(state);
        self.core.not_full.notify_all();
        drop(queued);
    }
}

impl<T: Exchangeable> fmt::Debug for DomainReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomainReceiver")
            .field("home", &self.home.id())
            .field("queued", &self.len())
            .finish()
    }
}

/// Creates a bounded ownership-transferring channel into `receiver`'s
/// domain.
///
/// The send half is freely cloneable and shareable across domains and
/// threads; the receive half belongs to the receiving domain. The
/// channel closes when the domain's reference table is cleared (fault,
/// destruction, or explicit [`DomainReceiver::revoke`]).
///
/// # Panics
///
/// Panics on `capacity == 0`.
pub fn channel<T: Exchangeable>(
    receiver: &Domain,
    capacity: usize,
) -> (DomainSender<T>, DomainReceiver<T>) {
    channel_metered(receiver, capacity, |_| std::mem::size_of::<T>())
}

/// Like [`channel`], with an explicit boundary meter: `meter` reports
/// how many payload bytes a value carries across the domain boundary,
/// which is what a charging isolation backend (copy boundary, MPK
/// simulation — see [`crate::backend`]) bills per hand-off.
///
/// The plain [`channel`] constructor meters `size_of::<T>()`, which is
/// right for inline values but undercounts containers; pass the real
/// payload size here (e.g. a packet batch's total bytes). Under the
/// default zero-cost backend the meter is never called.
///
/// # Panics
///
/// Panics on `capacity == 0`: a rendezvous channel has no queue to own.
pub fn channel_metered<T: Exchangeable>(
    receiver: &Domain,
    capacity: usize,
    meter: fn(&T) -> usize,
) -> (DomainSender<T>, DomainReceiver<T>) {
    assert!(
        capacity > 0,
        "rendezvous (zero-capacity) channels unsupported"
    );
    let core = Arc::new(ChannelCore {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            revoked: false,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
        backend: Arc::clone(&receiver.inner.backend),
        charged: receiver.inner.charged,
        meter,
    });
    let slot = receiver.inner.ref_table.insert(Arc::new(TableEntry {
        core: Arc::clone(&core),
    }));
    (
        DomainSender {
            core: Arc::clone(&core),
            target: receiver.id(),
        },
        DomainReceiver {
            core,
            home: receiver.clone(),
            slot,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainManager;
    use crate::rref::RRef;

    fn setup() -> Domain {
        DomainManager::new().create_domain("consumer").unwrap()
    }

    #[test]
    fn values_move_through() {
        let d = setup();
        let (tx, rx) = channel::<String>(&d, 4);
        tx.send(String::from("hello")).unwrap();
        tx.send(String::from("world")).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv().unwrap(), "hello");
        assert_eq!(rx.try_recv().unwrap(), "world");
        assert!(rx.is_empty());
        assert_eq!(rx.try_recv().unwrap_err(), ChannelError::Empty);
    }

    #[test]
    fn bounded_capacity_enforced() {
        let d = setup();
        let (tx, rx) = channel::<u32>(&d, 2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let (e, v) = tx.try_send(3).unwrap_err();
        assert_eq!(e, ChannelError::Full);
        assert_eq!(v, 3, "ownership returns on failure");
        rx.recv().unwrap();
        tx.try_send(3).unwrap();
    }

    #[test]
    fn receiver_revoke_closes_sends_but_drains_queue() {
        let d = setup();
        let (tx, rx) = channel::<u32>(&d, 4);
        tx.send(7).unwrap();
        assert!(rx.revoke());
        assert!(!rx.revoke(), "second revoke is a no-op");
        assert!(!tx.is_open());
        let (e, v) = tx.send(8).unwrap_err();
        assert_eq!(e, ChannelError::Revoked);
        assert_eq!(v, 8);
        // Already-queued messages are still deliverable.
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap_err(), ChannelError::Disconnected);
    }

    #[test]
    fn domain_fault_closes_channels() {
        let d = setup();
        let (tx, _rx) = channel::<u32>(&d, 4);
        assert!(tx.is_open());
        let _ = d.execute(|| panic!("fault"));
        // Fault cleanup cleared the table; the channel died with it.
        assert!(!tx.is_open());
        assert!(matches!(tx.send(1), Err((ChannelError::Revoked, 1))));
    }

    #[test]
    fn receiver_drop_fails_a_parked_sender_with_disconnected() {
        let d = setup();
        let (tx, rx) = channel::<u32>(&d, 1);
        tx.send(1).unwrap();
        let waiter = std::thread::spawn(move || tx.send(2));
        // Parked or not yet parked, the sender must see the same error;
        // the pause only makes the parked case the one exercised.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        let (e, v) = waiter.join().unwrap().unwrap_err();
        assert_eq!(e, ChannelError::Disconnected);
        assert_eq!(v, 2, "ownership returns on disconnect");
    }

    #[test]
    fn domain_destroy_closes_channels() {
        let d = setup();
        let (tx, _rx) = channel::<u32>(&d, 4);
        d.destroy();
        assert!(!tx.is_open());
    }

    #[test]
    fn clones_share_the_capability() {
        let d = setup();
        let (tx, rx) = channel::<u32>(&d, 8);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv().unwrap() + rx.recv().unwrap(), 3);
        rx.revoke();
        assert!(!tx.is_open() && !tx2.is_open(), "all clones die together");
    }

    #[test]
    fn cross_thread_producer_consumer() {
        let d = setup();
        let (tx, rx) = channel::<Vec<u8>>(&d, 16);
        let producers: Vec<_> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for j in 0..100u8 {
                        tx.send(vec![i as u8, j]).unwrap();
                    }
                })
            })
            .collect();
        // Consume inside the domain via execute (the intended shape).
        let mut received = 0;
        while received < 400 {
            let batch: Vec<Vec<u8>> = d
                .execute(|| {
                    let mut out = Vec::new();
                    while let Ok(m) = rx.try_recv() {
                        out.push(m);
                    }
                    out
                })
                .unwrap();
            received += batch.len();
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(received, 400);
    }

    #[test]
    fn channel_and_rref_coexist_in_one_table() {
        let d = setup();
        let (tx, rx) = channel::<u32>(&d, 4);
        let obj = RRef::new(&d, 0u32);
        assert_eq!(d.exported_objects(), 2);
        tx.send(5).unwrap();
        let v = rx.recv().unwrap();
        obj.invoke_mut(move |o| *o += v).unwrap();
        assert_eq!(obj.invoke(|o| *o).unwrap(), 5);
        rx.revoke();
        assert_eq!(d.exported_objects(), 1);
    }

    #[test]
    fn metered_channel_charges_backend_crossings() {
        let mgr = DomainManager::with_backend_kind(crate::backend::BackendKind::CopyBoundary);
        let d = mgr.create_domain("consumer").unwrap();
        let (tx, rx) = channel_metered::<Vec<u8>>(&d, 4, |v| v.len());
        tx.send(vec![0u8; 100]).unwrap();
        let t = mgr.backend_totals();
        assert_eq!(t.crossings, 1, "send is one crossing");
        assert_eq!(t.bytes, 100, "metered, not size_of");
        let _ = rx.recv().unwrap();
        let t = mgr.backend_totals();
        assert_eq!(t.crossings, 2, "recv is the second crossing");
        assert_eq!(t.bytes, 200);
    }

    #[test]
    fn default_backend_charges_nothing() {
        let d = setup();
        let (tx, rx) = channel_metered::<Vec<u8>>(&d, 4, |v| v.len());
        tx.send(vec![0u8; 100]).unwrap();
        let _ = rx.recv().unwrap();
        assert_eq!(
            d.backend().stats(),
            crate::backend::BackendTotals::default(),
            "zero-cost backend keeps no counters at all"
        );
    }

    #[test]
    fn sender_debug_and_target() {
        let d = setup();
        let (tx, rx) = channel::<u32>(&d, 1);
        assert_eq!(tx.target_domain(), d.id());
        assert!(format!("{tx:?}").contains("open: true"));
        assert!(format!("{rx:?}").contains("queued: 0"));
    }
}
