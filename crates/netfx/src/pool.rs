//! The packet-buffer pool: DPDK's mempool, made safe by linearity.
//!
//! DPDK and NetBricks get their throughput numbers from *buffer
//! recycling*: packet memory is allocated once at startup and then moves
//! around a ring forever — NIC → pipeline → NIC — without the allocator
//! on the data path. In C that ring is guarded by conventions (a
//! use-after-free away from silent corruption); here it is guarded by the
//! type system. A [`Packet`](crate::packet::Packet) owns its buffer, a
//! plain `Vec<u8>`, outright, so a buffer can only re-enter the pool by
//! *moving* back
//! ([`Packet::into_bytes`](crate::packet::Packet::into_bytes)),
//! and the borrow checker makes "recycled but still referenced"
//! unrepresentable. That is the paper's §3 claim made load-bearing: no
//! refcounts, no locks, no epochs — ownership transfer *is* the
//! synchronization.
//!
//! The pool is deliberately single-owner (not `Sync`): it lives with the
//! driver thread that generates packets. Workers return spent batches
//! through an `sfi` recycle channel — another ownership transfer — and
//! the driver drains that channel back into the pool between bursts. A
//! worker that dies with batches in flight simply never returns them;
//! those buffers drop with the poisoned domain and show up as
//! [`PacketPool::outstanding`], never as corruption.
//!
//! A spent batch comes home whole: [`PacketPool::recycle_batch`] banks
//! it with its packets inside, and the generator's next
//! [`next_batch_from_pool`](crate::pktgen::PacketGen::next_batch_from_pool)
//! takes it back and rewrites each packet where it lies — the batch has
//! one owner, so that needs no refcount, lock or copy, and no buffer
//! makes a round trip through the free list. Banked packets count as
//! returned, as held (against `max_free`) and as resident; what wants an
//! empty shell ([`PacketPool::take_shell`]) gets one, the banked buffers
//! moved to the free list first.
//!
//! Every container here is pre-sized at construction, so the steady-state
//! `take`/`put` cycle touches the allocator exactly zero times — the
//! property `e12_hotpath` measures with a counting allocator.
//!
//! A slab is as large as the frame it carries, not as large as the
//! largest frame there could be: the lane engine sizes fresh slabs to
//! its traffic's frame length, so a pool's resident memory is the bytes
//! in flight, and a frame that outgrows its slab grows it once — the
//! buffer keeps what it grew to when it comes back.
//!
//! # The per-thread spare list
//!
//! Where no pool is in reach — a client that builds packets with
//! [`PacketGen::next_batch`](crate::pktgen::PacketGen::next_batch) and an
//! engine that consumes them on the same thread — a spent buffer still
//! has somewhere to go other than `free`: [`recycle_local`] parks it on
//! the *spending thread's* spare list and [`take_local`] (the unpooled
//! generator's buffer source) draws from there before asking the
//! allocator. The list is thread-local, so it needs no lock and a buffer
//! given on one thread is never visible on another; it is bounded by
//! bytes of capacity ([`SPARE_BYTES_MAX`]), so a jumbo-frame run pins no
//! more than a small-frame run; overflow falls through to `free` and is
//! counted. Which list (or which `malloc`) a buffer came from is
//! invisible downstream: the generator rewrites the whole frame over
//! whatever a buffer held, and no ledger counts buffers, only packets.

use crate::batch::PacketBatch;
use crate::packet::Packet;
use std::cell::{Cell, RefCell};

/// Monotonic counters describing pool traffic.
///
/// Conservation invariant (checked by tests and `e12_hotpath`): every
/// buffer handed out is eventually either returned or still outstanding —
/// `taken == returned + outstanding`, and at quiescence `outstanding`
/// equals exactly the buffers leaked on faults (dropped with a poisoned
/// domain), never a silent loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out: by [`PacketPool::take`] (`hits + misses`) and
    /// inside a banked batch (`refilled`).
    pub taken: u64,
    /// `take` calls served from the free list or the bank (no
    /// allocation).
    pub hits: u64,
    /// `take` calls that had to allocate a fresh slab.
    pub misses: u64,
    /// Packets handed out again inside the banked batch they came home
    /// in, for the generator to rewrite in place.
    pub refilled: u64,
    /// Buffers that came back: through [`PacketPool::put`], or inside a
    /// batch [`PacketPool::recycle_batch`] banked.
    pub returned: u64,
    /// Returned buffers dropped because the pool held `max_free` already.
    pub overflow_dropped: u64,
    /// Batch shells handed out (with or without banked packets inside).
    pub shells_taken: u64,
    /// Batch shells returned by [`PacketPool::put_shell`] or
    /// [`PacketPool::recycle_batch`].
    pub shells_returned: u64,
    /// Bytes of buffer capacity the pool holds right now, free or banked
    /// — a gauge, not a counter: what the pool keeps resident while idle.
    pub resident_bytes: u64,
}

/// A single-owner free list of fixed-size packet buffers plus a bank of
/// batch shells, which may hold the spent packets they came home with.
///
/// `slab_capacity` is the byte capacity each fresh buffer is created
/// with; recycled buffers keep whatever capacity they grew to.
/// `max_free` bounds the buffers the pool holds, free or banked, so a
/// burst of returns cannot pin unbounded memory — excess buffers are
/// dropped (and counted).
#[derive(Debug)]
pub struct PacketPool {
    free: Vec<Vec<u8>>,
    /// Returned batches, newest last: emptied shells and spent batches
    /// with their packets inside.
    bank: Vec<PacketBatch>,
    /// Packets inside `bank`'s batches. `free.len() + banked` never
    /// exceeds `max_free`, so moving banked buffers to `free` never
    /// grows it.
    banked: usize,
    slab_capacity: usize,
    max_free: usize,
    stats: PoolStats,
}

/// How many batch shells the pool retains (one per shard plus slack is
/// plenty; shells are just empty `Vec`s with capacity).
const MAX_SHELLS: usize = 64;

impl PacketPool {
    /// Creates a pool whose fresh slabs hold `slab_capacity` bytes and
    /// which holds at most `max_free` buffers, free or banked.
    ///
    /// Both internal lists are allocated to their maximum size up front,
    /// so no later `take`/`put` ever grows them.
    pub fn new(slab_capacity: usize, max_free: usize) -> Self {
        Self {
            free: Vec::with_capacity(max_free),
            bank: Vec::with_capacity(MAX_SHELLS),
            banked: 0,
            slab_capacity,
            max_free,
            stats: PoolStats::default(),
        }
    }

    /// Fills the free list with `n` fresh slabs (bounded by `max_free`).
    ///
    /// Call once before the measured region so steady-state `take`s are
    /// all hits.
    pub fn prewarm(&mut self, n: usize) {
        let n = n.min(self.max_free.saturating_sub(self.free_buffers()));
        for _ in 0..n {
            self.free.push(Vec::with_capacity(self.slab_capacity));
        }
    }

    /// Fills the shell bank with `n` empty batches of `capacity` packets
    /// each (bounded by the fixed shell-bank size).
    ///
    /// Pre-sizing shells to the driver's batch size means no later
    /// [`Self::take_shell`] or scratch push ever grows one.
    pub fn prewarm_shells(&mut self, n: usize, capacity: usize) {
        let n = n.min(MAX_SHELLS.saturating_sub(self.bank.len()));
        for _ in 0..n {
            self.bank.push(PacketBatch::with_capacity(capacity));
        }
    }

    /// Takes a buffer: from the free list when possible, else out of a
    /// banked batch (either is a *hit*, no allocation), freshly
    /// allocated otherwise (a *miss*).
    pub fn take(&mut self) -> Vec<u8> {
        self.stats.taken += 1;
        if let Some(buf) = self.free.pop() {
            self.stats.hits += 1;
            return buf;
        }
        self.take_past_free()
    }

    /// [`Self::take`] once the free list is dry: one buffer out of the
    /// newest banked batch that holds any, else a fresh slab.
    #[cold]
    fn take_past_free(&mut self) -> Vec<u8> {
        if self.banked == 0 {
            self.stats.misses += 1;
            return Vec::with_capacity(self.slab_capacity);
        }
        let packet = self.bank.iter_mut().rev().find_map(PacketBatch::pop);
        self.banked -= 1;
        self.stats.hits += 1;
        packet
            .expect("`banked` counts the packets in the bank")
            .into_bytes()
    }

    /// Returns a buffer to the free list, dropping it if the pool holds
    /// `max_free` buffers already.
    pub fn put(&mut self, buf: Vec<u8>) {
        self.stats.returned += 1;
        if self.free_buffers() < self.max_free {
            self.free.push(buf);
        } else {
            self.stats.overflow_dropped += 1;
        }
    }

    /// Takes an empty batch shell with room for at least `cap` packets.
    ///
    /// Steady state pops a previously returned shell whose capacity has
    /// already grown to the high-water mark — no allocation. Packets
    /// banked inside it move to the free list.
    pub fn take_shell(&mut self, cap: usize) -> PacketBatch {
        self.stats.shells_taken += 1;
        match self.bank.pop() {
            Some(mut shell) => {
                self.unbank_into_free(&mut shell);
                shell.reserve(cap.saturating_sub(shell.capacity()));
                shell
            }
            None => PacketBatch::with_capacity(cap),
        }
    }

    /// Moves the packets of a batch leaving the bank onto the free list.
    /// They were counted returned and held when banked, so this neither
    /// overflows nor grows the list.
    fn unbank_into_free(&mut self, batch: &mut PacketBatch) {
        self.banked -= batch.len();
        self.free.extend(batch.drain().map(Packet::into_bytes));
    }

    /// The batch the generator fills next
    /// ([`PacketGen::next_batch_from_pool`](crate::pktgen::PacketGen::next_batch_from_pool)):
    /// the newest banked one with up to `n` of its spent packets still
    /// inside — handed out again, counted `taken` and `refilled`, for the
    /// caller to rewrite in place — and the rest moved to the free list;
    /// a fresh shell when the bank is empty. Room for `n` packets either
    /// way.
    pub(crate) fn take_refill(&mut self, n: usize) -> PacketBatch {
        self.stats.shells_taken += 1;
        let Some(mut batch) = self.bank.pop() else {
            return PacketBatch::with_capacity(n);
        };
        self.banked -= batch.len();
        while batch.len() > n {
            let surplus = batch.pop().expect("the batch holds more than n");
            self.free.push(surplus.into_bytes());
        }
        let refilled = batch.len() as u64;
        self.stats.taken += refilled;
        self.stats.refilled += refilled;
        batch.reserve(n - batch.len());
        batch
    }

    /// Returns a shell for reuse; any packets still inside are recycled
    /// first.
    pub fn put_shell(&mut self, mut shell: PacketBatch) {
        for packet in shell.drain() {
            self.put(packet.into_bytes());
        }
        self.stats.shells_returned += 1;
        if self.bank.len() < MAX_SHELLS {
            self.bank.push(shell);
        }
    }

    /// Recycles a spent batch by banking it whole, packets inside: the
    /// next [`PacketGen::next_batch_from_pool`](crate::pktgen::PacketGen::next_batch_from_pool)
    /// rewrites them where they lie. A batch the bank or `max_free` has
    /// no room for goes the way of [`Self::put_shell`] instead.
    pub fn recycle_batch(&mut self, batch: PacketBatch) {
        if self.bank.len() >= MAX_SHELLS || self.free_buffers() + batch.len() > self.max_free {
            self.put_shell(batch);
            return;
        }
        self.stats.returned += batch.len() as u64;
        self.stats.shells_returned += 1;
        self.banked += batch.len();
        self.bank.push(batch);
    }

    /// Buffers currently checked out (taken but not yet returned).
    ///
    /// After a clean drain this is exactly the number of buffers that
    /// died with poisoned domains.
    pub fn outstanding(&self) -> u64 {
        self.stats.taken - self.stats.returned
    }

    /// Buffers the pool holds right now, on the free list or inside
    /// banked batches — what `take` can hand out without allocating.
    pub fn free_buffers(&self) -> usize {
        self.free.len() + self.banked
    }

    /// Byte capacity of freshly allocated slabs.
    pub fn slab_capacity(&self) -> usize {
        self.slab_capacity
    }

    /// A copy of the traffic counters, with the capacity of every buffer
    /// the pool holds summed into [`PoolStats::resident_bytes`].
    pub fn stats(&self) -> PoolStats {
        let free = self.free.iter().map(Vec::capacity);
        let banked = self.bank.iter().flatten().map(Packet::capacity);
        PoolStats {
            resident_bytes: free.chain(banked).map(|c| c as u64).sum(),
            ..self.stats
        }
    }
}

/// Most buffer capacity, in bytes, one thread's spare list holds.
pub const SPARE_BYTES_MAX: usize = 512 * 1024;

/// Most buffers one thread's spare list holds: the list's single
/// allocation, made on the thread's first give, is this many slots, so
/// frames smaller than 128 bytes are bounded by count before bytes.
const SPARE_SLOTS: usize = SPARE_BYTES_MAX / 128;

/// What the calling thread's spare list holds and has turned away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpareStats {
    /// Buffers on the list.
    pub buffers: usize,
    /// Their capacity in bytes; never above [`SPARE_BYTES_MAX`].
    pub bytes: usize,
    /// Buffers given while the list was full, freed instead.
    pub overflow_dropped: u64,
}

struct Spares {
    bufs: Vec<Vec<u8>>,
    bytes: usize,
    overflow_dropped: u64,
}

thread_local! {
    /// `SPARES.bufs.len()`, kept beside the list because it has no
    /// destructor: a thread that never recycles (a lane drawing from its
    /// pool, a test) pays one load and a branch per unpooled packet, not
    /// a lazily registered thread-local and a borrow flag.
    static SPARE_COUNT: Cell<usize> = const { Cell::new(0) };
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares {
            bufs: Vec::new(),
            bytes: 0,
            overflow_dropped: 0,
        })
    };
}

/// Parks the buffers of spent `packets` on the calling thread's spare
/// list, up to its bounds; the rest are freed and counted. Pass a
/// `drain` to keep the emptied shell.
pub fn recycle_local(packets: impl IntoIterator<Item = Packet>) {
    // `try_with`: a thread that is tearing its locals down just frees.
    let _ = SPARES.try_with(|spares| {
        let spares = &mut *spares.borrow_mut();
        if spares.bufs.capacity() == 0 {
            spares.bufs.reserve_exact(SPARE_SLOTS);
        }
        for packet in packets {
            let buf = packet.into_bytes();
            let cap = buf.capacity();
            if cap == 0 {
                continue;
            }
            if spares.bufs.len() < SPARE_SLOTS && spares.bytes + cap <= SPARE_BYTES_MAX {
                spares.bytes += cap;
                spares.bufs.push(buf);
            } else {
                spares.overflow_dropped += 1;
            }
        }
        SPARE_COUNT.set(spares.bufs.len());
    });
}

/// A buffer for one unpooled packet: the calling thread's most recently
/// spent one when its spare list holds any, an empty one (which
/// allocates on first write) otherwise. The contents are whatever the
/// last owner left; callers overwrite them.
#[inline]
pub fn take_local() -> Vec<u8> {
    if SPARE_COUNT.get() == 0 {
        return Vec::new();
    }
    SPARES
        .try_with(|spares| {
            let spares = &mut *spares.borrow_mut();
            let buf = spares.bufs.pop().unwrap_or_default();
            spares.bytes -= buf.capacity();
            SPARE_COUNT.set(spares.bufs.len());
            buf
        })
        .unwrap_or_default()
}

/// The calling thread's spare list, in numbers.
pub fn local_spares() -> SpareStats {
    SPARES
        .try_with(|spares| {
            let spares = spares.borrow();
            SpareStats {
                buffers: spares.bufs.len(),
                bytes: spares.bytes,
                overflow_dropped: spares.overflow_dropped,
            }
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle_hits_after_prewarm() {
        let mut pool = PacketPool::new(256, 8);
        pool.prewarm(4);
        assert_eq!(pool.free_buffers(), 4);

        let a = pool.take();
        let b = pool.take();
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 0);
        assert_eq!(pool.outstanding(), 2);

        pool.put(a);
        pool.put(b);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.free_buffers(), 4);
    }

    #[test]
    fn empty_pool_misses_then_recycles() {
        let mut pool = PacketPool::new(128, 8);
        let buf = pool.take();
        assert_eq!(pool.stats().misses, 1);
        let ptr = buf.as_ptr();
        pool.put(buf);
        let again = pool.take();
        assert_eq!(again.as_ptr(), ptr, "same slab came back");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn overflow_returns_are_dropped_not_lost() {
        let mut pool = PacketPool::new(64, 2);
        pool.prewarm(10);
        assert_eq!(pool.free_buffers(), 2, "prewarm respects max_free");
        let bufs: Vec<Vec<u8>> = (0..4).map(|_| pool.take()).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.free_buffers(), 2);
        assert_eq!(pool.stats().overflow_dropped, 2);
        // Conservation: every taken buffer was returned.
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn recycle_batch_returns_buffers_and_shell() {
        use crate::headers::ethernet::MacAddr;
        use crate::packet::Packet;
        use std::net::Ipv4Addr;

        let mut pool = PacketPool::new(256, 8);
        pool.prewarm(3);
        let mut shell = pool.take_shell(3);
        let shell_cap = shell.capacity();
        for i in 0..3u16 {
            let p = Packet::build_udp_into(
                pool.take(),
                MacAddr::ZERO,
                MacAddr::ZERO,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1000 + i,
                80,
                16,
            );
            shell.push(p);
        }
        assert_eq!(pool.outstanding(), 3);
        assert_eq!(pool.free_buffers(), 0);

        // Banked whole: the packets are returned and held, inside the shell.
        pool.recycle_batch(shell);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.free_buffers(), 3);
        assert_eq!(pool.stats().shells_returned, 1);

        // The shell allocation itself round-trips, emptied: its buffers
        // move to the free list, where `take` finds them.
        let shell2 = pool.take_shell(3);
        assert!(shell2.is_empty());
        assert!(shell2.capacity() >= shell_cap);
        assert_eq!(pool.stats().shells_taken, 2);
        assert_eq!(pool.free_buffers(), 3);
        assert_eq!(pool.outstanding(), 0);
        for _ in 0..3 {
            pool.take();
        }
        assert_eq!((pool.stats().hits, pool.stats().misses), (6, 0));
    }

    #[test]
    fn resident_bytes_is_the_free_lists_capacity() {
        let mut pool = PacketPool::new(300, 8);
        pool.prewarm(4);
        assert_eq!(pool.stats().resident_bytes, 4 * 300, "explicit slab size");
        let buf = pool.take();
        assert_eq!(buf.capacity(), 300);
        assert_eq!(pool.stats().resident_bytes, 3 * 300);
        pool.put(buf);
        assert_eq!(pool.stats().resident_bytes, 4 * 300);

        // A banked batch's packets are held, so they are resident too.
        let batch: PacketBatch = (0..2).map(|_| Packet::from_bytes(pool.take())).collect();
        assert_eq!(pool.stats().resident_bytes, 2 * 300);
        pool.recycle_batch(batch);
        assert_eq!(pool.stats().resident_bytes, 4 * 300);
    }

    #[test]
    fn a_frame_larger_than_its_slab_grows_it_once_and_the_pool_keeps_it() {
        use crate::pktgen::{PacketGen, TrafficConfig};

        let cfg = TrafficConfig::default();
        let frame = cfg.frame_len();
        let mut gen = PacketGen::new(cfg);
        let mut pool = PacketPool::new(16, 4);
        pool.prewarm(4);
        assert_eq!(pool.stats().resident_bytes, 4 * 16);

        let batch = gen.next_batch_from_pool(4, &mut pool);
        let grown: Vec<_> = batch.iter().map(|p| p.as_slice().as_ptr()).collect();
        pool.recycle_batch(batch);
        assert_eq!(pool.stats().resident_bytes, (4 * frame) as u64);

        // Same buffers, same addresses, same slots — the batch came home
        // whole and was rewritten in place: nothing grows a second time.
        let batch = gen.next_batch_from_pool(4, &mut pool);
        let again: Vec<_> = batch.iter().map(|p| p.as_slice().as_ptr()).collect();
        assert_eq!(again, grown);
        assert_eq!(pool.stats().misses, 0);
        assert_eq!(pool.stats().refilled, 4);
    }

    #[test]
    fn a_banked_batch_is_refilled_up_to_n_and_never_past_max_free() {
        let mut pool = PacketPool::new(64, 6);
        pool.prewarm(6);
        let batch: PacketBatch = (0..5).map(|_| Packet::from_bytes(pool.take())).collect();
        pool.recycle_batch(batch);
        assert_eq!((pool.free_buffers(), pool.outstanding()), (6, 0));

        // Longer than asked: three stay inside, two go to the free list.
        let refill = pool.take_refill(3);
        assert_eq!(refill.len(), 3);
        assert!(refill.capacity() >= 3);
        let stats = pool.stats();
        assert_eq!(
            (stats.refilled, stats.taken, pool.free_buffers()),
            (3, 8, 3)
        );

        // A batch that would take the pool past `max_free` is drained
        // like `put_shell`: what fits is kept, the rest dropped, counted.
        let extra: PacketBatch = (0..4).map(|_| spent(64)).collect();
        pool.recycle_batch(extra);
        assert_eq!(pool.free_buffers(), 6);
        assert_eq!(pool.stats().overflow_dropped, 1);
        assert_eq!(pool.stats().returned - pool.stats().taken, 4 - 3);
    }

    /// A packet over a buffer of exactly `capacity` bytes.
    fn spent(capacity: usize) -> Packet {
        Packet::from_bytes(Vec::with_capacity(capacity))
    }

    /// Empties this thread's spare list (the harness may run several
    /// tests on one thread).
    fn drain_spares() {
        while local_spares().buffers > 0 {
            take_local();
        }
    }

    #[test]
    fn spare_list_hands_back_what_it_was_given_newest_first() {
        drain_spares();
        assert_eq!(take_local().capacity(), 0, "empty list: a fresh buffer");
        let mut shell = vec![spent(100), spent(200), spent(0)];
        recycle_local(shell.drain(..));
        assert!(shell.is_empty() && shell.capacity() >= 3, "shell stays");
        let stats = local_spares();
        assert_eq!(
            (stats.buffers, stats.bytes),
            (2, 300),
            "nothing to keep of 0"
        );
        assert_eq!(take_local().capacity(), 200);
        assert_eq!(take_local().capacity(), 100);
        assert_eq!(local_spares().buffers, 0);
        assert_eq!(take_local().capacity(), 0);
    }

    #[test]
    fn spare_list_is_bounded_by_bytes_and_by_slots_and_counts_overflow() {
        drain_spares();
        let dropped = || local_spares().overflow_dropped;
        let before = dropped();
        // Jumbo frames hit the byte bound long before the slots run out.
        let jumbo = 9_000;
        let fit = SPARE_BYTES_MAX / jumbo;
        recycle_local((0..fit + 5).map(|_| spent(jumbo)));
        let stats = local_spares();
        assert_eq!(stats.buffers, fit);
        assert!(stats.bytes <= SPARE_BYTES_MAX && stats.bytes == fit * jumbo);
        assert_eq!(dropped() - before, 5);
        // A smaller buffer still fits in what the jumbos left.
        recycle_local([spent(SPARE_BYTES_MAX - fit * jumbo)]);
        assert_eq!(local_spares().bytes, SPARE_BYTES_MAX);
        recycle_local([spent(1)]);
        assert_eq!(dropped() - before, 6);

        // Tiny frames hit the slot bound: the list never regrows.
        drain_spares();
        recycle_local((0..SPARE_SLOTS + 3).map(|_| spent(8)));
        let stats = local_spares();
        assert_eq!((stats.buffers, stats.bytes), (SPARE_SLOTS, SPARE_SLOTS * 8));
        assert_eq!(dropped() - before, 9);
        drain_spares();
    }

    #[test]
    fn leaked_buffers_show_as_outstanding() {
        let mut pool = PacketPool::new(64, 8);
        pool.prewarm(2);
        let a = pool.take();
        let _b = pool.take();
        drop(a); // simulates a buffer dying with a poisoned domain
        pool.put(_b);
        assert_eq!(
            pool.outstanding(),
            1,
            "the dropped buffer stays on the books"
        );
        assert_eq!(pool.stats().taken, 2);
        assert_eq!(pool.stats().returned, 1);
    }
}
