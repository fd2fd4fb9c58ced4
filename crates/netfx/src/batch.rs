//! The linear [`PacketBatch`].
//!
//! NetBricks' central trick — the one §3 of the paper builds on — is that
//! a batch of packets is an *affine* value: it moves from stage to stage,
//! and the type system guarantees that at most one stage can access it at
//! any time. There is no `Clone` impl, deliberately: duplicating a batch
//! would reintroduce exactly the aliasing SFI must exclude.
//!
//! ```compile_fail
//! use rbs_netfx::PacketBatch;
//! let batch = PacketBatch::new();
//! let consume = |b: PacketBatch| b.len();
//! consume(batch);
//! // ERROR: `batch` was moved into the pipeline stage above.
//! let _ = batch.len();
//! ```

use crate::packet::Packet;

/// An owned, ordered collection of packets moving through a pipeline.
#[derive(Debug, Default)]
pub struct PacketBatch {
    packets: Vec<Packet>,
}

impl PacketBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `cap` packets.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            packets: Vec::with_capacity(cap),
        }
    }

    /// Creates a batch from a vector of packets.
    pub fn from_packets(packets: Vec<Packet>) -> Self {
        Self { packets }
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total bytes across all packets.
    pub fn total_bytes(&self) -> usize {
        self.packets.iter().map(Packet::len).sum()
    }

    /// Appends a packet, taking ownership of it.
    pub fn push(&mut self, packet: Packet) {
        self.packets.push(packet);
    }

    /// Removes and returns the last packet.
    pub fn pop(&mut self) -> Option<Packet> {
        self.packets.pop()
    }

    /// Iterates over the packets immutably.
    pub fn iter(&self) -> std::slice::Iter<'_, Packet> {
        self.packets.iter()
    }

    /// Iterates over the packets mutably (in-place header rewriting).
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Packet> {
        self.packets.iter_mut()
    }

    /// Keeps only packets satisfying `pred`; dropped packets are freed.
    pub fn retain(&mut self, pred: impl FnMut(&Packet) -> bool) {
        self.packets.retain(pred);
    }

    /// Like [`retain`](Self::retain), but `pred` may rewrite the packet
    /// it is deciding on: a filtering stage that also edits headers (NAT,
    /// load balancer) passes over the batch once and allocates nothing.
    pub fn retain_mut(&mut self, pred: impl FnMut(&mut Packet) -> bool) {
        self.packets.retain_mut(pred);
    }

    /// Splits the batch by a predicate: `(matching, rest)`.
    ///
    /// Ownership of every packet moves into exactly one of the two result
    /// batches — nothing is copied. Both sides are pre-sized to the input
    /// length, so neither reallocates mid-split regardless of how the
    /// predicate divides the packets.
    pub fn partition(self, pred: impl FnMut(&Packet) -> bool) -> (PacketBatch, PacketBatch) {
        let mut yes = PacketBatch::with_capacity(self.packets.len());
        let mut no = PacketBatch::with_capacity(self.packets.len());
        self.partition_into(pred, &mut yes, &mut no);
        (yes, no)
    }

    /// Splits the batch into caller-provided batches, reusing their
    /// capacity.
    ///
    /// The allocation-free sibling of [`partition`](Self::partition): a
    /// hot loop can keep two scratch batches alive, drain them after each
    /// split, and call this repeatedly without ever touching the
    /// allocator once the scratch capacity has grown to the high-water
    /// mark. Each side reserves up to the input length before the split
    /// so pushes never reallocate mid-loop.
    pub fn partition_into(
        self,
        mut pred: impl FnMut(&Packet) -> bool,
        yes: &mut PacketBatch,
        no: &mut PacketBatch,
    ) {
        yes.reserve(self.packets.len());
        no.reserve(self.packets.len());
        for p in self.packets {
            if pred(&p) {
                yes.push(p);
            } else {
                no.push(p);
            }
        }
    }

    /// Reserves capacity for at least `additional` more packets.
    pub fn reserve(&mut self, additional: usize) {
        self.packets.reserve(additional);
    }

    /// Number of packets the batch can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.packets.capacity()
    }

    /// Removes all packets front-to-back, keeping the allocation.
    ///
    /// Order-preserving (unlike repeated [`pop`](Self::pop)), so a
    /// caller splitting a batch keeps per-flow packet order intact while
    /// recycling the batch's own allocation as scratch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Packet> {
        self.packets.drain(..)
    }

    /// Appends all packets of `other`, leaving it empty is not possible —
    /// `other` is consumed, making the transfer of ownership explicit.
    pub fn append(&mut self, other: PacketBatch) {
        self.packets.extend(other.packets);
    }

    /// Consumes the batch, yielding its packets.
    pub fn into_packets(self) -> Vec<Packet> {
        self.packets
    }
}

impl IntoIterator for PacketBatch {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;

    fn into_iter(self) -> Self::IntoIter {
        self.packets.into_iter()
    }
}

impl<'a> IntoIterator for &'a PacketBatch {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;

    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter()
    }
}

impl FromIterator<Packet> for PacketBatch {
    fn from_iter<I: IntoIterator<Item = Packet>>(iter: I) -> Self {
        Self {
            packets: iter.into_iter().collect(),
        }
    }
}

impl Extend<Packet> for PacketBatch {
    fn extend<I: IntoIterator<Item = Packet>>(&mut self, iter: I) {
        self.packets.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;
    use std::net::Ipv4Addr;

    fn pkt(dst_port: u16, payload: usize) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dst_port,
            payload,
        )
    }

    #[test]
    fn push_pop_len() {
        let mut b = PacketBatch::new();
        assert!(b.is_empty());
        b.push(pkt(1, 0));
        b.push(pkt(2, 0));
        assert_eq!(b.len(), 2);
        let p = b.pop().unwrap();
        assert_eq!(p.udp().unwrap().dst_port(), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn total_bytes_sums() {
        let mut b = PacketBatch::new();
        b.push(pkt(1, 10));
        b.push(pkt(1, 20));
        assert_eq!(b.total_bytes(), 2 * 42 + 30);
    }

    #[test]
    fn retain_filters_in_place() {
        let mut b: PacketBatch = (1..=10).map(|p| pkt(p, 0)).collect();
        b.retain(|p| p.udp().unwrap().dst_port() % 2 == 0);
        assert_eq!(b.len(), 5);
        assert!(b.iter().all(|p| p.udp().unwrap().dst_port() % 2 == 0));
    }

    #[test]
    fn retain_mut_rewrites_survivors_without_reallocating() {
        let mut b: PacketBatch = (1..=10).map(|p| pkt(p, 0)).collect();
        let cap = b.capacity();
        b.retain_mut(|p| {
            let keep = p.udp().unwrap().dst_port() > 5;
            p.ipv4_mut().unwrap().set_ttl(7);
            keep
        });
        let ports: Vec<u16> = b.iter().map(|p| p.udp().unwrap().dst_port()).collect();
        assert_eq!(ports, vec![6, 7, 8, 9, 10], "order preserved");
        assert!(b.iter().all(|p| p.ipv4().unwrap().ttl() == 7));
        assert_eq!(b.capacity(), cap, "the batch shell is reused");
    }

    #[test]
    fn partition_moves_everything() {
        let b: PacketBatch = (1..=10).map(|p| pkt(p, 0)).collect();
        let (lo, hi) = b.partition(|p| p.udp().unwrap().dst_port() <= 5);
        assert_eq!(lo.len(), 5);
        assert_eq!(hi.len(), 5);
        assert!(lo.iter().all(|p| p.udp().unwrap().dst_port() <= 5));
    }

    #[test]
    fn partition_presizes_both_sides() {
        let b: PacketBatch = (1..=8).map(|p| pkt(p, 0)).collect();
        // Worst case for the old asymmetric pre-sizing: everything lands
        // in `no`. Neither side may reallocate during the split.
        let (yes, no) = b.partition(|_| false);
        assert_eq!(yes.len(), 0);
        assert_eq!(no.len(), 8);
        assert!(yes.capacity() >= 8);
        assert!(no.capacity() >= 8);
    }

    #[test]
    fn partition_into_reuses_scratch_without_realloc() {
        let mut yes = PacketBatch::with_capacity(16);
        let mut no = PacketBatch::with_capacity(16);
        for round in 0..4 {
            let b: PacketBatch = (1..=10).map(|p| pkt(p, 0)).collect();
            b.partition_into(|p| p.udp().unwrap().dst_port() % 2 == 0, &mut yes, &mut no);
            assert_eq!(yes.len(), 5, "round {round}");
            assert_eq!(no.len(), 5, "round {round}");
            assert_eq!(yes.capacity(), 16, "scratch must not grow");
            assert_eq!(no.capacity(), 16, "scratch must not grow");
            yes.drain();
            no.drain();
        }
    }

    #[test]
    fn drain_preserves_order_and_capacity() {
        let mut b: PacketBatch = (1..=5).map(|p| pkt(p, 0)).collect();
        let cap = b.capacity();
        let ports: Vec<u16> = b.drain().map(|p| p.udp().unwrap().dst_port()).collect();
        assert_eq!(ports, vec![1, 2, 3, 4, 5], "front-to-back order");
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "allocation retained");
    }

    #[test]
    fn append_consumes_other() {
        let mut a: PacketBatch = (1..=3).map(|p| pkt(p, 0)).collect();
        let b: PacketBatch = (4..=5).map(|p| pkt(p, 0)).collect();
        a.append(b);
        assert_eq!(a.len(), 5);
        // `b` is moved; using it here would not compile.
    }

    #[test]
    fn iter_mut_allows_rewrite() {
        let mut b: PacketBatch = (1..=3).map(|p| pkt(p, 0)).collect();
        for p in b.iter_mut() {
            let mut ip = p.ipv4_mut().unwrap();
            ip.set_ttl(9);
            ip.update_checksum();
        }
        assert!(b.iter().all(|p| p.ipv4().unwrap().ttl() == 9));
    }

    #[test]
    fn into_iterator_forms() {
        let b: PacketBatch = (1..=4).map(|p| pkt(p, 0)).collect();
        let borrowed: usize = (&b).into_iter().count();
        assert_eq!(borrowed, 4);
        let owned: Vec<Packet> = b.into_iter().collect();
        assert_eq!(owned.len(), 4);
    }

    #[test]
    fn with_capacity_does_not_change_semantics() {
        let b = PacketBatch::with_capacity(64);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
