//! Flow identification: the classic 5-tuple and its hash.
//!
//! Both the Maglev load balancer and the firewall classify packets by
//! flow. The hash here is a deterministic FxHash-style mix — stable across
//! runs so experiments are reproducible, cheap enough for the data path.
//!
//! A packet remembers both (see the flow-key cache in [`crate::packet`]):
//! an operator that owns the packet asks [`Packet::flow`] or
//! [`Packet::flow_key`] and the headers are parsed, and the tuple
//! hashed, once per chain; [`FiveTuple::of`] is the same question
//! through a shared reference, which can read the cache but not fill it.

use crate::headers::ipv4::IpProto;
use crate::packet::{Packet, PacketError};
use std::net::Ipv4Addr;

/// The 5-tuple identifying a transport flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol (TCP or UDP for extractable flows).
    pub proto: IpProto,
}

impl FiveTuple {
    /// Extracts the 5-tuple from a TCP or UDP packet: the packet's
    /// cached tuple when it has one, a parse of the headers (which a
    /// shared reference cannot cache — see [`Packet::flow`]) otherwise.
    ///
    /// Fails with [`PacketError::WrongProtocol`] for other protocols,
    /// with `BadField` (`fragment_offset`) for a non-first IPv4 fragment,
    /// and with whatever the `ipv4()` → `udp()`/`tcp()` views would
    /// report for a frame they reject. The headers are validated once,
    /// not once per view (see `Packet::locate_transport`).
    ///
    /// `inline(always)`, not a hint: an out-of-line copy returns the
    /// tuple through memory — a decision `#[inline]` leaves LLVM free to
    /// revisit whenever an unrelated edit changes the caller's size.
    #[inline(always)]
    pub fn of(packet: &Packet) -> Result<FiveTuple, PacketError> {
        packet.peek_flow()
    }

    /// The reverse direction of this flow.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// A stable 64-bit hash of the tuple.
    ///
    /// Deterministic across processes (unlike `std`'s `RandomState`), so
    /// Maglev table assignments and experiment results are reproducible.
    #[inline]
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fx64::new();
        h.mix(u64::from(u32::from(self.src_ip)));
        h.mix(u64::from(u32::from(self.dst_ip)));
        h.mix(u64::from(self.src_port) << 16 | u64::from(self.dst_port));
        h.mix(u64::from(u8::from(self.proto)));
        h.finish()
    }

    /// A second, independent stable hash (used by Maglev for permutation
    /// `skip` values so table positions decorrelate from `offset`).
    pub fn stable_hash2(&self) -> u64 {
        // Re-mix the primary hash with a different odd constant.
        let mut h = Fx64 {
            state: 0x9E37_79B9_7F4A_7C15,
        };
        h.mix(self.stable_hash());
        h.finish()
    }
}

/// Minimal FxHash-style 64-bit mixer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fx64 {
    state: u64,
}

impl Fx64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;

    pub(crate) fn new() -> Self {
        Self { state: 0 }
    }

    #[inline]
    pub(crate) fn mix(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(Self::K);
    }

    #[inline]
    pub(crate) fn finish(mut self) -> u64 {
        // A final avalanche round so low-entropy inputs spread to all bits.
        self.mix(0xFF51_AFD7_ED55_8CCD);
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^= x >> 33;
        x
    }
}

/// The canonical flow hash of a packet: the 5-tuple hash when the frame
/// parses as TCP/UDP over IPv4, otherwise a stable hash of the raw bytes.
///
/// This is the single definition steering (lane RSS slices, tenant
/// Maglev lookups) and the pool-aware generator (hash stamping) agree
/// on; [`Packet::flow_hash`] memoizes it on the packet.
pub fn packet_flow_hash(packet: &Packet) -> u64 {
    match FiveTuple::of(packet) {
        Ok(tuple) => tuple.stable_hash(),
        Err(_) => stable_hash_bytes(packet.as_slice()),
    }
}

impl Packet {
    /// The packet's flow hash, computed at most once.
    ///
    /// Returns the cached tag when present; otherwise computes
    /// [`packet_flow_hash`] and caches it. Any mutable view taken after
    /// this call invalidates the cache, so the value can never go stale.
    pub fn flow_hash(&mut self) -> u64 {
        if let Some(h) = self.cached_flow_hash() {
            return h;
        }
        let h = packet_flow_hash(self);
        self.set_cached_flow_hash(h);
        h
    }
}

/// Hashes an arbitrary byte string with the same mixer (for non-tuple
/// keys, e.g. backend names in Maglev).
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fx64::new();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut last = [0u8; 8];
    let rem = chunks.remainder();
    last[..rem.len()].copy_from_slice(rem);
    h.mix(u64::from_le_bytes(last));
    h.mix(bytes.len() as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;
    use crate::headers::tcp::TcpFlags;

    fn tuple(a: u8, b: u8, sp: u16, dp: u16) -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr::new(10, 0, 0, a),
            dst_ip: Ipv4Addr::new(10, 0, 0, b),
            src_port: sp,
            dst_port: dp,
            proto: IpProto::Udp,
        }
    }

    #[test]
    fn extract_udp() {
        let p = Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            1111,
            2222,
            0,
        );
        let t = FiveTuple::of(&p).unwrap();
        assert_eq!(t.src_ip, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(t.dst_port, 2222);
        assert_eq!(t.proto, IpProto::Udp);
    }

    #[test]
    fn extract_tcp() {
        let p = Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(9, 9, 9, 9),
            Ipv4Addr::new(8, 8, 8, 8),
            443,
            55555,
            TcpFlags(TcpFlags::ACK),
            4,
        );
        let t = FiveTuple::of(&p).unwrap();
        assert_eq!(t.proto, IpProto::Tcp);
        assert_eq!(t.src_port, 443);
    }

    #[test]
    fn reversed_involution() {
        let t = tuple(1, 2, 100, 200);
        assert_eq!(t.reversed().reversed(), t);
        assert_ne!(t.reversed(), t);
        assert_eq!(t.reversed().src_port, 200);
    }

    #[test]
    fn hash_is_deterministic_and_direction_sensitive() {
        let t = tuple(1, 2, 100, 200);
        assert_eq!(t.stable_hash(), t.stable_hash());
        assert_ne!(t.stable_hash(), t.reversed().stable_hash());
        assert_ne!(t.stable_hash(), t.stable_hash2());
    }

    #[test]
    fn hash_spreads_similar_tuples() {
        // Consecutive ports must not collide or cluster in low bits.
        let mut seen = std::collections::HashSet::new();
        for port in 0..1000u16 {
            let h = tuple(1, 2, port, 80).stable_hash();
            assert!(seen.insert(h), "collision at port {port}");
        }
        // Low 8 bits should take many values.
        let low: std::collections::HashSet<u8> = (0..1000u16)
            .map(|p| tuple(1, 2, p, 80).stable_hash() as u8)
            .collect();
        assert!(low.len() > 200, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn byte_hash_distinguishes_lengths() {
        assert_ne!(stable_hash_bytes(b""), stable_hash_bytes(b"\0"));
        assert_ne!(stable_hash_bytes(b"abc"), stable_hash_bytes(b"abd"));
        assert_eq!(
            stable_hash_bytes(b"backend-1"),
            stable_hash_bytes(b"backend-1")
        );
    }

    #[test]
    fn flow_hash_memoizes_and_tracks_mutation() {
        let mut p = Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1111,
            2222,
            8,
        );
        let h = p.flow_hash();
        assert_eq!(p.cached_flow_hash(), Some(h));
        assert_eq!(h, packet_flow_hash(&p), "cache agrees with recompute");

        // Rewriting a header (NAT-style) must produce a fresh, different hash.
        p.ipv4_mut().unwrap().set_src(Ipv4Addr::new(192, 168, 0, 7));
        assert_eq!(p.cached_flow_hash(), None);
        let h2 = p.flow_hash();
        assert_ne!(h, h2);
        assert_eq!(h2, packet_flow_hash(&p));
    }

    #[test]
    fn flow_hash_falls_back_to_bytes_for_unparseable_frames() {
        let mut p = Packet::from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let h = p.flow_hash();
        assert_eq!(h, stable_hash_bytes(&[0xDE, 0xAD, 0xBE, 0xEF]));
    }

    #[test]
    fn non_transport_rejected() {
        let mut p = Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::LOCALHOST,
            Ipv4Addr::LOCALHOST,
            1,
            2,
            0,
        );
        p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
        assert!(FiveTuple::of(&p).is_err());
    }
}
