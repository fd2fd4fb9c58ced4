//! Stateful source NAT.
//!
//! A realistic stateful network function for the isolated pipelines: it
//! owns a translation table (exactly the kind of state the SFI layer
//! protects and the checkpoint layer can snapshot), rewrites headers in
//! place, and handles both traffic directions through a single operator.
//!
//! Outbound packets (source inside `inside_net`) get their source
//! rewritten to `(nat_ip, allocated port)`; inbound packets addressed to
//! `nat_ip` are translated back to the original endpoint. Both
//! directions are [`FlowTable`]s, so port assignment depends only on the
//! order packets arrive in. Every rewrite patches the IPv4 and transport
//! checksums incrementally ([`Packet::rewrite_endpoints`]): a packet
//! that arrives corrupted leaves corrupted, as a middlebox should leave
//! it, and the payload is never read.

use crate::batch::PacketBatch;
use crate::flowtable::{hash_word, FlowTable, Pack, TableKey};
use crate::headers::ipv4::IpProto;
use crate::packet::Packet;
use crate::pipeline::Operator;
use std::net::Ipv4Addr;

/// True when `addr` lies inside `net/len` (host-order network bits).
fn prefix_contains_addr(net: u32, len: u8, addr: Ipv4Addr) -> bool {
    let mask = if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    };
    (u32::from(addr) & mask) == net & mask
}

/// The outbound table's key: the *original* inside endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InsideKey {
    ip: Ipv4Addr,
    port: u16,
    proto: IpProto,
}

impl TableKey for InsideKey {
    fn table_hash(&self) -> u64 {
        hash_word(
            u64::from(u32::from(self.ip)) << 24
                | u64::from(self.port) << 8
                | u64::from(u8::from(self.proto)),
        )
    }
}

/// Address and port in network order, then the protocol number: 7 bytes.
impl Pack for InsideKey {
    const WIDTH: usize = 7;

    fn pack(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.ip.octets());
        out[4..6].copy_from_slice(&self.port.to_be_bytes());
        out[6] = u8::from(self.proto);
    }

    fn unpack(b: &[u8]) -> Option<Self> {
        let b: &[u8; 7] = b.try_into().ok()?;
        Some(InsideKey {
            ip: Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            port: u16::from_be_bytes([b[4], b[5]]),
            proto: IpProto::from(b[6]),
        })
    }
}

/// The inbound table's key: an allocated port of the NAT address. Port
/// numbers are a separate space per protocol.
impl TableKey for (u16, IpProto) {
    fn table_hash(&self) -> u64 {
        hash_word(u64::from(self.0) << 8 | u64::from(u8::from(self.1)))
    }
}

/// The port in network order, then the protocol number: 3 bytes.
impl Pack for (u16, IpProto) {
    const WIDTH: usize = 3;

    fn pack(&self, out: &mut [u8]) {
        out[..2].copy_from_slice(&self.0.to_be_bytes());
        out[2] = u8::from(self.1);
    }

    fn unpack(b: &[u8]) -> Option<Self> {
        let b: &[u8; 3] = b.try_into().ok()?;
        Some((u16::from_be_bytes([b[0], b[1]]), IpProto::from(b[2])))
    }
}

/// Statistics for the NAT data path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NatStats {
    /// Outbound packets translated.
    pub outbound: u64,
    /// Inbound packets translated back.
    pub inbound: u64,
    /// Packets forwarded untouched (neither direction applies).
    pub passed: u64,
    /// Packets dropped: port pool exhausted or unknown inbound mapping.
    pub dropped: u64,
}

/// A stateful source-NAT operator.
pub struct SourceNat {
    nat_ip: Ipv4Addr,
    inside_net: u32,
    inside_len: u8,
    /// inside endpoint -> allocated NAT port.
    out_map: FlowTable<InsideKey, u16>,
    /// NAT port (+proto) -> inside endpoint.
    in_map: FlowTable<(u16, IpProto), InsideKey>,
    next_port: u16,
    port_lo: u16,
    port_hi: u16,
    stats: NatStats,
}

impl SourceNat {
    /// NATs traffic from `inside_net/inside_len` to `nat_ip`, allocating
    /// external ports from `ports` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics on an empty port range or a prefix length over 32.
    pub fn new(
        nat_ip: Ipv4Addr,
        inside_net: Ipv4Addr,
        inside_len: u8,
        ports: std::ops::RangeInclusive<u16>,
    ) -> Self {
        assert!(inside_len <= 32, "prefix length {inside_len} out of range");
        assert!(!ports.is_empty(), "port pool must be non-empty");
        let (port_lo, port_hi) = (*ports.start(), *ports.end());
        Self {
            nat_ip,
            inside_net: u32::from(inside_net),
            inside_len,
            out_map: FlowTable::new(),
            in_map: FlowTable::new(),
            next_port: port_lo,
            port_lo,
            port_hi,
            stats: NatStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> NatStats {
        self.stats
    }

    /// Active translations.
    pub fn active_mappings(&self) -> usize {
        self.out_map.len()
    }

    /// Releases a translation (connection teardown / timeout driven by
    /// the control plane). Returns true if a mapping existed.
    pub fn release(&mut self, inside_ip: Ipv4Addr, inside_port: u16, proto: IpProto) -> bool {
        let key = InsideKey {
            ip: inside_ip,
            port: inside_port,
            proto,
        };
        if let Some(port) = self.out_map.remove(&key) {
            self.in_map.remove(&(port, proto));
            true
        } else {
            false
        }
    }

    /// The NAT port of `key`, allocated on first sight (one probe of
    /// the outbound table either way); `None` when the pool is spent.
    fn allocate_port(&mut self, key: InsideKey) -> Option<u16> {
        let Self {
            out_map,
            in_map,
            next_port,
            port_lo,
            port_hi,
            ..
        } = self;
        let allocated = out_map.get_or_insert_with(key.table_hash(), key, || {
            let pool = u32::from(*port_hi) - u32::from(*port_lo) + 1;
            for _ in 0..pool {
                let candidate = *next_port;
                *next_port = if candidate == *port_hi {
                    *port_lo
                } else {
                    candidate + 1
                };
                if !in_map.contains_key(&(candidate, key.proto)) {
                    in_map.insert((candidate, key.proto), key);
                    return Some(candidate);
                }
            }
            None
        });
        allocated.copied()
    }

    /// Rewrites one packet; `true` means forward, `false` means drop.
    fn translate(&mut self, packet: &mut Packet) -> bool {
        let Ok(flow) = packet.flow() else {
            self.stats.passed += 1;
            return true;
        };
        if prefix_contains_addr(self.inside_net, self.inside_len, flow.src_ip) {
            // Outbound: rewrite source to the NAT endpoint.
            let key = InsideKey {
                ip: flow.src_ip,
                port: flow.src_port,
                proto: flow.proto,
            };
            let Some(nat_port) = self.allocate_port(key) else {
                self.stats.dropped += 1;
                return false;
            };
            packet
                .rewrite_endpoints(Some((self.nat_ip, nat_port)), None)
                .expect("the packet yielded a five-tuple");
            self.stats.outbound += 1;
            true
        } else if flow.dst_ip == self.nat_ip {
            // Inbound: translate the NAT endpoint back to the original.
            let Some(&key) = self.in_map.get(&(flow.dst_port, flow.proto)) else {
                self.stats.dropped += 1;
                return false;
            };
            packet
                .rewrite_endpoints(None, Some((key.ip, key.port)))
                .expect("the packet yielded a five-tuple");
            self.stats.inbound += 1;
            true
        } else {
            self.stats.passed += 1;
            true
        }
    }
}

impl Operator for SourceNat {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        batch.retain_mut(|p| self.translate(p));
        batch
    }

    fn name(&self) -> &str {
        "source-nat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;

    const NAT_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

    fn nat() -> SourceNat {
        SourceNat::new(NAT_IP, Ipv4Addr::new(10, 0, 0, 0), 8, 40_000..=40_003)
    }

    fn outbound(src_port: u16) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(8, 8, 8, 8),
            src_port,
            53,
            8,
        )
    }

    #[test]
    fn outbound_rewrites_source_and_checksums() {
        let mut n = nat();
        let mut p = outbound(5555);
        assert!(n.translate(&mut p));
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.src(), NAT_IP);
        assert!(ip.checksum_ok());
        let udp = p.udp().unwrap();
        assert_eq!(udp.src_port(), 40_000);
        assert!(udp.checksum_ok(ip.src(), ip.dst()));
        assert_eq!(n.stats().outbound, 1);
        assert_eq!(n.active_mappings(), 1);
    }

    #[test]
    fn same_connection_reuses_port() {
        let mut n = nat();
        let mut a = outbound(5555);
        let mut b = outbound(5555);
        n.translate(&mut a);
        n.translate(&mut b);
        assert_eq!(a.udp().unwrap().src_port(), b.udp().unwrap().src_port());
        assert_eq!(n.active_mappings(), 1);
    }

    #[test]
    fn inbound_translates_back() {
        let mut n = nat();
        let mut out = outbound(5555);
        n.translate(&mut out);
        let nat_port = out.udp().unwrap().src_port();

        // Return traffic to the NAT endpoint.
        let mut back = Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(8, 8, 8, 8),
            NAT_IP,
            53,
            nat_port,
            8,
        );
        assert!(n.translate(&mut back));
        let ip = back.ipv4().unwrap();
        assert_eq!(ip.dst(), Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(back.udp().unwrap().dst_port(), 5555);
        assert!(back.udp().unwrap().checksum_ok(ip.src(), ip.dst()));
        assert_eq!(n.stats().inbound, 1);
    }

    #[test]
    fn unknown_inbound_dropped() {
        let mut n = nat();
        let mut stray = Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(8, 8, 8, 8),
            NAT_IP,
            53,
            40_002,
            0,
        );
        assert!(!n.translate(&mut stray));
        assert_eq!(n.stats().dropped, 1);
    }

    #[test]
    fn unrelated_traffic_passes_untouched() {
        let mut n = nat();
        let mut p = Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(8, 8, 4, 4),
            1234,
            53,
            0,
        );
        let before = p.as_slice().to_vec();
        assert!(n.translate(&mut p));
        assert_eq!(p.as_slice(), &before[..]);
        assert_eq!(n.stats().passed, 1);
    }

    #[test]
    fn port_pool_exhaustion_drops() {
        let mut n = nat();
        // Pool holds 4 ports (40000..=40003); the fifth connection fails.
        for i in 0..4 {
            let mut p = outbound(6000 + i);
            assert!(n.translate(&mut p), "connection {i}");
        }
        let mut fifth = outbound(6004);
        assert!(!n.translate(&mut fifth));
        assert_eq!(n.stats().dropped, 1);
        // Releasing one frees a port for a new connection.
        assert!(n.release(Ipv4Addr::new(10, 1, 2, 3), 6000, IpProto::Udp));
        let mut again = outbound(6004);
        assert!(n.translate(&mut again));
        assert!(!n.release(Ipv4Addr::new(10, 1, 2, 3), 9999, IpProto::Udp));
    }

    #[test]
    fn allocation_skips_colliding_ports() {
        // Round-robin allocation must walk over in-use candidates: after
        // a release, `next_port` can point at a port that is still held
        // by another connection — the allocator must skip it, not hand
        // the same external port to two inside endpoints.
        let mut n = nat();
        for i in 0..4 {
            let mut p = outbound(6000 + i);
            assert!(n.translate(&mut p));
        }
        // Free 40_001 only; next_port has wrapped to 40_000 (in use).
        assert!(n.release(Ipv4Addr::new(10, 1, 2, 3), 6001, IpProto::Udp));
        let mut fresh = outbound(7777);
        assert!(n.translate(&mut fresh));
        assert_eq!(
            fresh.udp().unwrap().src_port(),
            40_001,
            "allocator must skip the three in-use ports and land on the freed one"
        );
        // No double-grant: all four mappings point at distinct ports.
        assert_eq!(n.active_mappings(), 4);
        let mut fifth = outbound(8888);
        assert!(!n.translate(&mut fifth), "pool genuinely full again");
    }

    #[test]
    fn proto_spaces_do_not_collide() {
        // The same external port number is independent per protocol: a
        // UDP mapping on 40_000 must not block the TCP allocator, and
        // inbound lookups must respect the protocol key.
        use crate::headers::tcp::TcpFlags;
        let mut n = nat();
        // Exhaust the pool with UDP mappings.
        for i in 0..4 {
            let mut p = outbound(6000 + i);
            assert!(n.translate(&mut p));
        }
        let mut overflow = outbound(6004);
        assert!(!n.translate(&mut overflow), "UDP space is full");
        // TCP still allocates: port numbers are keyed by protocol.
        let mut t = Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(8, 8, 8, 8),
            5000,
            443,
            TcpFlags(TcpFlags::SYN),
            0,
        );
        assert!(n.translate(&mut t), "TCP draws from its own port space");
        assert_eq!(n.active_mappings(), 5);
    }

    #[test]
    fn tcp_roundtrip() {
        use crate::headers::tcp::TcpFlags;
        let mut n = nat();
        let mut syn = Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 9, 9, 9),
            Ipv4Addr::new(1, 1, 1, 1),
            43210,
            443,
            TcpFlags(TcpFlags::SYN),
            0,
        );
        assert!(n.translate(&mut syn));
        let ip = syn.ipv4().unwrap();
        assert_eq!(ip.src(), NAT_IP);
        let nat_port = syn.tcp().unwrap().src_port();
        let seg = (ip.total_len() as usize - ip.header_len()) as u16;
        assert!(syn.tcp().unwrap().checksum_ok(ip.src(), ip.dst(), seg));

        let mut ack = Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(1, 1, 1, 1),
            NAT_IP,
            443,
            nat_port,
            TcpFlags(TcpFlags::ACK),
            0,
        );
        assert!(n.translate(&mut ack));
        assert_eq!(ack.ipv4().unwrap().dst(), Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(ack.tcp().unwrap().dst_port(), 43210);
    }

    #[test]
    fn operator_batch_roundtrip_via_pipeline() {
        use crate::pipeline::Pipeline;
        let mut p = Pipeline::new().add(nat());
        let batch: PacketBatch = (0..3).map(|i| outbound(7000 + i)).collect();
        let out = p.run_batch(batch);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|pk| pk.ipv4().unwrap().src() == NAT_IP));
    }

    #[test]
    fn both_tables_restore_from_their_packed_images() {
        use rbs_checkpoint::{checkpoint, restore, Snapshot};
        let mut n = nat();
        for port in [5555, 5556, 5557] {
            assert!(n.translate(&mut outbound(port)));
        }
        let (out_cp, in_cp) = (checkpoint(&n.out_map), checkpoint(&n.in_map));
        assert!(matches!(&out_cp.root, Snapshot::Bytes(image) if image.len() == 3 * (7 + 2)));
        assert!(matches!(&in_cp.root, Snapshot::Bytes(image) if image.len() == 3 * (3 + 7)));
        let out_map: FlowTable<InsideKey, u16> = restore(&out_cp).unwrap();
        let in_map: FlowTable<(u16, IpProto), InsideKey> = restore(&in_cp).unwrap();
        for (key, port) in n.out_map.iter() {
            assert_eq!(out_map.get(key), Some(port));
            assert_eq!(in_map.get(&(*port, key.proto)), Some(key));
        }
        assert_eq!(checkpoint(&out_map).root, out_cp.root);
        assert_eq!(checkpoint(&in_map).root, in_cp.root);
    }

    #[test]
    #[should_panic(expected = "port pool")]
    fn empty_pool_rejected() {
        #[allow(clippy::reversed_empty_ranges)]
        SourceNat::new(NAT_IP, Ipv4Addr::new(10, 0, 0, 0), 8, 2..=1);
    }
}
