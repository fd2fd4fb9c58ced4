//! The owned [`Packet`] type.
//!
//! A packet is a uniquely-owned byte buffer (a plain `Vec<u8>`) plus a
//! cache of what flow it belongs to. Ownership is the isolation
//! mechanism: a packet handed to another pipeline stage (or protection
//! domain) is *moved*, so the sender can neither observe nor modify it
//! afterwards — the property §3 of the paper builds zero-copy SFI on.
//!
//! # The flow-key cache
//!
//! The same property makes derived facts cheap to keep. The frame bytes
//! are private; the only ways to write them are the `*_mut` views,
//! [`Packet::as_mut_slice`] and [`Packet::rewrite_endpoints`], all of
//! which take `&mut self` — and nothing can alias a `&mut Packet`. So a
//! fact derived from the bytes stays true until one of those methods
//! runs, and each of them knows what it is about to do to it:
//!
//! - every mutable view *drops* the whole cache before handing out the
//!   bytes (a rewritten header may change the flow, or stop the frame
//!   from parsing at all);
//! - [`Packet::rewrite_endpoints`] *maintains* the tuple — it wrote the
//!   four endpoint fields itself and touched nothing the parse branches
//!   on — and drops only the hash;
//! - the traffic generator stamps the *hash* of the tuple it just wrote
//!   and nothing else: a chain that never asks for a key (plain
//!   forwarding) should not pay for one.
//!
//! [`Packet::flow`] therefore parses the headers at most once, and
//! [`Packet::flow_key`] hashes the tuple at most once, per distinct
//! tuple the packet carries through a chain — however many stateful
//! operators ask. The cache is 24 bytes; a `Packet` is 48.

use crate::checksum;
use crate::flow::FiveTuple;
use crate::headers::ethernet::{self, EtherType, EthernetHdr, EthernetHdrMut, MacAddr};
use crate::headers::icmp::{self, IcmpHdr, IcmpHdrMut, IcmpType, ICMP_ECHO_HDR_LEN};
use crate::headers::ipv4::{self, IpProto, Ipv4Hdr, Ipv4HdrMut, IPV4_MIN_HDR_LEN};
use crate::headers::tcp::{self, TcpFlags, TcpHdr, TcpHdrMut, TCP_MIN_HDR_LEN};
use crate::headers::udp::{self, UdpHdr, UdpHdrMut, UDP_HDR_LEN};
use crate::headers::ETHERNET_HDR_LEN;
use std::fmt;
use std::net::Ipv4Addr;

/// Errors from parsing or constructing packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// A header needs more bytes than the buffer holds.
    Truncated {
        /// Which header was being parsed.
        header: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// A header field holds an illegal value.
    BadField {
        /// Which header was being parsed.
        header: &'static str,
        /// Which field was invalid.
        field: &'static str,
        /// The offending value, widened.
        value: u64,
    },
    /// The packet's actual next-layer protocol differs from the requested
    /// view (e.g. asking for UDP on a TCP packet).
    WrongProtocol {
        /// The view that was requested.
        expected: &'static str,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated {
                header,
                needed,
                have,
            } => {
                write!(
                    f,
                    "{header} header truncated: need {needed} bytes, have {have}"
                )
            }
            PacketError::BadField {
                header,
                field,
                value,
            } => {
                write!(f, "{header} header has invalid {field} = {value}")
            }
            PacketError::WrongProtocol { expected } => {
                write!(f, "packet does not carry {expected}")
            }
        }
    }
}

impl std::error::Error for PacketError {}

/// What a packet remembers about its own flow (see the module docs for
/// who may change it). A field is meaningful only while its bit in
/// `valid` is set.
///
/// The tuple is kept as three plain words, not as a `FiveTuple`, so that
/// an empty cache is three whole-word stores next to the buffer's three:
/// the generator builds a packet per draw, and a field-by-field write of
/// fourteen odd-sized bytes there is a cost `lane_forward` can see.
#[derive(Clone, Copy)]
struct FlowMeta {
    /// [`crate::flow::packet_flow_hash`] of the frame bytes.
    hash: u64,
    /// [`FiveTuple::of`] the frame bytes: source then destination
    /// address as on the wire, …
    addrs: [u8; 8],
    /// … the ports, and the protocol.
    src_port: u16,
    dst_port: u16,
    proto: IpProto,
    /// Byte offset of the transport header the tuple was read from.
    l4: u8,
    valid: u8,
}

impl FlowMeta {
    const HASH: u8 = 1;
    const TUPLE: u8 = 2;

    const EMPTY: FlowMeta = FlowMeta::stamped(0, 0);

    /// A cache holding `hash` under the `valid` bits and no tuple.
    const fn stamped(hash: u64, valid: u8) -> FlowMeta {
        FlowMeta {
            hash,
            addrs: [0; 8],
            src_port: 0,
            dst_port: 0,
            proto: IpProto::Udp,
            l4: 0,
            valid,
        }
    }

    /// The cached tuple, if there is one.
    #[inline(always)]
    fn tuple(&self) -> Option<FiveTuple> {
        let [s0, s1, s2, s3, d0, d1, d2, d3] = self.addrs;
        (self.valid & Self::TUPLE != 0).then_some(FiveTuple {
            src_ip: Ipv4Addr::new(s0, s1, s2, s3),
            dst_ip: Ipv4Addr::new(d0, d1, d2, d3),
            src_port: self.src_port,
            dst_port: self.dst_port,
            proto: self.proto,
        })
    }

    /// Caches `tuple`, found at transport offset `l4`, under `valid`.
    #[inline(always)]
    fn set_tuple(&mut self, tuple: FiveTuple, l4: usize, valid: u8) {
        let ([s0, s1, s2, s3], [d0, d1, d2, d3]) = (tuple.src_ip.octets(), tuple.dst_ip.octets());
        self.addrs = [s0, s1, s2, s3, d0, d1, d2, d3];
        self.src_port = tuple.src_port;
        self.dst_port = tuple.dst_port;
        self.proto = tuple.proto;
        // An IPv4 header is at most 60 bytes, so `l4 <= 74`.
        self.l4 = l4 as u8;
        self.valid = valid;
    }
}

/// An owned network packet: Ethernet frame bytes plus the flow-key cache.
pub struct Packet {
    buf: Vec<u8>,
    flow: FlowMeta,
}

impl Packet {
    /// Wraps raw frame bytes; no validation is performed until a header
    /// view is requested.
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Self {
            buf,
            flow: FlowMeta::EMPTY,
        }
    }

    /// Wraps frame bytes whose flow hash the caller already knows — the
    /// generator's constructor: the whole packet is written once, with
    /// no read-modify-write of the cache it has just initialised.
    /// `hash` is held to [`Packet::set_cached_flow_hash`]'s contract.
    pub(crate) fn with_flow_hash(buf: Vec<u8>, hash: u64) -> Self {
        Self {
            buf,
            flow: FlowMeta::stamped(hash, FlowMeta::HASH),
        }
    }

    /// Wraps a byte slice by copying it into a fresh buffer.
    pub fn from_slice(bytes: &[u8]) -> Self {
        Self::from_bytes(bytes.to_vec())
    }

    /// The memoized flow hash, if one has been computed (or stamped by
    /// the generator) since the last mutable access.
    pub fn cached_flow_hash(&self) -> Option<u64> {
        (self.flow.valid & FlowMeta::HASH != 0).then_some(self.flow.hash)
    }

    /// Stamps the memoized flow hash.
    ///
    /// The value must equal what [`crate::flow::packet_flow_hash`] would
    /// compute for the current frame bytes — stamping anything else makes
    /// flow-affine dispatch silently unstable. Callers that cannot
    /// guarantee that should let [`Packet::flow_hash`]
    /// (first access) compute it instead.
    pub fn set_cached_flow_hash(&mut self, hash: u64) {
        self.flow.hash = hash;
        self.flow.valid |= FlowMeta::HASH;
    }

    /// Drops the whole flow-key cache; every mutable view calls this
    /// before it hands out the bytes.
    fn invalidate_flow(&mut self) {
        self.flow.valid = 0;
    }

    /// The packet's five-tuple, parsed at most once: the answer is kept
    /// until a mutable view is taken, and [`Packet::rewrite_endpoints`]
    /// keeps it current. Fails as [`FiveTuple::of`] does; a failure is
    /// not cached.
    #[inline]
    pub fn flow(&mut self) -> Result<FiveTuple, PacketError> {
        if let Some(tuple) = self.flow.tuple() {
            return Ok(tuple);
        }
        let (tuple, l4) = self.parse_flow()?;
        self.flow
            .set_tuple(tuple, l4, self.flow.valid | FlowMeta::TUPLE);
        // The parsed value, not a re-read of the cache: a load of fields
        // just stored is only as cheap as their layout lets store
        // forwarding be (one wide load over narrower stores stalls until
        // they retire), and the value is in registers anyway.
        Ok(tuple)
    }

    /// The five-tuple and its [`FiveTuple::stable_hash`], each computed
    /// at most once — the key every `FiveTuple`-keyed flow table takes
    /// (`FlowTable::get_hashed`), so the operators of a chain that see
    /// the same tuple share one hash of it.
    #[inline]
    pub fn flow_key(&mut self) -> Result<(FiveTuple, u64), PacketError> {
        let tuple = self.flow()?;
        if self.flow.valid & FlowMeta::HASH != 0 {
            // The frame parses, so the cached flow hash is the tuple's.
            return Ok((tuple, self.flow.hash));
        }
        let hash = tuple.stable_hash();
        self.set_cached_flow_hash(hash);
        Ok((tuple, hash))
    }

    /// [`Packet::flow`] through a shared reference: the cached tuple
    /// when there is one, a parse that caches nothing otherwise.
    #[inline(always)]
    pub(crate) fn peek_flow(&self) -> Result<FiveTuple, PacketError> {
        match self.flow.tuple() {
            Some(tuple) => Ok(tuple),
            None => self.parse_flow().map(|(tuple, _)| tuple),
        }
    }

    /// Reads the five-tuple, and the transport offset it was found at,
    /// from the frame bytes.
    #[inline(always)]
    fn parse_flow(&self) -> Result<(FiveTuple, usize), PacketError> {
        let (l4, proto) = self.locate_transport()?;
        let b = &self.buf[..];
        // One slice (one bounds check) per header region.
        let addrs = &b[ETHERNET_HDR_LEN + 12..ETHERNET_HDR_LEN + 20];
        let ports = &b[l4..l4 + 4];
        let tuple = FiveTuple {
            src_ip: Ipv4Addr::new(addrs[0], addrs[1], addrs[2], addrs[3]),
            dst_ip: Ipv4Addr::new(addrs[4], addrs[5], addrs[6], addrs[7]),
            src_port: u16::from_be_bytes([ports[0], ports[1]]),
            dst_port: u16::from_be_bytes([ports[2], ports[3]]),
            proto,
        };
        Ok((tuple, l4))
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True for a zero-length buffer (never a valid frame).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The raw frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The raw frame bytes, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.invalidate_flow();
        &mut self.buf
    }

    /// Consumes the packet, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Takes the packet's buffer, leaving an empty one (no allocation)
    /// and an empty cache: how a spent packet inside a batch hands its
    /// buffer over to be rewritten without leaving the batch.
    pub(crate) fn take_bytes(&mut self) -> Vec<u8> {
        self.invalidate_flow();
        std::mem::take(&mut self.buf)
    }

    /// Byte capacity of the packet's buffer.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Ethernet header view.
    pub fn ethernet(&self) -> Result<EthernetHdr<'_>, PacketError> {
        EthernetHdr::parse(&self.buf)
    }

    /// Mutable Ethernet header view.
    pub fn ethernet_mut(&mut self) -> Result<EthernetHdrMut<'_>, PacketError> {
        self.invalidate_flow();
        EthernetHdrMut::parse(&mut self.buf)
    }

    /// IPv4 header view (validates the EtherType first).
    pub fn ipv4(&self) -> Result<Ipv4Hdr<'_>, PacketError> {
        let eth = self.ethernet()?;
        if eth.ethertype() != EtherType::Ipv4 {
            return Err(PacketError::WrongProtocol { expected: "ipv4" });
        }
        Ipv4Hdr::parse(&self.buf[ETHERNET_HDR_LEN..])
    }

    /// Mutable IPv4 header view.
    pub fn ipv4_mut(&mut self) -> Result<Ipv4HdrMut<'_>, PacketError> {
        let eth = self.ethernet()?;
        if eth.ethertype() != EtherType::Ipv4 {
            return Err(PacketError::WrongProtocol { expected: "ipv4" });
        }
        self.invalidate_flow();
        Ipv4HdrMut::parse(&mut self.buf[ETHERNET_HDR_LEN..])
    }

    /// Byte offset of the L4 header, validating L2/L3 on the way.
    fn l4_offset(&self, want: IpProto, name: &'static str) -> Result<usize, PacketError> {
        let ip = self.ipv4()?;
        if ip.protocol() != want {
            return Err(PacketError::WrongProtocol { expected: name });
        }
        Ok(ETHERNET_HDR_LEN + ip.header_len())
    }

    /// Byte offset and protocol of the transport header: the cached
    /// answer when the tuple is cached, [`Packet::locate_transport`]
    /// otherwise.
    #[inline(always)]
    fn transport_offset(&self) -> Result<(usize, IpProto), PacketError> {
        if self.flow.valid & FlowMeta::TUPLE != 0 {
            return Ok((usize::from(self.flow.l4), self.flow.proto));
        }
        self.locate_transport()
    }

    /// Locates the transport header of a TCP or UDP packet in one pass:
    /// its byte offset and protocol, with every check the
    /// `ipv4()` → `udp()`/`tcp()` view chain makes (and the same error
    /// when one fails). At least the first [`UDP_HDR_LEN`] bytes of the
    /// transport header — a full header for TCP — lie within the frame.
    ///
    /// A non-first IPv4 fragment is rejected (`BadField`,
    /// `fragment_offset`): what follows its IP header is payload, not
    /// ports. The first fragment — offset 0, "more fragments" set —
    /// carries the transport header and is a flow like any other.
    ///
    /// The common frame (Ethernet II, IPv4 without options, unfragmented
    /// or a first fragment, UDP or option-less TCP) is recognised from
    /// one length check and five fixed-offset reads; anything else takes
    /// the view chain. `inline(always)` for the reason given on
    /// [`crate::FiveTuple::of`].
    #[inline(always)]
    fn locate_transport(&self) -> Result<(usize, IpProto), PacketError> {
        const L4: usize = ETHERNET_HDR_LEN + IPV4_MIN_HDR_LEN;
        let b = &self.buf[..];
        if b.len() >= L4 + UDP_HDR_LEN
            && b[12..14] == [0x08, 0x00]
            && b[14] == 0x45
            && (b[ETHERNET_HDR_LEN + 6] & 0x1F) | b[ETHERNET_HDR_LEN + 7] == 0
        {
            match IpProto::from(b[ETHERNET_HDR_LEN + 9]) {
                IpProto::Udp => return Ok((L4, IpProto::Udp)),
                IpProto::Tcp if b.len() >= L4 + TCP_MIN_HDR_LEN && b[L4 + 12] >> 4 == 5 => {
                    return Ok((L4, IpProto::Tcp));
                }
                _ => {}
            }
        }
        let ip = self.ipv4()?;
        if ip.fragment_offset() != 0 {
            return Err(PacketError::BadField {
                header: "ipv4",
                field: "fragment_offset",
                value: u64::from(ip.fragment_offset()),
            });
        }
        let l4 = ETHERNET_HDR_LEN + ip.header_len();
        match ip.protocol() {
            IpProto::Udp => UdpHdr::parse(&b[l4..]).map(|_| (l4, IpProto::Udp)),
            IpProto::Tcp => TcpHdr::parse(&b[l4..]).map(|_| (l4, IpProto::Tcp)),
            _ => Err(PacketError::WrongProtocol {
                expected: "tcp-or-udp",
            }),
        }
    }

    /// Rewrites the source and/or destination endpoint (address and
    /// port) of a TCP or UDP packet and patches the IPv4 and transport
    /// checksums for exactly the words that changed (RFC 1624, see
    /// [`checksum::adjust`]) — the payload is never read. This is the
    /// one rewrite NAT and the load balancer share.
    ///
    /// Checksums are *updated*, not repaired: a packet that arrived with
    /// a bad checksum leaves with a bad checksum, so the end host still
    /// gets to reject it. A UDP checksum of zero ("none", RFC 768) stays
    /// zero, and a UDP result of zero is stored as `0xFFFF`.
    ///
    /// Fails, leaving the packet untouched, under the same conditions as
    /// [`crate::FiveTuple::of`]. On success the cached tuple is the
    /// rewritten one — the endpoints are the only tuple fields that
    /// changed and no byte the parse branches on was written — and the
    /// cached hash, which was the old tuple's, is dropped.
    ///
    /// `#[inline]`: the load balancer calls this from another crate.
    #[inline]
    pub fn rewrite_endpoints(
        &mut self,
        src: Option<(Ipv4Addr, u16)>,
        dst: Option<(Ipv4Addr, u16)>,
    ) -> Result<(), PacketError> {
        let (l4, proto) = self.transport_offset()?;
        // `transport_offset` vouches for every byte touched below: the
        // IPv4 header ends at `l4`, and at least eight bytes (UDP) or a
        // full TCP header follow it.
        let (ip, l4hdr) = self.buf[ETHERNET_HDR_LEN..].split_at_mut(l4 - ETHERNET_HDR_LEN);
        let be32 = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        let be16 = |b: &[u8]| u16::from_be_bytes([b[0], b[1]]);
        let halves = |v: u32| [(v >> 16) as u16, v as u16];

        // The words both checksums may cover: source and destination
        // address (in the IPv4 header, and again in the pseudo-header),
        // then the two ports.
        let [s0, s1] = halves(be32(&ip[12..16]));
        let [d0, d1] = halves(be32(&ip[16..20]));
        let old = [s0, s1, d0, d1, be16(&l4hdr[0..2]), be16(&l4hdr[2..4])];
        let mut new = old;
        if let Some((addr, port)) = src {
            ip[12..16].copy_from_slice(&addr.octets());
            l4hdr[0..2].copy_from_slice(&port.to_be_bytes());
            let [a0, a1] = halves(u32::from(addr));
            (new[0], new[1], new[4]) = (a0, a1, port);
        }
        if let Some((addr, port)) = dst {
            ip[16..20].copy_from_slice(&addr.octets());
            l4hdr[2..4].copy_from_slice(&port.to_be_bytes());
            let [a0, a1] = halves(u32::from(addr));
            (new[2], new[3], new[5]) = (a0, a1, port);
        }

        let patched = checksum::adjust(be16(&ip[10..12]), &old[..4], &new[..4]);
        ip[10..12].copy_from_slice(&patched.to_be_bytes());

        let join = |hi: u16, lo: u16| Ipv4Addr::from(u32::from(hi) << 16 | u32::from(lo));
        let rewritten = FiveTuple {
            src_ip: join(new[0], new[1]),
            dst_ip: join(new[2], new[3]),
            src_port: new[4],
            dst_port: new[5],
            proto,
        };
        self.flow.set_tuple(rewritten, l4, FlowMeta::TUPLE);

        let at = if proto == IpProto::Udp { 6 } else { 16 };
        let stored = be16(&l4hdr[at..at + 2]);
        if proto == IpProto::Udp && stored == 0 {
            return Ok(());
        }
        let mut patched = checksum::adjust(stored, &old, &new);
        if proto == IpProto::Udp && patched == 0 {
            patched = 0xFFFF;
        }
        l4hdr[at..at + 2].copy_from_slice(&patched.to_be_bytes());
        Ok(())
    }

    /// UDP header view (validates EtherType and IP protocol).
    pub fn udp(&self) -> Result<UdpHdr<'_>, PacketError> {
        let off = self.l4_offset(IpProto::Udp, "udp")?;
        UdpHdr::parse(&self.buf[off..])
    }

    /// Mutable UDP header view.
    pub fn udp_mut(&mut self) -> Result<UdpHdrMut<'_>, PacketError> {
        let off = self.l4_offset(IpProto::Udp, "udp")?;
        self.invalidate_flow();
        UdpHdrMut::parse(&mut self.buf[off..])
    }

    /// TCP header view (validates EtherType and IP protocol).
    pub fn tcp(&self) -> Result<TcpHdr<'_>, PacketError> {
        let off = self.l4_offset(IpProto::Tcp, "tcp")?;
        TcpHdr::parse(&self.buf[off..])
    }

    /// Mutable TCP header view.
    pub fn tcp_mut(&mut self) -> Result<TcpHdrMut<'_>, PacketError> {
        let off = self.l4_offset(IpProto::Tcp, "tcp")?;
        self.invalidate_flow();
        TcpHdrMut::parse(&mut self.buf[off..])
    }

    /// ICMP message view (validates EtherType and IP protocol).
    pub fn icmp(&self) -> Result<IcmpHdr<'_>, PacketError> {
        let off = self.l4_offset(IpProto::Icmp, "icmp")?;
        IcmpHdr::parse(&self.buf[off..])
    }

    /// Mutable ICMP message view.
    pub fn icmp_mut(&mut self) -> Result<IcmpHdrMut<'_>, PacketError> {
        let off = self.l4_offset(IpProto::Icmp, "icmp")?;
        self.invalidate_flow();
        IcmpHdrMut::parse(&mut self.buf[off..])
    }

    /// The L4 payload of a UDP packet.
    pub fn udp_payload(&self) -> Result<&[u8], PacketError> {
        let off = self.l4_offset(IpProto::Udp, "udp")?;
        UdpHdr::parse(&self.buf[off..])?;
        Ok(&self.buf[off + UDP_HDR_LEN..])
    }

    /// Resets `buf` to `total` zero bytes, reusing its allocation when
    /// the capacity suffices — the byte-for-byte equivalent of
    /// `vec![0; total]` without the fresh allocation.
    fn reset_zeroed(buf: &mut Vec<u8>, total: usize) {
        buf.clear();
        buf.resize(total, 0);
    }

    /// Builds a complete Ethernet/IPv4/UDP packet with `payload_len` zero
    /// bytes of payload; all checksums valid.
    #[allow(clippy::too_many_arguments)]
    pub fn build_udp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload_len: usize,
    ) -> Packet {
        Self::build_udp_into(
            Vec::new(),
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            payload_len,
        )
    }

    /// Like [`Packet::build_udp`] but writes into `buf` (typically a
    /// recycled [`crate::pool::PacketPool`] slab), allocating only if the
    /// buffer's capacity is too small. The resulting frame bytes are
    /// identical to the freshly allocated path.
    #[allow(clippy::too_many_arguments)]
    pub fn build_udp_into(
        mut buf: Vec<u8>,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload_len: usize,
    ) -> Packet {
        let udp_len = UDP_HDR_LEN + payload_len;
        let ip_len = IPV4_MIN_HDR_LEN + udp_len;
        let total = ETHERNET_HDR_LEN + ip_len;
        Self::reset_zeroed(&mut buf, total);
        ethernet::emit(&mut buf, src_mac, dst_mac, EtherType::Ipv4);
        ipv4::emit(
            &mut buf[ETHERNET_HDR_LEN..],
            src_ip,
            dst_ip,
            IpProto::Udp,
            ip_len as u16,
            64,
        );
        udp::emit(
            &mut buf[ETHERNET_HDR_LEN + IPV4_MIN_HDR_LEN..],
            src_ip,
            dst_ip,
            src_port,
            dst_port,
        );
        Packet::from_bytes(buf)
    }

    /// Builds a complete Ethernet/IPv4/ICMP echo packet with
    /// `payload_len` zero bytes of echo payload; all checksums valid.
    #[allow(clippy::too_many_arguments)]
    pub fn build_icmp_echo(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        icmp_type: IcmpType,
        identifier: u16,
        sequence: u16,
        payload_len: usize,
    ) -> Packet {
        let icmp_len = ICMP_ECHO_HDR_LEN + payload_len;
        let ip_len = IPV4_MIN_HDR_LEN + icmp_len;
        let total = ETHERNET_HDR_LEN + ip_len;
        let mut buf = Vec::new();
        Self::reset_zeroed(&mut buf, total);
        ethernet::emit(&mut buf, src_mac, dst_mac, EtherType::Ipv4);
        ipv4::emit(
            &mut buf[ETHERNET_HDR_LEN..],
            src_ip,
            dst_ip,
            IpProto::Icmp,
            ip_len as u16,
            64,
        );
        icmp::emit(
            &mut buf[ETHERNET_HDR_LEN + IPV4_MIN_HDR_LEN..],
            icmp_type,
            identifier,
            sequence,
        );
        Packet::from_bytes(buf)
    }

    /// Builds a complete Ethernet/IPv4/TCP packet with `payload_len` zero
    /// bytes of payload; all checksums valid.
    #[allow(clippy::too_many_arguments)]
    pub fn build_tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        payload_len: usize,
    ) -> Packet {
        Self::build_tcp_into(
            Vec::new(),
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            flags,
            payload_len,
        )
    }

    /// Like [`Packet::build_tcp`] but writes into `buf` (typically a
    /// recycled [`crate::pool::PacketPool`] slab), allocating only if the
    /// buffer's capacity is too small.
    #[allow(clippy::too_many_arguments)]
    pub fn build_tcp_into(
        mut buf: Vec<u8>,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        payload_len: usize,
    ) -> Packet {
        let tcp_len = TCP_MIN_HDR_LEN + payload_len;
        let ip_len = IPV4_MIN_HDR_LEN + tcp_len;
        let total = ETHERNET_HDR_LEN + ip_len;
        Self::reset_zeroed(&mut buf, total);
        ethernet::emit(&mut buf, src_mac, dst_mac, EtherType::Ipv4);
        ipv4::emit(
            &mut buf[ETHERNET_HDR_LEN..],
            src_ip,
            dst_ip,
            IpProto::Tcp,
            ip_len as u16,
            64,
        );
        tcp::emit(
            &mut buf[ETHERNET_HDR_LEN + IPV4_MIN_HDR_LEN..],
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            0,
            flags,
        );
        Packet::from_bytes(buf)
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Packet");
        d.field("len", &self.len());
        if let Ok(ip) = self.ipv4() {
            d.field("src", &ip.src())
                .field("dst", &ip.dst())
                .field("proto", &ip.protocol());
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udp_packet() -> Packet {
        Packet::build_udp(
            MacAddr([2, 0, 0, 0, 0, 1]),
            MacAddr([2, 0, 0, 0, 0, 2]),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
            16,
        )
    }

    #[test]
    fn build_udp_is_wellformed() {
        let p = udp_packet();
        assert_eq!(p.len(), 14 + 20 + 8 + 16);
        let eth = p.ethernet().unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = p.ipv4().unwrap();
        assert!(ip.checksum_ok());
        assert_eq!(ip.total_len() as usize, p.len() - 14);
        let u = p.udp().unwrap();
        assert_eq!(u.src_port(), 5000);
        assert_eq!(u.dst_port(), 53);
        assert!(u.checksum_ok(ip.src(), ip.dst()));
        assert_eq!(p.udp_payload().unwrap().len(), 16);
    }

    #[test]
    fn build_tcp_is_wellformed() {
        let p = Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::BROADCAST,
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            80,
            12345,
            TcpFlags(TcpFlags::SYN),
            0,
        );
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.protocol(), IpProto::Tcp);
        let t = p.tcp().unwrap();
        assert!(t.flags().is_syn_only());
        let seg_len = (ip.total_len() as usize - ip.header_len()) as u16;
        assert!(t.checksum_ok(ip.src(), ip.dst(), seg_len));
    }

    #[test]
    fn wrong_protocol_views_rejected() {
        let p = udp_packet();
        assert_eq!(
            p.tcp().unwrap_err(),
            PacketError::WrongProtocol { expected: "tcp" }
        );
        let mut p = p;
        assert!(p.tcp_mut().is_err());
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut p = udp_packet();
        p.ethernet_mut().unwrap().set_ethertype(EtherType::Arp);
        assert_eq!(
            p.ipv4().unwrap_err(),
            PacketError::WrongProtocol { expected: "ipv4" }
        );
        assert!(p.udp().is_err());
    }

    #[test]
    fn empty_packet() {
        let p = Packet::from_slice(&[]);
        assert!(p.is_empty());
        assert!(p.ethernet().is_err());
    }

    #[test]
    fn mutation_via_views() {
        let mut p = udp_packet();
        {
            let mut ip = p.ipv4_mut().unwrap();
            ip.set_ttl(1);
            ip.update_checksum();
        }
        assert_eq!(p.ipv4().unwrap().ttl(), 1);
        assert!(p.ipv4().unwrap().checksum_ok());
    }

    #[test]
    fn mutable_views_invalidate_cached_flow_hash() {
        let mut p = udp_packet();
        p.set_cached_flow_hash(0xABCD);
        assert_eq!(p.cached_flow_hash(), Some(0xABCD));
        let _ = p.ipv4_mut().unwrap();
        assert_eq!(
            p.cached_flow_hash(),
            None,
            "a mutable view may change the flow; the tag must not survive"
        );
        p.set_cached_flow_hash(1);
        let _ = p.as_mut_slice();
        assert_eq!(p.cached_flow_hash(), None);
        p.set_cached_flow_hash(2);
        let _ = p.udp_mut().unwrap();
        assert_eq!(p.cached_flow_hash(), None);
        p.set_cached_flow_hash(3);
        let _ = p.ethernet_mut().unwrap();
        assert_eq!(p.cached_flow_hash(), None);
        p.set_cached_flow_hash(4);
        p.rewrite_endpoints(None, Some((Ipv4Addr::new(10, 9, 9, 9), 53)))
            .unwrap();
        assert_eq!(p.cached_flow_hash(), None);
    }

    #[test]
    fn packet_is_the_buffer_plus_a_24_byte_cache() {
        assert_eq!(std::mem::size_of::<FlowMeta>(), 24);
        assert!(std::mem::size_of::<Packet>() <= 48);
    }

    #[test]
    fn flow_is_remembered_and_rewrite_keeps_it_current() {
        let mut p = udp_packet();
        assert_eq!(p.flow.tuple(), None, "nothing is parsed until asked");
        let (tuple, hash) = p.flow_key().unwrap();
        assert_eq!(p.flow.tuple(), Some(tuple));
        assert_eq!(p.cached_flow_hash(), Some(hash));
        assert_eq!(hash, tuple.stable_hash());

        let nat = (Ipv4Addr::new(203, 0, 113, 1), 40_000);
        p.rewrite_endpoints(Some(nat), None).unwrap();
        let translated = FiveTuple {
            src_ip: nat.0,
            src_port: nat.1,
            ..tuple
        };
        assert_eq!(p.flow.tuple(), Some(translated), "maintained, not dropped");
        assert_eq!(p.cached_flow_hash(), None, "the old tuple's hash is gone");
        assert_eq!(p.flow_key(), Ok((translated, translated.stable_hash())));
        assert_eq!(
            FiveTuple::of(&Packet::from_slice(p.as_slice())),
            Ok(translated)
        );

        let _ = p.ipv4_mut().unwrap();
        assert_eq!(p.flow.tuple(), None, "a mutable view drops the tuple too");
    }

    #[test]
    fn rewrite_endpoints_refuses_non_transport_packets_untouched() {
        let mut p = Packet::build_icmp_echo(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IcmpType::EchoRequest,
            1,
            1,
            8,
        );
        let before = p.as_slice().to_vec();
        p.set_cached_flow_hash(9);
        assert_eq!(
            p.rewrite_endpoints(Some((Ipv4Addr::new(1, 2, 3, 4), 5)), None),
            Err(PacketError::WrongProtocol {
                expected: "tcp-or-udp"
            })
        );
        assert_eq!(p.as_slice(), &before[..]);
        assert_eq!(
            p.cached_flow_hash(),
            Some(9),
            "nothing changed, nothing stale"
        );
    }

    #[test]
    fn build_into_reuses_capacity_and_matches_fresh_bytes() {
        let fresh = udp_packet();
        let recycled = Vec::with_capacity(256);
        let cap_ptr = recycled.as_ptr();
        let p = Packet::build_udp_into(
            recycled,
            MacAddr([2, 0, 0, 0, 0, 1]),
            MacAddr([2, 0, 0, 0, 0, 2]),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
            16,
        );
        assert_eq!(p.as_slice(), fresh.as_slice(), "byte-identical frames");
        assert_eq!(p.as_slice().as_ptr(), cap_ptr, "allocation was reused");
    }

    #[test]
    fn into_bytes_roundtrip() {
        let p = udp_packet();
        let len = p.len();
        let buf = p.into_bytes();
        let p2 = Packet::from_bytes(buf);
        assert_eq!(p2.len(), len);
        assert!(p2.udp().is_ok());
    }

    #[test]
    fn debug_includes_addresses() {
        let p = udp_packet();
        let s = format!("{p:?}");
        assert!(s.contains("10.0.0.1"), "{s}");
        assert!(s.contains("10.0.0.2"), "{s}");
    }

    #[test]
    fn error_display() {
        let e = PacketError::Truncated {
            header: "udp",
            needed: 8,
            have: 3,
        };
        assert_eq!(e.to_string(), "udp header truncated: need 8 bytes, have 3");
        let e = PacketError::WrongProtocol { expected: "tcp" };
        assert_eq!(e.to_string(), "packet does not carry tcp");
        let e = PacketError::BadField {
            header: "ipv4",
            field: "ihl",
            value: 3,
        };
        assert_eq!(e.to_string(), "ipv4 header has invalid ihl = 3");
    }
}
