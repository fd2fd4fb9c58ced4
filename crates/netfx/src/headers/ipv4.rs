//! IPv4 header (RFC 791), with options and header checksum support.

use crate::checksum::{self, Checksum};
use crate::packet::PacketError;
use std::net::Ipv4Addr;

/// Minimum IPv4 header length (IHL = 5, no options).
pub const IPV4_MIN_HDR_LEN: usize = 20;

/// IP protocol numbers this framework understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpProto {
    /// ICMP, protocol 1 (recognized, not parsed further).
    Icmp,
    /// TCP, protocol 6.
    Tcp,
    /// UDP, protocol 17.
    Udp,
    /// Anything else, carried verbatim.
    Other(u8),
}

impl From<u8> for IpProto {
    fn from(raw: u8) -> Self {
        match raw {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

impl From<IpProto> for u8 {
    fn from(p: IpProto) -> u8 {
        match p {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(raw) => raw,
        }
    }
}

fn check_ipv4(data: &[u8]) -> Result<usize, PacketError> {
    if data.len() < IPV4_MIN_HDR_LEN {
        return Err(PacketError::Truncated {
            header: "ipv4",
            needed: IPV4_MIN_HDR_LEN,
            have: data.len(),
        });
    }
    let version = data[0] >> 4;
    if version != 4 {
        return Err(PacketError::BadField {
            header: "ipv4",
            field: "version",
            value: u64::from(version),
        });
    }
    let ihl = (data[0] & 0x0F) as usize;
    if ihl < 5 {
        return Err(PacketError::BadField {
            header: "ipv4",
            field: "ihl",
            value: ihl as u64,
        });
    }
    let hdr_len = ihl * 4;
    if data.len() < hdr_len {
        return Err(PacketError::Truncated {
            header: "ipv4-options",
            needed: hdr_len,
            have: data.len(),
        });
    }
    Ok(hdr_len)
}

/// Immutable view of an IPv4 header.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4Hdr<'a> {
    data: &'a [u8],
    hdr_len: usize,
}

impl<'a> Ipv4Hdr<'a> {
    /// Wraps `data`, which must start at the IPv4 version/IHL byte.
    ///
    /// Validates version, IHL, and that the full (options-included)
    /// header is present.
    pub fn parse(data: &'a [u8]) -> Result<Self, PacketError> {
        let hdr_len = check_ipv4(data)?;
        Ok(Self { data, hdr_len })
    }

    /// Header length in bytes (20..=60).
    pub fn header_len(&self) -> usize {
        self.hdr_len
    }

    /// Differentiated services / TOS byte.
    pub fn dscp_ecn(&self) -> u8 {
        self.data[1]
    }

    /// Total datagram length (header + payload) from the header field.
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.data[2], self.data[3]])
    }

    /// Identification field.
    pub fn identification(&self) -> u16 {
        u16::from_be_bytes([self.data[4], self.data[5]])
    }

    /// True if the Don't Fragment flag is set.
    pub fn dont_fragment(&self) -> bool {
        self.data[6] & 0x40 != 0
    }

    /// True if the More Fragments flag is set.
    pub fn more_fragments(&self) -> bool {
        self.data[6] & 0x20 != 0
    }

    /// Fragment offset in 8-byte units.
    pub fn fragment_offset(&self) -> u16 {
        u16::from_be_bytes([self.data[6] & 0x1F, self.data[7]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.data[8]
    }

    /// Payload protocol.
    pub fn protocol(&self) -> IpProto {
        self.data[9].into()
    }

    /// Header checksum field as stored.
    pub fn header_checksum(&self) -> u16 {
        u16::from_be_bytes([self.data[10], self.data[11]])
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.data[12], self.data[13], self.data[14], self.data[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.data[16], self.data[17], self.data[18], self.data[19])
    }

    /// Options bytes (empty when IHL = 5).
    pub fn options(&self) -> &'a [u8] {
        &self.data[IPV4_MIN_HDR_LEN..self.hdr_len]
    }

    /// True if the stored header checksum is consistent.
    pub fn checksum_ok(&self) -> bool {
        checksum::verify(&self.data[..self.hdr_len])
    }
}

/// Mutable view of an IPv4 header.
#[derive(Debug)]
pub struct Ipv4HdrMut<'a> {
    data: &'a mut [u8],
    hdr_len: usize,
}

impl<'a> Ipv4HdrMut<'a> {
    /// Wraps `data`; see [`Ipv4Hdr::parse`].
    pub fn parse(data: &'a mut [u8]) -> Result<Self, PacketError> {
        let hdr_len = check_ipv4(data)?;
        Ok(Self { data, hdr_len })
    }

    /// Reborrows as an immutable view.
    pub fn as_ref(&self) -> Ipv4Hdr<'_> {
        Ipv4Hdr {
            data: self.data,
            hdr_len: self.hdr_len,
        }
    }

    /// Sets the total datagram length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.data[2..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Sets the identification field.
    pub fn set_identification(&mut self, id: u16) {
        self.data[4..6].copy_from_slice(&id.to_be_bytes());
    }

    /// Sets the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.data[8] = ttl;
    }

    /// Decrements the TTL, saturating at zero; returns the new value.
    ///
    /// A router drops the packet when this reaches zero; see
    /// [`crate::operators::TtlDecrement`].
    pub fn decrement_ttl(&mut self) -> u8 {
        self.data[8] = self.data[8].saturating_sub(1);
        self.data[8]
    }

    /// Decrements the TTL, saturating at zero, and patches the stored
    /// header checksum for the one word that changed (RFC 1624, see
    /// [`checksum::adjust`]) — the rest of the header, options included,
    /// is never read. Returns the new TTL.
    ///
    /// The checksum is *updated*, not repaired: it verifies afterwards
    /// exactly when it did before, and on a header that verified it is
    /// bit-equal to [`update_checksum`](Self::update_checksum)'s.
    pub fn decrement_ttl_patching_checksum(&mut self) -> u8 {
        // TTL, protocol and the checksum are adjacent: one bounds check.
        let w = &mut self.data[8..12];
        let ttl = w[0].saturating_sub(1);
        let patched = checksum::adjust(
            u16::from_be_bytes([w[2], w[3]]),
            &[u16::from_be_bytes([w[0], w[1]])],
            &[u16::from_be_bytes([ttl, w[1]])],
        );
        w[0] = ttl;
        w[2..4].copy_from_slice(&patched.to_be_bytes());
        ttl
    }

    /// Sets the payload protocol.
    pub fn set_protocol(&mut self, proto: IpProto) {
        self.data[9] = proto.into();
    }

    /// Sets the source address.
    pub fn set_src(&mut self, addr: Ipv4Addr) {
        self.data[12..16].copy_from_slice(&addr.octets());
    }

    /// Sets the destination address.
    pub fn set_dst(&mut self, addr: Ipv4Addr) {
        self.data[16..20].copy_from_slice(&addr.octets());
    }

    /// Recomputes and stores the header checksum.
    pub fn update_checksum(&mut self) {
        self.data[10] = 0;
        self.data[11] = 0;
        let sum = checksum::checksum(&self.data[..self.hdr_len]);
        self.data[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

/// Starts a TCP/UDP pseudo-header checksum for the given addresses,
/// protocol and L4 length.
pub fn pseudo_header_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: IpProto,
    l4_len: u16,
) -> Checksum {
    let mut c = Checksum::new();
    c.push(&src.octets());
    c.push(&dst.octets());
    c.push_word(u16::from(u8::from(proto)));
    c.push_word(l4_len);
    c
}

/// Writes a complete, checksummed IPv4 header (no options) into `data`.
///
/// Returns the header length written.
///
/// # Panics
///
/// Panics if `data` is shorter than [`IPV4_MIN_HDR_LEN`].
pub fn emit(
    data: &mut [u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: IpProto,
    total_len: u16,
    ttl: u8,
) -> usize {
    assert!(data.len() >= IPV4_MIN_HDR_LEN, "ipv4 emit needs 20 bytes");
    data[0] = 0x45; // version 4, IHL 5
    data[1] = 0;
    data[2..4].copy_from_slice(&total_len.to_be_bytes());
    data[4..6].copy_from_slice(&0u16.to_be_bytes());
    data[6] = 0x40; // DF
    data[7] = 0;
    data[8] = ttl;
    data[9] = proto.into();
    data[10] = 0;
    data[11] = 0;
    data[12..16].copy_from_slice(&src.octets());
    data[16..20].copy_from_slice(&dst.octets());
    let sum = checksum::checksum(&data[..IPV4_MIN_HDR_LEN]);
    data[10..12].copy_from_slice(&sum.to_be_bytes());
    IPV4_MIN_HDR_LEN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = vec![0u8; 28];
        emit(
            &mut b,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 1, 2),
            IpProto::Udp,
            28,
            64,
        );
        b
    }

    #[test]
    fn emit_then_parse() {
        let b = sample();
        let h = Ipv4Hdr::parse(&b).unwrap();
        assert_eq!(h.header_len(), 20);
        assert_eq!(h.total_len(), 28);
        assert_eq!(h.ttl(), 64);
        assert_eq!(h.protocol(), IpProto::Udp);
        assert_eq!(h.src(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(h.dst(), Ipv4Addr::new(192, 168, 1, 2));
        assert!(h.dont_fragment());
        assert!(!h.more_fragments());
        assert_eq!(h.fragment_offset(), 0);
        assert!(h.options().is_empty());
        assert!(h.checksum_ok());
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = sample();
        b[0] = 0x65; // version 6
        match Ipv4Hdr::parse(&b) {
            Err(PacketError::BadField {
                field: "version",
                value: 6,
                ..
            }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut b = sample();
        b[0] = 0x44; // IHL 4 < 5
        assert!(matches!(
            Ipv4Hdr::parse(&b),
            Err(PacketError::BadField { field: "ihl", .. })
        ));
    }

    #[test]
    fn truncated_options_rejected() {
        let mut b = sample();
        b[0] = 0x4F; // IHL 15 -> 60-byte header, but only 28 bytes present
        assert!(matches!(
            Ipv4Hdr::parse(&b),
            Err(PacketError::Truncated {
                header: "ipv4-options",
                ..
            })
        ));
    }

    #[test]
    fn options_exposed() {
        let mut b = vec![0u8; 24];
        emit(
            &mut b,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
            IpProto::Tcp,
            24,
            1,
        );
        b[0] = 0x46; // IHL 6 -> 4 bytes of options
        b[20..24].copy_from_slice(&[1, 2, 3, 4]);
        let h = Ipv4Hdr::parse(&b).unwrap();
        assert_eq!(h.options(), &[1, 2, 3, 4]);
        assert_eq!(h.header_len(), 24);
    }

    #[test]
    fn ttl_decrement_saturates() {
        let mut b = sample();
        let mut h = Ipv4HdrMut::parse(&mut b).unwrap();
        h.set_ttl(1);
        assert_eq!(h.decrement_ttl(), 0);
        assert_eq!(h.decrement_ttl(), 0);
    }

    #[test]
    fn mutation_breaks_then_update_fixes_checksum() {
        let mut b = sample();
        let mut h = Ipv4HdrMut::parse(&mut b).unwrap();
        h.set_dst(Ipv4Addr::new(1, 2, 3, 4));
        assert!(!h.as_ref().checksum_ok());
        h.update_checksum();
        assert!(h.as_ref().checksum_ok());
        assert_eq!(h.as_ref().dst(), Ipv4Addr::new(1, 2, 3, 4));
    }

    #[test]
    fn proto_conversions() {
        assert_eq!(IpProto::from(6), IpProto::Tcp);
        assert_eq!(IpProto::from(17), IpProto::Udp);
        assert_eq!(IpProto::from(1), IpProto::Icmp);
        assert_eq!(IpProto::from(89), IpProto::Other(89));
        assert_eq!(u8::from(IpProto::Tcp), 6);
        assert_eq!(u8::from(IpProto::Other(89)), 89);
    }

    #[test]
    fn pseudo_header_matches_manual() {
        let c = pseudo_header_checksum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            8,
        );
        let mut manual = Checksum::new();
        manual.push(&[10, 0, 0, 1, 10, 0, 0, 2, 0, 17, 0, 8]);
        assert_eq!(c.finish(), manual.finish());
    }
}
