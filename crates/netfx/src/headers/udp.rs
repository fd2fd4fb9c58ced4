//! UDP header (RFC 768).

use crate::headers::ipv4::{pseudo_header_checksum, IpProto};
use crate::packet::PacketError;
use std::net::Ipv4Addr;

/// UDP header length.
pub const UDP_HDR_LEN: usize = 8;

fn check_udp(data: &[u8]) -> Result<(), PacketError> {
    if data.len() < UDP_HDR_LEN {
        return Err(PacketError::Truncated {
            header: "udp",
            needed: UDP_HDR_LEN,
            have: data.len(),
        });
    }
    Ok(())
}

/// Immutable view of a UDP header.
#[derive(Debug, Clone, Copy)]
pub struct UdpHdr<'a> {
    data: &'a [u8],
}

impl<'a> UdpHdr<'a> {
    /// Wraps `data`, which must start at the UDP source-port byte.
    pub fn parse(data: &'a [u8]) -> Result<Self, PacketError> {
        check_udp(data)?;
        Ok(Self { data })
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.data[0], self.data[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.data[2], self.data[3]])
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        u16::from_be_bytes([self.data[4], self.data[5]])
    }

    /// True when the length field is smaller than the minimum legal value.
    pub fn is_empty(&self) -> bool {
        self.len() <= UDP_HDR_LEN as u16
    }

    /// Checksum field as stored (0 means "not computed" in IPv4).
    pub fn checksum(&self) -> u16 {
        u16::from_be_bytes([self.data[6], self.data[7]])
    }

    /// Verifies the checksum against the pseudo-header and payload.
    ///
    /// A stored checksum of zero means "unchecked" and passes per RFC 768.
    /// `data` passed at parse time must contain the full datagram for this
    /// to be meaningful.
    pub fn checksum_ok(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let len = self.len() as usize;
        if len < UDP_HDR_LEN || len > self.data.len() {
            return false;
        }
        let mut c = pseudo_header_checksum(src, dst, IpProto::Udp, self.len());
        c.push(&self.data[..len]);
        c.finish() == 0
    }
}

/// Mutable view of a UDP header.
#[derive(Debug)]
pub struct UdpHdrMut<'a> {
    data: &'a mut [u8],
}

impl<'a> UdpHdrMut<'a> {
    /// Wraps `data`; see [`UdpHdr::parse`].
    pub fn parse(data: &'a mut [u8]) -> Result<Self, PacketError> {
        check_udp(data)?;
        Ok(Self { data })
    }

    /// Reborrows as an immutable view.
    pub fn as_ref(&self) -> UdpHdr<'_> {
        UdpHdr { data: self.data }
    }

    /// Sets the source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.data[0..2].copy_from_slice(&port.to_be_bytes());
    }

    /// Sets the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.data[2..4].copy_from_slice(&port.to_be_bytes());
    }

    /// Sets the length field.
    pub fn set_len(&mut self, len: u16) {
        self.data[4..6].copy_from_slice(&len.to_be_bytes());
    }

    /// Recomputes the checksum over pseudo-header + datagram.
    ///
    /// Stores `0xFFFF` when the sum comes out zero, as RFC 768 requires
    /// (zero is reserved for "no checksum").
    pub fn update_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.data[6] = 0;
        self.data[7] = 0;
        let len = u16::from_be_bytes([self.data[4], self.data[5]]);
        let dgram_len = (len as usize).min(self.data.len());
        let mut c = pseudo_header_checksum(src, dst, IpProto::Udp, len);
        c.push(&self.data[..dgram_len]);
        let mut sum = c.finish();
        if sum == 0 {
            sum = 0xFFFF;
        }
        self.data[6..8].copy_from_slice(&sum.to_be_bytes());
    }
}

/// Writes a complete UDP header (ports + length, checksummed) into `data`,
/// which must contain the whole datagram (header + payload).
///
/// Returns [`UDP_HDR_LEN`].
///
/// # Panics
///
/// Panics if `data` is shorter than [`UDP_HDR_LEN`] or longer than
/// `u16::MAX`.
pub fn emit(data: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> usize {
    assert!(data.len() >= UDP_HDR_LEN, "udp emit needs 8 bytes");
    assert!(data.len() <= u16::MAX as usize, "udp datagram too long");
    let len = data.len() as u16;
    let mut h = UdpHdrMut::parse(data).expect("length asserted above");
    h.set_src_port(src_port);
    h.set_dst_port(dst_port);
    h.set_len(len);
    h.update_checksum(src, dst);
    UDP_HDR_LEN
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn sample() -> Vec<u8> {
        let mut b = vec![0u8; 12];
        b[8..].copy_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD]);
        emit(&mut b, SRC, DST, 1234, 53);
        b
    }

    #[test]
    fn emit_then_parse() {
        let b = sample();
        let h = UdpHdr::parse(&b).unwrap();
        assert_eq!(h.src_port(), 1234);
        assert_eq!(h.dst_port(), 53);
        assert_eq!(h.len(), 12);
        assert!(!h.is_empty());
        assert!(h.checksum_ok(SRC, DST));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            UdpHdr::parse(&[0u8; 7]),
            Err(PacketError::Truncated { header: "udp", .. })
        ));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut b = sample();
        b[9] ^= 0xFF;
        let h = UdpHdr::parse(&b).unwrap();
        assert!(!h.checksum_ok(SRC, DST));
    }

    #[test]
    fn wrong_pseudo_header_fails_checksum() {
        let b = sample();
        let h = UdpHdr::parse(&b).unwrap();
        assert!(!h.checksum_ok(SRC, Ipv4Addr::new(10, 0, 0, 3)));
    }

    #[test]
    fn zero_checksum_passes() {
        let mut b = sample();
        b[6] = 0;
        b[7] = 0;
        let h = UdpHdr::parse(&b).unwrap();
        assert!(h.checksum_ok(SRC, DST));
    }

    #[test]
    fn bogus_length_field_fails_checksum() {
        let mut b = sample();
        b[4..6].copy_from_slice(&100u16.to_be_bytes()); // longer than buffer
        let h = UdpHdr::parse(&b).unwrap();
        assert!(!h.checksum_ok(SRC, DST));
    }

    #[test]
    fn mutators_roundtrip() {
        let mut b = sample();
        let mut h = UdpHdrMut::parse(&mut b).unwrap();
        h.set_src_port(9999);
        h.set_dst_port(80);
        h.update_checksum(SRC, DST);
        let r = h.as_ref();
        assert_eq!(r.src_port(), 9999);
        assert_eq!(r.dst_port(), 80);
        assert!(r.checksum_ok(SRC, DST));
    }

    #[test]
    fn header_only_datagram() {
        let mut b = vec![0u8; UDP_HDR_LEN];
        emit(&mut b, SRC, DST, 1, 2);
        let h = UdpHdr::parse(&b).unwrap();
        assert!(h.is_empty());
        assert!(h.checksum_ok(SRC, DST));
    }
}
