//! The flow-key cache on `Packet` never disagrees with the frame bytes.
//!
//! A packet remembers its five-tuple and that tuple's hash
//! (`Packet::flow` / `Packet::flow_key`); every way of writing the frame
//! either drops what it may have falsified (the `*_mut` views,
//! `as_mut_slice`) or keeps it current (`rewrite_endpoints`: tuple
//! maintained, hash dropped). The property below drives random sequences
//! of reads, stamps and writes over hostile frames — IP options,
//! truncations, TCP/UDP/ICMP, fragments, stray bytes — and after every
//! step holds the packet to a fresh parse of a *copy of its bytes*,
//! which has no cache to be wrong: same tuple, same error, and a cached
//! hash only ever the hash of those bytes.
//!
//! Mutation-checked: dropping the invalidation from any one of
//! `ethernet_mut`, `ipv4_mut`, `udp_mut`, `tcp_mut`, `icmp_mut` or
//! `as_mut_slice`, or keeping the hash across `rewrite_endpoints`, fails
//! `cache_agrees_with_a_fresh_parse_after_every_step`.
//!
//! Also here: the regression tests for non-first IPv4 fragments, which
//! are not flows — what follows their IP header is payload, not ports.

use proptest::prelude::*;
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::{EtherType, MacAddr};
use rbs_netfx::headers::icmp::IcmpType;
use rbs_netfx::headers::tcp::TcpFlags;
use rbs_netfx::headers::IpProto;
use rbs_netfx::operators::DstPortFilter;
use rbs_netfx::{FiveTuple, FlowTracker, Operator, Packet, PacketBatch, PacketError, SourceNat};
use std::net::Ipv4Addr;

const ETH: usize = 14;

#[derive(Debug, Clone, Copy)]
enum Transport {
    Udp,
    Tcp,
    Icmp,
}

/// A frame to start from: a stock well-formed packet, then damage.
#[derive(Debug, Clone)]
struct Frame {
    transport: Transport,
    src: (u32, u16),
    dst: (u32, u16),
    payload_len: usize,
    /// Words of IPv4 options spliced behind the fixed header (IHL 5..=8).
    option_words: usize,
    /// The raw flags-and-fragment-offset field, when not left at zero.
    fragment_field: Option<u16>,
    /// Single bytes overwritten within the headers.
    overwrites: Vec<(usize, u8)>,
    /// Bytes kept from the front, when the tail is cut off.
    keep: Option<usize>,
}

/// `Some` or `None` of `strategy`, with `Some` one time in `one_in`.
fn rarely<S: Strategy>(one_in: u32, strategy: S) -> impl Strategy<Value = Option<S::Value>> {
    (0..one_in, strategy).prop_map(|(roll, value)| (roll == 0).then_some(value))
}

fn frame() -> impl Strategy<Value = Frame> {
    let transport = prop_oneof![
        3 => Just(Transport::Udp),
        3 => Just(Transport::Tcp),
        1 => Just(Transport::Icmp),
    ];
    // First fragment, DF, and non-first fragments with and without MF.
    let fragment_field = prop_oneof![
        Just(0x2000u16),
        Just(0x4000),
        Just(0x0001),
        Just(0x2005),
        Just(0x1FFF),
        any::<u16>(),
    ];
    let shape = (
        transport,
        (any::<u32>(), any::<u16>()),
        (any::<u32>(), any::<u16>()),
        0usize..24,
    );
    let damage = (
        prop_oneof![3 => Just(0usize), 1 => 1usize..4],
        rarely(3, fragment_field),
        proptest::collection::vec((0usize..64, any::<u8>()), 0..2),
        rarely(5, 0usize..80),
    );
    (shape, damage).prop_map(|(shape, damage)| {
        let (transport, src, dst, payload_len) = shape;
        let (option_words, fragment_field, overwrites, keep) = damage;
        Frame {
            transport,
            src,
            dst,
            payload_len,
            option_words,
            fragment_field,
            overwrites,
            keep,
        }
    })
}

fn bytes_of(f: &Frame) -> Vec<u8> {
    let (src, dst) = (Ipv4Addr::from(f.src.0), Ipv4Addr::from(f.dst.0));
    let (mac, len) = (MacAddr::ZERO, f.payload_len);
    let built = match f.transport {
        Transport::Udp => Packet::build_udp(mac, mac, src, dst, f.src.1, f.dst.1, len),
        Transport::Tcp => {
            let syn = TcpFlags(TcpFlags::SYN);
            Packet::build_tcp(mac, mac, src, dst, f.src.1, f.dst.1, syn, len)
        }
        Transport::Icmp => {
            Packet::build_icmp_echo(mac, mac, src, dst, IcmpType::EchoRequest, f.src.1, 1, len)
        }
    };
    let mut bytes = built.as_slice().to_vec();
    if f.option_words > 0 {
        let at = ETH + 20;
        bytes.splice(at..at, std::iter::repeat_n(1u8, f.option_words * 4));
        bytes[ETH] = 0x40 | (5 + f.option_words) as u8;
        let total = (bytes.len() - ETH) as u16;
        bytes[ETH + 2..ETH + 4].copy_from_slice(&total.to_be_bytes());
    }
    if let Some(field) = f.fragment_field {
        bytes[ETH + 6..ETH + 8].copy_from_slice(&field.to_be_bytes());
    }
    for &(at, value) in &f.overwrites {
        if let Some(b) = bytes.get_mut(at) {
            *b = value;
        }
    }
    bytes.truncate(f.keep.unwrap_or(usize::MAX));
    bytes
}

/// One thing done to the packet. The writes go through every mutable
/// view there is and change bytes the flow depends on.
#[derive(Debug, Clone)]
enum Step {
    Flow,
    FlowKey,
    FlowHash,
    /// `set_cached_flow_hash` with the value its contract demands.
    StampHash,
    EthernetMut(EtherType),
    Ipv4SetSrc(u32),
    Ipv4SetDst(u32),
    Ipv4SetProtocol(IpProto),
    UdpMut(u16),
    TcpMut(u16),
    IcmpMut(u16),
    /// `as_mut_slice`, overwriting one byte (if in range).
    AsMutSlice(usize, u8),
    Rewrite(Option<(u32, u16)>, Option<(u32, u16)>),
}

fn step() -> impl Strategy<Value = Step> {
    let endpoint = || (any::<u32>(), any::<u16>());
    let proto = prop_oneof![Just(IpProto::Udp), Just(IpProto::Tcp), Just(IpProto::Icmp)];
    prop_oneof![
        4 => Just(Step::Flow),
        4 => Just(Step::FlowKey),
        1 => Just(Step::FlowHash),
        2 => Just(Step::StampHash),
        1 => prop_oneof![Just(EtherType::Arp), Just(EtherType::Ipv4)].prop_map(Step::EthernetMut),
        1 => any::<u32>().prop_map(Step::Ipv4SetSrc),
        1 => any::<u32>().prop_map(Step::Ipv4SetDst),
        1 => proto.prop_map(Step::Ipv4SetProtocol),
        2 => any::<u16>().prop_map(Step::UdpMut),
        2 => any::<u16>().prop_map(Step::TcpMut),
        1 => any::<u16>().prop_map(Step::IcmpMut),
        2 => (0usize..64, any::<u8>()).prop_map(|(at, v)| Step::AsMutSlice(at, v)),
        2 => endpoint().prop_map(|src| Step::Rewrite(Some(src), None)),
        2 => endpoint().prop_map(|dst| Step::Rewrite(None, Some(dst))),
        1 => (endpoint(), endpoint()).prop_map(|(src, dst)| Step::Rewrite(Some(src), Some(dst))),
    ]
}

fn endpoint(e: Option<(u32, u16)>) -> Option<(Ipv4Addr, u16)> {
    e.map(|(addr, port)| (Ipv4Addr::from(addr), port))
}

/// What a cache-less packet with the same bytes says.
fn fresh_parse(p: &Packet) -> (Result<FiveTuple, PacketError>, u64) {
    let copy = Packet::from_slice(p.as_slice());
    (FiveTuple::of(&copy), packet_flow_hash(&copy))
}

/// The packet, read through a shared reference (which fills nothing),
/// agrees with its own bytes.
fn check(p: &Packet) -> Result<(), TestCaseError> {
    let (tuple, hash) = fresh_parse(p);
    prop_assert_eq!(FiveTuple::of(p), tuple);
    if let Some(cached) = p.cached_flow_hash() {
        prop_assert_eq!(cached, hash, "a cached hash is the hash of the bytes");
    }
    Ok(())
}

fn apply(p: &mut Packet, step: &Step) -> Result<(), TestCaseError> {
    let (tuple, hash) = fresh_parse(p);
    match *step {
        Step::Flow => prop_assert_eq!(p.flow(), tuple),
        Step::FlowKey => {
            let key = p.flow_key();
            prop_assert_eq!(key, tuple.map(|t| (t, t.stable_hash())));
            if let Ok((_, hash)) = key {
                prop_assert_eq!(p.cached_flow_hash(), Some(hash), "the hash is kept");
            }
        }
        Step::FlowHash => prop_assert_eq!(p.flow_hash(), hash),
        Step::StampHash => p.set_cached_flow_hash(hash),
        Step::EthernetMut(ethertype) => {
            if let Ok(mut eth) = p.ethernet_mut() {
                eth.set_ethertype(ethertype);
            }
        }
        Step::Ipv4SetSrc(addr) => {
            if let Ok(mut ip) = p.ipv4_mut() {
                ip.set_src(Ipv4Addr::from(addr));
            }
        }
        Step::Ipv4SetDst(addr) => {
            if let Ok(mut ip) = p.ipv4_mut() {
                ip.set_dst(Ipv4Addr::from(addr));
            }
        }
        Step::Ipv4SetProtocol(proto) => {
            if let Ok(mut ip) = p.ipv4_mut() {
                ip.set_protocol(proto);
            }
        }
        Step::UdpMut(port) => {
            if let Ok(mut udp) = p.udp_mut() {
                udp.set_dst_port(port);
            }
        }
        Step::TcpMut(port) => {
            if let Ok(mut tcp) = p.tcp_mut() {
                tcp.set_src_port(port);
            }
        }
        Step::IcmpMut(sequence) => {
            if let Ok(mut icmp) = p.icmp_mut() {
                icmp.set_sequence(sequence);
            }
        }
        Step::AsMutSlice(at, value) => {
            if let Some(b) = p.as_mut_slice().get_mut(at) {
                *b = value;
            }
        }
        Step::Rewrite(src, dst) => {
            let before = p.as_slice().to_vec();
            let rewritten = p.rewrite_endpoints(endpoint(src), endpoint(dst));
            prop_assert_eq!(rewritten.err(), tuple.err());
            match tuple {
                Ok(old) => {
                    let (src_ip, src_port) = endpoint(src).unwrap_or((old.src_ip, old.src_port));
                    let (dst_ip, dst_port) = endpoint(dst).unwrap_or((old.dst_ip, old.dst_port));
                    let new = FiveTuple {
                        src_ip,
                        dst_ip,
                        src_port,
                        dst_port,
                        proto: old.proto,
                    };
                    prop_assert_eq!(FiveTuple::of(p), Ok(new), "the tuple is maintained");
                }
                Err(_) => prop_assert_eq!(p.as_slice(), &before[..], "a refusal writes nothing"),
            }
        }
    }
    check(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cache_agrees_with_a_fresh_parse_after_every_step(
        f in frame(),
        steps in proptest::collection::vec(step(), 1..16),
    ) {
        let mut p = Packet::from_slice(&bytes_of(&f));
        check(&p)?;
        for step in &steps {
            apply(&mut p, step)?;
        }
        // Whatever state the sequence left behind, the owner's view
        // agrees too.
        let (tuple, _) = fresh_parse(&p);
        prop_assert_eq!(p.flow(), tuple);
        prop_assert_eq!(p.flow_key(), tuple.map(|t| (t, t.stable_hash())));
        check(&p)?;
    }
}

fn udp(src_port: u16, dst_port: u16) -> Packet {
    Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 1, 2, 3),
        Ipv4Addr::new(192, 0, 2, 1),
        src_port,
        dst_port,
        16,
    )
}

/// Sets the flags-and-fragment-offset field, keeping the header checksum
/// valid, and returns a cache-less packet.
fn fragment(p: Packet, field: u16) -> Packet {
    let mut bytes = p.as_slice().to_vec();
    bytes[ETH + 6..ETH + 8].copy_from_slice(&field.to_be_bytes());
    let mut p = Packet::from_slice(&bytes);
    p.ipv4_mut().unwrap().update_checksum();
    p
}

fn nat() -> SourceNat {
    SourceNat::new(
        Ipv4Addr::new(203, 0, 113, 1),
        Ipv4Addr::new(10, 0, 0, 0),
        8,
        40_000..=40_100,
    )
}

#[test]
fn a_non_first_fragment_is_not_a_flow() {
    // Offset 185 (× 8 bytes), with and without "more fragments".
    for field in [0x00B9, 0x20B9] {
        let mut p = fragment(udp(5_000, 53), field);
        let not_a_flow = PacketError::BadField {
            header: "ipv4",
            field: "fragment_offset",
            value: 0xB9,
        };
        assert_eq!(FiveTuple::of(&p), Err(not_a_flow));
        assert_eq!(p.flow(), Err(not_a_flow));
        assert_eq!(p.flow_key(), Err(not_a_flow));

        // The NAT used to rewrite payload bytes 0..4 as "ports" and
        // patch a "checksum" into bytes 6..8; it now passes it untouched.
        let before = p.as_slice().to_vec();
        let mut nat = nat();
        let out = nat.process(std::iter::once(p).collect());
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap().as_slice(), &before[..]);
        assert_eq!((nat.stats().passed, nat.stats().outbound), (1, 0));
        assert_eq!(nat.active_mappings(), 0);

        let mut tracker = FlowTracker::new(16);
        let out = tracker.process(out);
        assert_eq!(out.len(), 1, "the tracker observes, it does not drop");
        assert_eq!((tracker.untracked(), tracker.flow_count()), (1, 0));

        // 53 is where the destination port would be, were it a header.
        let out = DstPortFilter::new(vec![53]).process(out);
        assert!(out.is_empty(), "no port to allow");
    }
}

#[test]
fn a_first_fragment_is_a_flow_like_any_other() {
    // Offset 0 with "more fragments": the transport header is there.
    let whole = FiveTuple::of(&udp(5_000, 53)).unwrap();
    let mut first = fragment(udp(5_000, 53), 0x2000);
    assert_eq!(first.flow(), Ok(whole));

    let mut nat = nat();
    let out = nat.process(std::iter::once(first).collect::<PacketBatch>());
    assert_eq!(nat.stats().outbound, 1);
    let translated = FiveTuple::of(out.iter().next().unwrap()).unwrap();
    assert_eq!(translated.src_ip, Ipv4Addr::new(203, 0, 113, 1));
    assert_eq!(translated.src_port, 40_000);
}
