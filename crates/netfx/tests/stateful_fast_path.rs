//! Property tests for the machinery the stateful operators share:
//!
//! - `Packet::rewrite_endpoints` patches the IPv4 and UDP/TCP checksums
//!   to what a full recompute would store (modulo the sign of
//!   one's-complement zero), over odd payloads, IP options, a UDP
//!   checksum of zero and results that land on `0x0000`/`0xFFFF` — and
//!   never repairs a checksum that arrived bad;
//! - the single-pass `FiveTuple::of` is the `ipv4()` → `udp()`/`tcp()`
//!   view chain, value for value and error for error, on arbitrary
//!   bytes, and is total;
//! - `FlowTable` agrees with a `BTreeMap` under random
//!   insert/get/upsert/remove/retain, through the hashing and the
//!   caller-hashed probes alike, and the same operations seal the same
//!   snapshot bytes.

use proptest::prelude::*;
use rbs_checkpoint::{checkpoint, encode, restore};
use rbs_netfx::flowtable::FlowTable;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::headers::tcp::TcpFlags;
use rbs_netfx::headers::IpProto;
use rbs_netfx::pktgen::{FlowDistribution, PacketGen, TrafficConfig};
use rbs_netfx::{FiveTuple, FlowTracker, Packet, PacketError, PipelineSpec};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

const ETH: usize = 14;

/// What the generated frame looks like.
#[derive(Debug, Clone)]
struct Frame {
    tcp: bool,
    src: (u32, u16),
    dst: (u32, u16),
    payload: Vec<u8>,
    /// IPv4 option bytes (a multiple of four, so IHL is 5..=8).
    options: Vec<u8>,
}

fn frame() -> impl Strategy<Value = Frame> {
    (
        any::<bool>(),
        (any::<u32>(), any::<u16>()),
        (any::<u32>(), any::<u16>()),
        proptest::collection::vec(any::<u8>(), 0..48),
        (0usize..4, any::<u8>()),
    )
        .prop_map(|(tcp, src, dst, payload, (words, fill))| Frame {
            tcp,
            src,
            dst,
            payload,
            options: vec![fill; words * 4],
        })
}

/// `Some` or `None` of `strategy`, evenly.
fn maybe<S: Strategy>(strategy: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), strategy).prop_map(|(on, value)| on.then_some(value))
}

fn endpoint(e: Option<(u32, u16)>) -> Option<(Ipv4Addr, u16)> {
    e.map(|(addr, port)| (Ipv4Addr::from(addr), port))
}

/// Builds `f` with every checksum valid: the stock builder's frame, then
/// the payload filled in and the options spliced behind the fixed header.
fn build(f: &Frame) -> Packet {
    let (src, dst) = (Ipv4Addr::from(f.src.0), Ipv4Addr::from(f.dst.0));
    let mut p = if f.tcp {
        let syn = TcpFlags(TcpFlags::SYN);
        Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            src,
            dst,
            f.src.1,
            f.dst.1,
            syn,
            f.payload.len(),
        )
    } else {
        let len = f.payload.len();
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            src,
            dst,
            f.src.1,
            f.dst.1,
            len,
        )
    };
    let at = p.len() - f.payload.len();
    p.as_mut_slice()[at..].copy_from_slice(&f.payload);
    if !f.options.is_empty() {
        let mut bytes = p.as_slice().to_vec();
        let after_fixed_header = ETH + 20;
        bytes.splice(
            after_fixed_header..after_fixed_header,
            f.options.iter().copied(),
        );
        bytes[ETH] = 0x40 | (5 + f.options.len() / 4) as u8;
        p = Packet::from_slice(&bytes);
        let total = (bytes.len() - ETH) as u16;
        p.ipv4_mut().unwrap().set_total_len(total);
    }
    recompute(&mut p);
    p
}

/// Zero-and-recompute of every checksum: the reference the incremental
/// patch is judged against.
fn recompute(p: &mut Packet) {
    let (src, dst, seg_len, proto) = {
        let mut ip = p.ipv4_mut().unwrap();
        ip.update_checksum();
        let ip = ip.as_ref();
        let seg_len = ip.total_len() - ip.header_len() as u16;
        (ip.src(), ip.dst(), seg_len, ip.protocol())
    };
    match proto {
        IpProto::Udp => p.udp_mut().unwrap().update_checksum(src, dst),
        _ => p.tcp_mut().unwrap().update_checksum(src, dst, seg_len),
    }
}

fn ip_checksum(p: &Packet) -> u16 {
    p.ipv4().unwrap().header_checksum()
}

fn l4_checksum(p: &Packet) -> u16 {
    match p.udp() {
        Ok(udp) => udp.checksum(),
        Err(_) => p.tcp().unwrap().checksum(),
    }
}

fn l4_checksum_ok(p: &Packet) -> bool {
    let ip = p.ipv4().unwrap();
    match p.udp() {
        Ok(udp) => udp.checksum_ok(ip.src(), ip.dst()),
        Err(_) => {
            let seg_len = ip.total_len() - ip.header_len() as u16;
            p.tcp().unwrap().checksum_ok(ip.src(), ip.dst(), seg_len)
        }
    }
}

/// A source endpoint, sharing `addr`'s upper half, that lands both
/// rewritten checksums on a one's-complement zero: with a covered 16-bit
/// word at 0 a recompute stores `c`, and writing `c` into that word makes
/// the covered sum `0xFFFF`, i.e. the checksum 0. The address's lower
/// half does that for the IPv4 header, then the port for the transport.
fn zero_landing_src(f: &Frame, addr: u32, new_dst: Option<(u32, u16)>) -> (u32, u16) {
    let upper = addr & 0xFFFF_0000;
    let mut probe = build(f);
    let mut stored_with = |src: (u32, u16)| {
        probe
            .rewrite_endpoints(endpoint(Some(src)), endpoint(new_dst))
            .unwrap();
        recompute(&mut probe);
        (ip_checksum(&probe), l4_checksum(&probe))
    };
    let (ip_at_zero, _) = stored_with((upper, 0));
    let addr = upper | u32::from(ip_at_zero);
    let (_, l4_at_zero) = stored_with((addr, 0));
    (addr, l4_at_zero)
}

/// Equal as one's-complement numbers: identical, or the two zeros.
fn same_sum(a: u16, b: u16) -> bool {
    a == b || (a == 0 && b == 0xFFFF) || (a == 0xFFFF && b == 0)
}

/// The `FiveTuple::of` this change replaced: one header view after
/// another, each re-validating the layers below it.
fn view_chain(p: &Packet) -> Result<FiveTuple, PacketError> {
    let ip = p.ipv4()?;
    // A non-first fragment carries payload where the ports would be.
    if ip.fragment_offset() != 0 {
        return Err(PacketError::BadField {
            header: "ipv4",
            field: "fragment_offset",
            value: u64::from(ip.fragment_offset()),
        });
    }
    let (src_port, dst_port) = match ip.protocol() {
        IpProto::Udp => {
            let u = p.udp()?;
            (u.src_port(), u.dst_port())
        }
        IpProto::Tcp => {
            let t = p.tcp()?;
            (t.src_port(), t.dst_port())
        }
        _ => {
            return Err(PacketError::WrongProtocol {
                expected: "tcp-or-udp",
            })
        }
    };
    Ok(FiveTuple {
        src_ip: ip.src(),
        dst_ip: ip.dst(),
        src_port,
        dst_port,
        proto: ip.protocol(),
    })
}

/// Where a mutation lands: a fixed frame offset, or an offset into the
/// transport header (which IP options push back).
#[derive(Debug, Clone, Copy)]
enum At {
    Frame(usize),
    Transport(usize),
}

/// One overwritten byte, biased towards the bytes the parse branches on
/// and the values on either side of each branch.
fn mutation() -> impl Strategy<Value = (At, u8)> {
    let one_of = |values: &'static [u8]| (0..values.len()).prop_map(move |i| values[i]);
    prop_oneof![
        // EtherType: IPv4, ARP, IPv6.
        (Just(At::Frame(12)), one_of(&[0x08, 0x00, 0x86])),
        (Just(At::Frame(13)), one_of(&[0x00, 0x06, 0xDD])),
        // Version and IHL: no options, options, options past the frame,
        // IHL < 5, version 6.
        (Just(At::Frame(14)), one_of(&[0x45, 0x46, 0x4F, 0x44, 0x65])),
        // Protocol: TCP, UDP, ICMP, GRE.
        (Just(At::Frame(23)), one_of(&[6, 17, 1, 47])),
        // TCP data offset: 5, 4, 15, 6, 0 words.
        (
            Just(At::Transport(12)),
            one_of(&[0x50, 0x40, 0xF0, 0x60, 0x00])
        ),
        ((0usize..64).prop_map(At::Frame), any::<u8>()),
    ]
}

/// Byte strings around the edges of the parser: pure noise, and built
/// frames with header bytes overwritten and the tail cut off.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let noise = proptest::collection::vec(any::<u8>(), 0..80);
    let mangled = (
        frame(),
        proptest::collection::vec(mutation(), 0..3),
        maybe(0usize..100),
    )
        .prop_map(|(f, mutations, keep)| {
            let mut bytes = build(&f).as_slice().to_vec();
            for (at, value) in mutations {
                let at = match at {
                    At::Frame(at) => at,
                    At::Transport(at) => ETH + 20 + f.options.len() + at,
                };
                if let Some(b) = bytes.get_mut(at) {
                    *b = value;
                }
            }
            bytes.truncate(keep.unwrap_or(usize::MAX));
            bytes
        });
    prop_oneof![1 => noise, 4 => mangled]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u64),
    Get(u16),
    Bump(u16),
    /// `get_or_insert_with`: add to the value, which starts at the
    /// addend when the key is new and `make` (the flag) supplies one.
    Upsert(u16, u64, bool),
    Remove(u16),
    /// Keep the keys whose number is not a multiple of this.
    Retain(u16),
}

fn op() -> impl Strategy<Value = Op> {
    // A small key space, so operations hit existing keys as often as new.
    let key = 0u16..96;
    prop_oneof![
        6 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => key.clone().prop_map(Op::Get),
        2 => key.clone().prop_map(Op::Bump),
        4 => (key.clone(), any::<u64>(), any::<bool>()).prop_map(|(k, v, make)| Op::Upsert(k, v, make)),
        3 => key.prop_map(Op::Remove),
        1 => (2u16..7).prop_map(Op::Retain),
    ]
}

fn tuple(n: u16) -> FiveTuple {
    FiveTuple {
        src_ip: Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
        dst_ip: Ipv4Addr::new(192, 0, 2, 1),
        src_port: 1_000 + n,
        dst_port: 80,
        proto: if n.is_multiple_of(3) {
            IpProto::Tcp
        } else {
            IpProto::Udp
        },
    }
}

/// Applies `ops` to a table, checking every answer against a `BTreeMap`.
fn run(ops: &[Op]) -> Result<FlowTable<FiveTuple, u64>, TestCaseError> {
    let mut table = FlowTable::new();
    let mut oracle = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                prop_assert_eq!(table.insert(tuple(k), v), oracle.insert(k, v));
            }
            Op::Get(k) => {
                prop_assert_eq!(table.get(&tuple(k)), oracle.get(&k));
                let hashed = table.get_hashed(tuple(k).stable_hash(), &tuple(k));
                prop_assert_eq!(hashed, oracle.get(&k));
            }
            Op::Bump(k) => {
                if let Some(v) = table.get_mut_hashed(tuple(k).stable_hash(), &tuple(k)) {
                    *v = v.wrapping_add(1);
                }
                if let Some(v) = oracle.get_mut(&k) {
                    *v = v.wrapping_add(1);
                }
            }
            Op::Upsert(k, add, make) => {
                let held = table
                    .get_or_insert_with(tuple(k).stable_hash(), tuple(k), || make.then_some(0))
                    .map(|v| {
                        *v = v.wrapping_add(add);
                        *v
                    });
                if make {
                    oracle.entry(k).or_insert(0);
                }
                let expected = oracle.get_mut(&k).map(|v| {
                    *v = v.wrapping_add(add);
                    *v
                });
                prop_assert_eq!(held, expected);
            }
            Op::Remove(k) => prop_assert_eq!(table.remove(&tuple(k)), oracle.remove(&k)),
            Op::Retain(m) => {
                table.retain(|k, _| (k.src_port - 1_000) % m != 0);
                oracle.retain(|k, _| k % m != 0);
            }
        }
        prop_assert_eq!(table.len(), oracle.len());
    }
    for k in 0..96 {
        prop_assert_eq!(table.get(&tuple(k)), oracle.get(&k));
    }
    let mut walked: Vec<(u16, u64)> = table
        .iter()
        .map(|(k, v)| (k.src_port - 1_000, *v))
        .collect();
    walked.sort_unstable();
    prop_assert_eq!(walked, oracle.into_iter().collect::<Vec<_>>());
    Ok(table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rewrite_endpoints_patches_like_a_full_recompute(
        f in frame(),
        new_src in maybe((any::<u32>(), any::<u16>())),
        new_dst in maybe((any::<u32>(), any::<u16>())),
        udp_checksum_off in any::<bool>(),
        land_on_zero in any::<bool>(),
        corrupt in maybe(any::<u8>()),
    ) {
        let mut p = build(&f);
        let no_l4_checksum = udp_checksum_off && !f.tcp;
        if no_l4_checksum {
            let at = ETH + 20 + f.options.len() + 6;
            p.as_mut_slice()[at..at + 2].fill(0);
        }
        let new_src = match new_src {
            Some((addr, _)) if land_on_zero => Some(zero_landing_src(&f, addr, new_dst)),
            other => other,
        };
        // A payload byte damaged in flight, before the middlebox sees it.
        let damaged = match corrupt {
            Some(bits) if !f.payload.is_empty() && bits != 0 && !no_l4_checksum => {
                let at = p.len() - 1 - (bits as usize % f.payload.len());
                p.as_mut_slice()[at] ^= bits;
                true
            }
            _ => false,
        };

        let before = FiveTuple::of(&p).unwrap();
        p.rewrite_endpoints(endpoint(new_src), endpoint(new_dst)).unwrap();

        let after = FiveTuple::of(&p).unwrap();
        let (src_ip, src_port) = endpoint(new_src).unwrap_or((before.src_ip, before.src_port));
        let (dst_ip, dst_port) = endpoint(new_dst).unwrap_or((before.dst_ip, before.dst_port));
        prop_assert_eq!(after, FiveTuple { src_ip, dst_ip, src_port, dst_port, proto: before.proto });
        prop_assert_eq!(p.ipv4().unwrap().options(), &f.options[..]);

        prop_assert!(p.ipv4().unwrap().checksum_ok());
        let mut reference = Packet::from_slice(p.as_slice());
        recompute(&mut reference);
        prop_assert!(
            same_sum(ip_checksum(&p), ip_checksum(&reference)),
            "ip {:#06x} vs recompute {:#06x}", ip_checksum(&p), ip_checksum(&reference)
        );
        if no_l4_checksum {
            prop_assert_eq!(l4_checksum(&p), 0, "\"no checksum\" must stay \"no checksum\"");
        } else if damaged {
            prop_assert!(!l4_checksum_ok(&p), "a damaged datagram must not be repaired");
        } else {
            prop_assert!(l4_checksum_ok(&p));
            prop_assert!(
                same_sum(l4_checksum(&p), l4_checksum(&reference)),
                "l4 {:#06x} vs recompute {:#06x}", l4_checksum(&p), l4_checksum(&reference)
            );
            if !f.tcp {
                // A computed UDP checksum is never stored as "none".
                prop_assert_ne!(l4_checksum(&p), 0);
            }
            if land_on_zero && new_src.is_some() {
                prop_assert!(same_sum(ip_checksum(&p), 0));
                prop_assert!(same_sum(l4_checksum(&p), 0));
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fast_five_tuple_of_matches_the_view_chain(bytes in hostile_bytes()) {
        let mut p = Packet::from_slice(&bytes);
        let expected = view_chain(&p);
        prop_assert_eq!(FiveTuple::of(&p), expected);
        // The rewrite locates the headers the same way: it fails exactly
        // when the tuple does, and then leaves the frame alone.
        let rewritten = p.rewrite_endpoints(Some((Ipv4Addr::new(203, 0, 113, 1), 4_000)), None);
        prop_assert_eq!(rewritten.err(), expected.err());
        if expected.is_err() {
            prop_assert_eq!(p.as_slice(), &bytes[..]);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flow_table_agrees_with_btreemap_oracle(
        ops in proptest::collection::vec(op(), 0..400),
    ) {
        let first = run(&ops)?;
        // The same operations seal the same bytes, and a table restored
        // from them seals them again.
        let second = run(&ops)?;
        let sealed = encode(&checkpoint(&first));
        prop_assert_eq!(&sealed, &encode(&checkpoint(&second)));
        let warm: FlowTable<FiveTuple, u64> = restore(&checkpoint(&first)).unwrap();
        prop_assert_eq!(&sealed, &encode(&checkpoint(&warm)));
    }
}

/// Two trackers fed the same seeded traffic seal identical bytes, and a
/// warm-restored replica seals them a third time.
#[test]
fn same_seed_runs_seal_identical_snapshot_bytes() {
    let sealed = || {
        let mut gen = PacketGen::new(TrafficConfig {
            flows: 512,
            distribution: FlowDistribution::Zipf(1.1),
            seed: 0xF10E,
            ..TrafficConfig::default()
        });
        let spec = PipelineSpec::new().stage(|| FlowTracker::new(400));
        let mut pipeline = spec.build();
        for _ in 0..32 {
            pipeline.run_batch(gen.next_batch(64));
        }
        let cp = pipeline.export_state();
        let replica = spec.build_with_state(&cp).unwrap();
        assert_eq!(encode(&replica.export_state()), encode(&cp));
        encode(&cp)
    };
    assert_eq!(sealed(), sealed());
}
