//! The compiled lookup index is invisible from outside the data path.
//!
//! - A checkpoint of the rule trie is the same bytes before and after
//!   the first lookup compiles the index, and a restored trie — which
//!   starts without one — decides every flow as the original does.
//! - The operators that moved to the packet's flow-key cache and the
//!   compiled index emit **the frames they emitted before**: the two
//!   stateful chains (firewall → NAT → flow tracker → Maglev, and the
//!   tenant chain port filter → NAT → flow tracker) are fed a seeded mix
//!   of generated and hand-built traffic, and the digests of their
//!   egress frames and sealed state are pinned to the values this same
//!   test printed **at the parent commit**, before either mechanism
//!   existed. (The mix holds no non-first IPv4 fragment: those are the
//!   one input whose handling changed, on purpose.)

use rbs_checkpoint::{checkpoint, encode, restore};
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_maglev::{Backend, MaglevLb};
use rbs_netfx::flow::stable_hash_bytes;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::headers::icmp::IcmpType;
use rbs_netfx::headers::tcp::TcpFlags;
use rbs_netfx::headers::IpProto;
use rbs_netfx::operators::DstPortFilter;
use rbs_netfx::pktgen::{FlowDistribution, PacketGen, TrafficConfig};
use rbs_netfx::{FiveTuple, FlowTracker, Packet, PacketBatch, Pipeline, SourceNat};
use std::net::Ipv4Addr;

/// Nested and aliased rules around the generator's VIP (`192.0.2.1`),
/// with residual fields and an equal-depth id tie.
fn rules() -> FwTrie {
    let mut trie = FwTrie::new();
    let net = |a, b, c, d| Ipv4Addr::new(a, b, c, d);
    trie.insert(Rule::new(
        90,
        "deny-test-nets",
        net(192, 0, 0, 0),
        14,
        Action::Deny,
    ));
    trie.insert(Rule::new(10, "vip-web", net(192, 0, 2, 0), 24, Action::Allow).dports(80, 80));
    trie.insert(
        Rule::new(11, "vip-dns-udp", net(192, 0, 2, 0), 24, Action::Allow)
            .dports(53, 53)
            .proto(IpProto::Udp),
    );
    trie.insert(Rule::new(
        12,
        "vip-host-limit",
        net(192, 0, 2, 9),
        32,
        Action::RateLimit(100),
    ));
    trie.insert(
        Rule::new(30, "no-outsiders", net(192, 0, 2, 128), 25, Action::Deny)
            .src(net(172, 16, 0, 0), 12),
    );
    let shared = trie.insert(Rule::new(
        20,
        "partners",
        net(198, 51, 100, 0),
        24,
        Action::Allow,
    ));
    trie.alias_at(net(203, 0, 113, 0), 24, shared.clone());
    trie.alias_at(net(192, 0, 3, 0), 24, shared);
    // Same prefix, two ids: the lower one wins where both match.
    trie.insert(Rule::new(
        41,
        "tie-high",
        net(198, 18, 0, 0),
        15,
        Action::Deny,
    ));
    trie.insert(Rule::new(40, "tie-low", net(198, 18, 0, 0), 15, Action::Allow).dports(0, 1023));
    trie.insert(Rule::new(99, "default", net(0, 0, 0, 0), 0, Action::Allow).dports(1, 65_535));
    trie
}

/// Deterministic draws for the hand-built share of the traffic.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as u32
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.next() as usize % from.len()]
    }
}

/// One hand-built packet: destinations on every side of the rules above,
/// inside and outside sources, TCP/UDP/ICMP, IP options, a first
/// fragment.
fn crafted(rng: &mut Lcg) -> Packet {
    let mac = MacAddr::ZERO;
    let src = match rng.next() % 3 {
        0 => Ipv4Addr::new(10, 7, (rng.next() % 4) as u8, (rng.next() % 8) as u8),
        1 => Ipv4Addr::new(172, 16, 0, (rng.next() % 4) as u8),
        _ => Ipv4Addr::new(8, 8, 8, 8),
    };
    let dst = rng.pick(&[
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(192, 0, 2, 9),
        Ipv4Addr::new(192, 0, 2, 200),
        Ipv4Addr::new(192, 0, 3, 7),
        Ipv4Addr::new(192, 1, 2, 3),
        Ipv4Addr::new(198, 51, 100, 5),
        Ipv4Addr::new(198, 18, 1, 1),
        Ipv4Addr::new(198, 19, 255, 1),
        Ipv4Addr::new(203, 0, 113, 1),
        Ipv4Addr::new(1, 1, 1, 1),
    ]);
    let sport = 2_000 + (rng.next() % 16) as u16;
    let dport = rng.pick(&[53u16, 80, 443, 0, 8_080]);
    let p = match rng.next() % 8 {
        0 => Packet::build_icmp_echo(mac, mac, src, dst, IcmpType::EchoRequest, sport, 1, 8),
        1..=3 => Packet::build_tcp(mac, mac, src, dst, sport, dport, TcpFlags(TcpFlags::ACK), 5),
        _ => Packet::build_udp(mac, mac, src, dst, sport, dport, 11),
    };
    match rng.next() % 8 {
        // One word of IPv4 options: the parse leaves its fixed-offset path.
        0 => {
            let mut bytes = p.as_slice().to_vec();
            bytes.splice(34..34, [1u8, 1, 1, 0]);
            bytes[14] = 0x46;
            let total = (bytes.len() - 14) as u16;
            bytes[16..18].copy_from_slice(&total.to_be_bytes());
            let mut p = Packet::from_slice(&bytes);
            p.ipv4_mut().unwrap().update_checksum();
            p
        }
        // A first fragment: offset 0, "more fragments".
        1 => {
            let mut bytes = p.as_slice().to_vec();
            bytes[20] = 0x20;
            let mut p = Packet::from_slice(&bytes);
            p.ipv4_mut().unwrap().update_checksum();
            p
        }
        _ => p,
    }
}

/// 96 batches of 64: two seeded generators (Zipf UDP, uniform TCP) and
/// the hand-built packets, interleaved.
fn traffic() -> Vec<PacketBatch> {
    let mut udp = PacketGen::new(TrafficConfig {
        flows: 1_500,
        distribution: FlowDistribution::Zipf(1.1),
        payload_len: 18,
        seed: 0x1601,
        ..TrafficConfig::default()
    });
    let mut tcp = PacketGen::new(TrafficConfig {
        flows: 300,
        proto: IpProto::Tcp,
        payload_len: 7,
        seed: 0x1602,
        ..TrafficConfig::default()
    });
    let mut rng = Lcg(0x1603);
    (0..96)
        .map(|_| {
            (0..64)
                .map(|i| match i % 4 {
                    0 | 1 => udp.next_packet(),
                    2 => tcp.next_packet(),
                    _ => crafted(&mut rng),
                })
                .collect()
        })
        .collect()
}

/// Runs the traffic through `chain`; digests of the egress frames
/// (length-prefixed, in order) and of the chain's sealed state.
fn digests(mut chain: Pipeline) -> (usize, u64, u64) {
    let mut stream = Vec::new();
    let mut forwarded = 0;
    for batch in traffic() {
        for p in chain.run_batch(batch).iter() {
            forwarded += 1;
            stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
            stream.extend_from_slice(p.as_slice());
        }
    }
    let sealed = encode(&chain.export_state());
    (
        forwarded,
        stable_hash_bytes(&stream),
        stable_hash_bytes(&sealed),
    )
}

#[test]
fn stateful_chain_egress_is_what_the_parent_commit_emitted() {
    let backends = (0..8).map(|i| Backend::new(format!("be-{i}"))).collect();
    let addrs = (0..8).map(|i| Ipv4Addr::new(10, 1, 0, i + 1)).collect();
    let chain = Pipeline::new()
        .add(FirewallOp::new(rules(), Action::Deny))
        .add(SourceNat::new(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            1_024..=65_535,
        ))
        .add(FlowTracker::new(1_024))
        .add(MaglevLb::new(backends, addrs, 251).unwrap());
    let got = digests(chain);
    println!("stateful chain: {got:#x?}");
    assert_eq!(got, STATEFUL_CHAIN);
}

#[test]
fn tenant_chain_egress_is_what_the_parent_commit_emitted() {
    let chain = Pipeline::new()
        .add(DstPortFilter::new(vec![80, 53]))
        .add(SourceNat::new(
            Ipv4Addr::new(203, 0, 113, 10),
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            40_000..=50_000,
        ))
        .add(FlowTracker::new(4_096));
    let got = digests(chain);
    println!("tenant chain: {got:#x?}");
    assert_eq!(got, TENANT_CHAIN);
}

/// `(frames forwarded, egress digest, sealed-state digest)` at the parent
/// commit (9dae2c8).
const STATEFUL_CHAIN: (usize, u64, u64) = (5_429, 0xf177_5938_208c_adba, 0xe2ed_5c7c_317a_9472);
const TENANT_CHAIN: (usize, u64, u64) = (5_150, 0xd625_a41b_5c76_d2cd, 0x10e6_8046_2eb0_878c);

#[test]
fn lookups_leave_no_trace_in_a_checkpoint_and_restore_starts_cold() {
    let trie = rules();
    let untouched = encode(&checkpoint(&trie));

    let mut rng = Lcg(7);
    let flows: Vec<FiveTuple> = (0..512)
        .filter_map(|_| FiveTuple::of(&crafted(&mut rng)).ok())
        .collect();
    assert!(flows.len() > 300);
    let decisions: Vec<_> = flows.iter().map(|f| trie.decide(f)).collect();
    assert!(decisions
        .iter()
        .any(|d| matches!(d, Some((_, Action::Deny)))));
    assert!(decisions
        .iter()
        .any(|d| matches!(d, Some((_, Action::Allow)))));
    for (flow, decision) in flows.iter().zip(&decisions) {
        let rule = trie.lookup(flow).map(|r| (r.id, r.action));
        assert_eq!(rule, *decision, "lookup and decide name the same rule");
    }
    assert_eq!(
        encode(&checkpoint(&trie)),
        untouched,
        "the index is not state"
    );

    let back: FwTrie = restore(&checkpoint(&trie)).unwrap();
    assert_eq!(encode(&checkpoint(&back)), untouched);
    let again: Vec<_> = flows.iter().map(|f| back.decide(f)).collect();
    assert_eq!(again, decisions);
    assert_eq!(encode(&checkpoint(&back)), untouched);
}
