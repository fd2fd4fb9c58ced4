//! Property tests for the ingest fast path:
//!
//! - `PacketGen` stamps a prebuilt frame template instead of building
//!   every packet, and draws Zipf flows through a cutpoint table instead
//!   of searching the whole CDF. Both are judged against [`Reference`],
//!   the generator as it stood before — per-packet
//!   `Packet::build_udp_into`/`build_tcp_into`, whole-table search — flow
//!   id for flow id and byte for byte, over protocols, payload lengths,
//!   seeds, distributions and the three constructors, into clean, dirty
//!   and pooled buffers; plus flows engineered so the transport checksum
//!   lands on zero, and a digest of two streams pinned at the commit
//!   before the template.
//! - `next_batch` draws its buffers from the calling thread's spare list
//!   (`pool::recycle_local`): primed with dirty buffers of odd
//!   capacities it emits the reference's frames all the same, it really
//!   draws them, and a give on one thread is invisible on another.
//! - `next_batch_from_pool` rewrites the batch `recycle_batch` banked
//!   whole, packet by packet where it lies: after a real chain (TTL hop,
//!   MAC swap, a NAT rewrite that leaves the translated tuple cached),
//!   drops, a grown buffer and foreign packets, a refill is the fresh
//!   generator's and the reference's frames and hashes, its `flow()` the
//!   new bytes' tuple, and the pool's books balance.
//! - `TtlDecrement` patches the header checksum for the TTL word alone:
//!   on a header that verifies it stores what decrement-and-recompute
//!   stores, over IP options and every TTL, including a result of
//!   `0x0000`; a header that arrived damaged leaves damaged; expired and
//!   non-IPv4 packets are dropped.
//!
//! (The cutpoint table against the whole-table search for arbitrary `u`
//! is a unit test in `pktgen.rs`: it needs the private draw.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbs_netfx::flow::{packet_flow_hash, stable_hash_bytes};
use rbs_netfx::headers::ethernet::{EtherType, MacAddr};
use rbs_netfx::headers::tcp::TcpFlags;
use rbs_netfx::headers::IpProto;
use rbs_netfx::operators::{MacSwap, TtlDecrement};
use rbs_netfx::pktgen::{FlowDistribution, PacketGen, TrafficConfig};
use rbs_netfx::pool::{local_spares, recycle_local, take_local};
use rbs_netfx::{FiveTuple, Operator, Packet, PacketBatch, PacketPool, SourceNat};
use std::net::Ipv4Addr;

const ETH: usize = 14;
const SRC_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const DST_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

/// Which flows of the mix a generator draws from.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Whole,
    Rss {
        lane: usize,
        lanes: usize,
    },
    /// Keeps the flows whose source port is not a multiple of `modulus`.
    Subset {
        salt: u64,
        modulus: u16,
    },
}

fn generator(cfg: &TrafficConfig, shape: Shape) -> PacketGen {
    match shape {
        Shape::Whole => PacketGen::new(cfg.clone()),
        Shape::Rss { lane, lanes } => PacketGen::rss_slice(cfg.clone(), lane, lanes),
        Shape::Subset { salt, modulus } => {
            PacketGen::subset(cfg.clone(), salt, move |t| t.src_port % modulus != 0)
        }
    }
}

/// The generator before the frame template and the cutpoint table: the
/// same population, weights, streams and draws, with every packet built
/// from scratch and every Zipf draw a search of the whole CDF.
struct Reference {
    cfg: TrafficConfig,
    rng: StdRng,
    endpoints: Vec<(Ipv4Addr, Ipv4Addr, u16, u16)>,
    flow_ids: Vec<usize>,
    cdf: Vec<f64>,
}

impl Reference {
    fn new(cfg: &TrafficConfig, shape: Shape) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let endpoints: Vec<_> = (0..cfg.flows)
            .map(|i| {
                let src = Ipv4Addr::from(0x0A00_0000 | (i as u32 & 0x00FF_FFFF));
                let sport = rng.gen_range(1024..=u16::MAX);
                (src, Ipv4Addr::new(192, 0, 2, 1), sport, 80)
            })
            .collect();
        let proto = wire_proto(cfg);
        let tuple = |i: usize| {
            let (src_ip, dst_ip, src_port, dst_port) = endpoints[i];
            FiveTuple {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
            }
        };
        let flow_ids: Vec<usize> = (0..cfg.flows)
            .filter(|&i| match shape {
                Shape::Whole => true,
                Shape::Rss { lane, lanes } => {
                    lanes == 1 || (tuple(i).stable_hash() % lanes as u64) as usize == lane
                }
                Shape::Subset { modulus, .. } => tuple(i).src_port % modulus != 0,
            })
            .collect();
        let whole = matches!(shape, Shape::Whole | Shape::Rss { lanes: 1, .. });
        let mut cdf = Vec::new();
        if let FlowDistribution::Zipf(s) = cfg.distribution {
            let raw: Vec<f64> = (1..=cfg.flows)
                .map(|rank| 1.0 / (rank as f64).powf(s))
                .collect();
            let total: f64 = raw.iter().sum();
            let weights: Vec<f64> = raw.into_iter().map(|w| w / total).collect();
            let share: f64 = if whole {
                1.0
            } else {
                flow_ids.iter().map(|&i| weights[i]).sum()
            };
            let mut acc = 0.0;
            for &i in &flow_ids {
                acc += weights[i] / share.max(f64::MIN_POSITIVE);
                cdf.push(acc);
            }
            if let Some(last) = cdf.last_mut() {
                *last = 1.0;
            }
        }
        let rng = match shape {
            Shape::Rss { lane, lanes } if lanes > 1 => StdRng::seed_from_u64(
                cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1),
            ),
            Shape::Subset { salt, .. } => StdRng::seed_from_u64(
                cfg.seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(salt.wrapping_add(1)),
            ),
            _ => rng,
        };
        Self {
            cfg: cfg.clone(),
            rng,
            endpoints,
            flow_ids,
            cdf,
        }
    }

    fn next_flow_id(&mut self) -> usize {
        let k = match self.cfg.distribution {
            FlowDistribution::Uniform => self.rng.gen_range(0..self.flow_ids.len()),
            FlowDistribution::Zipf(_) => {
                let u: f64 = self.rng.gen();
                self.cdf
                    .partition_point(|&c| c < u)
                    .min(self.flow_ids.len() - 1)
            }
        };
        self.flow_ids[k]
    }

    fn next_packet(&mut self) -> Packet {
        let flow = self.next_flow_id();
        build(&self.cfg, self.endpoints[flow])
    }
}

fn wire_proto(cfg: &TrafficConfig) -> IpProto {
    match cfg.proto {
        IpProto::Tcp => IpProto::Tcp,
        _ => IpProto::Udp,
    }
}

/// One generator frame, built whole by the public builders.
fn build(cfg: &TrafficConfig, (src, dst, sport, dport): (Ipv4Addr, Ipv4Addr, u16, u16)) -> Packet {
    let buf = Vec::new();
    match wire_proto(cfg) {
        IpProto::Tcp => {
            let ack = TcpFlags(TcpFlags::ACK);
            let len = cfg.payload_len;
            Packet::build_tcp_into(buf, SRC_MAC, DST_MAC, src, dst, sport, dport, ack, len)
        }
        _ => Packet::build_udp_into(
            buf,
            SRC_MAC,
            DST_MAC,
            src,
            dst,
            sport,
            dport,
            cfg.payload_len,
        ),
    }
}

fn l4_checksum(p: &Packet) -> u16 {
    match p.udp() {
        Ok(udp) => udp.checksum(),
        Err(_) => p.tcp().unwrap().checksum(),
    }
}

fn traffic() -> impl Strategy<Value = TrafficConfig> {
    let one_of = |values: &'static [usize]| (0..values.len()).prop_map(move |i| values[i]);
    let payload_len = prop_oneof![
        2 => one_of(&[0, 1, 7, 64, 65, 1400]),
        1 => 0usize..1473,
    ];
    let distribution = prop_oneof![
        1 => Just(FlowDistribution::Uniform),
        2 => one_of(&[0, 1, 2]).prop_map(|i| FlowDistribution::Zipf([0.5, 1.1, 2.0][i])),
    ];
    (
        any::<bool>(),
        payload_len,
        distribution,
        1usize..300,
        any::<u64>(),
    )
        .prop_map(
            |(tcp, payload_len, distribution, flows, seed)| TrafficConfig {
                flows,
                distribution,
                proto: if tcp { IpProto::Tcp } else { IpProto::Udp },
                payload_len,
                seed,
            },
        )
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Whole),
        (1usize..5, any::<usize>()).prop_map(|(lanes, lane)| Shape::Rss {
            lane: lane % lanes,
            lanes,
        }),
        (any::<u64>(), 2u16..7).prop_map(|(salt, modulus)| Shape::Subset { salt, modulus }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn stamped_frames_are_the_built_frames(cfg in traffic(), shape in shape()) {
        let mut reference = Reference::new(&cfg, shape);
        let mut ids = generator(&cfg, shape);
        prop_assert_eq!(ids.flows_in_slice(), reference.flow_ids.len());
        if reference.flow_ids.is_empty() {
            return Ok(());
        }
        let mut fresh = generator(&cfg, shape);
        let mut dirty = generator(&cfg, shape);
        let mut pooled = generator(&cfg, shape);
        let mut pool = PacketPool::new(2048, 64);
        pool.prewarm(48);
        for round in 0..3 {
            let batch = pooled.next_batch_from_pool(16, &mut pool);
            for from_pool in batch.iter() {
                let expected = reference.next_packet();
                prop_assert_eq!(ids.next_flow_id(), {
                    let src = u32::from(expected.ipv4().unwrap().src());
                    (src & 0x00FF_FFFF) as usize
                });
                let packet = fresh.next_packet();
                prop_assert_eq!(packet.as_slice(), expected.as_slice(), "round {}", round);
                prop_assert_eq!(packet.cached_flow_hash(), Some(packet_flow_hash(&expected)));
                // A recycled buffer that last held a longer frame.
                let stale = vec![0xA5u8; 1600];
                let restamped = dirty.next_packet_into(stale);
                prop_assert_eq!(restamped.as_slice(), expected.as_slice());
                prop_assert_eq!(from_pool.as_slice(), expected.as_slice());
                prop_assert_eq!(from_pool.cached_flow_hash(), packet.cached_flow_hash());
            }
            // The next round stamps over this round's frames.
            pool.recycle_batch(batch);
        }
        prop_assert_eq!(pool.stats().misses, 0);
    }
}

/// How the chain spends one refilled batch before it is recycled.
#[derive(Debug, Clone, Copy)]
struct Spend {
    /// Packets the next refill asks for.
    n: usize,
    /// Bit `i % 8` set: the chain drops the `i`-th packet.
    drops: u8,
    /// The first surviving packet comes back in a buffer grown past the
    /// frame.
    grow: bool,
    /// Foreign packets appended, so the batch may come back longer than
    /// the next refill asks for.
    extra: usize,
}

fn spends() -> impl Strategy<Value = Vec<Spend>> {
    let spend =
        (1usize..24, any::<u8>(), any::<bool>(), 0usize..6).prop_map(|(n, drops, grow, extra)| {
            Spend {
                n,
                drops,
                grow,
                extra,
            }
        });
    proptest::collection::vec(spend, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A lane's batches come home whole and are rewritten in place: what
    /// a refill yields is byte for byte, hash for hash, what a fresh
    /// generator's `next_batch` and the from-scratch reference build —
    /// whatever the chain did to the spent batch (a TTL hop, a MAC swap,
    /// a NAT rewrite that leaves a translated tuple cached, drops, a
    /// grown buffer, packets that were never the generator's) — and the
    /// refilled packet's `flow()` is its new bytes' tuple, never a stale
    /// one.
    #[test]
    fn refilled_batches_are_the_frames_of_a_fresh_generator(
        cfg in traffic(),
        shape in shape(),
        spends in spends(),
    ) {
        let mut reference = Reference::new(&cfg, shape);
        if reference.flow_ids.is_empty() {
            return Ok(());
        }
        let mut fresh = generator(&cfg, shape);
        let mut refilling = generator(&cfg, shape);
        // Slabs smaller than most frames: fresh ones grow on first use.
        let mut pool = PacketPool::new(64, 4096);
        let mut ttl = TtlDecrement::new();
        let mut mac = MacSwap::new();
        let mut nat = SourceNat::new(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            1024..=65_535,
        );
        // `taken - returned`: what the chain holds, plus what it dropped
        // (freed, never returned), less what it added (returned, never
        // taken).
        let outstanding = |pool: &PacketPool| {
            let stats = pool.stats();
            stats.taken as i64 - stats.returned as i64
        };
        let (mut spent_packets, mut refilled, mut leaked) = (0, 0, 0);
        for (round, spend) in spends.iter().enumerate() {
            let mut batch = refilling.next_batch_from_pool(spend.n, &mut pool);
            let expected = fresh.next_batch(spend.n);
            prop_assert_eq!(batch.len(), spend.n);
            for (got, want) in batch.iter_mut().zip(expected.iter()) {
                let built = reference.next_packet();
                prop_assert_eq!(got.as_slice(), built.as_slice(), "round {}", round);
                prop_assert_eq!(want.as_slice(), built.as_slice());
                prop_assert_eq!(got.cached_flow_hash(), Some(packet_flow_hash(&built)));
                prop_assert_eq!(got.cached_flow_hash(), want.cached_flow_hash());
                prop_assert_eq!(got.flow(), FiveTuple::of(&built), "a stale tuple");
            }
            // Last round's batch, banked whole, was this round's shell.
            refilled += spent_packets.min(spend.n) as u64;
            prop_assert_eq!(pool.stats().refilled, refilled, "round {}", round);
            prop_assert_eq!(outstanding(&pool), leaked + spend.n as i64);

            let mut batch = nat.process(mac.process(ttl.process(batch)));
            let mut i = 0;
            batch.retain(|_| {
                i += 1;
                spend.drops & (1 << ((i - 1) % 8)) == 0
            });
            leaked += (spend.n - batch.len()) as i64;
            if spend.grow {
                if let Some(first) = batch.iter_mut().next() {
                    let mut grown = std::mem::replace(first, Packet::from_slice(&[])).into_bytes();
                    grown.extend_from_slice(&[0xEE; 1600]);
                    *first = Packet::from_bytes(grown);
                }
            }
            for k in 0..spend.extra {
                batch.push(Packet::from_slice(&vec![0x5A; 7 * k]));
            }
            leaked -= spend.extra as i64;
            spent_packets = batch.len();
            pool.recycle_batch(batch);
            prop_assert_eq!(outstanding(&pool), leaked, "banked packets count as returned");
        }
    }
}

/// Empties this thread's spare list.
fn drain_spares() {
    while local_spares().buffers > 0 {
        take_local();
    }
}

proptest! {
    #[test]
    fn recycled_spares_yield_the_frames_of_a_fresh_generator(
        cfg in traffic(),
        capacities in proptest::collection::vec(1usize..2_000, 1..40),
        fill in any::<u8>(),
    ) {
        drain_spares();
        // Spent buffers shorter and longer than the frame, full of junk.
        recycle_local(capacities.iter().map(|&c| Packet::from_bytes(vec![fill; c])));
        prop_assert_eq!(local_spares().buffers, capacities.len());

        let mut reference = Reference::new(&cfg, Shape::Whole);
        let mut primed = PacketGen::new(cfg.clone());
        for round in 0..2 {
            // Three more packets than spares: the tail gets fresh buffers.
            let mut batch = primed.next_batch(capacities.len() + 3).into_packets();
            prop_assert_eq!(local_spares().buffers, 0, "the generator draws from the list");
            for packet in &batch {
                let expected = reference.next_packet();
                prop_assert_eq!(packet.len(), cfg.frame_len());
                prop_assert_eq!(packet.as_slice(), expected.as_slice(), "round {}", round);
                prop_assert_eq!(packet.cached_flow_hash(), Some(packet_flow_hash(&expected)));
            }
            // The next round stamps over this round's frames.
            recycle_local(batch.drain(..));
        }
        drain_spares();
    }
}

#[test]
fn a_give_on_one_thread_is_never_visible_on_another() {
    use std::sync::mpsc::channel;

    drain_spares();
    let (given_tx, given_rx) = channel();
    let (looked_tx, looked_rx) = channel::<()>();
    let giver = std::thread::spawn(move || {
        let mut batch = PacketGen::new(TrafficConfig::default())
            .next_batch(32)
            .into_packets();
        recycle_local(batch.drain(..));
        let held = local_spares();
        given_tx.send(held).unwrap();
        // Hold the list until the other thread has looked at its own.
        looked_rx.recv().unwrap();
        assert_eq!(local_spares(), held, "nobody else drew from this list");
    });
    let held = given_rx.recv().unwrap();
    assert_eq!(held.buffers, 32);
    assert_eq!(local_spares().buffers, 0);
    assert_eq!(take_local().capacity(), 0, "this thread's list is empty");
    looked_tx.send(()).unwrap();
    giver.join().unwrap();
}

/// The only flow of the first population whose transport checksum, summed
/// whole, comes out as one's-complement zero; with what a generator
/// restricted to that flow emits.
fn zero_landing(proto: IpProto, payload_len: usize) -> (Packet, Packet) {
    for seed in 0..64 {
        let cfg = TrafficConfig {
            flows: 1 << 16,
            proto,
            payload_len,
            seed,
            ..TrafficConfig::default()
        };
        let reference = Reference::new(&cfg, Shape::Whole);
        let zero = |e: &&(Ipv4Addr, Ipv4Addr, u16, u16)| {
            let sum = l4_checksum(&build(&cfg, **e));
            sum == 0 || sum == 0xFFFF
        };
        if let Some(&endpoints) = reference.endpoints.iter().find(zero) {
            let mut only = PacketGen::subset(cfg.clone(), 1, |t| {
                (t.src_ip, t.src_port) == (endpoints.0, endpoints.2)
            });
            assert_eq!(only.flows_in_slice(), 1);
            return (build(&cfg, endpoints), only.next_packet());
        }
    }
    panic!("no flow of 64 populations of 65 536 sums to zero");
}

#[test]
fn a_udp_sum_of_zero_is_stamped_as_ffff() {
    for payload_len in [0, 7] {
        let (built, stamped) = zero_landing(IpProto::Udp, payload_len);
        assert_eq!(l4_checksum(&built), 0xFFFF, "RFC 768: zero means none");
        assert_eq!(stamped.as_slice(), built.as_slice());
        let ip = stamped.ipv4().unwrap();
        assert!(stamped.udp().unwrap().checksum_ok(ip.src(), ip.dst()));
    }
}

#[test]
fn a_tcp_sum_of_zero_stays_zero() {
    for payload_len in [0, 7] {
        let (built, stamped) = zero_landing(IpProto::Tcp, payload_len);
        assert_eq!(l4_checksum(&built), 0x0000);
        assert_eq!(stamped.as_slice(), built.as_slice());
    }
}

/// Same seed ⇒ same bytes across commits, not only across runs: the
/// digests were taken from the generator before the template (they also
/// pin the draws — a different flow is a different frame).
#[test]
fn streams_replay_the_digests_pinned_before_the_template() {
    let digest = |cfg: TrafficConfig, shape: Shape| {
        let mut g = generator(&cfg, shape);
        let mut stream = Vec::new();
        for _ in 0..4096 {
            stream.extend_from_slice(g.next_packet().as_slice());
        }
        stable_hash_bytes(&stream)
    };
    assert_eq!(
        digest(TrafficConfig::default(), Shape::Whole),
        UDP_UNIFORM_DIGEST
    );
    let zipf_tcp = TrafficConfig {
        flows: 16_384,
        distribution: FlowDistribution::Zipf(1.1),
        proto: IpProto::Tcp,
        payload_len: 33,
        seed: 601,
    };
    assert_eq!(
        digest(zipf_tcp, Shape::Rss { lane: 1, lanes: 2 }),
        TCP_ZIPF_SLICE_DIGEST
    );
}

const UDP_UNIFORM_DIGEST: u64 = 0x547e_df93_92e0_5df0;
const TCP_ZIPF_SLICE_DIGEST: u64 = 0x7e8f_1e8f_7078_4da0;

/// A UDP frame with `options` spliced behind the fixed IPv4 header, the
/// given TTL and identification, and a valid header checksum.
fn routed(ttl: u8, identification: u16, options: &[u8], payload_len: usize) -> Packet {
    let src = Ipv4Addr::new(10, 1, 2, 3);
    let dst = Ipv4Addr::new(192, 0, 2, 1);
    let built = Packet::build_udp(SRC_MAC, DST_MAC, src, dst, 4_000, 53, payload_len);
    let mut bytes = built.as_slice().to_vec();
    bytes.splice(ETH + 20..ETH + 20, options.iter().copied());
    bytes[ETH] = 0x40 | (5 + options.len() / 4) as u8;
    let mut p = Packet::from_slice(&bytes);
    let mut ip = p.ipv4_mut().unwrap();
    ip.set_total_len((bytes.len() - ETH) as u16);
    ip.set_identification(identification);
    ip.set_ttl(ttl);
    ip.update_checksum();
    p
}

/// One router hop the way it was done before: decrement, zero the
/// checksum field, sum the whole header again.
fn decrement_and_recompute(p: &Packet) -> Packet {
    let mut p = Packet::from_slice(p.as_slice());
    let mut ip = p.ipv4_mut().unwrap();
    ip.decrement_ttl();
    ip.update_checksum();
    p
}

fn hop(packets: Vec<Packet>) -> PacketBatch {
    TtlDecrement::new().process(packets.into_iter().collect())
}

fn ip_options() -> impl Strategy<Value = Vec<u8>> {
    (0usize..11, proptest::collection::vec(any::<u8>(), 40))
        .prop_map(|(words, bytes)| bytes[..words * 4].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ttl_hop_patches_like_a_full_recompute(
        identification in any::<u16>(),
        options in ip_options(),
        payload_len in 0usize..40,
    ) {
        for ttl in 2..=255u8 {
            let p = routed(ttl, identification, &options, payload_len);
            let expected = decrement_and_recompute(&p);
            let out = hop(vec![p]);
            let got = out.iter().next().expect("a live packet is forwarded");
            prop_assert_eq!(got.as_slice(), expected.as_slice(), "ttl {}", ttl);
            prop_assert!(got.ipv4().unwrap().checksum_ok());
            prop_assert_eq!(got.ipv4().unwrap().ttl(), ttl - 1);
        }
    }

    #[test]
    fn ttl_hop_never_repairs_a_damaged_header(
        ttl in 2..=255u8,
        identification in any::<u16>(),
        options in ip_options(),
        at in 0usize..60,
        flip in 1..=255u8,
    ) {
        let mut p = routed(ttl, identification, &options, 8);
        // One header byte damaged in flight — any but the one holding the
        // version and the header length, which decides what the header is.
        let at = ETH + 1 + at % (19 + options.len());
        p.as_mut_slice()[at] ^= flip;
        prop_assert!(!p.ipv4().unwrap().checksum_ok());
        let arrived_ttl = p.ipv4().unwrap().ttl();
        let out = hop(vec![p]);
        if arrived_ttl > 1 {
            let got = out.iter().next().expect("still a live packet");
            prop_assert!(!got.ipv4().unwrap().checksum_ok(), "laundered a damaged header");
            prop_assert_eq!(got.ipv4().unwrap().ttl(), arrived_ttl - 1);
        } else {
            prop_assert!(out.is_empty());
        }
    }
}

/// An identification that makes the header checksum *after* the hop land
/// on one's-complement zero: with the field at 0 a recompute stores `c`,
/// and `c` in the field makes the covered sum `0xFFFF`.
fn identification_landing_on_zero(ttl: u8, options: &[u8]) -> u16 {
    let at_zero = decrement_and_recompute(&routed(ttl, 0, options, 8));
    at_zero.ipv4().unwrap().header_checksum()
}

#[test]
fn ttl_hop_lands_on_zero_exactly_like_a_recompute() {
    for options in [&[][..], &[7u8; 8][..]] {
        for ttl in [2, 64, 255] {
            let p = routed(
                ttl,
                identification_landing_on_zero(ttl, options),
                options,
                8,
            );
            let out = hop(vec![p]);
            let ip = out.iter().next().unwrap().ipv4().unwrap();
            assert_eq!(ip.header_checksum(), 0x0000, "never the other zero");
            assert!(ip.checksum_ok());
        }
    }
}

#[test]
fn ttl_hop_keeps_a_header_stored_with_the_other_zero_valid() {
    // Before the hop the checksum is zero; a sender may store it as
    // 0xFFFF, which verifies just the same — and must still after the hop.
    let identification = {
        let at_zero = routed(64, 0, &[], 8);
        at_zero.ipv4().unwrap().header_checksum()
    };
    let mut p = routed(64, identification, &[], 8);
    assert_eq!(p.ipv4().unwrap().header_checksum(), 0x0000);
    p.as_mut_slice()[ETH + 10..ETH + 12].fill(0xFF);
    assert!(p.ipv4().unwrap().checksum_ok());
    let expected = decrement_and_recompute(&p);
    let out = hop(vec![p]);
    let got = out.iter().next().unwrap();
    assert!(got.ipv4().unwrap().checksum_ok());
    assert_eq!(got.as_slice(), expected.as_slice());
}

#[test]
fn ttl_hop_drops_expired_and_non_ipv4_and_keeps_the_rest_in_order() {
    let mut arp = routed(64, 1, &[], 8);
    arp.ethernet_mut().unwrap().set_ethertype(EtherType::Arp);
    let mut runt = routed(64, 2, &[], 0);
    runt = Packet::from_slice(&runt.as_slice()[..ETH + 12]);
    let batch = vec![
        routed(9, 10, &[], 8),
        routed(1, 11, &[], 8),
        arp,
        routed(0, 12, &[], 8),
        runt,
        routed(2, 13, &[1, 1, 1, 1], 8),
        Packet::from_slice(&[]),
    ];
    let out = hop(batch);
    let seen: Vec<(u16, u8)> = out
        .iter()
        .map(|p| {
            let ip = p.ipv4().unwrap();
            (ip.identification(), ip.ttl())
        })
        .collect();
    assert_eq!(seen, vec![(10, 8), (13, 1)]);
}
