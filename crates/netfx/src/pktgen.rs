//! Synthetic traffic generation — the DPDK stand-in.
//!
//! The paper's testbed pulls packets from DPDK in user-defined batch
//! sizes. This module generates equivalent batches in memory: a fixed
//! population of flows (5-tuples), a flow-popularity distribution
//! (uniform or Zipf, matching how load-balancer evaluations model
//! traffic), and configurable payload sizes. Generation is seeded and
//! fully deterministic so experiments are reproducible run-to-run.
//!
//! A DPDK RX burst costs next to nothing per packet, so the stand-in is
//! built to stay out of the measurement's way. All packets of one
//! generator are the same frame but for the flow's endpoints and the two
//! checksums those feed, so the frame is built once (`FrameTemplate`, by
//! the public [`Packet`] builders), and everything that depends on the
//! flow alone — the 14 bytes from the IPv4 checksum to the destination
//! port, the transport checksum and the flow hash — is computed once per
//! flow at construction, into a 24-byte `FlowStamp` per kept flow indexed
//! by slice position. The checksums are folded from *hoisted sum +
//! endpoint words*, the builders' own sum with the terms reordered, so
//! the bytes are theirs exactly. A packet is then a draw, a copy of the
//! template, one 14-byte and one 2-byte write from the drawn record, and
//! the record's hash. A Zipf draw looks up one cell of a cutpoint table
//! over the CDF and searches only that cell; the index is the one a
//! search of the whole table returns, for every `u`.
//!
//! [`PacketGen::next_batch_from_pool`] takes back the batch a lane
//! recycled, packets and all, and rewrites each packet where it lies
//! through the same [`PacketGen::next_packet_into`] a fresh packet is
//! made by: the whole frame is rewritten over whatever the buffer held,
//! and the packet (flow cache included) is built anew, so a refilled
//! batch is byte-for-byte what a fresh generator emits.

use crate::batch::PacketBatch;
use crate::checksum;
use crate::flow::FiveTuple;
use crate::headers::ethernet::MacAddr;
use crate::headers::ipv4::{pseudo_header_checksum, IpProto, IPV4_MIN_HDR_LEN};
use crate::headers::tcp::{TcpFlags, TCP_MIN_HDR_LEN};
use crate::headers::udp::UDP_HDR_LEN;
use crate::headers::ETHERNET_HDR_LEN;
use crate::packet::Packet;
use crate::pool::{self, PacketPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// How flow popularity is distributed across the flow population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowDistribution {
    /// Every flow equally likely.
    Uniform,
    /// Zipf with the given exponent (`s > 0`); `s ≈ 1` models typical
    /// heavy-tailed Internet traffic.
    Zipf(f64),
}

/// Traffic generator configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of distinct flows in the population.
    pub flows: usize,
    /// Flow-popularity distribution.
    pub distribution: FlowDistribution,
    /// Transport protocol for generated packets.
    pub proto: IpProto,
    /// UDP/TCP payload length in bytes.
    pub payload_len: usize,
    /// RNG seed; same seed ⇒ same packet stream.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            flows: 1024,
            distribution: FlowDistribution::Uniform,
            proto: IpProto::Udp,
            payload_len: 64,
            seed: 0xBEEF_CAFE,
        }
    }
}

impl TrafficConfig {
    /// Length in bytes of every frame a generator for this config emits
    /// (Ethernet + minimal IPv4 + transport header + payload) — what a
    /// packet buffer must hold to carry one without growing.
    pub fn frame_len(&self) -> usize {
        let l4_hdr = match PacketGen::wire_proto(self) {
            IpProto::Tcp => TCP_MIN_HDR_LEN,
            _ => UDP_HDR_LEN,
        };
        L4 + l4_hdr + self.payload_len
    }
}

/// Frame offset of the IPv4 header checksum. It, the two addresses and
/// the two ports are adjacent, so one 14-byte window covers every
/// per-flow byte but the transport checksum.
const IP_CSUM: usize = ETHERNET_HDR_LEN + 10;
/// Frame offset of the transport header.
const L4: usize = ETHERNET_HDR_LEN + IPV4_MIN_HDR_LEN;

/// Everything a packet of one flow carries that the template does not,
/// computed once per flow: a draw reads one 24-byte record.
#[derive(Debug, Clone, Copy)]
struct FlowStamp {
    /// Frame bytes `IP_CSUM..L4 + 4`: IPv4 checksum, source and
    /// destination address, source and destination port.
    window: [u8; 14],
    /// The transport checksum, big-endian (UDP's 0 already `0xFFFF`).
    l4_csum: [u8; 2],
    /// The flow's [`FiveTuple::stable_hash`].
    hash: u64,
}

const _: () = assert!(std::mem::size_of::<FlowStamp>() == 24);

/// Which flows of the population a generator keeps, judged by tuple and
/// stable hash; `None` keeps every flow (the whole mix).
type Keep<'a> = Option<&'a dyn Fn(&FiveTuple, u64) -> bool>;

/// The frame every packet of a generator shares, built once by the
/// public packet builders for all-zero endpoints, with the one's-
/// complement sums of its constant words hoisted out of the per-flow
/// arithmetic.
#[derive(Debug)]
struct FrameTemplate {
    /// The whole frame; endpoint and checksum fields hold zeros.
    bytes: Vec<u8>,
    /// Folded sum of the IPv4 header with its checksum field zero.
    ip_base: u32,
    /// Folded sum of the pseudo-header's protocol and length words, the
    /// transport header and the payload (odd-length pad included).
    l4_base: u32,
    /// Frame offset of the transport checksum.
    l4_csum_at: usize,
    /// The transport protocol the frame carries.
    proto: IpProto,
}

impl FrameTemplate {
    fn new(config: &TrafficConfig) -> Self {
        let (src_mac, dst_mac) = (MacAddr([2, 0, 0, 0, 0, 1]), MacAddr([2, 0, 0, 0, 0, 2]));
        let zero = Ipv4Addr::UNSPECIFIED;
        let proto = PacketGen::wire_proto(config);
        let (frame, l4_csum_at) = match proto {
            IpProto::Tcp => (
                Packet::build_tcp_into(
                    Vec::new(),
                    src_mac,
                    dst_mac,
                    zero,
                    zero,
                    0,
                    0,
                    TcpFlags(TcpFlags::ACK),
                    config.payload_len,
                ),
                L4 + 16,
            ),
            _ => (
                Packet::build_udp_into(
                    Vec::new(),
                    src_mac,
                    dst_mac,
                    zero,
                    zero,
                    0,
                    0,
                    config.payload_len,
                ),
                L4 + 6,
            ),
        };
        let mut bytes = frame.into_bytes().to_vec();
        debug_assert_eq!(bytes.len(), config.frame_len());
        bytes[IP_CSUM..IP_CSUM + 2].fill(0);
        bytes[l4_csum_at..l4_csum_at + 2].fill(0);
        // The builders above already refused a segment longer than a u16.
        let mut l4 = pseudo_header_checksum(zero, zero, proto, (bytes.len() - L4) as u16);
        l4.push(&bytes[L4..]);
        Self {
            ip_base: u32::from(!checksum::checksum(&bytes[ETHERNET_HDR_LEN..L4])),
            l4_base: u32::from(!l4.finish()),
            bytes,
            l4_csum_at,
            proto,
        }
    }

    /// The record of `tuple`'s flow (whose stable hash is `hash`): its
    /// endpoint fields and both checksums — the sums the builders would
    /// compute over the whole frame, with the constant part already added.
    fn flow_stamp(&self, tuple: &FiveTuple, hash: u64) -> FlowStamp {
        let (s, d) = (u32::from(tuple.src_ip), u32::from(tuple.dst_ip));
        let (sport, dport) = (tuple.src_port, tuple.dst_port);
        let addrs = (s >> 16) + (s & 0xFFFF) + (d >> 16) + (d & 0xFFFF);
        let ip_csum = !checksum::fold(self.ip_base + addrs);
        let mut l4_csum =
            !checksum::fold(self.l4_base + addrs + u32::from(sport) + u32::from(dport));
        if self.proto == IpProto::Udp && l4_csum == 0 {
            // RFC 768: zero means "no checksum"; `udp::emit` does the same.
            l4_csum = 0xFFFF;
        }
        let mut window = [0; 14];
        window[0..2].copy_from_slice(&ip_csum.to_be_bytes());
        window[2..6].copy_from_slice(&s.to_be_bytes());
        window[6..10].copy_from_slice(&d.to_be_bytes());
        window[10..12].copy_from_slice(&sport.to_be_bytes());
        window[12..14].copy_from_slice(&dport.to_be_bytes());
        FlowStamp {
            window,
            l4_csum: l4_csum.to_be_bytes(),
            hash,
        }
    }

    /// Writes the frame of `stamp`'s flow over `buf`, whatever it held:
    /// the template, then the record's two byte ranges.
    ///
    /// A spent frame of this generator (every buffer a refill rewrites,
    /// unless a chain resized it) already has the frame's length, so the
    /// template is copied over it where it lies; any other buffer is
    /// cleared and the template appended, out of line. The buffer moves
    /// through by value so that only that cold call needs it in memory.
    #[inline(always)]
    fn write(&self, mut buf: Vec<u8>, stamp: &FlowStamp) -> Vec<u8> {
        if buf.len() == self.bytes.len() {
            buf.copy_from_slice(&self.bytes);
        } else {
            buf = self.refit(buf);
        }
        buf[IP_CSUM..L4 + 4].copy_from_slice(&stamp.window);
        buf[self.l4_csum_at..self.l4_csum_at + 2].copy_from_slice(&stamp.l4_csum);
        buf
    }

    /// `buf` cleared and holding the template.
    #[cold]
    #[inline(never)]
    fn refit(&self, mut buf: Vec<u8>) -> Vec<u8> {
        buf.clear();
        buf.extend_from_slice(&self.bytes);
        buf
    }
}

/// A deterministic synthetic packet source.
#[derive(Debug)]
pub struct PacketGen {
    config: TrafficConfig,
    rng: StdRng,
    /// One record per flow this generator draws from, indexed by slice
    /// position — what a draw reads, and all it reads.
    stamps: Vec<FlowStamp>,
    /// The flow id at each slice position of an RSS slice or subset;
    /// empty for a whole-mix generator, where the position *is* the id.
    flow_ids: Vec<u32>,
    /// Cumulative probability table for Zipf sampling (empty for uniform),
    /// by slice position.
    zipf_cdf: Vec<f64>,
    /// Cutpoints into `zipf_cdf`: `zipf_guide[j]` counts the entries
    /// below `j / K` for `j in 0..=K`, `K = zipf_cdf.len()` rounded up to
    /// a power of two, so a draw `u` searches one cell of the table, not
    /// all of it. `K` is a power of two so that `u * K`, its floor and
    /// `j / K` are exact in `f64`: the cell provably brackets the index
    /// the whole-table search finds.
    zipf_guide: Vec<u32>,
    /// This generator's probability mass within the whole mix (1.0 for
    /// a whole-mix generator).
    share: f64,
    template: FrameTemplate,
    generated: u64,
}

impl PacketGen {
    /// Creates a generator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.flows` is zero or a Zipf exponent is not
    /// positive and finite.
    pub fn new(config: TrafficConfig) -> Self {
        Self::rss_slice(config, 0, 1)
    }

    /// Creates a generator for one RSS slice of `config`'s flow mix.
    ///
    /// The flow population, endpoints, and per-flow popularity weights
    /// are materialized identically on every lane (same seed ⇒ same
    /// flows everywhere); the slice then keeps exactly the flows whose
    /// [`FiveTuple::stable_hash`] lands on `lane` modulo `lanes` — RSS's
    /// flow placement — and renormalizes the popularity distribution over the kept flows.
    /// The union of all `lanes` slices is the whole mix, each flow on
    /// exactly one lane; [`share`](Self::share) reports the slice's
    /// probability mass so callers can split a packet budget
    /// proportionally.
    ///
    /// `rss_slice(config, 0, 1)` is byte-identical to
    /// [`new`](Self::new). For `lanes > 1` each lane draws from its own
    /// seeded stream (derived from `config.seed` and `lane`), so runs
    /// stay deterministic per lane.
    ///
    /// # Panics
    ///
    /// Panics if `config.flows` is zero, `lane >= lanes`, or a Zipf
    /// exponent is not positive and finite. A slice that holds no flows
    /// (population smaller than the lane count) is valid with
    /// `share() == 0.0`; drawing from it panics.
    pub fn rss_slice(config: TrafficConfig, lane: usize, lanes: usize) -> Self {
        assert!(lane < lanes, "lane {lane} out of range for {lanes} lanes");
        let template = FrameTemplate::new(&config);
        if lanes == 1 {
            // Whole mix: the mass is exactly 1.0 by definition, and the
            // draws continue the population rng's stream.
            let (rng, stamps, _) = Self::materialize(&config, &template, None);
            return Self::from_kept(config, template, stamps, Vec::new(), Some(1.0), rng);
        }
        let on_lane = |_: &FiveTuple, hash: u64| (hash % lanes as u64) as usize == lane;
        let (_, stamps, flow_ids) = Self::materialize(&config, &template, Some(&on_lane));
        let rng = StdRng::seed_from_u64(
            config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1),
        );
        Self::from_kept(config, template, stamps, flow_ids, None, rng)
    }

    /// Creates a generator restricted to the flows `keep` accepts — the
    /// targeted-traffic constructor (e.g. a flood aimed at exactly the
    /// flows a Maglev table steers to one backend).
    ///
    /// The flow population, endpoints, and popularity weights are
    /// materialized exactly as [`new`](Self::new) would (same seed ⇒
    /// same flows), then the kept subset is renormalized like an RSS
    /// slice. Draws come from an independent seeded stream derived from
    /// `config.seed` and `stream_salt`, so a subset generator never
    /// perturbs — and is never perturbed by — the whole-mix generator
    /// it was carved from.
    ///
    /// # Panics
    ///
    /// Panics if `config.flows` is zero or a Zipf exponent is invalid.
    /// A subset that keeps no flows is valid with `share() == 0.0`;
    /// drawing from it panics.
    pub fn subset(
        config: TrafficConfig,
        stream_salt: u64,
        keep: impl Fn(&FiveTuple) -> bool,
    ) -> Self {
        let template = FrameTemplate::new(&config);
        let keep_tuple = |tuple: &FiveTuple, _: u64| keep(tuple);
        let (_, stamps, flow_ids) = Self::materialize(&config, &template, Some(&keep_tuple));
        let rng = StdRng::seed_from_u64(
            config.seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(stream_salt.wrapping_add(1)),
        );
        Self::from_kept(config, template, stamps, flow_ids, None, rng)
    }

    /// The one constructor behind [`rss_slice`](Self::rss_slice) and
    /// [`subset`](Self::subset): renormalizes the popularity weights over
    /// the kept flows (those at `flow_ids`, or every flow for the whole
    /// mix, which has no ids; their mass is `share`, summed here when not
    /// given) and builds the CDF and its cutpoint table.
    fn from_kept(
        config: TrafficConfig,
        template: FrameTemplate,
        stamps: Vec<FlowStamp>,
        flow_ids: Vec<u32>,
        share: Option<f64>,
        rng: StdRng,
    ) -> Self {
        let weight = Self::weights_for(&config);
        let kept_weight = |k: usize| weight(flow_ids.get(k).map_or(k, |&id| id as usize));
        let share = share.unwrap_or_else(|| (0..stamps.len()).map(kept_weight).sum());
        let mut zipf_cdf = Vec::new();
        let mut zipf_guide = Vec::new();
        if let FlowDistribution::Zipf(_) = config.distribution {
            zipf_cdf.reserve_exact(stamps.len());
            let mut acc = 0.0;
            for k in 0..stamps.len() {
                acc += kept_weight(k) / share.max(f64::MIN_POSITIVE);
                zipf_cdf.push(acc);
            }
            // Guard against floating-point shortfall at the end.
            if let Some(last) = zipf_cdf.last_mut() {
                *last = 1.0;
            }
            zipf_guide = Self::cutpoints(&zipf_cdf);
        }
        Self {
            template,
            config,
            rng,
            stamps,
            flow_ids,
            zipf_cdf,
            zipf_guide,
            share,
            generated: 0,
        }
    }

    /// The cutpoint table of a (sorted) CDF: entry `j` counts the values
    /// below `j / K`, for `j in 0..=K` and `K` the CDF's length rounded
    /// up to a power of two. One merge pass.
    fn cutpoints(cdf: &[f64]) -> Vec<u32> {
        let cells = cdf.len().next_power_of_two();
        let mut below = 0;
        (0..=cells)
            .map(|j| {
                let cut = j as f64 / cells as f64;
                while below < cdf.len() && cdf[below] < cut {
                    below += 1;
                }
                u32::try_from(below).expect("flow population fits u32")
            })
            .collect()
    }

    /// Materializes the flow population for `config` — identical for
    /// every constructor, so the same seed yields the same flows no
    /// matter how they are then filtered — and keeps the record of each
    /// flow `keep` accepts (every flow when `keep` is `None`), in flow-id
    /// order, with its flow id beside it (no ids when every flow is kept:
    /// position and id coincide). Returns the RNG in its
    /// post-materialization state (the whole-mix generator keeps drawing
    /// from it).
    ///
    /// # Panics
    ///
    /// Panics if `config.flows` is zero.
    fn materialize(
        config: &TrafficConfig,
        template: &FrameTemplate,
        keep: Keep<'_>,
    ) -> (StdRng, Vec<FlowStamp>, Vec<u32>) {
        assert!(config.flows > 0, "flow population must be non-empty");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut stamps = Vec::new();
        let mut flow_ids = Vec::new();
        if keep.is_none() {
            stamps.reserve_exact(config.flows);
        }
        for i in 0..config.flows {
            let tuple = FiveTuple {
                src_ip: Ipv4Addr::from(0x0A00_0000 | (i as u32 & 0x00FF_FFFF)),
                dst_ip: Ipv4Addr::new(192, 0, 2, 1), // the VIP, TEST-NET-1
                src_port: rng.gen_range(1024..=u16::MAX),
                dst_port: 80,
                proto: template.proto,
            };
            let hash = tuple.stable_hash();
            if let Some(keep) = keep {
                if !keep(&tuple, hash) {
                    continue;
                }
                flow_ids.push(u32::try_from(i).expect("flow population fits u32"));
            }
            stamps.push(template.flow_stamp(&tuple, hash));
        }
        (rng, stamps, flow_ids)
    }

    /// The transport protocol packets are actually built with.
    fn wire_proto(config: &TrafficConfig) -> IpProto {
        match config.proto {
            IpProto::Tcp => IpProto::Tcp,
            _ => IpProto::Udp,
        }
    }

    /// The normalized popularity weight of each flow id over the whole
    /// population, computed per call instead of kept: the same
    /// arithmetic, so the same bits, as a table of them.
    fn weights_for(config: &TrafficConfig) -> impl Fn(usize) -> f64 {
        let zipf = match config.distribution {
            FlowDistribution::Uniform => None,
            FlowDistribution::Zipf(s) => {
                assert!(
                    s > 0.0 && s.is_finite(),
                    "Zipf exponent must be positive, got {s}"
                );
                let total: f64 = (1..=config.flows)
                    .map(|rank| 1.0 / (rank as f64).powf(s))
                    .sum();
                Some((s, total))
            }
        };
        let uniform = 1.0 / config.flows as f64;
        move |i| match zipf {
            None => uniform,
            Some((s, total)) => 1.0 / ((i + 1) as f64).powf(s) / total,
        }
    }

    /// Draws the next flow id according to the configured distribution,
    /// restricted to this generator's slice.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (`share() == 0.0`).
    pub fn next_flow_id(&mut self) -> usize {
        let k = self.next_position();
        self.flow_ids.get(k).map_or(k, |&id| id as usize)
    }

    /// Draws the slice position of the next flow according to the
    /// configured distribution.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (`share() == 0.0`).
    #[inline(always)]
    fn next_position(&mut self) -> usize {
        assert!(!self.stamps.is_empty(), "drawing from an empty RSS slice");
        match self.config.distribution {
            FlowDistribution::Uniform => self.rng.gen_range(0..self.stamps.len()),
            FlowDistribution::Zipf(_) => {
                let u: f64 = self.rng.gen();
                self.zipf_index(u)
            }
        }
    }

    /// The first slice index whose CDF value reaches `u`, for `u` in
    /// `[0, 1)`. With `j / K <= u < (j + 1) / K` that index lies between
    /// the two cutpoints of cell `j`, so only that cell is searched.
    #[inline]
    fn zipf_index(&self, u: f64) -> usize {
        let cells = self.zipf_guide.len() - 1;
        let j = (u * cells as f64) as usize;
        let (lo, hi) = (self.zipf_guide[j] as usize, self.zipf_guide[j + 1] as usize);
        let k = lo + self.zipf_cdf[lo..hi].partition_point(|&c| c < u);
        debug_assert_eq!(k, self.zipf_cdf.partition_point(|&c| c < u));
        k
    }

    /// This generator's probability mass within the whole configured
    /// mix: 1.0 for a whole-mix generator, the renormalization factor
    /// for an RSS slice.
    pub fn share(&self) -> f64 {
        self.share
    }

    /// Number of flows in this generator's slice.
    pub fn flows_in_slice(&self) -> usize {
        self.stamps.len()
    }

    /// Generates one packet into a buffer this thread has spent
    /// ([`pool::recycle_local`]) when there is one, a fresh one otherwise.
    pub fn next_packet(&mut self) -> Packet {
        self.next_packet_into(pool::take_local())
    }

    /// Generates one packet into a caller-provided buffer (e.g. one
    /// drawn from a [`PacketPool`]), whatever it held before.
    ///
    /// The frame bytes are identical to [`next_packet`](Self::next_packet)
    /// for the same generator state; only the buffer's provenance differs
    /// — and identical to what [`Packet::build_udp_into`] /
    /// [`Packet::build_tcp_into`] build for the drawn endpoints.
    /// Per packet this is a draw, the template copied over the buffer
    /// and the drawn flow's record written into it; the record's
    /// checksums and hash were computed when the generator was built.
    /// The generator knows the flow it just wrote, so it stamps the flow
    /// hash on the packet for free — steering never has to re-parse the
    /// headers it already trusts. It stamps the hash only, not the
    /// tuple: a forwarding chain never asks for one, and writing it here
    /// would tax every packet for what a stateful chain's first
    /// [`Packet::flow`] gets from the bytes it is about to read anyway.
    ///
    /// `inline(always)`: the packet is then built in the batch slot it
    /// is written to. Out of line it is returned through the caller's
    /// stack and copied from there with loads wider than the stores that
    /// wrote it, which cannot be forwarded — a stall per packet that
    /// grows with every field `Packet` gains.
    #[inline(always)]
    pub fn next_packet_into(&mut self, buf: Vec<u8>) -> Packet {
        let k = self.next_position();
        self.generated += 1;
        let stamp = &self.stamps[k];
        Packet::with_flow_hash(self.template.write(buf, stamp), stamp.hash)
    }

    /// Generates a batch of `n` packets, each built like
    /// [`next_packet`](Self::next_packet)'s: a client that offers its
    /// batches to an engine on the same thread gets back the buffers the
    /// engine finished with.
    pub fn next_batch(&mut self, n: usize) -> PacketBatch {
        (0..n).map(|_| self.next_packet()).collect()
    }

    /// Generates a batch of `n` packets drawing every buffer — and the
    /// batch shell itself — from `pool`.
    ///
    /// The batch is the one `pool` banked last
    /// ([`PacketPool::recycle_batch`]), with up to `n` of its spent
    /// packets still inside: each is rewritten where it lies, by
    /// [`next_packet_into`](Self::next_packet_into) over its own buffer,
    /// and a batch that came back short (a chain dropped packets) is
    /// topped up from the free list. With a prewarmed pool this is the
    /// allocation-free entry point to the data path: buffers cycle
    /// generator → pipeline → pool without the global allocator ever
    /// being consulted, and a lane's batches without leaving their shell.
    pub fn next_batch_from_pool(&mut self, n: usize, pool: &mut PacketPool) -> PacketBatch {
        let mut batch = pool.take_refill(n);
        for packet in batch.iter_mut() {
            *packet = self.next_packet_into(packet.take_bytes());
        }
        for _ in batch.len()..n {
            let buf = pool.take();
            batch.push(self.next_packet_into(buf));
        }
        batch
    }

    /// Total packets generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The generator's configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use std::collections::HashMap;

    #[test]
    fn deterministic_given_seed() {
        let cfg = TrafficConfig::default();
        let mut a = PacketGen::new(cfg.clone());
        let mut b = PacketGen::new(cfg);
        for _ in 0..100 {
            assert_eq!(a.next_packet().as_slice(), b.next_packet().as_slice());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = PacketGen::new(TrafficConfig {
            seed: 1,
            ..Default::default()
        });
        let mut b = PacketGen::new(TrafficConfig {
            seed: 2,
            ..Default::default()
        });
        let same = (0..50)
            .filter(|_| a.next_packet().as_slice() == b.next_packet().as_slice())
            .count();
        assert!(same < 50, "independent seeds produced identical streams");
    }

    #[test]
    fn batch_size_and_wellformedness() {
        let mut g = PacketGen::new(TrafficConfig::default());
        let batch = g.next_batch(32);
        assert_eq!(batch.len(), 32);
        assert_eq!(g.generated(), 32);
        for p in batch.iter() {
            assert!(p.ipv4().unwrap().checksum_ok());
            assert!(FiveTuple::of(p).is_ok());
        }
    }

    #[test]
    fn stamped_hash_matches_recomputation() {
        for proto in [IpProto::Udp, IpProto::Tcp] {
            let mut g = PacketGen::new(TrafficConfig {
                proto,
                ..Default::default()
            });
            for _ in 0..50 {
                let p = g.next_packet();
                let stamped = p.cached_flow_hash().expect("pktgen stamps the hash");
                assert_eq!(stamped, crate::flow::packet_flow_hash(&p));
            }
        }
    }

    #[test]
    fn frame_len_is_the_length_of_every_generated_frame() {
        for proto in [IpProto::Udp, IpProto::Tcp, IpProto::Icmp] {
            for payload_len in [0, 1, 7, 64, 1400] {
                let cfg = TrafficConfig {
                    proto,
                    payload_len,
                    ..Default::default()
                };
                let frame = PacketGen::new(cfg.clone()).next_packet();
                assert_eq!(frame.len(), cfg.frame_len());
            }
        }
    }

    #[test]
    fn pooled_batch_is_byte_identical_to_fresh() {
        let cfg = TrafficConfig::default();
        let mut fresh = PacketGen::new(cfg.clone());
        let mut pooled = PacketGen::new(cfg);
        let mut pool = crate::pool::PacketPool::new(256, 64);
        pool.prewarm(32);

        let a = fresh.next_batch(32);
        let b = pooled.next_batch_from_pool(32, &mut pool);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert_eq!(pool.stats().hits, 32, "prewarmed pool serves every take");
        assert_eq!(pool.stats().misses, 0);

        // Recycle and regenerate: still identical, still no fresh slabs.
        let c = fresh.next_batch(32);
        pool.recycle_batch(b);
        let d = pooled.next_batch_from_pool(32, &mut pool);
        for (x, y) in c.iter().zip(d.iter()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn uniform_covers_flows() {
        let mut g = PacketGen::new(TrafficConfig {
            flows: 16,
            ..Default::default()
        });
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(g.next_flow_id());
        }
        assert_eq!(seen.len(), 16, "uniform draw should hit every flow");
    }

    #[test]
    fn zipf_is_skewed_and_ranked() {
        let mut g = PacketGen::new(TrafficConfig {
            flows: 100,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        });
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(g.next_flow_id()).or_default() += 1;
        }
        let c0 = counts.get(&0).copied().unwrap_or(0);
        let c9 = counts.get(&9).copied().unwrap_or(0);
        assert!(c0 > 4 * c9, "rank 0 ({c0}) should dwarf rank 9 ({c9})");
        // All sampled ids must be within the population.
        assert!(counts.keys().all(|&id| id < 100));
    }

    #[test]
    fn zipf_cdf_extreme_u_in_range() {
        let mut g = PacketGen::new(TrafficConfig {
            flows: 3,
            distribution: FlowDistribution::Zipf(0.5),
            ..Default::default()
        });
        for _ in 0..1000 {
            assert!(g.next_flow_id() < 3);
        }
    }

    /// The draw the cutpoint table replaced: a search of the whole CDF.
    fn whole_table_index(g: &PacketGen, u: f64) -> usize {
        g.zipf_cdf
            .partition_point(|&c| c < u)
            .min(g.stamps.len() - 1)
    }

    /// A whole-mix, an RSS-slice and a subset generator over one Zipf mix.
    fn zipf_generators(flows: usize, exponent: f64) -> Vec<PacketGen> {
        let cfg = TrafficConfig {
            flows,
            distribution: FlowDistribution::Zipf(exponent),
            ..Default::default()
        };
        vec![
            PacketGen::new(cfg.clone()),
            PacketGen::rss_slice(cfg.clone(), 1, 3),
            PacketGen::subset(cfg, 9, |t| t.src_port % 5 != 0),
        ]
    }

    #[test]
    fn guide_draw_matches_the_whole_table_search_at_every_edge() {
        for flows in [1, 3, 100, 1000, 16_384] {
            for exponent in [0.5, 1.1, 2.0] {
                for g in zipf_generators(flows, exponent) {
                    if g.flows_in_slice() == 0 {
                        continue;
                    }
                    let cells = g.zipf_guide.len() - 1;
                    assert_eq!(cells, g.zipf_cdf.len().next_power_of_two());
                    // Every CDF value and every cell boundary, each with
                    // its two neighbours, plus the ends of `[0, 1)`.
                    let edges = g
                        .zipf_cdf
                        .iter()
                        .copied()
                        .chain((0..cells).map(|j| j as f64 / cells as f64));
                    let mut us = vec![0.0, f64::MIN_POSITIVE, 1.0f64.next_down()];
                    for edge in edges {
                        us.extend([edge.next_down(), edge, edge.next_up()]);
                    }
                    for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                        assert_eq!(
                            g.zipf_index(u),
                            whole_table_index(&g, u),
                            "u = {u:e}, {flows} flows, exponent {exponent}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn guide_draw_handles_cdf_values_on_cell_boundaries_and_ties() {
        // Values that sit exactly on a cutpoint, and runs of equal values
        // (flows whose weight underflowed to nothing).
        for cdf in [
            vec![0.25, 0.5, 0.5, 0.75, 1.0],
            vec![0.0, 0.0, 0.5, 1.0],
            vec![0.125, 0.125, 0.125, 0.875, 1.0, 1.0],
            vec![0.5, 1.0],
        ] {
            let mut g = PacketGen::new(TrafficConfig {
                flows: cdf.len(),
                distribution: FlowDistribution::Zipf(1.0),
                ..Default::default()
            });
            g.zipf_guide = PacketGen::cutpoints(&cdf);
            g.zipf_cdf = cdf;
            let cells = g.zipf_guide.len() - 1;
            for step in 0..8 * cells {
                let edge = step as f64 / (8 * cells) as f64;
                for u in [
                    edge,
                    edge.next_up(),
                    (edge + 0.125 / cells as f64).next_down(),
                ] {
                    assert_eq!(g.zipf_index(u), whole_table_index(&g, u), "u = {u:e}");
                }
            }
        }
    }

    #[test]
    fn whole_mix_cdf_is_the_plain_prefix_sum() {
        // The whole mix's mass is 1.0 by definition, not by summation:
        // its CDF is the weights' running sum to the last bit, which is
        // what keeps `new` replaying the streams it always produced.
        for (flows, exponent) in [(100, 1.2), (1000, 1.1), (16_384, 1.1), (777, 0.5)] {
            let cfg = TrafficConfig {
                flows,
                distribution: FlowDistribution::Zipf(exponent),
                ..Default::default()
            };
            let mut acc = 0.0;
            let mut expected: Vec<f64> = (0..flows)
                .map(PacketGen::weights_for(&cfg))
                .map(|w| {
                    acc += w;
                    acc
                })
                .collect();
            *expected.last_mut().unwrap() = 1.0;
            assert_eq!(PacketGen::new(cfg).zipf_cdf, expected);
        }
    }

    proptest::proptest! {
        #[test]
        fn guide_draw_matches_the_whole_table_search(
            flows in 1usize..600,
            exponent in 0usize..3,
            shape in 0usize..3,
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64),
        ) {
            let g = zipf_generators(flows, [0.5, 1.1, 2.0][exponent]).swap_remove(shape);
            if g.flows_in_slice() > 0 {
                for bits in draws {
                    // The rng's own mapping onto `[0, 1)`.
                    let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    proptest::prop_assert_eq!(g.zipf_index(u), whole_table_index(&g, u));
                }
            }
        }
    }

    #[test]
    fn tcp_traffic_generates_tcp() {
        let mut g = PacketGen::new(TrafficConfig {
            proto: IpProto::Tcp,
            payload_len: 10,
            ..Default::default()
        });
        let p = g.next_packet();
        assert!(p.tcp().is_ok());
        assert_eq!(FiveTuple::of(&p).unwrap().proto, IpProto::Tcp);
    }

    #[test]
    fn rss_slices_partition_the_population() {
        let cfg = TrafficConfig {
            flows: 512,
            ..Default::default()
        };
        let lanes = 4;
        let slices: Vec<_> = (0..lanes)
            .map(|l| PacketGen::rss_slice(cfg.clone(), l, lanes))
            .collect();
        let total: usize = slices.iter().map(|s| s.flows_in_slice()).sum();
        assert_eq!(total, 512, "every flow on exactly one lane");
        let share_sum: f64 = slices.iter().map(|s| s.share()).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1, got {share_sum}"
        );
        // Uniform mix: shares proportional to slice sizes.
        for s in &slices {
            let expect = s.flows_in_slice() as f64 / 512.0;
            assert!((s.share() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn rss_slice_draws_only_owned_flows() {
        let cfg = TrafficConfig {
            flows: 256,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        };
        let lanes = 3;
        for lane in 0..lanes {
            let mut g = PacketGen::rss_slice(cfg.clone(), lane, lanes);
            if g.flows_in_slice() == 0 {
                continue;
            }
            for _ in 0..500 {
                let p = g.next_packet();
                let tuple = FiveTuple::of(&p).unwrap();
                assert_eq!(
                    (tuple.stable_hash() % lanes as u64) as usize,
                    lane,
                    "slice generated a flow belonging to another lane"
                );
            }
        }
    }

    #[test]
    fn rss_slice_of_one_is_byte_identical_to_new() {
        for dist in [FlowDistribution::Uniform, FlowDistribution::Zipf(1.2)] {
            let cfg = TrafficConfig {
                flows: 128,
                distribution: dist,
                ..Default::default()
            };
            let mut a = PacketGen::new(cfg.clone());
            let mut b = PacketGen::rss_slice(cfg, 0, 1);
            for _ in 0..200 {
                assert_eq!(a.next_packet().as_slice(), b.next_packet().as_slice());
            }
        }
    }

    #[test]
    fn rss_slice_zipf_stays_skewed_within_slice() {
        let cfg = TrafficConfig {
            flows: 1000,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        };
        let mut g = PacketGen::rss_slice(cfg, 0, 2);
        let first = g.flows_in_slice();
        assert!(first > 0);
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(g.next_flow_id()).or_default() += 1;
        }
        // The slice's most popular kept flow should dominate its median
        // kept flow: renormalization preserves the skew.
        let max = counts.values().max().copied().unwrap_or(0);
        let avg = 20_000 / first.max(1) as u64;
        assert!(max > 3 * avg, "slice lost its skew: max {max}, avg {avg}");
    }

    #[test]
    fn subset_draws_only_kept_flows() {
        let cfg = TrafficConfig {
            flows: 256,
            ..Default::default()
        };
        let mut g = PacketGen::subset(cfg, 7, |t| t.stable_hash() % 3 == 0);
        assert!(g.flows_in_slice() > 0);
        for _ in 0..300 {
            let p = g.next_packet();
            let tuple = FiveTuple::of(&p).unwrap();
            assert_eq!(tuple.stable_hash() % 3, 0, "subset leaked a filtered flow");
        }
    }

    #[test]
    fn subset_population_matches_whole_mix() {
        // The subset must see the same endpoints the whole-mix generator
        // builds: a keep-everything subset covers exactly the same flows.
        let cfg = TrafficConfig {
            flows: 64,
            ..Default::default()
        };
        let mut whole = PacketGen::new(cfg.clone());
        let mut all = PacketGen::subset(cfg, 0, |_| true);
        assert_eq!(all.flows_in_slice(), 64);
        assert!((all.share() - 1.0).abs() < 1e-9);
        let mut whole_tuples = std::collections::HashSet::new();
        let mut subset_tuples = std::collections::HashSet::new();
        for _ in 0..2000 {
            whole_tuples.insert(FiveTuple::of(&whole.next_packet()).unwrap());
            subset_tuples.insert(FiveTuple::of(&all.next_packet()).unwrap());
        }
        assert_eq!(whole_tuples, subset_tuples);
    }

    #[test]
    fn subset_is_deterministic_per_salt() {
        let cfg = TrafficConfig {
            flows: 128,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        };
        let mut a = PacketGen::subset(cfg.clone(), 3, |t| t.src_port % 2 == 0);
        let mut b = PacketGen::subset(cfg.clone(), 3, |t| t.src_port % 2 == 0);
        let mut c = PacketGen::subset(cfg, 4, |t| t.src_port % 2 == 0);
        let mut diverged = false;
        for _ in 0..100 {
            let pa = a.next_packet();
            assert_eq!(pa.as_slice(), b.next_packet().as_slice());
            if pa.as_slice() != c.next_packet().as_slice() {
                diverged = true;
            }
        }
        assert!(diverged, "distinct salts must draw independent streams");
    }

    #[test]
    #[should_panic(expected = "empty RSS slice")]
    fn empty_slice_draw_panics() {
        // 1 flow over many lanes: most slices are empty.
        let cfg = TrafficConfig {
            flows: 1,
            ..Default::default()
        };
        let mut empty = None;
        for lane in 0..8 {
            let g = PacketGen::rss_slice(cfg.clone(), lane, 8);
            if g.flows_in_slice() == 0 {
                empty = Some(g);
                break;
            }
        }
        let mut g = empty.expect("seven of eight slices must be empty");
        assert_eq!(g.share(), 0.0);
        g.next_flow_id();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_flows_rejected() {
        PacketGen::new(TrafficConfig {
            flows: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "Zipf exponent")]
    fn bad_zipf_rejected() {
        PacketGen::new(TrafficConfig {
            distribution: FlowDistribution::Zipf(0.0),
            ..Default::default()
        });
    }
}
