//! The packet-facing load balancer.
//!
//! [`MaglevLb`] is the network function Figure 2 uses as its realistic
//! cost yardstick. Per packet it does exactly what Maglev's data path
//! does: extract the five-tuple, consult the connection table (so
//! established flows survive backend-set changes), fall back to the
//! consistent-hash lookup table, then destination-NAT the packet to the
//! chosen backend, patching the IPv4 and transport checksums for the
//! changed address words (`Packet::rewrite_endpoints`). The connection
//! table is the same deterministic [`FlowTable`] NAT and the flow
//! tracker use, probed with the key the packet already carries
//! (`Packet::flow_key`): behind a flow tracker, neither the tuple nor
//! its hash is computed again here.
//!
//! The connection table is bounded ([`MaglevLb::with_connection_capacity`]):
//! its hash is seedless, so an unbounded table would hand a flow-churn
//! flood both the memory and the probe length. A flow that arrives at a
//! full table is still steered — by consistent hash, which sends every
//! packet of it to the same backend for as long as the backend set
//! stands — but is not remembered, and is counted in
//! [`LbStats::untracked_flows`].

use crate::table::{Backend, MaglevTable, TableError};
use rbs_netfx::batch::PacketBatch;
use rbs_netfx::flow::FiveTuple;
use rbs_netfx::flowtable::FlowTable;
use rbs_netfx::packet::Packet;
use rbs_netfx::pipeline::Operator;
use std::net::Ipv4Addr;

/// Data-path statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LbStats {
    /// Packets steered via the connection table.
    pub conn_table_hits: u64,
    /// Packets steered via the consistent-hash table (new flows).
    pub hash_lookups: u64,
    /// Of those, packets whose flow was not remembered because the
    /// connection table was at capacity.
    pub untracked_flows: u64,
    /// Packets dropped because they carried no extractable five-tuple.
    pub dropped: u64,
    /// Per-backend packet counts, indexed like the table's backend list.
    pub per_backend: Vec<u64>,
}

/// A Maglev load balancer stage.
pub struct MaglevLb {
    table: MaglevTable,
    /// Backend name -> VIP-side address to DNAT to.
    backend_addrs: Vec<Ipv4Addr>,
    conn_table: FlowTable<FiveTuple, u32>,
    /// Most connections `conn_table` remembers.
    conn_capacity: usize,
    stats: LbStats,
}

impl MaglevLb {
    /// Builds a load balancer over `backends`, DNAT-ing to `addrs`
    /// (parallel arrays), with a consistent-hash table of `table_size`.
    ///
    /// # Panics
    ///
    /// Panics if `backends` and `addrs` lengths differ; table-size and
    /// backend validation errors are returned.
    pub fn new(
        backends: Vec<Backend>,
        addrs: Vec<Ipv4Addr>,
        table_size: usize,
    ) -> Result<Self, TableError> {
        assert_eq!(
            backends.len(),
            addrs.len(),
            "one DNAT address per backend required"
        );
        let n = backends.len();
        let table = MaglevTable::new(backends, table_size)?;
        Ok(Self {
            table,
            backend_addrs: addrs,
            conn_table: FlowTable::new(),
            conn_capacity: Self::DEFAULT_CONNECTION_CAPACITY,
            stats: LbStats {
                per_backend: vec![0; n],
                ..Default::default()
            },
        })
    }

    /// Connections remembered unless
    /// [`with_connection_capacity`](Self::with_connection_capacity) says
    /// otherwise.
    pub const DEFAULT_CONNECTION_CAPACITY: usize = 1 << 20;

    /// Remembers at most `capacity` connections (at least one); flows
    /// beyond that are steered by consistent hash alone.
    pub fn with_connection_capacity(mut self, capacity: usize) -> Self {
        self.conn_capacity = capacity.max(1);
        self
    }

    /// The underlying lookup table.
    pub fn table(&self) -> &MaglevTable {
        &self.table
    }

    /// Current statistics.
    pub fn stats(&self) -> &LbStats {
        &self.stats
    }

    /// Number of tracked connections.
    pub fn tracked_connections(&self) -> usize {
        self.conn_table.len()
    }

    /// Replaces the backend set, rebuilding the lookup table. Existing
    /// tracked connections keep their backend if it is still present;
    /// connections to removed backends are forgotten (they will be
    /// re-steered by hash on their next packet).
    pub fn update_backends(
        &mut self,
        backends: Vec<Backend>,
        addrs: Vec<Ipv4Addr>,
        table_size: usize,
    ) -> Result<(), TableError> {
        assert_eq!(
            backends.len(),
            addrs.len(),
            "one DNAT address per backend required"
        );
        let old_names: Vec<String> = self
            .table
            .backends()
            .iter()
            .map(|b| b.name.clone())
            .collect();
        let new_table = MaglevTable::new(backends, table_size)?;
        // Remap tracked connections from old indices to new ones by name.
        let remap: Vec<Option<u32>> = old_names
            .iter()
            .map(|name| {
                new_table
                    .backends()
                    .iter()
                    .position(|b| &b.name == name)
                    .map(|i| i as u32)
            })
            .collect();
        self.conn_table.retain(|_, idx| {
            if let Some(new_idx) = remap.get(*idx as usize).copied().flatten() {
                *idx = new_idx;
                true
            } else {
                false
            }
        });
        let n = new_table.backends().len();
        self.table = new_table;
        self.backend_addrs = addrs;
        self.stats.per_backend.resize(n, 0);
        Ok(())
    }

    /// Steers one packet, returning the chosen backend index, or `None`
    /// for packets without a five-tuple (dropped).
    pub fn steer(&mut self, packet: &mut Packet) -> Option<usize> {
        let (tuple, hash) = packet.flow_key().ok()?;
        let idx = match self.conn_table.get_hashed(hash, &tuple).copied() {
            Some(idx) => {
                self.stats.conn_table_hits += 1;
                idx as usize
            }
            None => {
                let idx = self.table.lookup(hash);
                self.stats.hash_lookups += 1;
                if self.conn_table.len() < self.conn_capacity {
                    self.conn_table.insert(tuple, idx as u32);
                } else {
                    self.stats.untracked_flows += 1;
                }
                idx
            }
        };
        // DNAT to the backend; the destination port is kept.
        packet
            .rewrite_endpoints(None, Some((self.backend_addrs[idx], tuple.dst_port)))
            .expect("the packet yielded a five-tuple");
        self.stats.per_backend[idx] += 1;
        Some(idx)
    }
}

impl Operator for MaglevLb {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        batch.retain_mut(|p| {
            let steered = self.steer(p).is_some();
            if !steered {
                self.stats.dropped += 1;
            }
            steered
        });
        batch
    }

    fn name(&self) -> &str {
        "maglev-lb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_netfx::headers::ethernet::MacAddr;
    use rbs_netfx::headers::IpProto;
    use rbs_netfx::pktgen::{PacketGen, TrafficConfig};

    fn backends(n: usize) -> (Vec<Backend>, Vec<Ipv4Addr>) {
        let b = (0..n).map(|i| Backend::new(format!("be-{i}"))).collect();
        let a = (0..n)
            .map(|i| Ipv4Addr::new(10, 1, 0, i as u8 + 1))
            .collect();
        (b, a)
    }

    fn lb(n: usize) -> MaglevLb {
        let (b, a) = backends(n);
        MaglevLb::new(b, a, 503).unwrap()
    }

    fn udp_packet(sport: u16) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(172, 16, 0, 9),
            Ipv4Addr::new(192, 0, 2, 1),
            sport,
            80,
            8,
        )
    }

    #[test]
    fn steering_rewrites_and_checksums() {
        let mut lb = lb(3);
        let mut p = udp_packet(4242);
        let idx = lb.steer(&mut p).unwrap();
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.dst(), Ipv4Addr::new(10, 1, 0, idx as u8 + 1));
        assert!(ip.checksum_ok());
        let udp = p.udp().unwrap();
        assert!(udp.checksum_ok(ip.src(), ip.dst()));
    }

    #[test]
    fn same_flow_same_backend() {
        let mut lb = lb(5);
        let mut first = udp_packet(1000);
        let idx = lb.steer(&mut first).unwrap();
        for _ in 0..10 {
            let mut p = udp_packet(1000);
            assert_eq!(lb.steer(&mut p).unwrap(), idx);
        }
        assert_eq!(lb.stats().hash_lookups, 1);
        assert_eq!(lb.stats().conn_table_hits, 10);
        assert_eq!(lb.tracked_connections(), 1);
    }

    #[test]
    fn tcp_flows_steered_too() {
        let mut lb = lb(2);
        let mut p = Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(172, 16, 0, 9),
            Ipv4Addr::new(192, 0, 2, 1),
            555,
            80,
            rbs_netfx::headers::tcp::TcpFlags(rbs_netfx::headers::tcp::TcpFlags::SYN),
            0,
        );
        let idx = lb.steer(&mut p).unwrap();
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.dst(), Ipv4Addr::new(10, 1, 0, idx as u8 + 1));
        let seg_len = (ip.total_len() as usize - ip.header_len()) as u16;
        assert!(p.tcp().unwrap().checksum_ok(ip.src(), ip.dst(), seg_len));
    }

    #[test]
    fn non_transport_packets_dropped() {
        let mut lb = lb(2);
        let mut p = udp_packet(1);
        p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
        let mut batch = PacketBatch::new();
        batch.push(p);
        let out = lb.process(batch);
        assert_eq!(out.len(), 0);
        assert_eq!(lb.stats().dropped, 1);
    }

    #[test]
    fn operator_processes_generated_traffic_evenly() {
        let mut lb = lb(4);
        let mut gen = PacketGen::new(TrafficConfig {
            flows: 4096,
            ..Default::default()
        });
        for _ in 0..64 {
            let out = lb.process(gen.next_batch(64));
            assert_eq!(out.len(), 64);
        }
        let per = &lb.stats().per_backend;
        let total: u64 = per.iter().sum();
        assert_eq!(total, 64 * 64);
        let max = *per.iter().max().unwrap() as f64;
        let min = *per.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "flow spread too uneven: {per:?}");
    }

    #[test]
    fn established_connections_survive_backend_addition() {
        let mut lb = lb(4);
        // Establish 100 flows.
        let mut assignments = Vec::new();
        for sport in 0..100u16 {
            let mut p = udp_packet(2000 + sport);
            assignments.push(lb.steer(&mut p).unwrap());
        }
        // Add a backend; existing flows must stay put.
        let (b, a) = backends(5);
        lb.update_backends(b, a, 503).unwrap();
        for (sport, &expected) in assignments.iter().enumerate() {
            let mut p = udp_packet(2000 + sport as u16);
            assert_eq!(lb.steer(&mut p).unwrap(), expected, "flow {sport} moved");
        }
    }

    #[test]
    fn connections_to_removed_backend_are_resteered() {
        let mut lb = lb(3);
        let mut p = udp_packet(7777);
        let first = lb.steer(&mut p).unwrap();
        // Remove the backend that owns this flow.
        let (mut b, mut a) = backends(3);
        b.remove(first);
        a.remove(first);
        lb.update_backends(b, a, 503).unwrap();
        let mut p2 = udp_packet(7777);
        let second = lb.steer(&mut p2).unwrap();
        // Index space shrank; whatever it maps to, the DNAT address must
        // be one of the remaining backends.
        assert!(second < 2);
        let dst = p2.ipv4().unwrap().dst();
        assert_ne!(dst, Ipv4Addr::new(10, 1, 0, first as u8 + 1));
    }

    #[test]
    fn flow_churn_cannot_grow_the_connection_table_past_its_capacity() {
        let mut lb = lb(4).with_connection_capacity(64);
        let established: Vec<usize> = (0..32u16)
            .map(|sport| lb.steer(&mut udp_packet(sport)).unwrap())
            .collect();

        // A flood of one-packet flows: the first 32 fill the table, the
        // rest are steered without being remembered.
        for sport in 1_000..11_000u16 {
            lb.steer(&mut udp_packet(sport)).unwrap();
        }
        assert_eq!(lb.tracked_connections(), 64);
        assert_eq!(lb.stats().untracked_flows, 10_000 - 32);
        // Flat from here on, however long the flood lasts.
        for sport in 11_000..21_000u16 {
            lb.steer(&mut udp_packet(sport)).unwrap();
        }
        assert_eq!(lb.tracked_connections(), 64);
        assert_eq!(lb.stats().untracked_flows, 20_000 - 32);

        // An unremembered flow still lands on one backend every time.
        let first = lb.steer(&mut udp_packet(20_999)).unwrap();
        assert_eq!(lb.steer(&mut udp_packet(20_999)).unwrap(), first);

        // And the flows that were established before the flood keep their
        // backend through it and through a backend-set change.
        let hits = lb.stats().conn_table_hits;
        let (b, a) = backends(5);
        lb.update_backends(b, a, 503).unwrap();
        for (sport, &backend) in established.iter().enumerate() {
            assert_eq!(lb.steer(&mut udp_packet(sport as u16)).unwrap(), backend);
        }
        assert_eq!(lb.stats().conn_table_hits, hits + 32);
    }

    #[test]
    fn non_first_fragments_are_dropped_not_rewritten() {
        let mut bytes = udp_packet(4242).as_slice().to_vec();
        // Fragment offset 3: the "ports" would be payload bytes.
        bytes[14 + 6..14 + 8].copy_from_slice(&[0x00, 0x03]);
        let mut lb = lb(3);
        let out = lb.process(std::iter::once(Packet::from_slice(&bytes)).collect());
        assert!(out.is_empty());
        assert_eq!(lb.stats().dropped, 1);
        assert_eq!(lb.tracked_connections(), 0);
    }

    #[test]
    #[should_panic(expected = "one DNAT address per backend")]
    fn mismatched_addrs_panic() {
        let (b, _) = backends(3);
        let _ = MaglevLb::new(b, vec![Ipv4Addr::LOCALHOST], 503);
    }
}
