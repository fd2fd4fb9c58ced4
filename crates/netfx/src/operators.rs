//! Stock network functions.
//!
//! [`NullFilter`] is the stage Figure 2's pipeline is built from: it
//! forwards batches untouched, so any cycles measured around it are pure
//! framework (or isolation) overhead. The rest are small, realistic
//! stages used by the examples and integration tests: TTL decrement,
//! port/protocol filters, a counter, a MAC bouncer, and a panic injector
//! used by the fault-recovery experiment (E3).
//!
//! Stages that rewrite a header patch its checksum for the words they
//! changed ([`crate::checksum::adjust`]) and never re-sum it: cheaper, and
//! a header that arrived damaged is forwarded still damaged. Only
//! [`EchoResponder`], which builds a new message, recomputes.

use crate::batch::PacketBatch;
use crate::headers::ipv4::IpProto;
use crate::pipeline::Operator;

/// Forwards every batch without touching it.
///
/// "We measure the cost of isolation by constructing a pipeline of
/// null-filters, which forward batches of packets without doing any work
/// on them." (§3)
#[derive(Debug, Default, Clone, Copy)]
pub struct NullFilter {
    _private: (),
}

impl NullFilter {
    /// Creates a null filter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Operator for NullFilter {
    #[inline]
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        batch
    }

    fn name(&self) -> &str {
        "null-filter"
    }
}

/// Counts batches, packets and bytes flowing through.
#[derive(Debug, Default)]
pub struct Counter {
    batches: u64,
    packets: u64,
    bytes: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Batches seen.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Packets seen.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Bytes seen.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Operator for Counter {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        self.batches += 1;
        self.packets += batch.len() as u64;
        self.bytes += batch.total_bytes() as u64;
        batch
    }

    fn name(&self) -> &str {
        "counter"
    }
}

/// Decrements the IPv4 TTL of every packet, dropping expired ones, and
/// patches the header checksum — the core of any router hop.
///
/// One pass, one IPv4 parse per packet; the checksum is adjusted for the
/// TTL word alone (RFC 1624,
/// [`Ipv4HdrMut::decrement_ttl_patching_checksum`](crate::headers::Ipv4HdrMut::decrement_ttl_patching_checksum)),
/// never re-summed. A header that arrived with a bad checksum therefore
/// leaves with a bad checksum — the hop does not launder corruption into
/// a datagram that verifies downstream — and one that verified leaves
/// with exactly the checksum a full recompute would store. Expired
/// (`ttl <= 1`) and non-IPv4 packets are dropped with their bytes
/// untouched.
#[derive(Debug, Default, Clone, Copy)]
pub struct TtlDecrement {
    _private: (),
}

impl TtlDecrement {
    /// Creates a TTL-decrement stage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Operator for TtlDecrement {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        batch.retain_mut(|p| match p.ipv4_mut() {
            Ok(mut ip) if ip.as_ref().ttl() > 1 => {
                ip.decrement_ttl_patching_checksum();
                true
            }
            _ => false,
        });
        batch
    }

    fn name(&self) -> &str {
        "ttl-decrement"
    }
}

/// Drops packets whose transport protocol differs from the configured one.
#[derive(Debug, Clone, Copy)]
pub struct ProtoFilter {
    proto: IpProto,
}

impl ProtoFilter {
    /// Keeps only packets with IP protocol `proto`.
    pub fn new(proto: IpProto) -> Self {
        Self { proto }
    }
}

impl Operator for ProtoFilter {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        let want = self.proto;
        batch.retain(|p| p.ipv4().map(|ip| ip.protocol() == want).unwrap_or(false));
        batch
    }

    fn name(&self) -> &str {
        "proto-filter"
    }
}

/// Drops packets whose destination port is not in the allowed list.
/// The port comes from the packet's cached five-tuple
/// ([`Packet::flow`](crate::Packet::flow)), which the stateful stages
/// behind the filter then reuse instead of parsing the headers again.
#[derive(Debug, Clone)]
pub struct DstPortFilter {
    allowed: Vec<u16>,
}

impl DstPortFilter {
    /// Keeps only packets destined to one of `allowed` (TCP or UDP).
    pub fn new(allowed: Vec<u16>) -> Self {
        Self { allowed }
    }
}

impl Operator for DstPortFilter {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        batch.retain_mut(|p| {
            p.flow()
                .is_ok_and(|flow| self.allowed.contains(&flow.dst_port))
        });
        batch
    }

    fn name(&self) -> &str {
        "dst-port-filter"
    }
}

/// Swaps Ethernet source and destination on every packet ("bounce").
#[derive(Debug, Default, Clone, Copy)]
pub struct MacSwap {
    _private: (),
}

impl MacSwap {
    /// Creates a MAC-swap stage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Operator for MacSwap {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        for p in batch.iter_mut() {
            if let Ok(mut eth) = p.ethernet_mut() {
                eth.swap_addrs();
            }
        }
        batch
    }

    fn name(&self) -> &str {
        "mac-swap"
    }
}

/// Answers ICMP echo requests addressed to the configured IP: rewrites
/// request→reply in place (type, checksum), swaps IP addresses and MAC
/// addresses, and forwards the reply; all other traffic passes through.
#[derive(Debug, Clone, Copy)]
pub struct EchoResponder {
    ip: std::net::Ipv4Addr,
    answered: u64,
}

impl EchoResponder {
    /// Responds to pings for `ip`.
    pub fn new(ip: std::net::Ipv4Addr) -> Self {
        Self { ip, answered: 0 }
    }

    /// Echo requests answered so far.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    fn answer(&mut self, p: &mut crate::packet::Packet) -> bool {
        let Ok(ip) = p.ipv4() else { return false };
        if ip.protocol() != IpProto::Icmp || ip.dst() != self.ip {
            return false;
        }
        let Ok(icmp) = p.icmp() else { return false };
        if icmp.icmp_type() != crate::headers::icmp::IcmpType::EchoRequest || !icmp.checksum_ok() {
            return false;
        }
        let (src, dst) = (ip.src(), ip.dst());
        {
            let mut icmp = p.icmp_mut().expect("checked above");
            icmp.set_type(crate::headers::icmp::IcmpType::EchoReply);
            icmp.update_checksum();
        }
        {
            let mut ip = p.ipv4_mut().expect("checked above");
            ip.set_src(dst);
            ip.set_dst(src);
            ip.set_ttl(64);
            ip.update_checksum();
        }
        if let Ok(mut eth) = p.ethernet_mut() {
            eth.swap_addrs();
        }
        self.answered += 1;
        true
    }
}

impl Operator for EchoResponder {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        for p in batch.iter_mut() {
            self.answer(p);
        }
        batch
    }

    fn name(&self) -> &str {
        "echo-responder"
    }
}

/// Panics after forwarding a configured number of batches.
///
/// This is the fault injector for the recovery experiment: §3 measures
/// recovery by "simulating a panic in the null-filter".
#[derive(Debug)]
pub struct PanicAfter {
    remaining: u64,
}

impl PanicAfter {
    /// Forwards `batches` batches, then panics on the next one.
    pub fn new(batches: u64) -> Self {
        Self { remaining: batches }
    }
}

impl Operator for PanicAfter {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        if self.remaining == 0 {
            panic!("injected fault in pipeline stage (PanicAfter)");
        }
        self.remaining -= 1;
        batch
    }

    fn name(&self) -> &str {
        "panic-after"
    }
}

/// A deterministic chaos injection point, driven by the thread's ambient
/// [`rbs_core::fault::FaultPlan`].
///
/// Drop one (or several, with distinct stage ids) anywhere in a pipeline
/// spec. Each processed batch consults
/// [`rbs_core::fault::ambient_decide`] at
/// [`FaultSite::Operator(stage)`](rbs_core::fault::FaultSite) and acts on
/// the decision:
///
/// - [`Panic`](rbs_core::fault::FaultKind::Panic) panics with a typed
///   [`rbs_core::fault::InjectedFault`] payload, which unwinds to the
///   domain boundary like any operator bug;
/// - [`Delay`](rbs_core::fault::FaultKind::Delay) sleeps in place,
///   holding the batch.
///
/// With no ambient plan installed (production, unrelated tests) the
/// operator is a transparent forwarder costing one thread-local read per
/// batch.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPoint {
    stage: u16,
}

impl ChaosPoint {
    /// Creates an injection point identified as `Operator(stage)` in
    /// fault plans.
    pub fn new(stage: u16) -> Self {
        Self { stage }
    }
}

impl Operator for ChaosPoint {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        use rbs_core::fault::{self, FaultSite};
        let site = FaultSite::Operator(self.stage);
        fault::fire(site, fault::ambient_decide(site));
        batch
    }

    fn name(&self) -> &str {
        "chaos-point"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;
    use crate::headers::tcp::TcpFlags;
    use crate::packet::Packet;
    use crate::pipeline::Pipeline;
    use std::net::Ipv4Addr;

    fn udp(dst_port: u16, ttl: u8) -> Packet {
        let mut p = Packet::build_udp(
            MacAddr([2, 0, 0, 0, 0, 1]),
            MacAddr([2, 0, 0, 0, 0, 2]),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dst_port,
            0,
        );
        {
            let mut ip = p.ipv4_mut().unwrap();
            ip.set_ttl(ttl);
            ip.update_checksum();
        }
        p
    }

    fn tcp(dst_port: u16) -> Packet {
        Packet::build_tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dst_port,
            TcpFlags(TcpFlags::SYN),
            0,
        )
    }

    #[test]
    fn null_filter_forwards_untouched() {
        let mut nf = NullFilter::new();
        let before: Vec<Vec<u8>> = [udp(1, 64), udp(2, 64)]
            .iter()
            .map(|p| p.as_slice().to_vec())
            .collect();
        let batch: PacketBatch = vec![udp(1, 64), udp(2, 64)].into_iter().collect();
        let out = nf.process(batch);
        let after: Vec<Vec<u8>> = out.iter().map(|p| p.as_slice().to_vec()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        let b1: PacketBatch = vec![udp(1, 64)].into_iter().collect();
        let b2: PacketBatch = vec![udp(1, 64), udp(2, 64)].into_iter().collect();
        let bytes = b1.total_bytes() + b2.total_bytes();
        c.process(b1);
        c.process(b2);
        assert_eq!(c.batches(), 2);
        assert_eq!(c.packets(), 3);
        assert_eq!(c.bytes(), bytes as u64);
    }

    #[test]
    fn ttl_decrement_drops_expired_and_fixes_checksum() {
        let mut op = TtlDecrement::new();
        let batch: PacketBatch = vec![udp(1, 64), udp(2, 1), udp(3, 2)].into_iter().collect();
        let out = op.process(batch);
        assert_eq!(out.len(), 2);
        for p in out.iter() {
            let ip = p.ipv4().unwrap();
            assert!(ip.checksum_ok());
            assert!(ip.ttl() == 63 || ip.ttl() == 1);
        }
    }

    #[test]
    fn proto_filter_separates() {
        let mut op = ProtoFilter::new(IpProto::Tcp);
        let batch: PacketBatch = vec![udp(1, 64), tcp(2), udp(3, 64)].into_iter().collect();
        let out = op.process(batch);
        assert_eq!(out.len(), 1);
        assert!(out.iter().next().unwrap().tcp().is_ok());
    }

    #[test]
    fn dst_port_filter_handles_both_transports() {
        let mut op = DstPortFilter::new(vec![53, 443]);
        let batch: PacketBatch = vec![udp(53, 64), udp(80, 64), tcp(443), tcp(80)]
            .into_iter()
            .collect();
        let out = op.process(batch);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn mac_swap_swaps() {
        let mut op = MacSwap::new();
        let batch: PacketBatch = vec![udp(1, 64)].into_iter().collect();
        let out = op.process(batch);
        let eth = out.iter().next().unwrap().ethernet().unwrap();
        assert_eq!(eth.src(), MacAddr([2, 0, 0, 0, 0, 2]));
        assert_eq!(eth.dst(), MacAddr([2, 0, 0, 0, 0, 1]));
    }

    #[test]
    fn echo_responder_answers_its_ip() {
        use crate::headers::icmp::IcmpType;
        let vip = Ipv4Addr::new(192, 0, 2, 9);
        let mut op = EchoResponder::new(vip);
        let ping = Packet::build_icmp_echo(
            MacAddr([2, 0, 0, 0, 0, 1]),
            MacAddr([2, 0, 0, 0, 0, 2]),
            Ipv4Addr::new(10, 0, 0, 5),
            vip,
            IcmpType::EchoRequest,
            0xBEEF,
            3,
            12,
        );
        let out = op.process(vec![ping].into_iter().collect());
        assert_eq!(op.answered(), 1);
        let reply = out.iter().next().unwrap();
        let ip = reply.ipv4().unwrap();
        assert_eq!(ip.src(), vip);
        assert_eq!(ip.dst(), Ipv4Addr::new(10, 0, 0, 5));
        assert!(ip.checksum_ok());
        let icmp = reply.icmp().unwrap();
        assert_eq!(icmp.icmp_type(), IcmpType::EchoReply);
        assert_eq!(icmp.identifier(), 0xBEEF);
        assert_eq!(icmp.sequence(), 3);
        assert!(icmp.checksum_ok());
        // MACs bounced too.
        assert_eq!(reply.ethernet().unwrap().dst(), MacAddr([2, 0, 0, 0, 0, 1]));
    }

    #[test]
    fn echo_responder_ignores_other_traffic() {
        use crate::headers::icmp::IcmpType;
        let vip = Ipv4Addr::new(192, 0, 2, 9);
        let mut op = EchoResponder::new(vip);
        // Ping for a different address, a reply, and plain UDP.
        let other_ip = Packet::build_icmp_echo(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 5),
            Ipv4Addr::new(192, 0, 2, 10),
            IcmpType::EchoRequest,
            1,
            1,
            0,
        );
        let already_reply = Packet::build_icmp_echo(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 5),
            vip,
            IcmpType::EchoReply,
            1,
            1,
            0,
        );
        let not_icmp = udp(9, 64);
        let before: Vec<Vec<u8>> = [&other_ip, &already_reply, &not_icmp]
            .iter()
            .map(|p| p.as_slice().to_vec())
            .collect();
        let out = op.process(
            vec![other_ip, already_reply, not_icmp]
                .into_iter()
                .collect(),
        );
        assert_eq!(op.answered(), 0);
        let after: Vec<Vec<u8>> = out.iter().map(|p| p.as_slice().to_vec()).collect();
        assert_eq!(before, after, "untouched passthrough");
    }

    #[test]
    fn panic_after_forwards_then_panics() {
        let mut op = PanicAfter::new(2);
        let b = op.process(vec![udp(1, 64)].into_iter().collect());
        assert_eq!(b.len(), 1);
        op.process(PacketBatch::new());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            op.process(PacketBatch::new());
        }));
        assert!(r.is_err());
    }

    #[test]
    fn chaos_point_is_transparent_without_a_plan() {
        let mut op = ChaosPoint::new(0);
        let out = op.process(vec![udp(53, 64)].into_iter().collect());
        assert_eq!(out.len(), 1);
        assert_eq!(op.name(), "chaos-point");
    }

    #[test]
    fn chaos_point_fires_on_the_scheduled_batch() {
        use rbs_core::fault::{self, FaultKind, FaultPlan, FaultSite, InjectedFault};
        use std::sync::Arc;
        // Batch occurrences 2..3 of stream 0 at Operator(7) panic.
        let plan = Arc::new(FaultPlan::new(0).inject_window(
            FaultSite::Operator(7),
            FaultKind::Panic,
            0,
            2,
            3,
        ));
        fault::scoped(plan, || {
            let mut op = ChaosPoint::new(7);
            for _ in 0..2 {
                let out = op.process(vec![udp(1, 64)].into_iter().collect());
                assert_eq!(out.len(), 1);
            }
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                op.process(PacketBatch::new());
            }))
            .unwrap_err();
            let payload = err.downcast_ref::<InjectedFault>().expect("typed payload");
            assert_eq!(payload.site, FaultSite::Operator(7));
            // After the window the operator forwards again.
            let out = op.process(vec![udp(2, 64)].into_iter().collect());
            assert_eq!(out.len(), 1);
        });
    }

    #[test]
    fn chaos_point_delay_holds_but_forwards() {
        use rbs_core::fault::{self, FaultKind, FaultPlan, FaultSite};
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new(0).inject(
            FaultSite::Operator(1),
            FaultKind::Delay { micros: 50 },
            1_000_000,
        ));
        fault::scoped(plan, || {
            let mut op = ChaosPoint::new(1);
            let out = op.process(vec![udp(1, 64)].into_iter().collect());
            assert_eq!(out.len(), 1, "delays never lose packets");
        });
    }

    #[test]
    fn operators_compose_in_pipeline() {
        let mut p = Pipeline::new()
            .add(ProtoFilter::new(IpProto::Udp))
            .add(TtlDecrement::new())
            .add(DstPortFilter::new(vec![53]));
        let batch: PacketBatch = vec![udp(53, 64), udp(53, 1), tcp(53), udp(80, 64)]
            .into_iter()
            .collect();
        let out = p.run_batch(batch);
        assert_eq!(out.len(), 1);
        let survivor = out.iter().next().unwrap();
        assert_eq!(survivor.ipv4().unwrap().ttl(), 63);
        assert_eq!(survivor.udp().unwrap().dst_port(), 53);
    }
}
