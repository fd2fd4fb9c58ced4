//! A flow-tracking operator with real per-flow state.
//!
//! [`FlowTracker`] maintains a bounded table of per-flow counters — the
//! canonical example of operator state whose loss is *observable*: after
//! a crash, a cold-started tracker has forgotten every flow it had seen,
//! while a warm-recovered one resumes within one snapshot interval of
//! the truth. The table is a [`FlowTable`], and the tracker's snapshot
//! is that table's packed image: one 29-byte record per flow — the
//! 5-tuple as on the wire, then the two counters — in the order the
//! flows were first seen. That order is a function of the input alone,
//! so checkpoint bytes are deterministic across runs and a warm-restored
//! tracker seals the bytes it was restored from; and since a flow's
//! record never moves, a delta snapshot carries the counters of the
//! flows that saw traffic and the records of the flows that arrived —
//! and is *built* from those records alone: the table marks every record
//! it hands out mutably after a base export
//! ([`Operator::checkpoint_base`]), so [`Operator::checkpoint_delta`]
//! walks the flows that moved instead of exporting and scanning them all.
//!
//! The tracker never reads frame bytes itself: it takes the packet's
//! cached key ([`Packet::flow_key`](crate::Packet::flow_key)) — behind a
//! NAT that is the tuple the NAT maintained and one fresh hash, which
//! the load balancer after it reuses — and finds or appends the flow's
//! record in a single probe.

use rbs_checkpoint::{CheckpointCtx, Checkpointable, RestoreCtx, Snapshot, SnapshotError};

use crate::batch::PacketBatch;
use crate::flow::FiveTuple;
use crate::flowtable::{FlowTable, Pack};
use crate::pipeline::{Operator, StageDelta};

/// Per-flow counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowEntry {
    /// Packets observed on this flow.
    pub packets: u64,
    /// Total frame bytes observed on this flow.
    pub bytes: u64,
}

/// Both counters little-endian, packets first: 16 bytes.
impl Pack for FlowEntry {
    const WIDTH: usize = 16;

    #[inline]
    fn pack(&self, out: &mut [u8]) {
        let (packets, bytes) = out.split_at_mut(8);
        self.packets.pack(packets);
        self.bytes.pack(bytes);
    }

    #[inline]
    fn unpack(b: &[u8]) -> Option<Self> {
        let (packets, bytes) = b.split_at_checked(8)?;
        Some(FlowEntry {
            packets: u64::unpack(packets)?,
            bytes: u64::unpack(bytes)?,
        })
    }
}

/// A pass-through operator that tracks per-flow packet/byte counts.
///
/// The tracker never drops packets — it observes. New flows are admitted
/// until `capacity`; beyond that, packets on unknown flows are still
/// forwarded but counted in [`FlowTracker::overflow`] instead of the
/// table (deterministic admission: first-come, first-tracked). Packets
/// without an extractable 5-tuple count as
/// [`FlowTracker::untracked`].
pub struct FlowTracker {
    flows: FlowTable<FiveTuple, FlowEntry>,
    capacity: usize,
    overflow: u64,
    untracked: u64,
}

impl FlowTracker {
    /// Creates a tracker admitting at most `capacity` distinct flows.
    pub fn new(capacity: usize) -> Self {
        Self {
            flows: FlowTable::new(),
            capacity: capacity.max(1),
            overflow: 0,
            untracked: 0,
        }
    }

    /// Number of distinct flows currently tracked.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The counters for one flow, if tracked.
    pub fn flow(&self, tuple: &FiveTuple) -> Option<&FlowEntry> {
        self.flows.get(tuple)
    }

    /// Every tracked flow, in the order the flows were first seen.
    pub fn flows(&self) -> impl ExactSizeIterator<Item = (&FiveTuple, &FlowEntry)> {
        self.flows.iter()
    }

    /// Packets on flows rejected because the table was full.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Packets without an extractable 5-tuple (non-TCP/UDP).
    pub fn untracked(&self) -> u64 {
        self.untracked
    }

    /// Maximum number of distinct flows admitted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Flow records a delta snapshot would visit now: those that saw a
    /// packet since the last base export plus those that arrived since.
    /// `None` while no base export is being tracked against.
    pub fn dirty_flows(&self) -> Option<usize> {
        self.flows.dirty_len()
    }
}

impl Operator for FlowTracker {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        for packet in batch.iter_mut() {
            let Ok((tuple, hash)) = packet.flow_key() else {
                self.untracked += 1;
                continue;
            };
            // One probe either way: an upsert while there is room, a
            // plain lookup once the table is full.
            let entry = if self.flows.len() < self.capacity {
                self.flows
                    .get_or_insert_with(hash, tuple, || Some(FlowEntry::default()))
            } else {
                self.flows.get_mut_hashed(hash, &tuple)
            };
            match entry {
                Some(entry) => {
                    entry.packets += 1;
                    entry.bytes += packet.len() as u64;
                }
                None => self.overflow += 1,
            }
        }
        batch
    }

    fn name(&self) -> &str {
        "flow-tracker"
    }

    // The flow table is the state worth surviving a crash; the overflow
    // and untracked diagnostics restart from zero like any gauge.
    fn checkpoint_state(&self, ctx: &mut CheckpointCtx) -> Option<Snapshot> {
        Some(self.flows.checkpoint(ctx))
    }

    fn checkpoint_base(
        &mut self,
        _ctx: &mut CheckpointCtx,
        spent: Option<Snapshot>,
    ) -> Option<Snapshot> {
        Some(self.flows.checkpoint_base(spent))
    }

    fn checkpoint_delta(&self, base: &Snapshot, runs: &mut Vec<u8>) -> StageDelta {
        self.flows.checkpoint_delta(base, runs)
    }

    fn restore_state(
        &mut self,
        snap: &Snapshot,
        _ctx: &mut RestoreCtx<'_>,
    ) -> Result<(), SnapshotError> {
        // The image is bounded, checked and built before anything is
        // assigned: on any error `self` is untouched.
        self.flows = FlowTable::from_image(snap, self.capacity)?;
        Ok(())
    }

    fn state_items(&self) -> u64 {
        self.flows.len() as u64
    }
}

impl std::fmt::Debug for FlowTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTracker")
            .field("flows", &self.flows.len())
            .field("capacity", &self.capacity)
            .field("overflow", &self.overflow)
            .field("untracked", &self.untracked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;
    use crate::headers::ipv4::IpProto;
    use crate::packet::Packet;
    use crate::pipeline::PipelineSpec;
    use std::net::Ipv4Addr;

    fn pkt(src_port: u16) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            src_port,
            80,
            16,
        )
    }

    fn batch(ports: &[u16]) -> PacketBatch {
        ports.iter().map(|&p| pkt(p)).collect()
    }

    #[test]
    fn counts_per_flow() {
        let mut t = FlowTracker::new(16);
        let out = t.process(batch(&[1000, 1000, 1001]));
        assert_eq!(out.len(), 3, "tracker forwards everything");
        assert_eq!(t.flow_count(), 2);
        let tuple = FiveTuple::of(&pkt(1000)).unwrap();
        assert_eq!(t.flow(&tuple).unwrap().packets, 2);
        assert!(t.flow(&tuple).unwrap().bytes > 0);
    }

    #[test]
    fn capacity_bound_is_deterministic() {
        let mut t = FlowTracker::new(2);
        t.process(batch(&[1, 2, 3, 4, 1]));
        // First two distinct flows admitted, later ones overflow; the
        // admitted flows keep counting.
        assert_eq!(t.flow_count(), 2);
        assert_eq!(t.overflow(), 2);
        assert_eq!(t.flow(&FiveTuple::of(&pkt(1)).unwrap()).unwrap().packets, 2);
    }

    #[test]
    fn non_transport_packets_are_untracked() {
        let mut t = FlowTracker::new(4);
        let mut p = pkt(9);
        p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
        t.process(std::iter::once(p).collect());
        assert_eq!(t.flow_count(), 0);
        assert_eq!(t.untracked(), 1);
    }

    #[test]
    fn state_survives_spec_rebuild() {
        let spec = PipelineSpec::new().stage(|| FlowTracker::new(64));
        let mut live = spec.build();
        live.run_batch(batch(&[10, 11, 10, 12]));
        assert_eq!(live.state_items(), 3);

        let cp = live.export_state();
        let mut replica = spec.build_with_state(&cp).unwrap();
        assert_eq!(replica.state_items(), 3);

        // The replica keeps counting where the original left off.
        replica.run_batch(batch(&[10]));
        let again = replica.export_state();
        assert_ne!(again.root, cp.root);
        assert_eq!(replica.state_items(), 3);
    }

    #[test]
    fn warm_restore_keeps_first_seen_order_and_seals_the_same_bytes() {
        let spec = PipelineSpec::new().stage(|| FlowTracker::new(64));
        let mut live = spec.build();
        live.run_batch(batch(&[30, 10, 20, 10, 5]));
        let sealed = live.export_state();
        let replica = spec.build_with_state(&sealed).unwrap();
        assert_eq!(replica.export_state().root, sealed.root);

        let mut t = FlowTracker::new(64);
        t.process(batch(&[30, 10, 20, 10, 5]));
        let seen: Vec<u16> = t.flows().map(|(tuple, _)| tuple.src_port).collect();
        assert_eq!(seen, vec![30, 10, 20, 5]);
    }

    #[test]
    fn restore_rejects_a_repeated_tuple_and_applies_nothing() {
        let mut t = FlowTracker::new(64);
        t.process(batch(&[1, 2, 3]));
        let cp = rbs_checkpoint::checkpoint_scope(Default::default(), |ctx| {
            t.checkpoint_state(ctx).expect("the tracker is stateful")
        });
        let Snapshot::Bytes(mut image) = cp.root.clone() else {
            panic!("the flow table checkpoints as a packed image");
        };
        let second = image[29..58].to_vec();
        image.extend_from_slice(&second);

        let mut victim = FlowTracker::new(64);
        victim.process(batch(&[9]));
        let err = rbs_checkpoint::restore_scope(&cp, |_, ctx| {
            victim.restore_state(&Snapshot::Bytes(image.clone()), ctx)
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::TypeMismatch {
                    found: "repeated key",
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(victim.flow_count(), 1, "nothing half-applied");
        assert!(victim.flow(&FiveTuple::of(&pkt(9)).unwrap()).is_some());
    }

    #[test]
    fn restore_rejects_oversized_tables() {
        let big = PipelineSpec::new().stage(|| FlowTracker::new(64));
        let mut live = big.build();
        live.run_batch(batch(&[1, 2, 3, 4, 5]));
        let cp = live.export_state();

        let small = PipelineSpec::new().stage(|| FlowTracker::new(2));
        assert_eq!(
            small.build_with_state(&cp).unwrap_err(),
            SnapshotError::WrongLength {
                expected: 2,
                got: 5
            }
        );
    }
}
