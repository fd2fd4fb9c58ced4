//! The firewall as a pipeline stage.
//!
//! Wraps [`FwTrie`] as a `rbs-netfx` [`Operator`] so it can run inside
//! the (optionally SFI-isolated) pipelines of §3, and exposes the
//! checkpoint hooks so a running firewall can be snapshotted and rolled
//! back — the §5 scenario end to end.
//!
//! Per packet the stage touches no frame bytes and no rule object: the
//! five-tuple is the packet's cached one ([`Packet::flow`], parsed here
//! if this is the first stage to ask and reused by every stage after),
//! and the verdict is read off the trie's compiled index
//! ([`FwTrie::decide`]).
//!
//! [`Packet::flow`]: rbs_netfx::packet::Packet::flow

use crate::rule::Action;
use crate::trie::FwTrie;
use rbs_checkpoint::{
    checkpoint, restore, Checkpoint, CheckpointCtx, Checkpointable, RestoreCtx, Snapshot,
    SnapshotError,
};
use rbs_netfx::batch::PacketBatch;
use rbs_netfx::flow::FiveTuple;
use rbs_netfx::pipeline::Operator;

/// Packet-filtering pipeline stage backed by the rule trie.
pub struct FirewallOp {
    trie: FwTrie,
    /// Applied when no rule matches.
    default_action: Action,
    allowed: u64,
    denied: u64,
    rate_limited: u64,
}

impl FirewallOp {
    /// Wraps `trie` with a default action for unmatched packets.
    pub fn new(trie: FwTrie, default_action: Action) -> Self {
        Self {
            trie,
            default_action,
            allowed: 0,
            denied: 0,
            rate_limited: 0,
        }
    }

    /// The decision for one flow.
    #[inline]
    pub fn decide(&self, flow: &FiveTuple) -> Action {
        self.trie
            .decide(flow)
            .map_or(self.default_action, |(_id, action)| action)
    }

    /// Read access to the rule database.
    pub fn trie(&self) -> &FwTrie {
        &self.trie
    }

    /// Packets forwarded so far.
    pub fn allowed(&self) -> u64 {
        self.allowed
    }

    /// Packets dropped so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Packets forwarded under a rate-limit rule.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }

    /// Snapshots the rule database (counters are data-path state, not
    /// configuration, and are not part of the checkpoint).
    pub fn checkpoint_rules(&self) -> Checkpoint {
        checkpoint(&self.trie)
    }

    /// Replaces the rule database from a checkpoint — §3's recovery
    /// function uses this to re-initialize a failed firewall domain.
    pub fn restore_rules(&mut self, cp: &Checkpoint) -> Result<(), SnapshotError> {
        self.trie = restore(cp)?;
        Ok(())
    }
}

impl Operator for FirewallOp {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        batch.retain_mut(|packet| {
            let action = match packet.flow() {
                Ok(flow) => self.decide(&flow),
                // Non-flow traffic is dropped, like any default-deny box.
                Err(_) => Action::Deny,
            };
            match action {
                Action::Allow => self.allowed += 1,
                Action::Deny => self.denied += 1,
                Action::RateLimit(_) => self.rate_limited += 1,
            }
            action != Action::Deny
        });
        batch
    }

    fn name(&self) -> &str {
        "firewall"
    }

    // The pipeline-level state hooks delegate to the trie's
    // `Checkpointable` impl inside the *shared* pipeline context, so
    // `CkArc`-aliased rules deduplicate across stages too. Counters stay
    // out, matching `checkpoint_rules`.
    fn checkpoint_state(&self, ctx: &mut CheckpointCtx) -> Option<Snapshot> {
        Some(self.trie.checkpoint(ctx))
    }

    fn restore_state(
        &mut self,
        snap: &Snapshot,
        ctx: &mut RestoreCtx<'_>,
    ) -> Result<(), SnapshotError> {
        self.trie = FwTrie::restore(snap, ctx)?;
        Ok(())
    }

    fn state_items(&self) -> u64 {
        self.trie.rule_refs() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use rbs_netfx::headers::ethernet::MacAddr;
    use rbs_netfx::headers::IpProto;
    use rbs_netfx::packet::Packet;
    use std::net::Ipv4Addr;

    fn packet(dst: Ipv4Addr, dport: u16) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(1, 1, 1, 1),
            dst,
            999,
            dport,
            0,
        )
    }

    fn firewall() -> FirewallOp {
        let mut t = FwTrie::new();
        t.insert(
            Rule::new(1, "allow-dns", Ipv4Addr::new(10, 0, 0, 0), 8, Action::Allow).dports(53, 53),
        );
        t.insert(Rule::new(
            2,
            "deny-ten",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Deny,
        ));
        t.insert(
            Rule::new(
                3,
                "limit-web",
                Ipv4Addr::new(20, 0, 0, 0),
                8,
                Action::RateLimit(100),
            )
            .dports(80, 80)
            .proto(IpProto::Udp),
        );
        FirewallOp::new(t, Action::Deny)
    }

    #[test]
    fn filtering_by_action() {
        let mut fw = firewall();
        let batch: PacketBatch = vec![
            packet(Ipv4Addr::new(10, 1, 1, 1), 53), // allow (id 1, dns)
            packet(Ipv4Addr::new(10, 1, 1, 1), 80), // deny (id 2)
            packet(Ipv4Addr::new(20, 1, 1, 1), 80), // rate-limit (id 3)
            packet(Ipv4Addr::new(30, 1, 1, 1), 80), // default deny
        ]
        .into_iter()
        .collect();
        let out = fw.process(batch);
        assert_eq!(out.len(), 2);
        assert_eq!(fw.allowed(), 1);
        assert_eq!(fw.denied(), 2);
        assert_eq!(fw.rate_limited(), 1);
    }

    #[test]
    fn default_action_applies_when_no_match() {
        let mut t = FwTrie::new();
        t.insert(Rule::new(
            1,
            "r",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Deny,
        ));
        let mut fw = FirewallOp::new(t, Action::Allow);
        let out = fw.process(
            vec![packet(Ipv4Addr::new(99, 9, 9, 9), 1)]
                .into_iter()
                .collect(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(fw.allowed(), 1);
    }

    #[test]
    fn non_flow_traffic_dropped() {
        let mut fw = FirewallOp::new(FwTrie::new(), Action::Allow);
        let mut p = packet(Ipv4Addr::new(10, 0, 0, 1), 1);
        p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
        let out = fw.process(vec![p].into_iter().collect());
        assert_eq!(out.len(), 0);
        assert_eq!(fw.denied(), 1);
    }

    #[test]
    fn non_first_fragments_are_non_flow_traffic() {
        let mut fw = FirewallOp::new(FwTrie::new(), Action::Allow);
        let mut bytes = packet(Ipv4Addr::new(10, 0, 0, 1), 53).as_slice().to_vec();
        // Fragment offset 2: no ports to decide on.
        bytes[14 + 7] = 2;
        let out = fw.process(vec![Packet::from_slice(&bytes)].into_iter().collect());
        assert_eq!(out.len(), 0);
        assert_eq!(fw.denied(), 1);
    }

    #[test]
    fn checkpoint_rollback_cycle() {
        let mut fw = firewall();
        let cp = fw.checkpoint_rules();
        // Control plane mutates: everything to 30/8 allowed.
        fw.trie.insert(Rule::new(
            4,
            "new",
            Ipv4Addr::new(30, 0, 0, 0),
            8,
            Action::Allow,
        ));
        let f = FiveTuple {
            src_ip: Ipv4Addr::new(1, 1, 1, 1),
            dst_ip: Ipv4Addr::new(30, 1, 1, 1),
            src_port: 9,
            dst_port: 9,
            proto: IpProto::Udp,
        };
        assert_eq!(fw.decide(&f), Action::Allow);
        fw.restore_rules(&cp).unwrap();
        assert_eq!(fw.decide(&f), Action::Deny, "rolled back to default deny");
    }

    #[test]
    fn operator_name() {
        assert_eq!(firewall().name(), "firewall");
    }

    #[test]
    fn pipeline_state_hooks_rebuild_a_warm_firewall() {
        use rbs_netfx::pipeline::PipelineSpec;

        let spec = PipelineSpec::new().stage(|| FirewallOp::new(FwTrie::new(), Action::Deny));
        let live = spec.build();
        assert_eq!(live.state_items(), 0);

        // Control plane installs rules into the *live* pipeline only.
        // (The spec's factory still builds empty firewalls — exactly the
        // state a cold restart would lose.)
        let stateless_replica = spec.build();
        assert_eq!(stateless_replica.state_items(), 0);
        drop(stateless_replica);
        // No mutable stage access on Pipeline; drive state through a
        // fresh op instead and checkpoint at the operator level.
        let mut fw = firewall();
        fw.trie.insert(Rule::new(
            9,
            "extra",
            Ipv4Addr::new(30, 0, 0, 0),
            8,
            Action::Allow,
        ));
        let rules = fw.trie().rule_refs();
        assert!(rules >= 4);

        let spec2 = {
            let seed = fw.checkpoint_rules();
            PipelineSpec::new().stage(move || {
                let mut op = FirewallOp::new(FwTrie::new(), Action::Deny);
                op.restore_rules(&seed).unwrap();
                op
            })
        };
        let warm = spec2.build();
        assert_eq!(warm.state_items(), rules as u64);

        // And the pipeline-level export/import path round-trips the same
        // rule database.
        let cp = warm.export_state();
        let replica = spec2.build_with_state(&cp).unwrap();
        assert_eq!(replica.state_items(), rules as u64);
        assert_eq!(replica.export_state().root, cp.root);
    }
}
