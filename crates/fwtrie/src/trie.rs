//! The longest-prefix-match rule trie (Figure 3a).
//!
//! A binary trie over destination-address bits. Rules live behind
//! [`CkArc`]; the *same* rule object can be attached under several
//! prefixes ([`FwTrie::alias_at`]), which is exactly the sharing that
//! makes naïve checkpoint traversal duplicate rules (Figure 3b) and that
//! [`rbs_checkpoint`]'s epoch-flag dedup handles in O(1) per alias.
//!
//! Lookup is classic LPM: of the nodes on the destination's path, the
//! most specific one whose rule list matches the flow's residual fields,
//! equal depth tie-broken by rule id. The trie defines that answer and
//! is the only thing edited or checkpointed; the answer is *computed*
//! from a flat index compiled from the trie on the first lookup after a
//! change ([`crate::index`]) — three or four array reads instead of one
//! pointer per address bit. The index is derived state in the Theseus
//! sense: single-owner, rebuilt on demand, never in a snapshot, and it
//! copies rule fields instead of cloning `CkArc`s, so the sharing
//! Figure 3 counts is untouched by lookups.

use crate::index::Index;
use crate::rule::{mask_net, Action, Rule};
use rbs_checkpoint::{CheckpointCtx, Checkpointable, CkArc, RestoreCtx, Snapshot, SnapshotError};
use rbs_netfx::flow::FiveTuple;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

#[derive(Debug, Default)]
pub(crate) struct Node {
    pub(crate) zero: Option<Box<Node>>,
    pub(crate) one: Option<Box<Node>>,
    pub(crate) rules: Vec<CkArc<Rule>>,
}

impl Node {
    /// The child on `addr`'s path below a node at `depth`.
    pub(crate) fn child_towards(&self, addr: u32, depth: u8) -> Option<&Node> {
        let bit = (addr >> (31 - u32::from(depth))) & 1;
        if bit == 0 {
            self.zero.as_deref()
        } else {
            self.one.as_deref()
        }
    }
}

impl Checkpointable for Node {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(vec![
            match &self.zero {
                Some(n) => Snapshot::Opt(Some(Box::new(n.checkpoint(ctx)))),
                None => Snapshot::Opt(None),
            },
            match &self.one {
                Some(n) => Snapshot::Opt(Some(Box::new(n.checkpoint(ctx)))),
                None => Snapshot::Opt(None),
            },
            self.rules.checkpoint(ctx),
        ])
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        let Snapshot::Seq(items) = snap else {
            return Err(SnapshotError::TypeMismatch {
                expected: "trie node",
                found: "non-seq",
            });
        };
        if items.len() != 3 {
            return Err(SnapshotError::WrongLength {
                expected: 3,
                got: items.len(),
            });
        }
        let restore_child =
            |s: &Snapshot, ctx: &mut RestoreCtx<'_>| -> Result<Option<Box<Node>>, SnapshotError> {
                match s {
                    Snapshot::Opt(None) => Ok(None),
                    Snapshot::Opt(Some(inner)) => Ok(Some(Box::new(Node::restore(inner, ctx)?))),
                    other => Err(SnapshotError::TypeMismatch {
                        expected: "optional child",
                        found: if matches!(other, Snapshot::Seq(_)) {
                            "seq"
                        } else {
                            "other"
                        },
                    }),
                }
            };
        Ok(Node {
            zero: restore_child(&items[0], ctx)?,
            one: restore_child(&items[1], ctx)?,
            rules: Vec::<CkArc<Rule>>::restore(&items[2], ctx)?,
        })
    }
}

/// The firewall rule database: a binary LPM trie over destination
/// addresses with `CkArc`-shared rules.
#[derive(Debug, Default)]
pub struct FwTrie {
    root: Node,
    rule_refs: usize,
    /// The compiled form of `root`; emptied by every edit.
    index: OnceLock<Index>,
}

impl FwTrie {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `rule` under its own destination prefix, returning the
    /// shared handle (use it with [`FwTrie::alias_at`] to attach the same
    /// rule elsewhere).
    pub fn insert(&mut self, rule: Rule) -> CkArc<Rule> {
        let handle = CkArc::new(rule);
        let (net, len) = (handle.dst_net, handle.dst_len);
        self.attach(net, len, handle.clone());
        handle
    }

    /// Attaches an existing (possibly already attached) rule under an
    /// additional prefix — the Figure 3a sharing.
    pub fn alias_at(&mut self, net: Ipv4Addr, len: u8, rule: CkArc<Rule>) {
        assert!(len <= 32, "prefix length {len} out of range");
        self.attach(mask_net(u32::from(net), len), len, rule);
    }

    fn attach(&mut self, net: u32, len: u8, rule: CkArc<Rule>) {
        let mut node = &mut self.root;
        for depth in 0..len {
            let bit = (net >> (31 - u32::from(depth))) & 1;
            let child = if bit == 0 {
                &mut node.zero
            } else {
                &mut node.one
            };
            node = child.get_or_insert_with(Box::default);
        }
        node.rules.push(rule);
        self.rule_refs += 1;
        self.index.take();
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| Index::compile(&self.root))
    }

    /// The `id` and action of the best rule for `flow` — the data-path
    /// form of [`FwTrie::lookup`]: read off the compiled index, no rule
    /// object touched.
    #[inline]
    pub fn decide(&self, flow: &FiveTuple) -> Option<(u32, Action)> {
        self.index().find(flow).map(|hit| (hit.id, hit.action))
    }

    /// Looks up the best rule for `flow`: the deepest (most specific)
    /// matching prefix; equal depth resolved by smallest rule id.
    ///
    /// The index names the reference; fetching its handle walks the
    /// binary trie down to it, which is the control plane's price, not
    /// the data path's ([`FwTrie::decide`]).
    pub fn lookup(&self, flow: &FiveTuple) -> Option<&CkArc<Rule>> {
        let hit = self.index().find(flow)?;
        let dst = u32::from(flow.dst_ip);
        let mut node = &self.root;
        for depth in 0..hit.depth {
            node = node
                .child_towards(dst, depth)
                .expect("the index names a node of the trie it was compiled from");
        }
        Some(&node.rules[hit.position as usize])
    }

    /// [`FwTrie::lookup`] by the definition: walk the destination bits,
    /// remember the most specific node with a residual match. The oracle
    /// the compiled index is tested against.
    #[cfg(test)]
    pub(crate) fn lookup_bit_walk(&self, flow: &FiveTuple) -> Option<&CkArc<Rule>> {
        let dst = u32::from(flow.dst_ip);
        let mut best: Option<&CkArc<Rule>> = None;
        let mut node = Some(&self.root);
        let mut depth = 0u8;
        while let Some(n) = node {
            // Candidates at this depth: the prefix matched by position.
            let candidate = n
                .rules
                .iter()
                .filter(|r| r.matches_residual(flow))
                .min_by_key(|r| r.id);
            if candidate.is_some() {
                // Deeper nodes are visited later, so overwriting keeps
                // the longest prefix.
                best = candidate;
            }
            if depth == 32 {
                break;
            }
            node = n.child_towards(dst, depth);
            depth += 1;
        }
        best
    }

    /// Nodes of the compiled index (compiling it if need be).
    #[cfg(test)]
    pub(crate) fn index_nodes(&self) -> usize {
        self.index().node_count()
    }

    /// True once a lookup has compiled the index and no edit has
    /// retired it since.
    #[cfg(test)]
    pub(crate) fn index_is_compiled(&self) -> bool {
        self.index.get().is_some()
    }

    /// Removes every attachment of the rule with id `id` (all aliases),
    /// pruning emptied trie nodes. Returns how many references were
    /// removed.
    pub fn remove_rule(&mut self, id: u32) -> usize {
        fn walk(node: &mut Node, id: u32) -> usize {
            let before = node.rules.len();
            node.rules.retain(|r| r.id != id);
            let mut removed = before - node.rules.len();
            for child in [&mut node.zero, &mut node.one] {
                if let Some(c) = child {
                    removed += walk(c, id);
                    if c.rules.is_empty() && c.zero.is_none() && c.one.is_none() {
                        *child = None;
                    }
                }
            }
            removed
        }
        let removed = walk(&mut self.root, id);
        self.rule_refs -= removed;
        self.index.take();
        removed
    }

    /// Number of rule *references* in the trie (aliases included).
    pub fn rule_refs(&self) -> usize {
        self.rule_refs
    }

    /// Number of trie nodes.
    pub fn node_count(&self) -> usize {
        fn count(n: &Node) -> usize {
            1 + n.zero.as_deref().map_or(0, count) + n.one.as_deref().map_or(0, count)
        }
        count(&self.root)
    }

    /// All rule references, depth-first (aliased rules appear once per
    /// attachment — the traversal a naïve checkpointer would make).
    pub fn iter_refs(&self) -> Vec<&CkArc<Rule>> {
        fn walk<'a>(n: &'a Node, out: &mut Vec<&'a CkArc<Rule>>) {
            out.extend(n.rules.iter());
            if let Some(z) = &n.zero {
                walk(z, out);
            }
            if let Some(o) = &n.one {
                walk(o, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

impl Checkpointable for FwTrie {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(vec![
            self.root.checkpoint(ctx),
            Snapshot::UInt(self.rule_refs as u64),
        ])
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        let Snapshot::Seq(items) = snap else {
            return Err(SnapshotError::TypeMismatch {
                expected: "fwtrie",
                found: "non-seq",
            });
        };
        if items.len() != 2 {
            return Err(SnapshotError::WrongLength {
                expected: 2,
                got: items.len(),
            });
        }
        let Snapshot::UInt(refs) = items[1] else {
            return Err(SnapshotError::TypeMismatch {
                expected: "rule_refs",
                found: "non-uint",
            });
        };
        Ok(FwTrie {
            root: Node::restore(&items[0], ctx)?,
            rule_refs: refs as usize,
            index: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Action;
    use proptest::prelude::*;
    use rbs_checkpoint::{checkpoint, checkpoint_with_mode, restore, DedupMode};
    use rbs_netfx::headers::IpProto;

    fn flow(dst: [u8; 4], dport: u16) -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr::new(172, 16, 0, 1),
            dst_ip: Ipv4Addr::from(dst),
            src_port: 1000,
            dst_port: dport,
            proto: IpProto::Udp,
        }
    }

    fn sample_trie() -> FwTrie {
        let mut t = FwTrie::new();
        t.insert(Rule::new(
            1,
            "ten-net",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        t.insert(Rule::new(
            2,
            "ten-one",
            Ipv4Addr::new(10, 1, 0, 0),
            16,
            Action::Deny,
        ));
        t.insert(
            Rule::new(3, "dns-only", Ipv4Addr::new(10, 1, 1, 0), 24, Action::Allow).dports(53, 53),
        );
        t
    }

    #[test]
    fn longest_prefix_wins() {
        let t = sample_trie();
        assert_eq!(t.lookup(&flow([10, 2, 0, 1], 80)).unwrap().id, 1);
        assert_eq!(t.lookup(&flow([10, 1, 9, 9], 80)).unwrap().id, 2);
        assert_eq!(t.lookup(&flow([10, 1, 1, 9], 53)).unwrap().id, 3);
        // Port 80 fails rule 3's residual; falls back to /16.
        assert_eq!(t.lookup(&flow([10, 1, 1, 9], 80)).unwrap().id, 2);
        assert!(t.lookup(&flow([11, 0, 0, 1], 80)).is_none());
    }

    #[test]
    fn same_depth_tie_breaks_by_id() {
        let mut t = FwTrie::new();
        t.insert(Rule::new(
            9,
            "b",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Deny,
        ));
        t.insert(Rule::new(
            2,
            "a",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        assert_eq!(t.lookup(&flow([10, 5, 5, 5], 1)).unwrap().id, 2);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = FwTrie::new();
        t.insert(Rule::new(
            99,
            "default-deny",
            Ipv4Addr::UNSPECIFIED,
            0,
            Action::Deny,
        ));
        assert_eq!(t.lookup(&flow([8, 8, 8, 8], 443)).unwrap().id, 99);
    }

    #[test]
    fn full_length_prefix() {
        let mut t = FwTrie::new();
        t.insert(Rule::new(
            1,
            "host",
            Ipv4Addr::new(10, 0, 0, 1),
            32,
            Action::Deny,
        ));
        assert_eq!(t.lookup(&flow([10, 0, 0, 1], 1)).unwrap().id, 1);
        assert!(t.lookup(&flow([10, 0, 0, 2], 1)).is_none());
    }

    #[test]
    fn aliasing_shares_rule_objects() {
        let mut t = FwTrie::new();
        let shared = t.insert(Rule::new(
            1,
            "shared",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        t.alias_at(Ipv4Addr::new(192, 168, 0, 0), 16, shared.clone());
        assert_eq!(t.rule_refs(), 2);
        let a = t.lookup(&flow([10, 1, 1, 1], 1)).unwrap();
        let b = t.lookup(&flow([192, 168, 1, 1], 1)).unwrap();
        assert!(CkArc::ptr_eq(a, b), "both prefixes reach the same object");
        assert_eq!(CkArc::strong_count(&shared), 3);
    }

    /// Figure 3: checkpointing the shared-rule database makes exactly one
    /// copy of the shared rule; naïve traversal makes one per leaf.
    #[test]
    fn figure3_dedup_vs_naive() {
        let mut t = FwTrie::new();
        let shared = t.insert(Rule::new(
            1,
            "r1",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        t.alias_at(Ipv4Addr::new(192, 168, 0, 0), 16, shared.clone());
        t.alias_at(Ipv4Addr::new(172, 16, 0, 0), 12, shared);
        t.insert(Rule::new(
            2,
            "r2",
            Ipv4Addr::new(8, 8, 8, 0),
            24,
            Action::Deny,
        ));

        let dedup = checkpoint(&t);
        assert_eq!(dedup.stats.shared_copied, 2, "two distinct rules");
        assert_eq!(dedup.stats.shared_hits, 2, "two extra aliases of r1");

        let naive = checkpoint_with_mode(&t, DedupMode::None);
        assert_eq!(naive.stats.duplicate_copies, 4, "one copy per reference");
        assert!(naive.total_nodes() > dedup.total_nodes());
    }

    #[test]
    fn restore_preserves_sharing_and_semantics() {
        let mut t = FwTrie::new();
        let shared = t.insert(Rule::new(
            1,
            "r1",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        t.alias_at(Ipv4Addr::new(192, 168, 0, 0), 16, shared);
        t.insert(Rule::new(2, "dns", Ipv4Addr::new(10, 1, 0, 0), 16, Action::Deny).dports(53, 53));

        let cp = checkpoint(&t);
        let back: FwTrie = restore(&cp).unwrap();
        assert_eq!(back.rule_refs(), t.rule_refs());
        assert_eq!(back.node_count(), t.node_count());
        // Same decisions.
        for (dst, port) in [
            ([10, 1, 0, 1], 53u16),
            ([10, 2, 0, 1], 80),
            ([192, 168, 0, 9], 1),
            ([9, 9, 9, 9], 9),
        ] {
            let orig = t.lookup(&flow(dst, port)).map(|r| r.id);
            let rest = back.lookup(&flow(dst, port)).map(|r| r.id);
            assert_eq!(orig, rest, "dst {dst:?} port {port}");
        }
        // Sharing reconstructed.
        let a = back.lookup(&flow([10, 5, 5, 5], 1)).unwrap();
        let b = back.lookup(&flow([192, 168, 1, 1], 1)).unwrap();
        assert!(CkArc::ptr_eq(a, b));
    }

    #[test]
    fn restore_after_mutation_rolls_back() {
        let mut t = sample_trie();
        let cp = checkpoint(&t);
        t.insert(Rule::new(
            50,
            "new",
            Ipv4Addr::new(99, 0, 0, 0),
            8,
            Action::Deny,
        ));
        assert!(t.lookup(&flow([99, 1, 1, 1], 1)).is_some());
        let back: FwTrie = restore(&cp).unwrap();
        assert!(
            back.lookup(&flow([99, 1, 1, 1], 1)).is_none(),
            "rollback to snapshot"
        );
    }

    #[test]
    fn remove_rule_prunes_all_aliases_and_nodes() {
        let mut t = FwTrie::new();
        let shared = t.insert(Rule::new(
            1,
            "shared",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        t.alias_at(Ipv4Addr::new(192, 168, 0, 0), 16, shared.clone());
        t.insert(Rule::new(
            2,
            "other",
            Ipv4Addr::new(20, 0, 0, 0),
            8,
            Action::Deny,
        ));
        let nodes_before = t.node_count();

        assert_eq!(t.remove_rule(1), 2, "both attachments removed");
        assert_eq!(t.rule_refs(), 1);
        assert!(t.lookup(&flow([10, 1, 1, 1], 1)).is_none());
        assert!(t.lookup(&flow([192, 168, 1, 1], 1)).is_none());
        assert_eq!(t.lookup(&flow([20, 1, 1, 1], 1)).unwrap().id, 2);
        assert!(t.node_count() < nodes_before, "emptied branches pruned");
        // The caller's handle keeps the object alive; the trie let go.
        assert_eq!(CkArc::strong_count(&shared), 1);

        assert_eq!(t.remove_rule(99), 0, "unknown id is a no-op");
    }

    #[test]
    fn remove_then_reinsert_same_prefix() {
        let mut t = FwTrie::new();
        t.insert(Rule::new(
            1,
            "a",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Deny,
        ));
        t.remove_rule(1);
        t.insert(Rule::new(
            3,
            "b",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        assert_eq!(t.lookup(&flow([10, 1, 1, 1], 1)).unwrap().id, 3);
    }

    #[test]
    fn iter_refs_visits_aliases() {
        let mut t = FwTrie::new();
        let shared = t.insert(Rule::new(
            1,
            "s",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Allow,
        ));
        t.alias_at(Ipv4Addr::new(20, 0, 0, 0), 8, shared);
        let refs = t.iter_refs();
        assert_eq!(refs.len(), 2);
        assert!(CkArc::ptr_eq(refs[0], refs[1]));
    }

    #[test]
    fn node_count_grows_with_prefix_depth() {
        let mut t = FwTrie::new();
        assert_eq!(t.node_count(), 1);
        t.insert(Rule::new(
            1,
            "r",
            Ipv4Addr::new(128, 0, 0, 0),
            1,
            Action::Allow,
        ));
        assert_eq!(t.node_count(), 2);
        t.insert(Rule::new(
            2,
            "r2",
            Ipv4Addr::new(128, 0, 0, 0),
            3,
            Action::Allow,
        ));
        assert_eq!(t.node_count(), 4);
    }

    proptest! {
        /// Trie lookup agrees with a naive linear scan over all rules
        /// (most specific prefix, then lowest id).
        #[test]
        fn lookup_matches_linear_scan(
            rules in proptest::collection::vec(
                (any::<u32>(), 0u8..=32, any::<u16>(), any::<u16>(), 1u32..1000),
                1..40,
            ),
            dst in any::<u32>(),
            dport in any::<u16>(),
        ) {
            let mut t = FwTrie::new();
            let mut all = Vec::new();
            for (i, (net, len, lo, hi, _salt)) in rules.iter().enumerate() {
                let (lo, hi) = (*lo.min(hi), *lo.max(hi));
                let r = Rule::new(i as u32, format!("r{i}"), Ipv4Addr::from(*net), *len, Action::Allow)
                    .dports(lo, hi);
                all.push(r.clone());
                t.insert(r);
            }
            let f = flow(dst.to_be_bytes(), dport);
            let trie_best = t.lookup(&f).map(|r| r.id);
            let scan_best = all
                .iter()
                .filter(|r| r.matches(&f))
                .max_by(|a, b| a.dst_len.cmp(&b.dst_len).then(b.id.cmp(&a.id)))
                .map(|r| r.id);
            prop_assert_eq!(trie_best, scan_best);
        }

        /// Checkpoint/restore is semantics-preserving on random tries.
        #[test]
        fn checkpoint_restore_preserves_lookups(
            rules in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..20),
            probes in proptest::collection::vec(any::<u32>(), 1..20),
        ) {
            let mut t = FwTrie::new();
            for (i, (net, len)) in rules.iter().enumerate() {
                t.insert(Rule::new(i as u32, format!("r{i}"), Ipv4Addr::from(*net), *len, Action::Allow));
            }
            let back: FwTrie = restore(&checkpoint(&t)).unwrap();
            for dst in probes {
                let f = flow(dst.to_be_bytes(), 80);
                prop_assert_eq!(
                    t.lookup(&f).map(|r| r.id),
                    back.lookup(&f).map(|r| r.id)
                );
            }
        }
    }
}
