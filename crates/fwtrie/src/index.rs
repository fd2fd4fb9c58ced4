//! The compiled lookup index: a stride-8 view of the rule trie.
//!
//! The binary trie of [`crate::trie`] is the rule database — what the
//! control plane edits, what Figure 3 checkpoints, where `CkArc` sharing
//! lives. It is a poor thing to walk per packet: one `Box` per address
//! bit, so a verdict under a `/24` costs two dozen dependent loads. This
//! module flattens it into the shape the data path wants and nothing
//! else reads.
//!
//! # Layout
//!
//! A *node* is 256 `Slot`s, indexed by one byte of the destination
//! address; the node at level `L` (0..=3) stands for a binary-trie node
//! at depth `8L` and spans the binary depths `8L+1 ..= 8L+8` below it.
//! A slot holds the index of the child node (when the binary trie goes
//! on below depth `8L+8` on that byte's path) and a *candidate chain*: a
//! run of `Candidate`s in one shared array, one per rule reference
//! attached on the byte's path at the depths the node spans — a
//! reference at depth `8L+k` appears in the chains of the `2^(8-k)` slots
//! its prefix covers. Rules attached at the root (`/0`) form a chain of
//! their own. A candidate is a plain copy of what a decision needs: the
//! rule's residual fields, its `id` and `action`, and the `(depth,
//! position)` at which the reference hangs in the binary trie. No
//! `CkArc` is cloned or dereferenced on the data path.
//!
//! # Why it answers like the bit walk
//!
//! The bit walk visits the binary nodes on the destination's path from
//! the root down, at each keeps the lowest-`id` rule whose residual
//! fields match (the first such in attachment order among equal ids),
//! and lets a deeper hit overwrite a shallower one. A chain lists its
//! slot's references deepest depth first, `id` ascending within a depth,
//! attachment order within an `id` — so the *first* match in a chain is
//! the bit walk's answer over those ≤ 8 depths — and `Index::find`
//! takes the root chain, then one chain per level, a later level's hit
//! overwriting an earlier one. That is the same maximum over the same
//! set, read in at most four dependent node loads.
//!
//! # Lifetime and memory
//!
//! The index is derived state: built on the first lookup after the trie
//! changed (`FwTrie` holds it in a `OnceLock` that `insert`, `alias_at`
//! and `remove_rule` empty), absent from every checkpoint, and absent
//! again after a restore until the first lookup rebuilds it from the
//! restored trie.
//!
//! Every node but the root exists because some rule reference lies
//! below it, and a reference at depth ≤ 32 has at most three such
//! ancestors: at most `1 + 3 × rule_refs` nodes of 3 KiB each. (The
//! benchmark's 1 024 `/24` rules under `192.0.0.0/14` compile to 7.)
//! Consecutive slots whose chains are equal share one run, so a
//! reference at depth `8L+8` costs one 40-byte candidate, and one at
//! depth `8L+k` one per distinct deeper chain under its prefix — at
//! most `2^(8-k)`.

use crate::rule::{Action, Rule};
use crate::trie::Node;
use rbs_netfx::flow::FiveTuple;
use std::cmp::Reverse;
use std::ops::Range;

/// One rule reference as the data path sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Candidate {
    src_net: u32,
    src_mask: u32,
    dport_lo: u16,
    dport_hi: u16,
    proto: Option<u8>,
    /// Depth of the binary node the reference is attached to.
    pub(crate) depth: u8,
    /// Index of the reference in that node's rule list.
    pub(crate) position: u32,
    pub(crate) id: u32,
    pub(crate) action: Action,
}

impl Candidate {
    fn new(rule: &Rule, depth: u8, position: usize) -> Candidate {
        Candidate {
            src_net: rule.src_net,
            src_mask: crate::rule::mask_net(u32::MAX, rule.src_len),
            dport_lo: rule.dport_lo,
            dport_hi: rule.dport_hi,
            proto: rule.proto,
            depth,
            position: position as u32,
            id: rule.id,
            action: rule.action,
        }
    }

    /// [`Rule::matches_residual`], on the copied fields.
    #[inline]
    fn matches_residual(&self, flow: &FiveTuple) -> bool {
        u32::from(flow.src_ip) & self.src_mask == self.src_net
            && (self.dport_lo..=self.dport_hi).contains(&flow.dst_port)
            && self.proto.is_none_or(|p| p == u8::from(flow.proto))
    }
}

/// No child below this slot.
const LEAF: u32 = u32::MAX;

/// Slots per node: one per value of an address byte.
const FANOUT: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the node one level down, or [`LEAF`].
    child: u32,
    /// The slot's candidate chain: `candidates[chain..chain + len]`.
    chain: u32,
    len: u32,
}

impl Slot {
    fn candidates(&self) -> Range<usize> {
        self.chain as usize..(self.chain + self.len) as usize
    }
}

/// The compiled form of one state of the rule trie (see the module docs).
#[derive(Debug)]
pub(crate) struct Index {
    /// `FANOUT` slots per node; node 0 is the root.
    slots: Vec<Slot>,
    candidates: Vec<Candidate>,
    /// Length of the root (`/0`) chain, which opens `candidates`.
    root_len: usize,
}

impl Index {
    /// Compiles the trie under `root`.
    pub(crate) fn compile(root: &Node) -> Index {
        let mut index = Index {
            slots: Vec::new(),
            candidates: Vec::new(),
            root_len: 0,
        };
        index.push_rules(root, 0);
        index.candidates.sort_by_key(|c| c.id);
        index.root_len = index.candidates.len();
        index.compile_node(root, 0);
        index
    }

    fn push_rules(&mut self, node: &Node, depth: u8) {
        let attached = node.rules.iter().enumerate();
        self.candidates
            .extend(attached.map(|(position, rule)| Candidate::new(rule, depth, position)));
    }

    /// Appends the node standing for `top`, a binary node at depth
    /// `8 × level`, and every node below it; returns its index.
    fn compile_node(&mut self, top: &Node, level: u8) -> u32 {
        let node = self.slots.len() / FANOUT;
        let empty = Slot {
            child: LEAF,
            chain: 0,
            len: 0,
        };
        self.slots.resize(self.slots.len() + FANOUT, empty);
        // The previous slot's chain, which the next one often repeats.
        let mut shared = 0..0;
        for byte in 0..FANOUT {
            let start = self.candidates.len();
            let mut below = top;
            let mut steps = 0;
            // `child_towards` reads address bits from the top: put the
            // slot's byte there.
            for step in 0..8 {
                let Some(next) = below.child_towards((byte as u32) << 24, step) else {
                    break;
                };
                below = next;
                steps = step + 1;
                self.push_rules(below, level * 8 + steps);
            }
            // Stable, so equal ids keep their attachment order.
            self.candidates[start..].sort_by_key(|c| (Reverse(c.depth), c.id));
            let (earlier, chain) = self.candidates.split_at(start);
            if earlier[shared.clone()] == *chain {
                self.candidates.truncate(start);
            } else {
                shared = start..self.candidates.len();
            }
            let goes_on = steps == 8 && level < 3 && (below.zero.is_some() || below.one.is_some());
            let child = if goes_on {
                self.compile_node(below, level + 1)
            } else {
                LEAF
            };
            self.slots[node * FANOUT + byte] = Slot {
                child,
                chain: shared.start as u32,
                len: shared.len() as u32,
            };
        }
        node as u32
    }

    /// The reference the bit walk would pick for `flow`: the deepest
    /// prefix on the destination's path with a residual match, lowest
    /// `id` at that depth.
    #[inline]
    pub(crate) fn find(&self, flow: &FiveTuple) -> Option<&Candidate> {
        let first_match = |chain: Range<usize>| {
            self.candidates[chain]
                .iter()
                .find(|c| c.matches_residual(flow))
        };
        let mut best = first_match(0..self.root_len);
        let mut node = 0;
        for byte in flow.dst_ip.octets() {
            let slot = &self.slots[node * FANOUT + usize::from(byte)];
            if let Some(deeper) = first_match(slot.candidates()) {
                best = Some(deeper);
            }
            if slot.child == LEAF {
                break;
            }
            node = slot.child as usize;
        }
        best
    }

    /// Number of 256-slot nodes.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.slots.len() / FANOUT
    }
}

#[cfg(test)]
mod tests {
    use crate::rule::{prefix_contains, Action, Rule};
    use crate::trie::FwTrie;
    use proptest::prelude::*;
    use rbs_checkpoint::{checkpoint, encode, restore, CkArc};
    use rbs_netfx::flow::FiveTuple;
    use rbs_netfx::headers::IpProto;
    use std::cmp::Reverse;
    use std::net::Ipv4Addr;

    /// Addresses that share long prefixes, so that rules nest, collide
    /// and sit on either side of every stride boundary.
    fn clustered_addr() -> impl Strategy<Value = u32> {
        let base = prop_oneof![
            Just(u32::from(Ipv4Addr::new(10, 0, 0, 0))),
            Just(u32::from(Ipv4Addr::new(10, 1, 0, 0))),
            Just(u32::from(Ipv4Addr::new(10, 1, 1, 0))),
            Just(u32::from(Ipv4Addr::new(10, 1, 1, 128))),
            Just(u32::from(Ipv4Addr::new(192, 168, 0, 0))),
            Just(0u32),
            Just(u32::MAX),
        ];
        let low_bits = prop_oneof![Just(0u32), 0u32..4, 0u32..0x0200, any::<u32>()];
        (base, low_bits).prop_map(|(base, low)| base ^ low)
    }

    fn prefix_len() -> impl Strategy<Value = u8> {
        let edges: &'static [u8] = &[0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32];
        prop_oneof![
            3 => (0..edges.len()).prop_map(move |i| edges[i]),
            1 => 0u8..=32,
        ]
    }

    /// A rule body: id (few values, so equal-depth ties and repeated ids
    /// happen), action, and the residual fields.
    #[derive(Debug, Clone)]
    struct Body {
        id: u32,
        deny: bool,
        src: Option<(u32, u8)>,
        dports: (u16, u16),
        proto: Option<IpProto>,
    }

    fn body() -> impl Strategy<Value = Body> {
        let src = prop_oneof![
            2 => Just(None),
            1 => Just(Some((u32::from(Ipv4Addr::new(172, 16, 0, 0)), 12u8))),
            1 => Just(Some((u32::from(Ipv4Addr::new(172, 16, 0, 1)), 32u8))),
        ];
        let dports = prop_oneof![
            2 => Just((0u16, u16::MAX)),
            1 => Just((53u16, 53u16)),
            1 => Just((0u16, 1023u16)),
        ];
        let proto = prop_oneof![
            2 => Just(None),
            1 => Just(Some(IpProto::Tcp)),
            1 => Just(Some(IpProto::Udp)),
        ];
        (0u32..6, any::<bool>(), src, dports, proto).prop_map(|(id, deny, src, dports, proto)| {
            Body {
                id,
                deny,
                src,
                dports,
                proto,
            }
        })
    }

    #[derive(Debug, Clone)]
    enum Edit {
        Insert(u32, u8, Body),
        /// Attach the rule inserted `usize`-th (modulo) under another prefix.
        Alias(usize, u32, u8),
    }

    fn edit() -> impl Strategy<Value = Edit> {
        prop_oneof![
            3 => (clustered_addr(), prefix_len(), body()).prop_map(|(net, len, b)| Edit::Insert(net, len, b)),
            1 => (any::<usize>(), clustered_addr(), prefix_len()).prop_map(|(i, net, len)| Edit::Alias(i, net, len)),
        ]
    }

    fn probe() -> impl Strategy<Value = FiveTuple> {
        let src = prop_oneof![
            Just(Ipv4Addr::new(172, 16, 0, 1)),
            Just(Ipv4Addr::new(172, 17, 3, 4)),
            Just(Ipv4Addr::new(8, 8, 8, 8)),
        ];
        let dport = prop_oneof![Just(53u16), Just(80), Just(5_000)];
        let proto = prop_oneof![Just(IpProto::Tcp), Just(IpProto::Udp)];
        (src, clustered_addr(), dport, proto).prop_map(|(src_ip, dst, dst_port, proto)| FiveTuple {
            src_ip,
            dst_ip: Ipv4Addr::from(dst),
            src_port: 1_000,
            dst_port,
            proto,
        })
    }

    /// One attachment, as the linear-scan model keeps it.
    struct Attached {
        net: u32,
        len: u8,
        rule: Rule,
    }

    /// The specification: of the attachments whose prefix holds the
    /// destination and whose rule accepts the rest, the longest prefix,
    /// then the lowest id, then the earliest attached.
    fn linear_scan<'a>(model: &'a [Attached], flow: &FiveTuple) -> Option<&'a Rule> {
        model
            .iter()
            .filter(|a| {
                prefix_contains(a.net, a.len, u32::from(flow.dst_ip))
                    && a.rule.matches_residual(flow)
            })
            .min_by_key(|a| (Reverse(a.len), a.rule.id))
            .map(|a| &a.rule)
    }

    /// Index ≡ bit walk (the very same reference) ≡ linear scan.
    fn agree(trie: &FwTrie, model: &[Attached], probes: &[FiveTuple]) -> Result<(), TestCaseError> {
        for flow in probes {
            let walked = trie.lookup_bit_walk(flow);
            let indexed = trie.lookup(flow);
            prop_assert_eq!(indexed.is_some(), walked.is_some(), "{:?}", flow);
            if let (Some(indexed), Some(walked)) = (indexed, walked) {
                prop_assert!(
                    CkArc::ptr_eq(indexed, walked),
                    "{:?}: {} vs {}",
                    flow,
                    **indexed,
                    **walked
                );
            }
            prop_assert_eq!(trie.decide(flow), walked.map(|r| (r.id, r.action)));
            prop_assert_eq!(walked.map(|r| &**r), linear_scan(model, flow), "{:?}", flow);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn index_matches_bit_walk_and_linear_scan_through_edits_and_restore(
            edits in proptest::collection::vec(edit(), 1..24),
            more in proptest::collection::vec(edit(), 0..6),
            removed in proptest::collection::vec(0u32..6, 0..3),
            probes in proptest::collection::vec(probe(), 1..24),
        ) {
            let mut trie = FwTrie::new();
            let mut model: Vec<Attached> = Vec::new();
            let mut handles = Vec::new();
            let mut apply = |trie: &mut FwTrie, model: &mut Vec<Attached>, edit: &Edit| match edit {
                Edit::Insert(net, len, b) => {
                    let action = if b.deny { Action::Deny } else { Action::RateLimit(u64::from(b.id)) };
                    let name = format!("r{}", handles.len());
                    let mut rule = Rule::new(b.id, name, Ipv4Addr::from(*net), *len, action)
                        .dports(b.dports.0, b.dports.1);
                    if let Some((src, src_len)) = b.src {
                        rule = rule.src(Ipv4Addr::from(src), src_len);
                    }
                    if let Some(proto) = b.proto {
                        rule = rule.proto(proto);
                    }
                    let (net, len) = (rule.dst_net, rule.dst_len);
                    model.push(Attached { net, len, rule: rule.clone() });
                    handles.push(trie.insert(rule));
                }
                Edit::Alias(i, net, len) => {
                    if handles.is_empty() {
                        return;
                    }
                    let handle = handles[i % handles.len()].clone();
                    let net = crate::rule::mask_net(*net, *len);
                    model.push(Attached { net, len: *len, rule: (*handle).clone() });
                    trie.alias_at(Ipv4Addr::from(net), *len, handle);
                }
            };
            for edit in &edits {
                apply(&mut trie, &mut model, edit);
            }
            // Lookups leave no trace in what is checkpointed.
            let sealed = encode(&checkpoint(&trie));
            agree(&trie, &model, &probes)?;
            prop_assert_eq!(&encode(&checkpoint(&trie)), &sealed);
            prop_assert!(trie.index_nodes() <= 1 + 3 * trie.rule_refs());

            // Every kind of edit retires the compiled index.
            for edit in &more {
                apply(&mut trie, &mut model, edit);
                agree(&trie, &model, &probes)?;
            }
            for id in &removed {
                let refs = model.len();
                model.retain(|a| a.rule.id != *id);
                prop_assert_eq!(trie.remove_rule(*id), refs - model.len());
                agree(&trie, &model, &probes)?;
            }

            // A restored trie starts without an index and grows the same one.
            let sealed = checkpoint(&trie);
            let back: FwTrie = restore(&sealed).unwrap();
            prop_assert!(!back.index_is_compiled());
            agree(&back, &model, &probes)?;
            prop_assert!(back.index_is_compiled());
            prop_assert_eq!(encode(&checkpoint(&back)), encode(&sealed));
        }
    }

    /// dpbench's rule set: 1 024 `/24`s under `192.0.0.0/14`, the VIP's
    /// own `192.0.2.0/24` left out.
    #[test]
    fn the_benchmark_rule_set_compiles_to_seven_nodes() {
        let mut trie = FwTrie::new();
        let prefixes = (0..=4u8)
            .flat_map(|second| (0..=255u8).map(move |third| (second, third)))
            .filter(|&prefix| prefix != (0, 2));
        for (id, (second, third)) in prefixes.take(1_024).enumerate() {
            let net = Ipv4Addr::new(192, second, third, 0);
            trie.insert(Rule::new(id as u32, "deny", net, 24, Action::Deny));
        }
        // The root, `192.*`, and `192.0.*` … `192.4.*`.
        assert_eq!(trie.index_nodes(), 7);
        let vip = FiveTuple {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(192, 0, 2, 1),
            src_port: 1,
            dst_port: 80,
            proto: IpProto::Udp,
        };
        assert_eq!(trie.decide(&vip), None);
        let denied = FiveTuple {
            dst_ip: Ipv4Addr::new(192, 0, 3, 1),
            ..vip
        };
        assert_eq!(trie.decide(&denied), Some((2, Action::Deny)));
    }
}
