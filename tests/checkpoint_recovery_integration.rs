//! Integration: §3 + §5 composed — a firewall running inside a
//! protection domain whose recovery function restores the rule database
//! from a checkpoint, making a crash lose *no configuration*.
//!
//! This is the paper's two prototypes cooperating: SFI contains the
//! fault and runs recovery; the checkpoint library supplies the "clean
//! state" the domain is re-initialized from.

use rbs_core::sync::Mutex;
use rust_beyond_safety::checkpoint::{checkpoint, restore, Checkpoint};
use rust_beyond_safety::fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rust_beyond_safety::netfx::pipeline::Operator;
use rust_beyond_safety::netfx::pktgen::{PacketGen, TrafficConfig};
use rust_beyond_safety::sfi::{Domain, DomainManager, DomainState, RRef};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn build_rules() -> FwTrie {
    let mut t = FwTrie::new();
    let shared = t.insert(
        Rule::new(
            1,
            "allow-vip-web",
            Ipv4Addr::new(192, 0, 2, 1),
            32,
            Action::Allow,
        )
        .dports(80, 80),
    );
    t.alias_at(Ipv4Addr::new(192, 0, 2, 2), 32, shared);
    t.insert(Rule::new(
        2,
        "deny-rest",
        Ipv4Addr::UNSPECIFIED,
        0,
        Action::Deny,
    ));
    t
}

/// A firewall whose process() panics when it sees a poisoned marker
/// packet (payload length 666) — simulating an input-triggered crash.
struct CrashyFirewall {
    inner: FirewallOp,
}

impl rust_beyond_safety::netfx::pipeline::Operator for CrashyFirewall {
    fn process(
        &mut self,
        batch: rust_beyond_safety::netfx::batch::PacketBatch,
    ) -> rust_beyond_safety::netfx::batch::PacketBatch {
        for p in batch.iter() {
            assert!(p.len() != 42 + 666, "malformed packet crashed the filter");
        }
        self.inner.process(batch)
    }
}

#[test]
fn firewall_config_survives_domain_crash_via_checkpoint() {
    std::panic::set_hook(Box::new(|_| {}));

    // Control plane: build the rules, checkpoint them.
    let golden: Arc<Checkpoint> = Arc::new(checkpoint(&build_rules()));

    let mgr = DomainManager::new();
    let domain = mgr.create_domain("firewall").unwrap();

    let make_op = {
        let golden = Arc::clone(&golden);
        move || {
            let trie: FwTrie = restore(&golden).expect("golden checkpoint restores");
            CrashyFirewall {
                inner: FirewallOp::new(trie, Action::Deny),
            }
        }
    };

    let slot: Arc<Mutex<Option<RRef<CrashyFirewall>>>> = Arc::new(Mutex::new(None));
    {
        let slot = Arc::clone(&slot);
        let make_op = make_op.clone();
        domain.set_recovery(move |d: &Domain| {
            // Re-initialize from clean state = the golden checkpoint.
            *slot.lock() = Some(RRef::new(d, make_op()));
        });
    }
    let mut fw = RRef::new(&domain, make_op());

    let mut gen = PacketGen::new(TrafficConfig {
        flows: 64,
        ..Default::default()
    });

    // Normal traffic flows and is filtered.
    let out = fw
        .invoke_mut(|f| {
            let b = gen_batch(&mut gen, 16, 64);
            f.process(b).len()
        })
        .unwrap();
    assert!(out <= 16);

    // A malformed packet crashes the filter; the domain catches it.
    let err = fw
        .invoke_mut(|f| {
            let b = gen_batch(&mut gen, 4, 666);
            f.process(b).len()
        })
        .unwrap_err();
    assert!(matches!(
        err,
        rust_beyond_safety::sfi::RpcError::Fault { .. }
    ));
    assert_eq!(domain.state(), DomainState::Active, "recovery ran");

    // Pick up the recovered reference: full rule set is back (from the
    // checkpoint), nothing was lost with the crash.
    fw = slot.lock().take().expect("recovery deposited a fresh rref");
    let (allowed, denied) = fw
        .invoke_mut(|f| {
            let b = gen_batch(&mut gen, 32, 64);
            let before_allowed = f.inner.allowed();
            let out = f.process(b);
            (f.inner.allowed() - before_allowed, out.len())
        })
        .map(|(a, l)| (a, 32 - l as u64))
        .unwrap();
    // All generated traffic is to the VIP on port 80 → allowed by the
    // restored rule 1.
    assert_eq!(allowed, 32, "restored rules classify as before the crash");
    assert_eq!(denied, 0);
    assert_eq!(domain.generation(), 1);
}

fn gen_batch(
    gen: &mut PacketGen,
    n: usize,
    payload: usize,
) -> rust_beyond_safety::netfx::batch::PacketBatch {
    // Rebuild packets at the requested payload size, keeping the
    // generator's flow mix.
    use rust_beyond_safety::netfx::headers::ethernet::MacAddr;
    use rust_beyond_safety::netfx::packet::Packet;
    (0..n)
        .map(|_| {
            let p = gen.next_packet();
            let tuple = rust_beyond_safety::netfx::flow::FiveTuple::of(&p).unwrap();
            Packet::build_udp(
                MacAddr::ZERO,
                MacAddr::ZERO,
                tuple.src_ip,
                tuple.dst_ip,
                tuple.src_port,
                tuple.dst_port,
                payload,
            )
        })
        .collect()
}

/// The checkpoint itself is exchangeable: it can be produced inside one
/// domain and restored inside another (configuration migration).
#[test]
fn checkpoints_migrate_between_domains() {
    let mgr = DomainManager::new();
    let a = mgr.create_domain("fw-a").unwrap();
    let b = mgr.create_domain("fw-b").unwrap();

    let fw_a = RRef::new(&a, FirewallOp::new(build_rules(), Action::Deny));
    let cp = fw_a.invoke(|f| f.checkpoint_rules()).unwrap();

    let fw_b = RRef::new(&b, FirewallOp::new(FwTrie::new(), Action::Allow));
    fw_b.invoke_mut(move |f| f.restore_rules(&cp))
        .unwrap()
        .unwrap();

    let rule_refs = fw_b.invoke(|f| f.trie().rule_refs()).unwrap();
    assert_eq!(rule_refs, 3, "both attachments of rule 1 plus rule 2");
}
