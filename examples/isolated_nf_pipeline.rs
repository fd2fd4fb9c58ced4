//! A realistic NFV pipeline with every stage in its own protection
//! domain: firewall → TTL decrement → Maglev load balancer.
//!
//! Part 1 demonstrates §3 end to end on one thread: batches move between
//! domains by ownership transfer, a fault in one stage is contained and
//! recovered, and the rest of the pipeline never notices.
//!
//! Part 2 runs the same pipeline on the tenant engine: four tenants on
//! two lanes, each owning a full pipeline replica inside its own domain,
//! flows steered to them by a Maglev table. A poison packet crashes one
//! tenant's chain mid-run; the printout shows the other three unaffected
//! while the engine rebuilds the victim's chain in a fresh domain and it
//! rejoins.
//!
//! ```sh
//! cargo run --release --example isolated_nf_pipeline [-- --backend typed|mpk|copy]
//! ```
//!
//! `--backend` selects the isolation backend every protection domain
//! runs on (default `typed`, the paper's zero-cost model); `mpk` and
//! `copy` charge each crossing per their cost models and the example
//! prints the resulting crossing census (experiment E13 measures the
//! full spectrum).

use rust_beyond_safety::fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rust_beyond_safety::maglev::{Backend, MaglevLb};
use rust_beyond_safety::netfx::flow::{packet_flow_hash, FiveTuple};
use rust_beyond_safety::netfx::headers::ethernet::MacAddr;
use rust_beyond_safety::netfx::operators::TtlDecrement;
use rust_beyond_safety::netfx::pktgen::{FlowDistribution, PacketGen, TrafficConfig};
use rust_beyond_safety::netfx::{Operator, Packet, PacketBatch, PipelineSpec};
use rust_beyond_safety::runtime::{TenantLaneConfig, TenantLaneRuntime, TenantSpec};
use rust_beyond_safety::sfi::BackendKind;
use rust_beyond_safety::IsolatedPipeline;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Parses `--backend <kind>` from the argument list (default typed-sfi).
fn backend_from_args() -> BackendKind {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--backend" {
            let v = args.next().unwrap_or_default();
            return v.parse().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        }
    }
    BackendKind::TypedSfi
}

fn build_firewall() -> FirewallOp {
    let mut trie = FwTrie::new();
    // Allow web traffic to the VIP; everything else to it is dropped.
    trie.insert(
        Rule::new(
            1,
            "allow-web",
            Ipv4Addr::new(192, 0, 2, 1),
            32,
            Action::Allow,
        )
        .dports(80, 443),
    );
    trie.insert(Rule::new(
        2,
        "default-deny-vip",
        Ipv4Addr::new(192, 0, 2, 1),
        32,
        Action::Deny,
    ));
    FirewallOp::new(trie, Action::Deny)
}

fn build_maglev() -> MaglevLb {
    let backends = (0..4).map(|i| Backend::new(format!("web-{i}"))).collect();
    let addrs = (0..4).map(|i| Ipv4Addr::new(10, 8, 0, i + 1)).collect();
    MaglevLb::new(backends, addrs, 65537).expect("valid backends")
}

fn main() {
    let backend = backend_from_args();
    println!("isolation backend: {backend}");

    // Synthetic traffic: heavy-tailed flow mix to the VIP (the DPDK
    // stand-in; see DESIGN.md substitution 1).
    let mut gen = PacketGen::new(TrafficConfig {
        flows: 10_000,
        distribution: FlowDistribution::Zipf(1.1),
        payload_len: 128,
        ..Default::default()
    });

    let mut pipeline = IsolatedPipeline::with_backend(backend);
    pipeline
        .add_stage("firewall", || Box::new(build_firewall()))
        .expect("no quota");
    pipeline
        .add_stage("ttl", || Box::new(TtlDecrement::new()))
        .expect("no quota");
    pipeline
        .add_stage("maglev", || Box::new(build_maglev()))
        .expect("no quota");

    println!("pipeline stages, each in its own protection domain:");
    for d in pipeline.domains() {
        println!("  {:?} {}", d.id(), d.name());
    }

    let mut delivered = 0usize;
    let mut sent = 0usize;
    for _ in 0..1_000 {
        let batch = gen.next_batch(32);
        sent += batch.len();
        match pipeline.run_batch_healing(batch) {
            Ok(out) => delivered += out.len(),
            Err(e) => println!("  batch lost to a stage fault: {e}"),
        }
    }
    println!("\nsent {sent} packets, delivered {delivered} to backends");
    let totals = pipeline.manager().backend_totals();
    if totals.crossings > 0 {
        println!(
            "backend {backend} charged {} crossings, {} boundary bytes, {} modeled cycles",
            totals.crossings, totals.bytes, totals.model_cycles
        );
    }

    for d in pipeline.domains() {
        println!(
            "  domain {:<10} invocations={:<6} faults={} recoveries={}",
            d.name(),
            d.stats().invocations(),
            d.stats().faults(),
            d.stats().recoveries(),
        );
    }

    // Inject a fault: replace the firewall stage with one that panics on
    // its first batch, then show recovery keeping the pipeline alive.
    // Silence the default hook — the panic is caught at the domain
    // boundary; the stack trace would just be noise.
    std::panic::set_hook(Box::new(|_| {}));
    println!("\ninjecting a fault into a fresh pipeline stage...");
    let mut flaky = IsolatedPipeline::with_backend(backend);
    let built = std::sync::atomic::AtomicUsize::new(0);
    flaky
        .add_stage("flaky-fw", move || {
            if built.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                Box::new(rust_beyond_safety::netfx::operators::PanicAfter::new(3))
            } else {
                Box::new(build_firewall())
            }
        })
        .expect("no quota");
    let mut ok = 0;
    let mut lost = 0;
    for _ in 0..10 {
        match flaky.run_batch_healing(gen.next_batch(8)) {
            Ok(_) => ok += 1,
            Err(_) => lost += 1,
        }
    }
    let d = &flaky.domains()[0];
    println!(
        "  10 batches: {ok} processed, {lost} lost to the fault; domain generation={} state={:?}",
        d.generation(),
        d.state()
    );

    tenant_runtime_demo(&mut gen, backend);
}

/// The port that makes [`PoisonPort`] panic.
const POISON_PORT: u16 = 0xDEAD;

/// A buggy operator: panics on a crafted input (a packet to
/// [`POISON_PORT`]), crashing whichever tenant its flow is steered to.
struct PoisonPort;

impl Operator for PoisonPort {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        for p in batch.iter() {
            if let Ok(t) = FiveTuple::of(p) {
                assert_ne!(t.dst_port, POISON_PORT, "crafted packet");
            }
        }
        batch
    }

    fn name(&self) -> &str {
        "poison-port"
    }
}

/// Part 2: the same NF pipeline as four tenants on two lanes, one of
/// which is crashed mid-run and healed without disturbing the others.
fn tenant_runtime_demo(gen: &mut PacketGen, backend: BackendKind) {
    const TENANTS: usize = 4;
    const WAVES: usize = 400;

    println!(
        "\n--- tenant engine: {TENANTS} tenants on 2 lanes, one full pipeline replica each ---"
    );
    let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec::new(format!("tenant-{i}")))
            .collect(),
        lanes: 2,
        backend,
        chain: Some(Arc::new(|_, _| {
            PipelineSpec::new()
                .stage(|| PoisonPort)
                .stage(build_firewall)
                .stage(TtlDecrement::new)
                .stage(build_maglev)
        })),
        ..TenantLaneConfig::default()
    })
    .expect("runtime construction");

    // The crafted crash packet; Maglev steering decides which tenant dies.
    let poison = Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(203, 0, 113, 9),
        Ipv4Addr::new(192, 0, 2, 1),
        31337,
        POISON_PORT,
        16,
    );
    let victim = rt.table().lookup(packet_flow_hash(&poison));
    println!("poison flow steers to tenant {victim}; offering {WAVES} waves...");
    let mut poison = Some(poison);

    for i in 0..WAVES {
        let mut wave = gen.next_batch(32);
        if i == WAVES / 2 {
            wave.push(poison.take().expect("offered once"));
        }
        rt.offer(wave);
        rt.step();
    }

    let totals = rt.backend_totals();
    if totals.crossings > 0 {
        println!(
            "backend {backend} charged {} crossings, {} boundary bytes, {} modeled cycles",
            totals.crossings, totals.bytes, totals.model_cycles
        );
    }
    let report = rt.finish();
    for (i, t) in report.tenants.iter().enumerate() {
        let role = if i == victim { "victim " } else { "tenant " };
        println!(
            "  {role}{i}: phase={} respawns={} batches={} lost={} processed={} \
             delivered={} faults={}",
            t.final_phase.label(),
            t.respawns,
            t.batches_executed,
            t.ledger.lost,
            t.ledger.processed,
            t.ledger.out,
            t.faults,
        );
    }
    let faults: u64 = report.tenants.iter().map(|t| t.faults).sum();
    let respawns: u64 = report.tenants.iter().map(|t| t.respawns).sum();
    let lost: u64 = report.tenants.iter().map(|t| t.ledger.lost).sum();
    println!(
        "total: {} packets offered, {} delivered, {lost} lost with the crash, \
         {faults} fault(s) contained, {respawns} respawn(s)",
        report.offered(),
        report.out(),
    );
    assert_eq!(faults, 1, "exactly the injected fault");
    assert_eq!(report.unaccounted_packets(), 0, "every packet accounted");
    let survivors_clean = (report.tenants.iter().enumerate())
        .filter(|(i, _)| *i != victim)
        .all(|(_, t)| t.faults == 0 && t.ledger.lost == 0);
    assert!(survivors_clean, "no other tenant was disturbed");
    println!("the other {} tenants were unaffected.", TENANTS - 1);
}
