//! Property test: threaded tenant lanes never invert priority and never
//! lose a packet, whatever the interleaving of steals, kills, and churn
//! — on every isolation backend.
//!
//! Two invariants under test, both promised by
//! [`rbs_runtime::TenantLaneRuntime`]:
//!
//! 1. **No priority inversion.** A work item is only ever stolen from a
//!    priority band when no higher band anywhere still holds queued
//!    work. The engine's band-major steal sweep makes this structural;
//!    every lane audits each theft and the report sums the violations —
//!    which must be zero across every random schedule.
//! 2. **Exact conservation.** Per tenant,
//!    `offered == processed + lost + shed_*` to the packet, with stolen
//!    batches credited to the *origin* tenant's ledger (`stolen` is a
//!    subset of `processed`, never additional packets).
//!
//! Proptest drives everything that changes the interleaving: tenant
//! count, lane count, the priority layout, stealing on/off, the fault
//! rate (kills → breaker opens → respawns), mid-run churn of a random
//! tenant, and the isolation backend.
//!
//! ```text
//! cargo test -p rbs-runtime --test tenant_lane_priority
//! ```

use std::sync::Arc;

use proptest::prelude::*;
use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{Packet, PacketBatch};
use rbs_runtime::{BackendKind, TenantLaneConfig, TenantLaneRuntime, TenantSpec};
use std::net::Ipv4Addr;

fn packet(n: u32) -> Packet {
    let mut p = Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
        Ipv4Addr::new(192, 0, 2, 1),
        (n % 52_000) as u16 + 1_024,
        80,
        16,
    );
    let hash = packet_flow_hash(&p);
    p.set_cached_flow_hash(hash);
    p
}

fn wave(round: u32, count: u32) -> PacketBatch {
    (0..count).map(|i| packet(round * count + i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn tenant_lanes_never_invert_priority_and_conserve(
        tenants in 3usize..=12,
        lanes in 1usize..=4,
        steal in any::<bool>(),
        backend_idx in 0usize..3,
        fault_seed in any::<u64>(),
        rate_idx in 0usize..3,
        churn in any::<bool>(),
        prio_seed in any::<u64>(),
    ) {
        let rate_ppm = [0u32, 20_000, 200_000][rate_idx];
        let backend = [
            BackendKind::TypedSfi,
            BackendKind::MpkSim,
            BackendKind::CopyBoundary,
        ][backend_idx];
        // A mixed priority layout derived from the seed: up to three
        // distinct bands, so banded stealing actually has bands.
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|i| {
                let prio = 1 + ((prio_seed >> (2 * (i % 16))) % 3) as u8;
                TenantSpec::new(format!("pt-{i}"))
                    .priority(prio)
                    .rate(400, 800)
            })
            .collect();
        let plan = FaultPlan::new(fault_seed).inject(
            FaultSite::Operator(0),
            FaultKind::Panic,
            rate_ppm,
        );
        let mut rt = TenantLaneRuntime::new(TenantLaneConfig {
            tenants: specs,
            lanes,
            steal,
            backend,
            snapshot_every_ticks: 4,
            faults: Some(Arc::new(plan)),
            ..TenantLaneConfig::default()
        })
        .expect("valid config");

        let victim = tenants - 1;
        for round in 0..16u32 {
            if churn && round == 5 {
                rt.remove_tenant(victim).expect("remove");
            }
            if churn && round == 11 {
                rt.add_tenant(victim).expect("add");
            }
            rt.offer(wave(round, 192));
            rt.step();
        }
        let report = rt.finish();

        // Invariant 1: no schedule may steal past a higher band.
        prop_assert_eq!(report.priority_inversions(), 0);

        // Invariant 2: every ledger balances to the packet, and steal
        // credits never exceed what was actually processed.
        for t in &report.tenants {
            prop_assert_eq!(t.ledger.unaccounted(), 0, "{} leaked: {:?}", t.name, t.ledger);
            prop_assert!(t.ledger.stolen <= t.ledger.processed);
        }
        prop_assert_eq!(report.unaccounted_packets(), 0);

        // Executor and origin views must describe the same thefts.
        let steals_in: u64 = report.occupancy.iter().map(|l| l.steals_in).sum();
        let by_origin: u64 = report
            .occupancy
            .iter()
            .flat_map(|l| l.stolen_from.iter().map(|&(_, n)| n))
            .sum();
        prop_assert_eq!(steals_in, by_origin);
        if !steal {
            prop_assert_eq!(steals_in, 0);
            let credited: u64 = report.tenants.iter().map(|t| t.ledger.stolen).sum();
            prop_assert_eq!(credited, 0);
        }
    }
}
