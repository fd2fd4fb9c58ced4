//! Property test: work stealing conserves packets exactly, whatever the
//! interleaving of steals, faults, respawns, and lane deaths — on every
//! isolation backend.
//!
//! The invariant under test is the lane engine's per-origin ledger:
//! every packet a lane generates is credited to its origin by whoever
//! handles it, so for each origin lane
//!
//! ```text
//! offered == processed + lost + shed
//! ```
//!
//! with `processed` counting batches run *anywhere* (stolen batches are
//! the point), `lost` counting packets destroyed by a domain fault
//! mid-batch, and `shed` counting backlog drained unprocessed by a dead
//! lane. Proptest drives the knobs that change the interleaving: lane
//! count, steal batch (including stealing off), flow-mix skew, fault
//! rate, respawn budget, and the isolation backend.
//!
//! ```text
//! cargo test -p rbs-runtime --test steal_conservation
//! ```

use std::sync::Arc;

use proptest::prelude::*;
use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::operators::ChaosPoint;
use rbs_netfx::pktgen::{FlowDistribution, TrafficConfig};
use rbs_netfx::PipelineSpec;
use rbs_runtime::{BackendKind, LaneConfig, LaneRuntime};

/// A pipeline whose only stage is a chaos point: transparent until the
/// plan says otherwise.
fn chaos_spec() -> PipelineSpec {
    PipelineSpec::new().stage(|| ChaosPoint::new(0))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn stealing_conserves_packets_under_chaos(
        lanes in 2usize..=4,
        steal_batch in 0usize..=4,
        zipf in any::<bool>(),
        backend_idx in 0usize..3,
        fault_seed in any::<u64>(),
        rate_idx in 0usize..4,
    ) {
        // 0 = fault-free; the top rate kills lanes outright (respawn
        // budget 1), so shed accounting gets exercised too.
        let rate_ppm = [0u32, 30_000, 150_000, 500_000][rate_idx];
        let backend = [
            BackendKind::TypedSfi,
            BackendKind::MpkSim,
            BackendKind::CopyBoundary,
        ][backend_idx];
        let plan = FaultPlan::new(fault_seed).inject(
            FaultSite::Operator(0),
            FaultKind::Panic,
            rate_ppm,
        );
        let report = LaneRuntime::run(
            chaos_spec(),
            LaneConfig {
                lanes,
                traffic: TrafficConfig {
                    flows: 256,
                    distribution: if zipf {
                        FlowDistribution::Zipf(1.2)
                    } else {
                        FlowDistribution::Uniform
                    },
                    seed: 0x0005_7EA1 ^ fault_seed,
                    ..Default::default()
                },
                total_batches: 64,
                batch_size: 32,
                steal_batch,
                backend,
                max_respawns: 1,
                faults: Some(Arc::new(plan)),
                ..LaneConfig::default()
            },
        );

        // The one invariant that must survive any interleaving: per
        // origin and in aggregate, nothing vanishes, nothing doubles.
        for (origin, ledger) in report.ledgers.iter().enumerate() {
            prop_assert_eq!(
                ledger.unaccounted(),
                0,
                "origin lane {} leaked: {:?}",
                origin,
                ledger
            );
        }
        prop_assert_eq!(report.unaccounted_packets(), 0);

        // Stealing off means no batch may cross lanes.
        if steal_batch == 0 {
            prop_assert_eq!(report.stolen(), 0);
            for lane in &report.lanes {
                prop_assert_eq!(lane.stolen_in_batches, 0);
            }
        }

        // Executor and origin views must describe the same thefts.
        let stolen_exec: u64 = report.lanes.iter().map(|l| l.stolen_in_packets).sum();
        prop_assert_eq!(report.stolen(), stolen_exec);

        // Fault-free runs additionally return every buffer to a pool;
        // a faulted batch dies with its buffers (allocator-freed), so
        // the pool ledger only balances when nothing was lost or shed.
        if report.lost() == 0 && report.shed() == 0 {
            prop_assert_eq!(report.outstanding_buffers(), 0);
        }
    }
}
