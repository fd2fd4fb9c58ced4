//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a self-test
//! compares the two), so a metric cannot be printed without being
//! declared or declared without being printed.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the dataplane would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_mpps",
        unit: "Mpps",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "service_latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_min_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: one module's cost or count, from the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; its prefix is the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics. A traced run prints every one; a metric that
/// does not apply to the workload (see the README's map) prints 0.
pub const PER_LAYER: [PerLayer; 67] = [
    lower("netfx.pktgen.cycles_per_packet", "cycles"),
    lower("netfx.pktgen.unpooled_cycles_per_packet", "cycles"),
    lower("netfx.pool.recycle_cycles_per_packet", "cycles"),
    lower("netfx.pool.take_put_cycles_per_buffer", "cycles"),
    lower("netfx.pool.misses_per_mpkt", "count"),
    lower("netfx.pool.allocs_per_packet", "count"),
    lower("runtime.deque.push_pop_cycles_per_item", "cycles"),
    lower("runtime.deque.steal_cycles_per_item", "cycles"),
    lower("sfi.domain.execute_cycles_per_call.typed", "cycles"),
    lower("sfi.domain.execute_cycles_per_call.mpk", "cycles"),
    lower("sfi.domain.execute_cycles_per_call.copy", "cycles"),
    lower("sfi.backend.mpk_crossings_per_packet", "count"),
    lower("sfi.backend.mpk_tax_cycles_per_packet", "cycles"),
    lower("sfi.domain.create_destroy_us", "us"),
    lower("sfi.domain.fault_recover_us", "us"),
    lower(
        "netfx.pipeline.run_batch_cycles_per_packet.forward",
        "cycles",
    ),
    lower(
        "netfx.pipeline.run_batch_cycles_per_packet.stateful",
        "cycles",
    ),
    lower(
        "netfx.pipeline.run_batch_cycles_per_packet.tenant",
        "cycles",
    ),
    lower(
        "netfx.pipeline.dispatch_overhead_cycles_per_packet",
        "cycles",
    ),
    lower("netfx.operators.null_filter.cycles_per_packet", "cycles"),
    lower("netfx.operators.ttl_decrement.cycles_per_packet", "cycles"),
    lower("netfx.operators.mac_swap.cycles_per_packet", "cycles"),
    lower(
        "netfx.operators.dst_port_filter.cycles_per_packet",
        "cycles",
    ),
    lower("fwtrie.operator.cycles_per_packet", "cycles"),
    lower("netfx.nat.cycles_per_packet", "cycles"),
    lower("netfx.flowtrack.cycles_per_packet", "cycles"),
    lower("maglev.lb.cycles_per_packet", "cycles"),
    lower("maglev.table.lookup_cycles", "cycles"),
    lower("netfx.flow.hash_cycles_per_packet", "cycles"),
    lower("netfx.ratelimit.tickbucket_take_cycles", "cycles"),
    lower("runtime.tenant_lanes.steering_lookups_per_packet", "count"),
    lower("maglev.table.build_us.t251", "us"),
    lower("maglev.table.build_us.t65537", "us"),
    lower("checkpoint.store.record_us", "us"),
    lower("checkpoint.store.open_us", "us"),
    lower("checkpoint.store.sealed_bytes", "bytes"),
    lower("netfx.pipeline.export_state_us", "us"),
    lower("netfx.pipeline.import_state_us", "us"),
    lower("runtime.lane.e2e_cycles_per_packet", "cycles"),
    lower("runtime.lane.pipeline_cycles_per_packet", "cycles"),
    lower("runtime.lane.overhead_cycles_per_packet", "cycles"),
    lower("runtime.lane.reference_cycles_per_packet", "cycles"),
    lower("runtime.lane.unattributed_cycles_per_packet", "cycles"),
    lower("runtime.lane.unattributed_pct", "%"),
    lower("runtime.lane.stolen_batch_share", "ratio"),
    lower("runtime.lane.steal_bytes_per_packet", "bytes"),
    lower("runtime.lane.deque_hwm", "count"),
    lower("runtime.lane.imbalance", "ratio"),
    lower("runtime.tenant_lanes.offer_cycles_per_packet", "cycles"),
    lower("runtime.tenant_lanes.step_cycles_per_packet", "cycles"),
    lower("runtime.tenant_lanes.step_empty_us", "us"),
    lower(
        "runtime.tenant_lanes.unattributed_cycles_per_packet",
        "cycles",
    ),
    lower("runtime.tenant.offer_cycles_per_packet", "cycles"),
    lower("runtime.tenant.step_cycles_per_packet", "cycles"),
    lower("runtime.tenant_lanes.stolen_batch_share", "ratio"),
    lower("runtime.tenant_lanes.shed_admission_ppm", "ppm"),
    lower("runtime.tenant_lanes.shed_open_ppm", "ppm"),
    lower("runtime.tenant_lanes.lost_ppm", "ppm"),
    lower("runtime.tenant_lanes.breaker_opens", "count"),
    higher("runtime.tenant_lanes.warm_restores", "count"),
    higher("runtime.tenant_lanes.snapshots_taken", "count"),
    lower("runtime.tenant_lanes.rebuild_remap_entries", "count"),
    lower("runtime.tenant_lanes.churn_us", "us"),
    lower("runtime.tenant_lanes.finish_ms", "ms"),
    lower("dpbench.failed_ppm", "ppm"),
    lower("dpbench.service_latency_p99_us", "us"),
    lower("trace.overhead_pct", "%"),
];

/// True when `name` is made only of the characters the benchmark
/// contract allows in a metric name, and is short enough.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let unique: BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        assert!(valid_name("runtime.lane.e2e_cycles_per_packet"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/es"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
