//! Runs one workload: the untraced pass (end-to-end metrics, the quiet
//! quartile of repeated windows) or the traced pass (per-layer metrics and the
//! tracing overhead), with every correctness gate applied before a
//! number is reported.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rbs_core::cycles::cycles_per_ns;
use rbs_netfx::pktgen::PacketGen;

use crate::engines::{self, tenant_spans, WindowResult};
use crate::host::{peak_rss_mib, pin_to_current_cpu, HostInfo};
use crate::json::Json;
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::reference::{self, spans};
use crate::stats::{ratio, Spread};
use crate::trace::Tracer;
use crate::workloads::{self, Chain, LanePlan, Sizing, TenantPlan, Workload, BATCH_SIZE};

/// Above this share of a lane's end-to-end cycles left unattributed by
/// the reference lane, the traced pass prints a warning.
pub const UNATTRIBUTED_WARN_PCT: f64 = 15.0;

/// Wall-clock time, in units of `--seconds`, after which a run opens no
/// further window: a bound on how long a run can take on a slow host.
const DEADLINE_BUDGETS: f64 = 1.75;

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input (traffic, fault plan).
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced pass.
    pub trace: bool,
    /// Self-test mode: tiny windows.
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Metric name (from the registry).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: for end-to-end metrics, the quiet quartile over windows
    /// (see [`Spread::quiet_quartile`]).
    pub value: f64,
    /// Median and quartiles over windows, where windows were repeated.
    pub spread: Option<Spread>,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The arguments it ran with.
    pub args: RunArgs,
    /// Lanes the workload actually used after clamping.
    pub lanes_used: usize,
    /// Free-form notes (clamps, degraded percentiles, warnings).
    pub notes: Vec<String>,
    /// Packets offered across all timed windows.
    pub attempted: u64,
    /// Every metric of the pass, in registry order.
    pub metrics: Vec<Reported>,
}

impl Outcome {
    /// The result object the benchmark contract asks for as the last
    /// line of standard output.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(i128::from(self.attempted))),
            // Packets no ledger accounts for. The gates hold this at 0: a
            // run that loses track of a packet exits without a result.
            ("failed", Json::Int(0)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The human-readable report: header, host record, notes, then one
    /// line per metric with its unit (and spread over windows).
    pub fn report(&self, host: &HostInfo) -> String {
        use std::fmt::Write as _;
        let a = &self.args;
        let mut out = format!(
            "dpbench workload={} seed={} seconds={} trace={} quick={}\nhost {}\n",
            a.workload.name(),
            a.seed,
            a.seconds,
            u8::from(a.trace),
            a.quick,
            host.to_json(self.lanes_used).render(),
        );
        for note in &self.notes {
            writeln!(out, "note: {note}").expect("write to string");
        }
        for m in &self.metrics {
            write!(out, "{:<56} {:>16.6} {}", m.name, m.value, m.unit).expect("write");
            if let Some(s) = m.spread {
                write!(
                    out,
                    "  (q1 {:.6}, median {:.6}, q3 {:.6}, n {})",
                    s.q1, s.median, s.q3, s.n
                )
                .expect("write");
            }
            out.push('\n');
        }
        out
    }
}

/// Runs the pass `args` selects on `host`.
pub fn run(args: RunArgs, host: &HostInfo) -> Result<Outcome, String> {
    let sizing = Sizing::new(args.seconds, args.quick)?;
    if args.trace {
        traced(args, host, &sizing)
    } else {
        untraced(args, host, &sizing)
    }
}

/// Builds a lane workload's plan, notes a clamp to the thread budget,
/// and — for the stateful chain — runs the untimed verification pass:
/// the chain with an in-chain egress auditor must not fault.
fn checked_lane_plan(
    args: RunArgs,
    host: &HostInfo,
    sizing: &Sizing,
    notes: &mut Vec<String>,
) -> Result<LanePlan, String> {
    let plan = workloads::lane_plan(args.workload, args.seed, host.nproc, sizing);
    if plan.config.lanes < plan.lanes_requested {
        notes.push(format!(
            "lane count clamped from {} to {}: the thread budget is nproc = {}",
            plan.lanes_requested, plan.config.lanes, host.nproc
        ));
    }
    if plan.chain == Chain::Stateful {
        let batches = if sizing.quick { 64 } else { 1_024 };
        engines::lane_verification_pass(&plan, workloads::audited_stateful_spec(), batches)?;
    }
    Ok(plan)
}

/// Builds a tenant workload's plan and, when the engine has a single
/// lane, pins the process to one CPU (see [`pin_to_current_cpu`]).
fn pinned_tenant_plan(
    args: RunArgs,
    host: &HostInfo,
    sizing: &Sizing,
    notes: &mut Vec<String>,
) -> TenantPlan {
    let plan = workloads::tenant_plan(args.workload, args.seed, host.nproc, sizing);
    if plan.lanes == 1 {
        notes.push(match pin_to_current_cpu() {
            Some(cpu) => format!(
                "pinned to CPU {cpu}: with one lane the control thread and the lane strictly alternate"
            ),
            None => "could not pin to one CPU: wake-up placement is left to the scheduler".into(),
        });
    }
    plan
}

fn untraced(args: RunArgs, host: &HostInfo, sizing: &Sizing) -> Result<Outcome, String> {
    let w = args.workload;
    let mut notes = Vec::new();
    let lanes_used;
    let mut window: Box<dyn FnMut() -> Result<WindowResult, String>> = if w.is_tenant() {
        let plan = pinned_tenant_plan(args, host, sizing, &mut notes);
        lanes_used = plan.lanes;
        Box::new(move || engines::tenant_lanes_window(&plan, &mut Tracer::new(false), false))
    } else {
        let plan = checked_lane_plan(args, host, sizing, &mut notes)?;
        lanes_used = plan.config.lanes;
        Box::new(move || engines::lane_window(&plan, plan.config.backend, false))
    };
    // A host slower than the reference loses windows, never window
    // length. The slowest workload on the reference host (`tenant_steady`,
    // whose untimed generation adds two thirds to its timed ticks) opens
    // its last window 1.6 budgets in.
    let deadline = Instant::now() + Duration::from_secs_f64(DEADLINE_BUDGETS * args.seconds);
    let mut windows: Vec<WindowResult> = Vec::with_capacity(sizing.windows);
    while windows.len() < sizing.windows && (windows.is_empty() || Instant::now() < deadline) {
        windows.push(window()?);
    }
    // Tenant windows replay the same plan on a fresh engine: ledgers,
    // breaker counts, rebuild records and journal must repeat byte for
    // byte. (Lane digests are empty: which lane ran a stolen batch is
    // scheduling.)
    if let Some(i) = windows.iter().position(|r| r.digest != windows[0].digest) {
        return Err(format!(
            "{}: window {i} produced a different ledger than window 0 from the same inputs",
            w.name()
        ));
    }
    if windows.len() < sizing.windows {
        notes.push(format!(
            "stopped after {} of {} windows: the host is slower than the reference the window sizes assume",
            windows.len(),
            sizing.windows
        ));
    }
    // The tail is reported, not gated: on a shared host it follows the
    // neighbours (README, *Run-to-run spread*).
    let tail = Spread::of(&windows.iter().map(|r| r.tail_us).collect::<Vec<f64>>());
    notes.push(format!(
        "service_latency_{} (not gated): q1 {:.3}, median {:.3}, q3 {:.3} us over the windows",
        tail_label(&windows[0]),
        tail.q1,
        tail.median,
        tail.q3
    ));
    notes.push(format!(
        "{} windows of {} packets, {} latency samples each",
        windows.len(),
        windows[0].packets,
        windows[0].latency_samples
    ));

    let rss = peak_rss_mib().ok_or("VmHWM is not readable from /proc/self/status")?;
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let spread = window_source(m.name).map(|source| {
                let samples: Vec<f64> = windows.iter().map(source).collect();
                // The raw windows, in the order they ran: a drifting host
                // shows here as a trend, a noisy one as scatter.
                let raw: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
                notes.push(format!("{} per window: {}", m.name, raw.join(" ")));
                Spread::of(&samples)
            });
            Reported {
                name: m.name,
                unit: m.unit,
                value: spread.map_or(rss, |s| s.quiet_quartile(m.better)),
                spread,
            }
        })
        .collect();

    Ok(Outcome {
        args,
        lanes_used,
        notes,
        attempted: windows.iter().map(|r| r.packets).sum(),
        metrics,
    })
}

/// `p99`, or the lower percentile a window with too few samples for ten
/// beyond p99 reports in its place (only `--quick` windows are that short).
fn tail_label(window: &WindowResult) -> String {
    format!("p{}", window.tail_percentile)
}

/// Where an end-to-end metric's per-window value comes from; `None` for
/// `peak_rss_mb`, which the process has one of.
fn window_source(metric: &str) -> Option<fn(&WindowResult) -> f64> {
    Some(match metric {
        "throughput_mpps" => WindowResult::throughput_mpps,
        "service_latency_p50_us" => |r| r.p50_us,
        "goodput_min_pct" => |r| r.goodput_min_pct,
        "setup_s" => |r| r.setup_s,
        "peak_rss_mb" => return None,
        other => unreachable!("end-to-end metric {other} has no source"),
    })
}

/// What a traced pass accumulates.
struct TracedPass {
    tracer: Tracer,
    /// Per-layer values by metric name; what the registry does not list
    /// is kept out of the output, what it lists and nothing set prints 0.
    layers: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl TracedPass {
    fn set(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    fn set_all<N: AsRef<str>>(&mut self, values: impl IntoIterator<Item = (N, f64)>) {
        for (name, value) in values {
            self.set(name.as_ref(), value);
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `chain`'s operators one by one over `gen`'s traffic, reports
    /// each under its metric, and reports what `run_batch` (measured at
    /// `run_batch_cpp` cycles per packet) adds on top of their sum.
    fn operators_breakdown(
        &mut self,
        chain: Chain,
        gen: PacketGen,
        batch_size: usize,
        warmup: u64,
        batches: u64,
        run_batch_cpp: f64,
    ) {
        let packets = reference::operators_alone(
            chain.operators(),
            gen,
            batch_size,
            warmup,
            batches,
            &mut self.tracer,
        );
        let mut operators = 0.0;
        for (name, _) in chain.operators() {
            let cpp = ratio(self.tracer.total(name), packets);
            operators += cpp;
            self.set(name, cpp);
        }
        self.set(
            "netfx.pipeline.dispatch_overhead_cycles_per_packet",
            run_batch_cpp - operators,
        );
    }
}

fn traced(args: RunArgs, host: &HostInfo, sizing: &Sizing) -> Result<Outcome, String> {
    let w = args.workload;
    let mut pass = TracedPass {
        tracer: Tracer::new(true),
        layers: BTreeMap::new(),
        notes: Vec::new(),
    };
    pass.set_all(layers::calibrations(sizing.quick));
    // The snapshot path matters to the storm; `tenant_steady` measures
    // its own (smaller) per-tenant state instead.
    let snapshot_plan = workloads::tenant_plan(
        if w == Workload::TenantSteady {
            w
        } else {
            Workload::TenantStorm
        },
        args.seed,
        host.nproc,
        sizing,
    );
    pass.set_all(layers::checkpoint_layers(&snapshot_plan, sizing.quick));

    let (lanes_used, window) = if w.is_tenant() {
        traced_tenant(args, host, sizing, &mut pass)?
    } else {
        traced_lane(args, host, sizing, &mut pass)?
    };
    pass.set(
        "dpbench.failed_ppm",
        ratio(window.victim_failed, window.victim_offered) * 1e6,
    );
    pass.set("dpbench.service_latency_p99_us", window.tail_us);
    if window.tail_percentile < 99.0 {
        pass.notes.push(format!(
            "dpbench.service_latency_p99_us is the {} latency: the window holds {} samples, too few for ten beyond p99",
            tail_label(&window),
            window.latency_samples
        ));
    }

    let path = trace_path(w);
    pass.tracer
        .write(&path, w.name(), host.tsc_hz)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    pass.notes.push(format!(
        "{} raw spans written to {}",
        pass.tracer.raw_spans().len(),
        path.display()
    ));

    let metrics = PER_LAYER
        .iter()
        .map(|m| Reported {
            name: m.name,
            unit: m.unit,
            value: pass.get(m.name),
            spread: None,
        })
        .collect();
    Ok(Outcome {
        args,
        lanes_used,
        notes: pass.notes,
        attempted: window.packets,
        metrics,
    })
}

/// `<target dir>/dpbench/trace-<workload>.json`, inside the checkout.
fn trace_path(w: Workload) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target
        .join("dpbench")
        .join(format!("trace-{}.json", w.name()))
}

/// Closes the reference lane's attribution against the engine: the
/// cycles per packet the engine spends beyond what the reference lane's
/// call spans explain, and that remainder as a percentage of end to end.
/// Negative when the reference loop is the slower of the two.
pub fn closure(e2e: f64, attributed: f64) -> (f64, f64) {
    let unattributed = e2e - attributed;
    (unattributed, unattributed / e2e * 100.0)
}

fn traced_lane(
    args: RunArgs,
    host: &HostInfo,
    sizing: &Sizing,
    pass: &mut TracedPass,
) -> Result<(usize, WindowResult), String> {
    let plan = checked_lane_plan(args, host, sizing, &mut pass.notes)?;

    // The engine, untraced, with the allocator counting over its window.
    let engine = engines::lane_window(&plan, plan.config.backend, true)?;
    pass.set_all(engine.layers.iter().map(|(n, v)| (n, *v)));
    let e2e = pass.get("runtime.lane.e2e_cycles_per_packet");

    // The same traffic and chain through the reference lane, traced and
    // then untraced: their difference is what tracing costs.
    let warmup = plan.config.warmup_batches.expect("lane plans warm up");
    let batches = plan.window_batches();
    let with_spans = reference::reference_lane(&plan, warmup, batches, &mut pass.tracer);
    let without = reference::reference_lane(&plan, warmup, batches, &mut Tracer::new(false));
    let packets = with_spans.packets;
    let per_packet = |pass: &TracedPass, span: &str| ratio(pass.tracer.total(span), packets);
    pass.set(
        "trace.overhead_pct",
        (1.0 - without.cycles as f64 / with_spans.cycles as f64) * 100.0,
    );
    pass.set(
        "netfx.pktgen.cycles_per_packet",
        per_packet(pass, spans::PKTGEN),
    );
    pass.set(
        "netfx.pool.recycle_cycles_per_packet",
        per_packet(pass, spans::RECYCLE),
    );
    let run_batch = per_packet(pass, spans::RUN_BATCH);
    pass.set(
        &format!(
            "netfx.pipeline.run_batch_cycles_per_packet.{}",
            plan.chain.label()
        ),
        run_batch,
    );
    let reference_cpp: f64 = spans::ATTRIBUTED.iter().map(|s| per_packet(pass, s)).sum();
    let (unattributed, unattributed_pct) = closure(e2e, reference_cpp);
    pass.set("runtime.lane.reference_cycles_per_packet", reference_cpp);
    pass.set("runtime.lane.unattributed_cycles_per_packet", unattributed);
    pass.set("runtime.lane.unattributed_pct", unattributed_pct);
    if unattributed_pct.abs() > UNATTRIBUTED_WARN_PCT {
        pass.notes.push(format!(
            "WARNING: {unattributed_pct:.1} % of the engine's {e2e:.1} cycles/packet is not attributed by the reference lane's {reference_cpp:.1} (limit {UNATTRIBUTED_WARN_PCT} %)"
        ));
    }

    let traffic = || PacketGen::new(plan.config.traffic.clone());
    pass.operators_breakdown(
        plan.chain,
        traffic(),
        BATCH_SIZE,
        warmup,
        (batches / 4).max(1),
        run_batch,
    );

    let unpooled_batches = if sizing.quick { 16 } else { 2_048 };
    reference::unpooled_generation(traffic(), BATCH_SIZE, unpooled_batches, &mut pass.tracer);
    pass.set(
        "netfx.pktgen.unpooled_cycles_per_packet",
        ratio(
            pass.tracer.total(reference::UNPOOLED_PKTGEN),
            unpooled_batches * BATCH_SIZE as u64,
        ),
    );

    if args.workload == Workload::LaneForward {
        // What an MPK-style gate would add to the smallest-packet path.
        let mpk = engines::lane_window(&plan, rbs_sfi::BackendKind::MpkSim, false)?;
        let mpk_layer = |name| mpk.layer(name).unwrap_or(0.0);
        pass.set(
            "sfi.backend.mpk_crossings_per_packet",
            mpk_layer("sfi.backend.crossings_per_packet"),
        );
        pass.set(
            "sfi.backend.mpk_tax_cycles_per_packet",
            mpk_layer("runtime.lane.e2e_cycles_per_packet") - e2e,
        );
    }
    Ok((plan.config.lanes, engine))
}

fn traced_tenant(
    args: RunArgs,
    host: &HostInfo,
    sizing: &Sizing,
    pass: &mut TracedPass,
) -> Result<(usize, WindowResult), String> {
    let plan = pinned_tenant_plan(args, host, sizing, &mut pass.notes);

    // The engine with spans around every call the client makes and the
    // allocator counting inside offer + step; then the same window bare.
    let with_spans = engines::tenant_lanes_window(&plan, &mut pass.tracer, true)?;
    let without = engines::tenant_lanes_window(&plan, &mut Tracer::new(false), false)?;
    // ... and replayed through the single-threaded engine: what is left
    // of `lanes − baseline` is the threading tax.
    let baseline = engines::tenant_reference_window(&plan)?;
    if with_spans.digest != without.digest {
        return Err(format!(
            "{}: two windows of the same inputs produced different ledgers",
            args.workload.name()
        ));
    }
    pass.set_all(
        baseline
            .layers
            .iter()
            .chain(&without.layers)
            .map(|(n, v)| (n, *v)),
    );
    pass.set(
        "netfx.pool.allocs_per_packet",
        with_spans
            .layer("netfx.pool.allocs_per_packet")
            .unwrap_or(0.0),
    );
    pass.set(
        "trace.overhead_pct",
        (1.0 - with_spans.throughput_mpps() / without.throughput_mpps()) * 100.0,
    );
    pass.set(
        "netfx.pktgen.unpooled_cycles_per_packet",
        ratio(pass.tracer.total(tenant_spans::PKTGEN), with_spans.packets),
    );
    pass.set(
        "runtime.tenant_lanes.step_empty_us",
        engines::tenant_lanes_empty_step_us(&plan)?,
    );

    // The tenant chain alone, on what the average tenant sees: its share
    // of the flows (so its NAT and flow tables are tenant-sized) in the
    // batches one half-wave hands it.
    let tenant_batch = (plan.wave / 2 / plan.tenants.len()).max(1);
    let alone_batches = if sizing.quick { 64 } else { 40_000 };
    let warmup = alone_batches / 4;
    let traffic = || PacketGen::new(layers::average_tenant_traffic(&plan));
    let packets = reference::pipeline_alone(
        Chain::Tenant,
        traffic(),
        tenant_batch,
        warmup,
        alone_batches,
        &mut pass.tracer,
    );
    let chain = ratio(pass.tracer.total(spans::RUN_BATCH), packets);
    pass.set("netfx.pipeline.run_batch_cycles_per_packet.tenant", chain);
    pass.operators_breakdown(
        Chain::Tenant,
        traffic(),
        tenant_batch,
        warmup,
        alone_batches,
        chain,
    );

    // step = chain + domain crossings + amortised snapshots + the rest
    // (barrier, claim tokens, slot locks, supervision): the rest is what
    // the client cannot see from outside.
    let window_packets = without.packets as f64;
    let execute = pass.get("sfi.domain.execute_cycles_per_call.typed")
        * pass.get("runtime.tenant_lanes.batches_executed")
        / window_packets;
    let cycles_per_us = cycles_per_ns() * 1e3;
    let snapshots = (pass.get("netfx.pipeline.export_state_us")
        + pass.get("checkpoint.store.record_us"))
        * cycles_per_us
        * pass.get("runtime.tenant_lanes.snapshots_taken")
        / window_packets;
    let step = pass.get("runtime.tenant_lanes.step_cycles_per_packet");
    pass.set(
        "runtime.tenant_lanes.unattributed_cycles_per_packet",
        step - chain - execute - snapshots,
    );
    Ok((plan.lanes, without))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_the_remainder_and_its_share_of_end_to_end() {
        assert_eq!(closure(150.0, 120.0), (30.0, 20.0));
        assert_eq!(closure(100.0, 110.0), (-10.0, -10.0));
        let (cycles, pct) = closure(446.6, 222.4);
        assert!((cycles - 224.2).abs() < 1e-9 && pct > UNATTRIBUTED_WARN_PCT);
    }
}
