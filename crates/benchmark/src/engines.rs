//! The engine adapter: every call into `LaneRuntime`,
//! `TenantLaneRuntime` and `TenantRuntime` lives in this file.
//!
//! Each engine has one `*_window` function that sets the engine up,
//! runs one timed window of a plan, checks the window's correctness
//! gates, and reduces the engine's report to the common
//! [`WindowResult`]. Workload and metric names never mention an engine
//! type, so when the engines collapse into one (ROADMAP item 2) the
//! benchmark follow-up is confined to this file.

use std::time::Instant;

use rbs_core::cycles::{cycles_per_ns, rdtsc};
use rbs_core::histogram::LogHistogram;
use rbs_maglev::MaglevTable;
use rbs_netfx::pktgen::PacketGen;
use rbs_netfx::{FiveTuple, PacketBatch, PipelineSpec};
use rbs_runtime::{
    LaneConfig, LaneReport, LaneRuntime, TenantConfig, TenantError, TenantLaneConfig,
    TenantLaneRuntime, TenantReport, TenantRuntime,
};
use rbs_sfi::BackendKind;

use crate::alloc;
use crate::stats::{hist_percentile, percentile, ratio, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{LanePlan, TenantPlan};

/// What one timed window of any engine reduces to.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Engine construction → warm, seconds.
    pub setup_s: f64,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Packets offered inside the window, every one ledger-accounted.
    pub packets: u64,
    /// Median service latency (one batch / one tick), µs.
    pub p50_us: f64,
    /// Tail service latency at `tail_percentile`, µs.
    pub tail_us: f64,
    /// The percentile `tail_us` is: 99 when the sample supports it.
    pub tail_percentile: f64,
    /// Latency samples behind the two numbers above.
    pub latency_samples: u64,
    /// Lowest `out ÷ offered` among victims (tenants) or lanes, percent.
    pub goodput_min_pct: f64,
    /// Packets offered to victims / lanes.
    pub victim_offered: u64,
    /// Of those, packets that did not come out.
    pub victim_failed: u64,
    /// Canonical text of everything about the window that must repeat
    /// exactly for the same plan (ledgers, breaker counts, rebuilds).
    pub digest: String,
    /// Per-layer values read off the engine's report, by metric name.
    pub layers: Vec<(String, f64)>,
}

impl WindowResult {
    /// Window throughput in Mpps.
    pub fn throughput_mpps(&self) -> f64 {
        self.packets as f64 / self.window_s / 1e6
    }

    /// The per-layer value reported under `name`, if this window has it.
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

fn cycles_to_us(cycles: f64) -> f64 {
    cycles / cycles_per_ns() / 1e3
}

fn ppm(num: u64, den: u64) -> f64 {
    ratio(num, den) * 1e6
}

/// One window of the lane engine: `plan.fleets_per_window` fresh fleets
/// run back to back and pooled (packets and window time add up, batch
/// histograms merge). `backend` overrides the plan's isolation backend
/// (the traced pass re-runs `lane_forward` under `MpkSim`);
/// `count_allocs` counts allocator events over the timed spans.
pub fn lane_window(
    plan: &LanePlan,
    backend: BackendKind,
    count_allocs: bool,
) -> Result<WindowResult, String> {
    let config = LaneConfig {
        backend,
        ..plan.config.clone()
    };
    let batch = config.batch_size as u64;
    let fleet_packets = config.total_batches * batch;
    let warmup_packets = config.warmup_batches.expect("lane plans warm up") * batch;

    let (mut setup_s, mut window_s, mut window_cycles, mut allocs) = (0.0, 0.0, 0, 0);
    let mut reports = Vec::with_capacity(plan.fleets_per_window);
    for _ in 0..plan.fleets_per_window {
        let setup_start = Instant::now();
        let rt = LaneRuntime::start(plan.chain.spec(), config.clone());
        // Spins, but only while the lanes warm up: that is set-up time.
        rt.wait_warmed();
        setup_s += setup_start.elapsed().as_secs_f64();
        let a0 = alloc::allocations();
        alloc::set_counting(count_allocs);
        let (t0, c0) = (Instant::now(), rdtsc());
        rt.release_warm();
        // Open the exit gate at once and sleep in `join` instead of
        // spinning in `wait_done`: during the window every busy thread
        // is a lane, and on a host with a spare CPU background work
        // lands there, not on a lane. The span ends when the last lane
        // thread has exited.
        rt.release_exit();
        let report = rt.join();
        window_cycles += rdtsc() - c0;
        window_s += t0.elapsed().as_secs_f64();
        alloc::set_counting(false);
        allocs += alloc::allocations() - a0;
        lane_gates(&report, fleet_packets + warmup_packets)?;
        reports.push(report);
    }

    let outcomes = || reports.iter().flat_map(|r| &r.lanes);
    let mut hist = LogHistogram::new(32);
    for lane in outcomes() {
        hist.merge(&lane.cycle_hist);
    }
    let samples = hist.count();
    let tail = tail_percentile(samples);
    let p50 = hist_percentile(&hist, 50.0).ok_or("no batch was executed")?;
    let tail_cycles = hist_percentile(&hist, tail).ok_or("no batch was executed")?;

    let goodput_min_pct = reports
        .iter()
        .flat_map(|r| &r.ledgers)
        .filter(|l| l.offered > 0)
        .map(|l| ratio(l.out, l.offered) * 100.0)
        .fold(100.0, f64::min);
    let packets = fleet_packets * plan.fleets_per_window as u64;
    let offered: u64 = reports.iter().map(LaneReport::offered).sum();
    let out: u64 = reports.iter().map(LaneReport::packets_out).sum();
    let sum = |f: fn(&rbs_runtime::LaneOutcome) -> u64| outcomes().map(f).sum::<u64>();
    let executed_packets = sum(|l| l.executed_packets);
    let lanes = config.lanes;
    // CPU cycles the fleet spent per packet of the window: wall cycles
    // times lanes, so a lane that idles or waits on a steal shows up.
    let e2e = window_cycles as f64 * lanes as f64 / packets as f64;
    let pipeline = ratio(sum(|l| l.executed_cycles), executed_packets);
    let busiest_lane = (0..lanes)
        .map(|i| {
            outcomes()
                .filter(|l| l.lane == i)
                .map(|l| l.executed_packets)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let mut layers = vec![
        ("runtime.lane.e2e_cycles_per_packet", e2e),
        ("runtime.lane.pipeline_cycles_per_packet", pipeline),
        ("runtime.lane.overhead_cycles_per_packet", e2e - pipeline),
        (
            "netfx.pool.misses_per_mpkt",
            ppm(sum(|l| l.pool.misses), offered),
        ),
        (
            "runtime.lane.stolen_batch_share",
            ratio(sum(|l| l.stolen_in_batches), sum(|l| l.executed_batches)),
        ),
        (
            "runtime.lane.steal_bytes_per_packet",
            ratio(sum(|l| l.steal_bytes), offered),
        ),
        (
            "runtime.lane.deque_hwm",
            outcomes().map(|l| l.deque_hwm).max().unwrap_or(0) as f64,
        ),
        (
            "runtime.lane.imbalance",
            busiest_lane as f64 * lanes as f64 / executed_packets.max(1) as f64,
        ),
        (
            "sfi.backend.crossings_per_packet",
            ratio(
                reports.iter().map(|r| r.backend_totals.crossings).sum(),
                offered,
            ),
        ),
    ];
    if count_allocs {
        layers.push(("netfx.pool.allocs_per_packet", ratio(allocs, packets)));
    }
    let layers = layers
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();

    Ok(WindowResult {
        setup_s,
        window_s,
        packets,
        p50_us: cycles_to_us(p50),
        tail_us: cycles_to_us(tail_cycles),
        tail_percentile: tail,
        latency_samples: samples,
        goodput_min_pct,
        victim_offered: offered,
        victim_failed: offered - out,
        // Which lane ran a stolen batch is scheduling: lane ledgers are
        // gated, not compared.
        digest: String::new(),
        layers,
    })
}

/// The lane engine's correctness gates: exact conservation, every pooled
/// buffer home, no lane dead, nothing lost or shed, the full quota
/// offered, and (these workloads drop nothing) every packet out.
fn lane_gates(report: &LaneReport, expected_offered: u64) -> Result<(), String> {
    let fail = |what: String| Err(format!("lane gate: {what}"));
    if report.unaccounted_packets() != 0 {
        return fail(format!(
            "{} packets unaccounted",
            report.unaccounted_packets()
        ));
    }
    if report.outstanding_buffers() != 0 {
        return fail(format!(
            "{} pooled buffers never came home",
            report.outstanding_buffers()
        ));
    }
    if let Some(lane) = report.lanes.iter().find(|l| l.dead || l.faults > 0) {
        return fail(format!(
            "lane {} faulted {} times (dead: {})",
            lane.lane, lane.faults, lane.dead
        ));
    }
    if report.lost() != 0 || report.shed() != 0 {
        return fail(format!("{} lost, {} shed", report.lost(), report.shed()));
    }
    if report.offered() != expected_offered {
        return fail(format!(
            "offered {} of a quota of {expected_offered}",
            report.offered()
        ));
    }
    if report.packets_out() != report.offered() {
        return fail(format!(
            "{} of {} packets came out",
            report.packets_out(),
            report.offered()
        ));
    }
    Ok(())
}

/// Runs `spec` (a chain ending in an in-chain auditor that panics on a
/// wrong packet) over `plan`'s traffic for `batches` batches, untimed,
/// and requires that no domain fault fired.
pub fn lane_verification_pass(
    plan: &LanePlan,
    spec: PipelineSpec,
    batches: u64,
) -> Result<(), String> {
    let report = LaneRuntime::run(
        spec,
        LaneConfig {
            total_batches: batches,
            warmup_batches: None,
            ..plan.config.clone()
        },
    );
    lane_gates(&report, batches * plan.config.batch_size as u64)
        .map_err(|e| format!("verification pass: {e}"))
}

/// The call shape both tenant engines share.
trait TenantEngine: Sized {
    /// Metric prefix of the engine's module.
    const LAYER: &'static str;
    fn offer(&mut self, batch: PacketBatch);
    fn step(&mut self);
    fn remove_tenant(&mut self, idx: usize) -> Result<usize, TenantError>;
    fn add_tenant(&mut self, idx: usize) -> Result<usize, TenantError>;
    fn table(&self) -> &MaglevTable;
    fn steering_lookups(&self) -> u64;
    fn finish(self) -> TenantReport;
}

macro_rules! impl_tenant_engine {
    ($engine:ty, $layer:literal) => {
        impl TenantEngine for $engine {
            const LAYER: &'static str = $layer;
            fn offer(&mut self, batch: PacketBatch) {
                <$engine>::offer(self, batch)
            }
            fn step(&mut self) {
                <$engine>::step(self)
            }
            fn remove_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
                <$engine>::remove_tenant(self, idx)
            }
            fn add_tenant(&mut self, idx: usize) -> Result<usize, TenantError> {
                <$engine>::add_tenant(self, idx)
            }
            fn table(&self) -> &MaglevTable {
                <$engine>::table(self)
            }
            fn steering_lookups(&self) -> u64 {
                <$engine>::steering_lookups(self)
            }
            fn finish(self) -> TenantReport {
                <$engine>::finish(self)
            }
        }
    };
}

impl_tenant_engine!(TenantLaneRuntime, "tenant_lanes");
impl_tenant_engine!(TenantRuntime, "tenant");

fn tenant_lane_config(plan: &TenantPlan) -> TenantLaneConfig {
    TenantLaneConfig {
        tenants: plan.tenants.clone(),
        lanes: plan.lanes,
        queue_hwm: 4 * plan.tenants.len(),
        snapshot_every_ticks: plan.snapshot_every,
        faults: plan.faults.clone(),
        ..TenantLaneConfig::default()
    }
}

/// One window of the threaded tenant engine, driven as one closed-loop
/// client. Only the `offer` + `step` spans of each tick are timed;
/// traffic generation is outside the window and (when `tracer` records)
/// reported as its own span.
pub fn tenant_lanes_window(
    plan: &TenantPlan,
    tracer: &mut Tracer,
    count_allocs: bool,
) -> Result<WindowResult, String> {
    let config = tenant_lane_config(plan);
    drive_tenants(
        || TenantLaneRuntime::new(config),
        plan,
        tracer,
        count_allocs,
    )
}

/// The same window replayed through the single-threaded `TenantRuntime`:
/// the no-threads baseline the threaded engine's tax is read against.
pub fn tenant_reference_window(plan: &TenantPlan) -> Result<WindowResult, String> {
    let lane = tenant_lane_config(plan);
    let config = TenantConfig {
        tenants: lane.tenants,
        lanes: lane.lanes,
        table_size: lane.table_size,
        // The logical clock executes a whole tick's work set, like the
        // threaded engine does: capacity is never the limit.
        lane_capacity: u64::MAX / 2,
        queue_hwm: lane.queue_hwm,
        snapshot_every_ticks: lane.snapshot_every_ticks,
        faults: lane.faults,
        ..TenantConfig::default()
    };
    drive_tenants(
        || TenantRuntime::new(config),
        plan,
        &mut Tracer::new(false),
        false,
    )
}

/// Wall time of one tick with nothing offered on the threaded tenant
/// engine — the bare barrier round trip — in µs.
pub fn tenant_lanes_empty_step_us(plan: &TenantPlan) -> Result<f64, String> {
    const TICKS: u64 = 400;
    let mut rt = TenantLaneRuntime::new(tenant_lane_config(plan)).map_err(|e| e.to_string())?;
    for _ in 0..32 {
        rt.step();
    }
    let c0 = rdtsc();
    for _ in 0..TICKS {
        rt.step();
    }
    let cycles = rdtsc() - c0;
    rt.finish();
    Ok(cycles_to_us(cycles as f64 / TICKS as f64))
}

/// Span names of the tenant drive loop (the traced pass's tick tree).
pub mod tenant_spans {
    /// One tick: the parent of everything below.
    pub const TICK: &str = "runtime.tenant_lanes.tick";
    /// Unpooled generation of the tick's waves (outside the timed window).
    pub const PKTGEN: &str = "netfx.pktgen.next_batch";
    /// `offer` of every wave of the tick.
    pub const OFFER: &str = "runtime.tenant_lanes.offer";
    /// `step`.
    pub const STEP: &str = "runtime.tenant_lanes.step";
    /// `remove_tenant` / `add_tenant`.
    pub const CHURN: &str = "runtime.tenant_lanes.churn";
    /// `finish`.
    pub const FINISH: &str = "runtime.tenant_lanes.finish";
}

fn drive_tenants<E: TenantEngine>(
    build: impl FnOnce() -> Result<E, TenantError>,
    plan: &TenantPlan,
    tracer: &mut Tracer,
    count_allocs: bool,
) -> Result<WindowResult, String> {
    use tenant_spans::*;

    let setup_start = Instant::now();
    let mut rt = build().map_err(|e| e.to_string())?;
    let mut gen = PacketGen::new(plan.traffic.clone());
    // The flood draws only from flows that steer to its target, so the
    // extra load lands squarely on that tenant's admission contract.
    let mut flood = (plan.flood_extra > 0).then(|| {
        let table = rt.table();
        PacketGen::subset(plan.traffic.clone(), 0x0F_100D, |t: &FiveTuple| {
            table.lookup(t.stable_hash()) == plan.flood_target
        })
    });
    let churn_tenant = plan.tenants.len() - 1;
    let leave_at = plan.warmup_ticks + plan.ticks / 3;
    let return_at = plan.warmup_ticks + 2 * plan.ticks / 3;

    let mut setup_s = 0.0;
    let mut tick_cycles: Vec<f64> = Vec::with_capacity(plan.ticks as usize);
    let (mut offer_cycles, mut step_cycles, mut churn_cycles) = (0u64, 0u64, 0u64);
    let (mut packets, mut offered_total, mut allocs) = (0u64, 0u64, 0u64);

    let mut untraced = Tracer::new(false);
    for tick in 0..plan.warmup_ticks + plan.ticks {
        let timed = tick >= plan.warmup_ticks;
        if tick == plan.warmup_ticks {
            setup_s = setup_start.elapsed().as_secs_f64();
        }
        // Spans, like the window, cover the timed ticks only.
        let tracer = if timed { &mut *tracer } else { &mut untraced };
        let unit = tick.saturating_sub(plan.warmup_ticks);
        if plan.churn && (tick == leave_at || tick == return_at) {
            tracer.enter(CHURN, unit);
            let c0 = rdtsc();
            let outcome = if tick == leave_at {
                rt.remove_tenant(churn_tenant)
            } else {
                rt.add_tenant(churn_tenant)
            };
            churn_cycles += rdtsc() - c0;
            tracer.exit();
            outcome.map_err(|e| format!("churn at tick {tick}: {e}"))?;
        }

        tracer.enter(TICK, unit);
        tracer.enter(PKTGEN, unit);
        let first = gen.next_batch(plan.wave / 2);
        let second = gen.next_batch(plan.wave - plan.wave / 2);
        let extra = flood.as_mut().map(|f| f.next_batch(plan.flood_extra));
        tracer.exit();
        let n = (plan.wave + extra.as_ref().map_or(0, PacketBatch::len)) as u64;

        let a0 = alloc::allocations();
        alloc::set_counting(count_allocs && timed);
        tracer.enter(OFFER, unit);
        let c0 = rdtsc();
        // Two half-waves: a chaos panic costs its tenant half a tick's
        // traffic, not all of it.
        rt.offer(first);
        rt.offer(second);
        if let Some(extra) = extra {
            rt.offer(extra);
        }
        let c1 = rdtsc();
        tracer.exit();
        tracer.enter(STEP, unit);
        rt.step();
        let c2 = rdtsc();
        tracer.exit();
        alloc::set_counting(false);
        tracer.exit();

        offered_total += n;
        if timed {
            allocs += alloc::allocations() - a0;
            packets += n;
            offer_cycles += c1 - c0;
            step_cycles += c2 - c1;
            tick_cycles.push((c2 - c0) as f64);
        }
    }

    let steering_lookups = rt.steering_lookups();
    tracer.enter(FINISH, plan.ticks);
    let c0 = rdtsc();
    let report = rt.finish();
    let finish_cycles = rdtsc() - c0;
    tracer.exit();

    tenant_gates(&report, plan, offered_total)?;

    let victims = || {
        report
            .tenants
            .iter()
            .enumerate()
            .filter(|(i, _)| !plan.aggressors.contains(i))
            .map(|(_, t)| &t.ledger)
    };
    let goodput_min_pct = victims()
        .filter(|l| l.offered > 0)
        .map(|l| ratio(l.out, l.offered) * 100.0)
        .fold(100.0, f64::min);
    let victim_offered: u64 = victims().map(|l| l.offered).sum();
    let victim_out: u64 = victims().map(|l| l.out).sum();

    let samples = tick_cycles.len() as u64;
    let tail = tail_percentile(samples);
    let window_cycles = offer_cycles + step_cycles;
    let sum = |f: fn(&rbs_runtime::TenantOutcome) -> u64| report.tenants.iter().map(f).sum::<u64>();
    let offered = report.offered();
    let name = |suffix: &str| format!("runtime.{}.{suffix}", E::LAYER);
    let mut layers = vec![
        (
            name("offer_cycles_per_packet"),
            ratio(offer_cycles, packets),
        ),
        (name("step_cycles_per_packet"), ratio(step_cycles, packets)),
        (
            name("steering_lookups_per_packet"),
            ratio(steering_lookups, offered),
        ),
        (
            name("stolen_batch_share"),
            ratio(report.steals(), sum(|t| t.batches_executed)),
        ),
        (
            name("shed_admission_ppm"),
            ppm(sum(|t| t.ledger.shed_admission), offered),
        ),
        (
            name("shed_open_ppm"),
            ppm(sum(|t| t.ledger.shed_open), offered),
        ),
        (name("lost_ppm"), ppm(sum(|t| t.ledger.lost), offered)),
        (name("breaker_opens"), sum(|t| t.opens) as f64),
        (name("warm_restores"), sum(|t| t.warm_restores) as f64),
        (name("snapshots_taken"), sum(|t| t.snapshots_taken) as f64),
        (name("batches_executed"), sum(|t| t.batches_executed) as f64),
        (
            name("rebuild_remap_entries"),
            report
                .rebuilds
                .iter()
                .map(|r| r.remapped_entries)
                .sum::<usize>() as f64,
        ),
        (
            name("churn_us"),
            cycles_to_us(ratio(churn_cycles, report.rebuilds.len() as u64)),
        ),
        (name("finish_ms"), cycles_to_us(finish_cycles as f64) / 1e3),
    ];
    if count_allocs {
        layers.push((
            "netfx.pool.allocs_per_packet".to_string(),
            ratio(allocs, packets),
        ));
    }

    Ok(WindowResult {
        setup_s,
        window_s: window_cycles as f64 / cycles_per_ns() / 1e9,
        packets,
        p50_us: cycles_to_us(percentile(&tick_cycles, 50.0)),
        tail_us: cycles_to_us(percentile(&tick_cycles, tail)),
        tail_percentile: tail,
        latency_samples: samples,
        goodput_min_pct,
        victim_offered,
        victim_failed: victim_offered - victim_out,
        digest: tenant_digest(&report),
        layers,
    })
}

/// The tenant engines' correctness gates: per-tenant conservation,
/// every driver-offered packet attributed, zero priority inversions,
/// and — when the plan has no aggressor, fault or churn — nothing shed,
/// lost or tripped at all.
fn tenant_gates(report: &TenantReport, plan: &TenantPlan, offered: u64) -> Result<(), String> {
    let fail = |what: String| Err(format!("tenant gate: {what}"));
    if let Some((i, t)) = report
        .tenants
        .iter()
        .enumerate()
        .find(|(_, t)| t.ledger.unaccounted() != 0)
    {
        return fail(format!(
            "tenant {i} has {} packets unaccounted",
            t.ledger.unaccounted()
        ));
    }
    if report.offered() != offered {
        return fail(format!(
            "ledgers attribute {} of {offered} offered packets",
            report.offered()
        ));
    }
    if report.priority_inversions() != 0 {
        return fail(format!(
            "{} priority inversions",
            report.priority_inversions()
        ));
    }
    let calm = plan.aggressors.is_empty() && plan.faults.is_none() && !plan.churn;
    if calm {
        if report.out() != offered {
            return fail(format!(
                "{} of {offered} packets came out of a fault-free run",
                report.out()
            ));
        }
        if report.tenants.iter().any(|t| t.opens + t.faults > 0) {
            return fail("a breaker opened or a chain faulted in a fault-free run".into());
        }
    }
    Ok(())
}

/// Everything about a tenant run that the same plan must reproduce
/// byte for byte: ledgers (minus `stolen`, which records which CPU ran
/// a batch), breaker and recovery counts, rebuild records, the journal.
fn tenant_digest(report: &TenantReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in &report.tenants {
        let ledger = rbs_runtime::TenantLedger {
            stolen: 0,
            ..t.ledger
        };
        writeln!(
            out,
            "{} {ledger:?} phase={:?} epoch={} faults={} respawns={} opens={} throttles={} warm={} cold={} restored={} items={} snaps={} executed={}",
            t.name,
            t.final_phase,
            t.epoch,
            t.faults,
            t.respawns,
            t.opens,
            t.throttles,
            t.warm_restores,
            t.cold_restores,
            t.state_items_restored,
            t.final_state_items,
            t.snapshots_taken,
            t.batches_executed,
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "ticks={} hwm_sheds={} rebuilds={:?}",
        report.ticks, report.hwm_sheds, report.rebuilds
    )
    .expect("write to string");
    for e in &report.events {
        writeln!(out, "{e:?}").expect("write to string");
    }
    out
}
