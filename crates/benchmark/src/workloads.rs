//! The five workloads: what runs, at what size, and why.
//!
//! Every workload is a closed loop (see the crate README): the lane
//! engine pulls its own RSS slice from an in-memory generator, the
//! tenant engine is driven by one generate → offer → step client. Sizes
//! are pure functions of `(workload, --seconds)` so that a run's
//! deterministic outputs repeat exactly; the nominal rates below are
//! what one 2.1 GHz vCPU of the reference 2-vCPU host sustained while
//! the benchmark was built (it drifts by ±15 % over minutes), so that a
//! window of `--seconds / windows` seconds measures about that long.

use std::net::Ipv4Addr;
use std::ops::RangeInclusive;
use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_maglev::{Backend, MaglevLb};
use rbs_netfx::operators::{DstPortFilter, MacSwap, NullFilter, TtlDecrement};
use rbs_netfx::pktgen::{FlowDistribution, PacketGen, TrafficConfig};
use rbs_netfx::{FlowTracker, Operator, PacketBatch, PipelineSpec, SourceNat};
use rbs_runtime::{LaneConfig, TenantSpec};
use rbs_sfi::BackendKind;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bare forwarding on one lane at the smallest packet.
    LaneForward,
    /// Firewall → NAT → flow tracker → Maglev LB on one lane.
    LaneStatefulChain,
    /// Two lanes, Zipf-skewed mix, stealing on.
    LaneSkewSteal,
    /// 64 well-behaved tenants on the threaded tenant engine.
    TenantSteady,
    /// 8 tenants under flood, fault loop, chaos, snapshots and churn.
    TenantStorm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::LaneForward,
        Workload::LaneStatefulChain,
        Workload::LaneSkewSteal,
        Workload::TenantSteady,
        Workload::TenantStorm,
    ];

    /// The workloads `BENCHMARK.json` lists, whose end-to-end metrics are
    /// regression-gated. `lane_skew_steal` runs and reports like the
    /// rest but is left out: with stealing on, a 2-lane fleet on the
    /// reference host spends most of its time in cross-thread
    /// malloc/free of migrated buffers, its throughput lands anywhere
    /// between 4 and 10 Mpps from window to window, and the ten-seed
    /// spread (14–49 % across measurement sets) exceeds the widest bound
    /// the benchmark contract allows. See the README.
    pub const GATED: [Workload; 4] = [
        Workload::LaneForward,
        Workload::LaneStatefulChain,
        Workload::TenantSteady,
        Workload::TenantStorm,
    ];

    /// The stable name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LaneForward => "lane_forward",
            Workload::LaneStatefulChain => "lane_stateful_chain",
            Workload::LaneSkewSteal => "lane_skew_steal",
            Workload::TenantSteady => "tenant_steady",
            Workload::TenantStorm => "tenant_storm",
        }
    }

    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LaneForward => "bare 64 B forwarding on one lane: per-packet engine overhead (pktgen, pool, deque, crossing, ledger, recycle) dominates, so engine hot-path changes show here",
            Workload::LaneStatefulChain => "firewall+NAT+flowtrack+Maglev chain over 16k Zipf flows: operator and state-table work dominates and engine overhead is diluted, so operator changes show here and engine changes should not",
            Workload::LaneSkewSteal => "two lanes on a Zipf(1.2) mix with stealing on: the Chase-Lev steal path and cross-pool buffer migration, which a steady-path gain can tax",
            Workload::TenantSteady => "64 uniform tenants, nothing sheds: steering, admission, tick barrier, slot locks and claim tokens do most of the work (the gap to a bare lane)",
            Workload::TenantStorm => "8 Zipf tenants under flood, fault loop, chaos panics, snapshots and churn: the shed, breaker, unwind, warm-restore and Maglev-rebuild paths, with byte-deterministic ledgers",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives the tenant engine (else the lane engine).
    pub fn is_tenant(self) -> bool {
        matches!(self, Workload::TenantSteady | Workload::TenantStorm)
    }
}

/// Shortest window the runner accepts outside `--quick`: below this the
/// scheduler, not the dataplane, decides the number.
pub const MIN_WINDOW_S: f64 = 1.5;

/// Most windows one run takes.
pub const MAX_WINDOWS: usize = 12;

/// How one run is cut into repeated windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Windows measured; every end-to-end metric is reduced over them.
    pub windows: usize,
    /// Nominal length of each window in seconds.
    pub window_s: f64,
    /// Self-test mode: tiny fixed windows, no minimum length.
    pub quick: bool,
}

impl Sizing {
    /// Cuts `seconds` into up to [`MAX_WINDOWS`] windows of at least
    /// [`MIN_WINDOW_S`]: a short budget loses windows before it loses
    /// window length. Refuses a budget below one minimum window unless
    /// `quick`.
    pub fn new(seconds: f64, quick: bool) -> Result<Sizing, String> {
        if quick {
            return Ok(Sizing {
                windows: 2,
                window_s: 0.0,
                quick,
            });
        }
        if !seconds.is_finite() || seconds < MIN_WINDOW_S {
            return Err(format!(
                "--seconds {seconds} is shorter than the {MIN_WINDOW_S} s minimum window (use --quick for a smoke run)"
            ));
        }
        let windows = ((seconds / MIN_WINDOW_S) as usize).clamp(1, MAX_WINDOWS);
        Ok(Sizing {
            windows,
            window_s: seconds / windows as f64,
            quick,
        })
    }

    /// Units (batches or ticks) for one window at `nominal_per_s`, or
    /// `quick_units` in self-test mode.
    fn units(&self, nominal_per_s: f64, quick_units: u64) -> u64 {
        if self.quick {
            quick_units
        } else {
            ((nominal_per_s * self.window_s) as u64).max(1)
        }
    }
}

/// Packets per lane batch.
pub const BATCH_SIZE: usize = 256;

/// Which operator chain a lane workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// `NullFilter → TtlDecrement → MacSwap`.
    Forward,
    /// `FirewallOp → SourceNat → FlowTracker → MaglevLb`.
    Stateful,
    /// `default_tenant_chain`: port filter → NAT → flow tracker.
    Tenant,
}

impl Chain {
    /// Suffix of the chain's `netfx.pipeline.run_batch_cycles_per_packet` metric.
    pub fn label(self) -> &'static str {
        match self {
            Chain::Forward => "forward",
            Chain::Stateful => "stateful",
            Chain::Tenant => "tenant",
        }
    }

    /// The chain as the engines take it.
    pub fn spec(self) -> PipelineSpec {
        match self {
            Chain::Forward => PipelineSpec::new()
                .stage(NullFilter::new)
                .stage(TtlDecrement::new)
                .stage(MacSwap::new)
                .with_state_schema(1),
            Chain::Stateful => PipelineSpec::new()
                .stage(firewall)
                .stage(nat)
                .stage(flow_tracker)
                .stage(load_balancer)
                .with_state_schema(1),
            Chain::Tenant => rbs_runtime::default_tenant_chain(0, &TenantSpec::new("tenant-0")),
        }
    }

    /// The same operators one by one, each with the per-layer metric its
    /// `Operator::process` time is reported under.
    pub fn operators(self) -> Vec<(&'static str, Box<dyn Operator + Send>)> {
        match self {
            Chain::Forward => vec![
                (
                    "netfx.operators.null_filter.cycles_per_packet",
                    Box::new(NullFilter::new()),
                ),
                (
                    "netfx.operators.ttl_decrement.cycles_per_packet",
                    Box::new(TtlDecrement::new()),
                ),
                (
                    "netfx.operators.mac_swap.cycles_per_packet",
                    Box::new(MacSwap::new()),
                ),
            ],
            Chain::Stateful => vec![
                ("fwtrie.operator.cycles_per_packet", Box::new(firewall())),
                ("netfx.nat.cycles_per_packet", Box::new(nat())),
                (
                    "netfx.flowtrack.cycles_per_packet",
                    Box::new(flow_tracker()),
                ),
                ("maglev.lb.cycles_per_packet", Box::new(load_balancer())),
            ],
            // Mirrors `default_tenant_chain(0, _)` stage for stage.
            Chain::Tenant => vec![
                (
                    "netfx.operators.dst_port_filter.cycles_per_packet",
                    Box::new(DstPortFilter::new(vec![80, 53])),
                ),
                (
                    "netfx.nat.cycles_per_packet",
                    Box::new(SourceNat::new(
                        Ipv4Addr::new(203, 0, 113, 10),
                        Ipv4Addr::new(10, 0, 0, 0),
                        8,
                        40_000..=50_000,
                    )),
                ),
                (
                    "netfx.flowtrack.cycles_per_packet",
                    Box::new(FlowTracker::new(4_096)),
                ),
            ],
        }
    }
}

/// Address the stateful chain's NAT translates sources to.
pub const NAT_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
/// The NAT's port pool: wide enough for every one of the 16 384 flows,
/// so no packet of the workload is ever dropped for want of a port.
pub const NAT_PORTS: RangeInclusive<u16> = 1_024..=65_535;
/// Maglev backends behind the stateful chain's VIP.
pub const LB_BACKENDS: usize = 16;
/// Maglev table size of the stateful chain's load balancer (prime).
pub const LB_TABLE: usize = 65_537;
/// Flows in the stateful chain's mix (and rough size of each state table).
const STATEFUL_FLOWS: usize = 16_384;

/// 1 024 `/24` deny rules under `192.0.0.0/14` (all but the VIP's own
/// `192.0.2.0/24`), default allow: every generated packet walks ~22 trie
/// levels beside populated branches and is then allowed.
fn firewall() -> FirewallOp {
    let mut trie = FwTrie::new();
    let mut id = 0;
    for second in 0..=4u8 {
        for third in 0..=255u8 {
            if (second, third) == (0, 2) || id == 1_024 {
                continue;
            }
            id += 1;
            trie.insert(Rule::new(
                id,
                format!("deny-{second}-{third}"),
                Ipv4Addr::new(192, second, third, 0),
                24,
                Action::Deny,
            ));
        }
    }
    FirewallOp::new(trie, Action::Allow)
}

fn nat() -> SourceNat {
    SourceNat::new(NAT_IP, Ipv4Addr::new(10, 0, 0, 0), 8, NAT_PORTS)
}

fn flow_tracker() -> FlowTracker {
    FlowTracker::new(65_536)
}

/// DNAT address of Maglev backend `i` of the stateful chain.
pub fn lb_backend_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, 0, i as u8 + 1)
}

fn load_balancer() -> MaglevLb {
    let backends = (0..LB_BACKENDS).map(|i| Backend::new(format!("be-{i}")));
    let addrs = (0..LB_BACKENDS).map(lb_backend_addr);
    MaglevLb::new(backends.collect(), addrs.collect(), LB_TABLE).expect("prime table size")
}

/// In-chain auditor for the stateful chain's verification pass: panics
/// (→ a counted domain fault) unless every packet leaving the chain has
/// its source translated to a pool port, its destination rewritten to a
/// backend, and clean IP and UDP checksums. `faults == 0` is then a
/// per-packet proof that the chain's output is correct.
pub struct EgressAudit;

impl Operator for EgressAudit {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        for p in batch.iter() {
            let ip = p.ipv4().expect("audit: not IPv4");
            assert_eq!(ip.src(), NAT_IP, "audit: source not translated");
            assert!(
                (0..LB_BACKENDS).any(|i| lb_backend_addr(i) == ip.dst()),
                "audit: destination is not a backend"
            );
            assert!(ip.checksum_ok(), "audit: bad IP checksum");
            let udp = p.udp().expect("audit: not UDP");
            assert!(
                NAT_PORTS.contains(&udp.src_port()),
                "audit: NAT port out of pool"
            );
            assert!(
                udp.checksum_ok(ip.src(), ip.dst()),
                "audit: bad UDP checksum"
            );
        }
        batch
    }

    fn name(&self) -> &str {
        "egress-audit"
    }
}

/// The stateful chain with [`EgressAudit`] appended.
pub fn audited_stateful_spec() -> PipelineSpec {
    Chain::Stateful.spec().stage(|| EgressAudit)
}

/// A lane workload, ready for the lane engine.
#[derive(Clone)]
pub struct LanePlan {
    /// The chain every lane runs.
    pub chain: Chain,
    /// Engine configuration; `total_batches` is one fleet's quota.
    pub config: LaneConfig,
    /// Fresh fleets pooled into one window. More than one where a fleet's
    /// whole run lands in one of two regimes (see `lane_skew_steal`): a
    /// window then samples the mixture instead of one regime, and the
    /// reduction over windows stops flipping between them.
    pub fleets_per_window: usize,
    /// Lanes the workload asks for before clamping to the thread budget.
    pub lanes_requested: usize,
}

impl LanePlan {
    /// Batches one window runs across its fleets.
    pub fn window_batches(&self) -> u64 {
        self.config.total_batches * self.fleets_per_window as u64
    }
}

/// Nominal whole-fleet batches/s of each lane workload on the reference host.
const FORWARD_BATCHES_PER_S: f64 = 51_500.0;
const STATEFUL_BATCHES_PER_S: f64 = 8_000.0;
const SKEW_BATCHES_PER_S: f64 = 24_000.0;

/// Fleets pooled into one `lane_skew_steal` window: with stealing on, a
/// fleet settles into a fast or a slow regime for its whole run (batch
/// p99 ~11 µs or ~17 µs on the reference host), and which one varies
/// from fleet to fleet.
const SKEW_FLEETS: usize = 4;

/// Share of `lane_skew_steal`'s mix that lane 0, the hot lane, generates.
pub const SKEW_HOT_SHARE: f64 = 0.61;

/// Builds the plan of lane workload `w`. `nproc` is the thread budget:
/// lane count plus a spinning driver never exceeds it.
///
/// # Panics
///
/// Panics when `w` is a tenant workload.
pub fn lane_plan(w: Workload, seed: u64, nproc: usize, sizing: &Sizing) -> LanePlan {
    let traffic = |flows, distribution, salt: u64| TrafficConfig {
        flows,
        distribution,
        payload_len: 64,
        seed: seed ^ salt,
        ..TrafficConfig::default()
    };
    let base = LaneConfig {
        batch_size: BATCH_SIZE,
        backend: BackendKind::TypedSfi,
        ..LaneConfig::default()
    };
    match w {
        Workload::LaneForward => LanePlan {
            chain: Chain::Forward,
            config: LaneConfig {
                lanes: 1,
                traffic: traffic(4_096, FlowDistribution::Uniform, 0x00F0_12AD),
                total_batches: sizing.units(FORWARD_BATCHES_PER_S, 400),
                warmup_batches: Some(if sizing.quick { 64 } else { 2_048 }),
                ..base
            },
            lanes_requested: 1,
            fleets_per_window: 1,
        },
        Workload::LaneStatefulChain => LanePlan {
            chain: Chain::Stateful,
            config: LaneConfig {
                lanes: 1,
                traffic: traffic(STATEFUL_FLOWS, FlowDistribution::Zipf(1.1), 0x57A7_EF01),
                total_batches: sizing.units(STATEFUL_BATCHES_PER_S, 200),
                // Long enough that NAT, tracker and connection tables
                // hold (nearly) every flow before the window opens.
                warmup_batches: Some(if sizing.quick { 128 } else { 4_096 }),
                ..base
            },
            lanes_requested: 1,
            fleets_per_window: 1,
        },
        Workload::LaneSkewSteal => {
            let lanes_requested = 2;
            // Which lane the few heaviest Zipf flows hash to decides the
            // imbalance, and the flow endpoints come from the seed: of 256
            // populations derived from `seed`, take the one whose lane 0
            // carries closest to 61 % of the mix (in practice within
            // 0.1 %), so that every seed offers the same skew.
            let (_, skewed) = (0..256u64)
                .map(|attempt| {
                    let mix = traffic(
                        4_096,
                        FlowDistribution::Zipf(1.2),
                        0x5CE3_57EA ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let share = PacketGen::rss_slice(mix.clone(), 0, lanes_requested).share();
                    ((share - SKEW_HOT_SHARE).abs(), mix)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("256 candidates");
            LanePlan {
                chain: Chain::Forward,
                config: LaneConfig {
                    lanes: lanes_requested.min(nproc),
                    traffic: skewed,
                    total_batches: sizing.units(SKEW_BATCHES_PER_S, 400) / SKEW_FLEETS as u64,
                    steal_batch: 2,
                    warmup_batches: Some(if sizing.quick { 64 } else { 2_048 }),
                    ..base
                },
                lanes_requested,
                fleets_per_window: SKEW_FLEETS,
            }
        }
        Workload::TenantSteady | Workload::TenantStorm => {
            panic!("{} is not a lane workload", w.name())
        }
    }
}

/// A tenant workload, ready for either tenant engine.
#[derive(Clone)]
pub struct TenantPlan {
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Tenants that misbehave; everyone else is a victim whose goodput
    /// and loss the end-to-end metrics report.
    pub aggressors: Vec<usize>,
    /// Lane threads (the control thread is the budget's other thread).
    pub lanes: usize,
    /// Whole-mix packets offered per tick, in two half-waves.
    pub wave: usize,
    /// Extra packets per tick aimed at the flooding tenant's flows.
    pub flood_extra: usize,
    /// The tenant whose flows the flood draws from.
    pub flood_target: usize,
    /// Fault plan (background chaos, scripted fault loop).
    pub faults: Option<Arc<FaultPlan>>,
    /// Snapshot cadence in ticks; 0 disables warm recovery.
    pub snapshot_every: u64,
    /// Remove the last tenant at ⅓ of the window, re-add it at ⅔.
    pub churn: bool,
    /// Untimed ticks before the window (counted as set-up).
    pub warmup_ticks: u64,
    /// Timed ticks per window.
    pub ticks: u64,
    /// The whole-mix traffic description.
    pub traffic: TrafficConfig,
}

const STEADY_TICKS_PER_S: f64 = 2_900.0;
const STORM_TICKS_PER_S: f64 = 3_100.0;

/// Per-tenant admission contract of a well-behaved tenant: far above
/// what the mix offers it, so admission never sheds an innocent packet.
const BASE_RATE: u64 = 400;
const BASE_BURST: u64 = 800;

/// Builds the plan of tenant workload `w` for a thread budget of `nproc`.
///
/// # Panics
///
/// Panics when `w` is a lane workload.
pub fn tenant_plan(w: Workload, seed: u64, nproc: usize, sizing: &Sizing) -> TenantPlan {
    let lanes = nproc.saturating_sub(1).max(1);
    let traffic = |salt: u64| TrafficConfig {
        flows: 4_096,
        payload_len: 64,
        seed: seed ^ salt,
        ..TrafficConfig::default()
    };
    match w {
        Workload::TenantSteady => TenantPlan {
            tenants: (0..64)
                .map(|i| TenantSpec::new(format!("tenant-{i}")).rate(BASE_RATE, BASE_BURST))
                .collect(),
            aggressors: Vec::new(),
            lanes,
            wave: 1_536,
            flood_extra: 0,
            flood_target: 0,
            faults: None,
            snapshot_every: 0,
            churn: false,
            warmup_ticks: if sizing.quick { 8 } else { 50 },
            ticks: sizing.units(STEADY_TICKS_PER_S, 120),
            traffic: traffic(0x57EA_D111),
        },
        Workload::TenantStorm => {
            const FLOODER: usize = 1;
            const FAULT_LOOPER: usize = 2;
            let weights = [8, 5, 3, 2, 1, 1, 1, 1];
            let tenants = weights
                .iter()
                .enumerate()
                .map(|(i, &weight)| {
                    let spec = TenantSpec::new(format!("tenant-{i}"))
                        .weight(weight)
                        .rate(BASE_RATE, BASE_BURST)
                        .priority(if i == FLOODER || i == FAULT_LOOPER {
                            1
                        } else {
                            2
                        });
                    if i == FLOODER {
                        spec.rate(25, 50)
                    } else {
                        spec
                    }
                })
                .collect();
            let faults = FaultPlan::new(seed)
                .inject(FaultSite::Operator(0), FaultKind::Panic, 400)
                .inject_window(
                    FaultSite::Operator(0),
                    FaultKind::Panic,
                    FAULT_LOOPER as u64,
                    0,
                    u64::MAX,
                );
            TenantPlan {
                tenants,
                aggressors: vec![FLOODER, FAULT_LOOPER],
                lanes,
                wave: 24 * weights.len(),
                flood_extra: 256,
                flood_target: FLOODER,
                faults: Some(Arc::new(faults)),
                snapshot_every: 4,
                churn: true,
                warmup_ticks: if sizing.quick { 8 } else { 50 },
                ticks: sizing.units(STORM_TICKS_PER_S, 240),
                traffic: traffic(0x0005_7012),
            }
        }
        _ => panic!("{} is not a tenant workload", w.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_cuts_window_count_before_window_length() {
        let s = Sizing::new(18.0, false).unwrap();
        assert_eq!((s.windows, s.window_s), (12, 1.5));
        let s = Sizing::new(60.0, false).unwrap();
        assert_eq!((s.windows, s.window_s), (12, 5.0));
        let s = Sizing::new(4.0, false).unwrap();
        assert_eq!((s.windows, s.window_s), (2, 2.0));
        let s = Sizing::new(1.5, false).unwrap();
        assert_eq!((s.windows, s.window_s), (1, 1.5));
        assert!(Sizing::new(1.0, false).is_err(), "refuses short windows");
        assert!(Sizing::new(1.0, true).is_ok(), "unless --quick");
        assert!(Sizing::new(f64::NAN, false).is_err());
    }

    #[test]
    fn names_round_trip_and_lane_counts_respect_the_budget() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::parse("dispatcher"), None);
        let sizing = Sizing::new(10.0, false).unwrap();
        for nproc in [1, 2, 8] {
            let skew = lane_plan(Workload::LaneSkewSteal, 1, nproc, &sizing);
            assert!(skew.config.lanes <= nproc);
            let steady = tenant_plan(Workload::TenantSteady, 1, nproc, &sizing);
            assert!(steady.lanes < nproc.max(2));
        }
    }

    #[test]
    fn firewall_holds_1024_rules_and_allows_the_vip() {
        let fw = firewall();
        assert_eq!(fw.trie().rule_refs(), 1_024);
        let flow = rbs_netfx::FiveTuple {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(192, 0, 2, 1),
            src_port: 4_000,
            dst_port: 80,
            proto: rbs_netfx::headers::IpProto::Udp,
        };
        assert_eq!(fw.decide(&flow), Action::Allow);
    }
}
