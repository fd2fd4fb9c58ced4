//! The experiment harness: one module per paper artifact.
//!
//! Every quantitative claim in the paper maps to a module here (the
//! experiment ids follow DESIGN.md):
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`e1_isolation`] | Figure 2 — remote-invocation overhead vs. batch size, against Maglev |
//! | [`e2_remote_call`] | §3 — ~90-cycle cost of one protected call |
//! | [`e3_recovery`] | §3 — fault recovery cost (paper: 4389 cycles) |
//! | [`e4_ifc`] | §4 — buffer example + secure store verification |
//! | [`e5_ifc_scaling`] | §4 — ownership IFC vs. alias-analysis baseline vs. summaries |
//! | [`e6_checkpoint`] | Figure 3 / §5 — dedup vs. address-set vs. naïve checkpointing |
//! | [`e7_budget`] | §1 — line-rate cycle budgets |
//! | [`e8_maglev`] | §3 context — Maglev balance & disruption validation |
//! | [`e9_scaling`] | ROADMAP north star — lane throughput scaling + recovery under load |
//! | [`e10_chaos`] | ROADMAP robustness — goodput retained & recovery latency under deterministic fault injection |
//! | [`e11_recovery`] | ROADMAP robustness — checkpoint-backed warm recovery: state survival by snapshot cadence |
//! | [`e12_hotpath`] | ROADMAP perf — zero-allocation hot path: pooled buffers, batch recycling, single-pass dispatch |
//! | [`e13_isolation`] | ROADMAP isolation — the isolation-tax spectrum: typed-sfi vs. mpk-sim vs. copy-boundary backends |
//! | [`e14_upgrade`] | ROADMAP robustness — live rolling upgrade under load: zero-loss commit, chaos-driven rollback |
//! | [`e15_tenants`] | ROADMAP robustness — tenant blast-radius containment: breakers, admission, and the multi-tenant SLA |
//!
//! Each module exposes a `run(quick) -> String` that regenerates the
//! table/series as text (the `experiments` binary prints them), plus
//! typed result structs the tests assert *shape* properties on — who
//! wins, by roughly what factor, where crossovers fall.

#![forbid(unsafe_code)]

pub mod alloc_count;
pub mod e10_chaos;
pub mod e11_recovery;
pub mod e12_hotpath;
pub mod e13_isolation;
pub mod e14_upgrade;
pub mod e15_tenants;
pub mod e1_isolation;
pub mod e2_remote_call;
pub mod e3_recovery;
pub mod e4_ifc;
pub mod e5_ifc_scaling;
pub mod e6_checkpoint;
pub mod e7_budget;
pub mod e8_maglev;
pub mod e9_scaling;
pub mod harness;
