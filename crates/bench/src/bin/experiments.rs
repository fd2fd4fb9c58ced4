//! Regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [EXPERIMENT ...] [--quick]
//!
//! EXPERIMENT: fig2 | e1 | e2 | e3 | e4 | e5 | e6 | e7 | e8 | e9 | e10 | e11 | e12 | e13 | e14 | e15 | all (default)
//! --quick: smaller iteration counts for a fast smoke run
//! ```

use std::process::ExitCode;

/// Counts allocations so `e12` measures its zero-allocation claim. Off
/// by default: counting costs an atomic increment per allocation, which
/// the cycle figures of the other experiments should not pay.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static GLOBAL: rbs_core::alloc_count::CountingAlloc = rbs_core::alloc_count::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if selected.is_empty() {
        selected.push("all");
    }

    let all = [
        "fig2", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        "e15",
    ];
    let runs: Vec<&str> = if selected.contains(&"all") {
        all.to_vec()
    } else {
        selected
    };

    for name in &runs {
        let output = match *name {
            "fig2" | "e1" => rbs_bench::e1_isolation::run(quick),
            "e2" => rbs_bench::e2_remote_call::run(quick),
            "e3" => rbs_bench::e3_recovery::run(quick),
            "e4" => rbs_bench::e4_ifc::run(quick),
            "e5" => rbs_bench::e5_ifc_scaling::run(quick),
            "e6" => rbs_bench::e6_checkpoint::run(quick),
            "e7" => rbs_bench::e7_budget::run(quick),
            "e8" => rbs_bench::e8_maglev::run(quick),
            "e9" => rbs_bench::e9_scaling::run(quick),
            "e10" => rbs_bench::e10_chaos::run(quick),
            "e11" => rbs_bench::e11_recovery::run(quick),
            "e12" => rbs_bench::e12_hotpath::run(quick),
            "e13" => rbs_bench::e13_isolation::run(quick),
            "e14" => rbs_bench::e14_upgrade::run(quick),
            "e15" => rbs_bench::e15_tenants::run(quick),
            other => {
                eprintln!(
                    "unknown experiment {other:?}; known: fig2 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 all"
                );
                return ExitCode::FAILURE;
            }
        };
        println!("{}", "=".repeat(72));
        println!("{output}");
    }
    ExitCode::SUCCESS
}
