//! Self-tests of the benchmark as a program: `--quick` runs of the real
//! binary, its output contract, and its agreement with `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rbs_benchmark::json::{self, Json};
use rbs_benchmark::metrics::{valid_name, END_TO_END, PER_LAYER};
use rbs_benchmark::workloads::Workload;

/// Where the children of test `test` write their trace files: tests run
/// in parallel and must not share a file.
fn trace_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn dpbench(test: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dpbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", trace_dir(test))
        .output()
        .expect("running dpbench")
}

/// The result objects (last-line JSON of each child) in `stdout`.
fn results(stdout: &[u8]) -> Vec<Json> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("result line does not parse: {e}\n{l}")))
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn keys(value: &Json) -> Vec<&str> {
    value
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn quick_mode_runs_every_workload_through_both_passes() {
    let out = dpbench("quick", &["--quick"]);
    assert!(
        out.status.success(),
        "dpbench --quick failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.lines().last().is_some_and(|l| l.starts_with('{')),
        "the result object is the last line"
    );
    let results = results(&out.stdout);
    assert_eq!(results.len(), 2 * Workload::ALL.len());

    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for (i, result) in results.iter().enumerate() {
        assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(matches!(result.get("attempted"), Some(Json::Int(n)) if *n >= 1));
        assert_eq!(result.get("failed"), Some(&Json::Int(0)));
        let metrics = result.get("metrics").unwrap();
        // Children alternate untraced, traced.
        let expected = if i % 2 == 0 { &end_to_end } else { &per_layer };
        assert_eq!(&keys(metrics), expected, "result {i}");
        for (name, m) in metrics.as_obj().unwrap() {
            assert!(valid_name(name));
            assert_eq!(keys(m), ["value", "unit"]);
            assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
        }
        if i % 2 == 0 {
            // End-to-end metrics are never zero.
            for name in &end_to_end {
                assert!(metric(result, name) > 0.0, "{name} is zero in result {i}");
            }
        }
    }

    // Every metric is also printed by name with its unit.
    for m in &END_TO_END {
        assert!(
            text.contains(&format!("{:<56}", m.name)),
            "{} not printed",
            m.name
        );
    }
    for m in &PER_LAYER {
        assert!(
            text.lines()
                .any(|l| l.starts_with(m.name) && l.trim_end().ends_with(m.unit)),
            "{} not printed with unit {}",
            m.name,
            m.unit
        );
    }
    // The host record rides on every report.
    assert_eq!(text.matches("\"nproc\": ").count(), 2 * Workload::ALL.len());

    // The traced pass wrote one trace file per workload, and it parses.
    for w in Workload::ALL {
        let path = trace_dir("quick")
            .join("dpbench")
            .join(format!("trace-{}.json", w.name()));
        let doc =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let doc = json::parse(&doc).expect("trace file parses");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w.name()));
        assert!(!doc.get("spans").and_then(Json::as_arr).unwrap().is_empty());
    }
}

#[test]
fn the_same_seed_repeats_the_deterministic_outputs_exactly() {
    let run = |seed: &str, trace: &str| {
        let out = dpbench(
            "determinism",
            &[
                "--workload",
                "tenant_storm",
                "--seed",
                seed,
                "--trace",
                trace,
                "--quick",
            ],
        );
        assert!(out.status.success(), "seed {seed} trace {trace} failed");
        results(&out.stdout).remove(0)
    };
    let (a, b, other) = (run("7", "0"), run("7", "0"), run("8", "0"));
    for key in ["attempted", "failed"] {
        assert_eq!(a.get(key), b.get(key), "{key} differs between equal runs");
    }
    assert_eq!(
        metric(&a, "goodput_min_pct").to_bits(),
        metric(&b, "goodput_min_pct").to_bits()
    );
    assert!(
        metric(&a, "goodput_min_pct") < 100.0,
        "the storm costs victims something"
    );
    assert!(
        metric(&other, "goodput_min_pct") > 90.0,
        "another seed passes its gates too"
    );
    let (ta, tb) = (run("7", "1"), run("7", "1"));
    for name in [
        "dpbench.failed_ppm",
        "runtime.tenant_lanes.shed_admission_ppm",
        "runtime.tenant_lanes.breaker_opens",
        "runtime.tenant_lanes.rebuild_remap_entries",
    ] {
        assert_eq!(
            metric(&ta, name).to_bits(),
            metric(&tb, name).to_bits(),
            "{name} differs between equal runs"
        );
    }
    assert!(metric(&ta, "runtime.tenant_lanes.breaker_opens") > 0.0);
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        // A window shorter than the minimum, without --quick.
        &[
            "--workload",
            "lane_forward",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "dispatcher"][..],
        &["--trace", "2"][..],
        &["--frobnicate"][..],
    ] {
        let out = dpbench("bad-invocations", args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(results(&out.stdout).is_empty(), "{args:?} printed a result");
        assert!(!out.stderr.is_empty(), "{args:?} should say why");
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_program_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let doc = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&doc).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

    let listed: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = Workload::GATED
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(listed, ours);

    let listed: Vec<(String, String, String, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(listed, ours);

    let listed: Vec<(String, String, String)> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            (field(m, "name"), field(m, "unit"), field(m, "better"))
        })
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(listed, ours);

    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("crates/benchmark")]);
}
