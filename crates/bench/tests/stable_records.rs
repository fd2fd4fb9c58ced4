//! The committed `BENCH_*.json` records, replayed.
//!
//! Every line of these files except the `"kind": "timing"` ones is a
//! deterministic function of the code, so rendering each experiment at
//! its committed size must reproduce the committed file byte for byte
//! once those lines are dropped. A change meant to move a record
//! regenerates the file with `experiments eN`; any other change that
//! moves one fails here, naming the file and its first differing line.
//!
//! Each test renders with the module's `to_json(&measure(..))` and never
//! calls `run`, so it writes no file. e9 and e12 stay out: each has a
//! record that depends on thread timing.

use rbs_bench::{e10_chaos, e11_recovery, e13_isolation, e14_upgrade, e15_tenants};

/// `json`'s lines with their 1-based line numbers, timing lines dropped.
fn stable(json: &str) -> Vec<(usize, &str)> {
    json.lines()
        .enumerate()
        .filter(|(_, line)| !line.contains(r#""kind": "timing""#))
        .map(|(i, line)| (i + 1, line))
        .collect()
}

fn assert_replays(file: &str, rendered: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (want, got) = (stable(&committed), stable(rendered));
    let first_diff = (0..want.len().max(got.len()))
        .find(|&i| want.get(i).map(|w| w.1) != got.get(i).map(|g| g.1));
    if let Some(i) = first_diff {
        let line = want.get(i).or(got.get(i)).map_or(0, |l| l.0);
        let message = format!(
            "{file}:{line}: stable record differs\n committed: {}\n  rendered: {}\n\
             (a deliberate change regenerates the file with `experiments`)",
            want.get(i).map_or("<end of file>", |l| l.1),
            got.get(i).map_or("<end of output>", |l| l.1),
        );
        // The experiments silence the process-wide panic hook, so the
        // panic alone would fail without a word.
        eprintln!("{message}");
        panic!("{message}");
    }
}

#[test]
fn e10_chaos_replays_its_committed_records() {
    let results = e10_chaos::measure(e10_chaos::ROUNDS);
    assert_replays("BENCH_chaos.json", &e10_chaos::to_json(&results));
}

#[test]
fn e11_recovery_replays_its_committed_records() {
    let results = e11_recovery::measure(e11_recovery::ROUNDS);
    assert_replays("BENCH_recovery.json", &e11_recovery::to_json(&results));
}

#[test]
fn e13_isolation_replays_its_committed_records() {
    let results = e13_isolation::measure(e13_isolation::ROUNDS, e13_isolation::BATCH_SIZES);
    let json = e13_isolation::to_json(&results, e13_isolation::BATCH_SIZES);
    assert_replays("BENCH_isolation.json", &json);
}

#[test]
fn e14_upgrade_replays_its_committed_records() {
    let results = e14_upgrade::measure(e14_upgrade::ROUNDS);
    assert_replays("BENCH_upgrade.json", &e14_upgrade::to_json(&results));
}

#[test]
fn e15_tenants_replays_its_committed_records() {
    let results = e15_tenants::measure(e15_tenants::TICKS);
    assert_replays("BENCH_tenant.json", &e15_tenants::to_json(&results));
}
