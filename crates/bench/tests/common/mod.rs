//! What `stable_records` and `hotpath_records` share: the replay of a
//! committed `BENCH_*.json` file, and an `assert!` that is heard.

/// `json`'s lines with their 1-based line numbers, timing lines dropped.
fn stable(json: &str) -> Vec<(usize, &str)> {
    json.lines()
        .enumerate()
        .filter(|(_, line)| !line.contains(r#""kind": "timing""#))
        .map(|(i, line)| (i + 1, line))
        .collect()
}

/// Fails, naming `file` and the line, unless `rendered` has the committed
/// file's stable lines, in order.
pub fn assert_replays(file: &str, rendered: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (want, got) = (stable(&committed), stable(rendered));
    let first_diff = (0..want.len().max(got.len()))
        .find(|&i| want.get(i).map(|w| w.1) != got.get(i).map(|g| g.1));
    if let Some(i) = first_diff {
        let line = want.get(i).or(got.get(i)).map_or(0, |l| l.0);
        require(false, || {
            format!(
                "{file}:{line}: stable record differs\n committed: {}\n  rendered: {}\n\
                 (a deliberate change regenerates the file with `experiments`)",
                want.get(i).map_or("<end of file>", |l| l.1),
                got.get(i).map_or("<end of output>", |l| l.1),
            )
        });
    }
}

/// `assert!` that prints its message first: the experiments silence the
/// process-wide panic hook, so the panic alone would fail without a word.
#[track_caller]
pub fn require(holds: bool, message: impl FnOnce() -> String) {
    if !holds {
        let message = message();
        eprintln!("{message}");
        panic!("{message}");
    }
}
