//! Public API with no caller, pinned like `dependency_inventory.rs` pins
//! dependencies: every `pub fn` in a library crate must be named
//! somewhere in the workspace's code besides its own definition, or be
//! listed here with the reason it stays. A
//! function whose last caller goes then fails this test in the change
//! that removed the caller, instead of lingering as API nobody runs.
//!
//! Not counted as naming a function: comment lines, `pub use` lines,
//! `#[cfg(test)]` items, any `fn <name>` definition, and the defining
//! crate's own `tests/` directory (a test of a function is not a caller).

use std::path::{Path, PathBuf};

/// The crates whose public functions must have a caller: every library
/// crate but the frozen benchmark and the experiments binary.
const CHECKED: &[&str] = &[
    "core",
    "sfi",
    "runtime",
    "netfx",
    "checkpoint",
    "fwtrie",
    "maglev",
    "ifc",
];

/// Every function under this directory is exempt as one entry.
const HEADERS: (&str, &str) = ("crates/netfx/src/headers/", "packet-header library API");

/// `path::name` of each exempt function, with the reason it stays.
const LISTED: &[(&str, &str)] = &[
    (
        "crates/core/src/exchange.rs::assert_exchangeable",
        "compile-time witness of the exchangeable-type rule; its doctests, one `compile_fail`, are the rule's test",
    ),
    (
        "crates/core/src/stats.rs::of_trimmed",
        "summary API: drops the scheduler-noise tail of cycle samples; the stats tests pin the trim rule",
    ),
    (
        "crates/core/src/cycles.rs::cycles_to_ns",
        "cycle-timing API: cycles to nanoseconds at the calibrated TSC rate",
    ),
    (
        "crates/core/src/cycles.rs::time_cycles",
        "cycle-timing API: one call, timed between serialized TSC reads",
    ),
    (
        "crates/core/src/cycles.rs::average_cycles",
        "cycle-timing API: a batch amortised over one pair of reads, the paper's per-invocation method",
    ),
    (
        "crates/sfi/src/channel.rs::target_domain",
        "channel API: the domain a sender feeds",
    ),
    (
        "crates/sfi/src/channel.rs::try_send",
        "channel API: the send that never parks; the backend tests drive it",
    ),
    (
        "crates/sfi/src/interface.rs::from_rref",
        "emitted by `sfi_interface!`: types a raw `RRef` as its interface",
    ),
    (
        "crates/sfi/src/policy.rs::grant_all_methods",
        "ACL grant: a caller trusted with every method",
    ),
    (
        "crates/netfx/src/batch.rs::partition",
        "batch API: the allocating form of `partition_into`",
    ),
    (
        "crates/netfx/src/pktgen.rs::next_flow_id",
        "generator API: the flow draw alone, which the distribution tests pin",
    ),
    (
        "crates/netfx/src/nat.rs::active_mappings",
        "NAT gauge: live translations",
    ),
    (
        "crates/netfx/src/packet.rs::udp_mut",
        "packet API: the mutable UDP view the flow-key cache tests write through",
    ),
    (
        "crates/netfx/src/packet.rs::tcp_mut",
        "packet API: the mutable TCP view the flow-key cache tests write through",
    ),
    (
        "crates/netfx/src/packet.rs::udp_payload",
        "packet API: the UDP payload view",
    ),
    (
        "crates/netfx/src/pcap.rs::packets_written",
        "pcap writer gauge",
    ),
    (
        "crates/netfx/src/flowtrack.rs::flow_count",
        "flow tracker gauge: tracked flows",
    ),
    (
        "crates/netfx/src/flow.rs::reversed",
        "flow API: the reply direction's 5-tuple",
    ),
    (
        "crates/netfx/src/flow.rs::stable_hash2",
        "flow API: a second hash of the 5-tuple, independent of `stable_hash`",
    ),
    (
        "crates/checkpoint/src/codec.rs::encode_delta",
        "codec API: the allocating form of `encode_delta_into`, the delta twin of `encode`",
    ),
    (
        "crates/checkpoint/src/envelope.rs::is_delta",
        "test oracle: the store tests check the full/delta cadence through it",
    ),
    (
        "crates/fwtrie/src/parse.rs::parse_config",
        "rule-file API: a configuration straight into a trie; the only caller of `parse_rules`",
    ),
    (
        "crates/maglev/src/lb.rs::with_connection_capacity",
        "connection-table bound: the only way a test reaches a full table below the 2^20 default",
    ),
    (
        "crates/maglev/src/table.rs::collateral_moves",
        "test oracle: the innocent remaps `disruption_bound` measures",
    ),
    (
        "crates/ifc/src/exec.rs::dynamic_violations",
        "test oracle: the runtime leak check the static analysis is differentially fuzzed against",
    ),
    (
        "crates/ifc/src/interp.rs::analyze_with_state",
        "test oracle: the analysis with its final label state, which the declassification tests read",
    ),
    (
        "crates/ifc/src/verify.rs::verify_source",
        "checker API: parse and verify one program text; the paper-example tests drive it",
    ),
    (
        "crates/ifc/src/label.rs::meet",
        "test oracle: the lattice's greatest lower bound, for the lattice laws' proptest",
    ),
    (
        "crates/ifc/src/label.rs::atom_count",
        "test oracle: a label's atom count, which the label tests check",
    ),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("readable entry").path()) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `source` that count: comment lines, `pub use` items and
/// `#[cfg(test)]` items dropped. The tree is rustfmt-formatted, so an
/// item ends at the first line at its own indent that closes it.
fn code_lines(source: &str) -> Vec<&str> {
    let mut kept = Vec::new();
    let mut lines = source.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        let indent = &line[..line.len() - trimmed.len()];
        let ends_item = |l: &str| {
            l.strip_prefix(indent).is_some_and(|rest| {
                rest == "}" || (!rest.starts_with(char::is_whitespace) && rest.ends_with(';'))
            })
        };
        if trimmed == "#[cfg(test)]" {
            lines.by_ref().find(|l| ends_item(l));
        } else if trimmed.starts_with("pub use ") {
            if !trimmed.ends_with(';') {
                lines.by_ref().find(|l| ends_item(l));
            }
        } else if !trimmed.starts_with("//") {
            kept.push(line);
        }
    }
    kept
}

/// Whether `line` names `name` as a word other than in `fn <name>`.
fn calls(line: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(name).any(|(at, _)| {
        let before = &line[..at];
        !before.ends_with(ident)
            && !line[at + name.len()..].starts_with(ident)
            && !before.ends_with("fn ")
    })
}

/// `(crate, path relative to the root, name)` of every `pub fn` in the
/// checked crates' `src/`, outside `#[cfg(test)]` items.
fn public_fns() -> Vec<(&'static str, String, String)> {
    let mut found = Vec::new();
    for krate in CHECKED {
        let mut files = Vec::new();
        rust_files(&root().join("crates").join(krate).join("src"), &mut files);
        for path in files {
            let source = std::fs::read_to_string(&path).expect("readable source");
            let rel = path.strip_prefix(root()).expect("under the root");
            for line in code_lines(&source) {
                let trimmed = line.trim_start();
                let Some(rest) = ["pub fn ", "pub const fn "]
                    .iter()
                    .find_map(|p| trimmed.strip_prefix(p))
                else {
                    continue;
                };
                let end = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                found.push((*krate, rel.display().to_string(), rest[..end].to_owned()));
            }
        }
    }
    found
}

/// `(path, code lines)` of every Rust file in the workspace but this
/// one, whose list names every listed function.
fn corpus() -> Vec<(PathBuf, Vec<String>)> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    files
        .into_iter()
        .filter(|path| *path != root().join(file!()))
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("readable source");
            let lines = code_lines(&source).into_iter().map(str::to_owned).collect();
            (path, lines)
        })
        .collect()
}

/// The public functions nothing outside their definition names.
fn uncalled() -> Vec<String> {
    let corpus = corpus();
    let mut found = Vec::new();
    for (krate, file, name) in public_fns() {
        let own_tests = root().join("crates").join(krate).join("tests");
        let called = corpus
            .iter()
            .filter(|(path, _)| !path.starts_with(&own_tests))
            .any(|(_, lines)| lines.iter().any(|line| calls(line, &name)));
        if !called {
            found.push(format!("{file}::{name}"));
        }
    }
    found
}

#[test]
fn every_public_fn_has_a_caller_or_a_listed_reason() {
    let uncalled = uncalled();
    let unlisted: Vec<&String> = uncalled
        .iter()
        .filter(|f| !f.starts_with(HEADERS.0))
        .filter(|f| !LISTED.iter().any(|(listed, _)| listed == f))
        .collect();
    assert!(
        unlisted.is_empty(),
        "public, never called — delete it or list it with a reason: {unlisted:#?}"
    );
    let stale: Vec<&str> = LISTED
        .iter()
        .map(|(listed, _)| *listed)
        .filter(|listed| !uncalled.iter().any(|f| f == listed))
        .collect();
    assert!(
        stale.is_empty(),
        "listed, but called or gone — drop the entry: {stale:#?}"
    );
    assert!(root().join(HEADERS.0).is_dir(), "{} is missing", HEADERS.0);
}

#[test]
fn the_scan_finds_what_it_should() {
    let fns = public_fns();
    assert!(fns.len() > 200, "found only {} public fns", fns.len());
    // A function defined and called only in a test module is not API.
    let source = "pub fn kept() {}\n#[cfg(test)]\nmod tests {\n    pub fn hidden() {}\n    fn t() {\n        kept();\n    }\n}\n";
    let lines = code_lines(source);
    assert_eq!(lines, ["pub fn kept() {}"]);
    assert!(!calls("pub fn kept() {}", "kept"));
    assert!(calls("    x.kept();", "kept"));
    assert!(!calls("    x.kept_too();", "kept"));
    let pinned = "pub use a::{\n    b,\n    c,\n};\nfn d() {}\n";
    assert_eq!(code_lines(pinned), ["fn d() {}"]);
}
