//! The paper's thesis is that its capabilities come from *safe* Rust, so
//! the tree says where it is not: every file holding the keyword, with
//! its site count, for the workspace minus the frozen `crates/benchmark`
//! and the `vendor/` shims. The crate roots `forbid`/`deny` the lint;
//! this pins what they allow, so a new block is a reviewed diff.

use std::path::Path;

/// File → sites (blocks, fns and impls carrying the keyword).
const INVENTORY: &[(&str, usize)] = &[
    ("crates/core/src/alloc_count.rs", 9), // the one `GlobalAlloc` impl
    ("crates/core/src/cycles.rs", 2),      // `rdtsc` / `rdtscp` intrinsics
    ("crates/runtime/src/deque.rs", 11),   // the Chase–Lev deque
];

/// Keyword occurrences in the code part of `source`'s lines.
fn sites(source: &str) -> usize {
    let keyword = concat!("uns", "afe");
    source
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .flat_map(|code| code.match_indices(keyword).map(move |(at, _)| &code[at..]))
        .filter(|rest| !rest[keyword.len()..].starts_with('_'))
        .count()
}

fn walk(dir: &Path, root: &Path, found: &mut Vec<(String, usize)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("readable entry").path()) {
        if path.is_dir() {
            walk(&path, root, found);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let n = sites(&std::fs::read_to_string(&path).expect("readable source"));
            if n > 0 {
                let rel = path.strip_prefix(root).expect("under the root");
                found.push((rel.to_string_lossy().into_owned(), n));
            }
        }
    }
}

#[test]
fn unsafe_sites_are_the_pinned_inventory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for top in ["src", "tests", "examples"] {
        walk(&root.join(top), root, &mut found);
    }
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("readable entry").path();
        if krate.file_name().is_some_and(|name| name != "benchmark") {
            walk(&krate, root, &mut found);
        }
    }
    found.sort();
    let pinned: Vec<(String, usize)> = INVENTORY
        .iter()
        .map(|&(file, n)| (file.to_owned(), n))
        .collect();
    assert_eq!(found, pinned, "update INVENTORY in the same reviewed diff");
}
