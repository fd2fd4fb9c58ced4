//! The paper's thesis is that its capabilities come from *safe* Rust, so
//! the tree says where it is not: every file holding the keyword, with
//! its site count, for the workspace minus the frozen `crates/benchmark`
//! and the `vendor/` shims. Every crate root but `rbs-core`'s forbids
//! the lint; this pins what `rbs-core` allows, so a new block is a
//! reviewed diff.

use std::path::Path;

/// File → sites (blocks, fns and impls carrying the keyword).
const INVENTORY: &[(&str, usize)] = &[
    ("crates/core/src/alloc_count.rs", 9), // the one `GlobalAlloc` impl
    ("crates/core/src/cycles.rs", 2),      // `rdtsc` / `rdtscp` intrinsics
];

/// Keyword occurrences in the code part of `source`'s lines: whole
/// words only, so `unsafe_code` or a test named `..._unsafe` is none.
fn sites(source: &str) -> usize {
    let keyword = concat!("uns", "afe");
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .flat_map(|code| {
            code.match_indices(keyword).filter(move |&(at, _)| {
                !code[..at].ends_with(ident) && !code[at + keyword.len()..].starts_with(ident)
            })
        })
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

/// Every crate root except `rbs-core` (the two files above) and the
/// frozen `crates/benchmark` forbids `unsafe` outright, so no module can
/// `allow` its way back in.
#[test]
fn crate_roots_forbid_unsafe() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("readable entry").path();
        if krate
            .file_name()
            .is_some_and(|name| name != "core" && name != "benchmark")
        {
            roots.push(krate.join("src/lib.rs"));
        }
    }
    let forbid = "#![forbid(unsafe_code)]";
    let missing: Vec<_> = roots
        .iter()
        .filter(|path| {
            let source = std::fs::read_to_string(path).expect("readable crate root");
            !source.lines().any(|line| line.trim() == forbid)
        })
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without {forbid}: {missing:#?}"
    );
}
