//! What the dataplane is built from, pinned like `unsafe_inventory.rs`
//! pins where it is not safe: the root crate links only what the
//! dataplane runs (the IFC analysis is its own crate, with its own
//! examples and tests), packets own plain `Vec<u8>` buffers, channels
//! own their queues, fault injection is compiled into every build rather
//! than behind a feature, every lock comes from `rbs_core::sync`, every
//! declared dependency is used, and `vendor/` holds exactly the shims
//! something still needs. A new dependency, shim, lock policy or build
//! fork is then a reviewed diff to this file.

use std::path::Path;

/// The vendored shims, sorted.
const VENDORED: &[&str] = &["proptest", "rand"];

/// Dependencies that were deleted and must not come back (the lock shim
/// spelled in pieces, as `locks_come_from_rbs_core_sync` bans its name).
const DELETED: &[&str] = &["bytes", "crossbeam", concat!("parking", "_lot")];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The dependency names a manifest declares, with the table each sits in.
fn dependencies(manifest: &str) -> Vec<(String, String)> {
    let mut table = String::new();
    let mut found = Vec::new();
    for line in manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
    {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            table = header.to_owned();
        } else if table.ends_with("dependencies") {
            if let Some(key) = line
                .split(['=', '.'])
                .next()
                .filter(|k| !k.trim().is_empty())
            {
                found.push((table.clone(), key.trim().to_owned()));
            }
        }
    }
    found
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The root manifest and every crate's.
fn manifests() -> Vec<std::path::PathBuf> {
    let mut all = vec![root().join("Cargo.toml")];
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        all.push(krate.expect("readable entry").path().join("Cargo.toml"));
    }
    all
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_root_crate_links_neither_ifc_nor_rand() {
    let linked: Vec<String> = dependencies(&read(&root().join("Cargo.toml")))
        .into_iter()
        .filter(|(table, _)| table == "dependencies")
        .map(|(_, name)| name)
        .collect();
    assert!(
        linked.contains(&"rbs-netfx".to_owned()),
        "parsed {linked:?}"
    );
    for gone in ["rbs-ifc", "rand"] {
        assert!(
            !linked.iter().any(|name| name == gone),
            "{gone} in {linked:?}"
        );
    }
}

#[test]
fn no_crate_depends_on_bytes() {
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let manifest = krate.expect("readable entry").path().join("Cargo.toml");
        for (table, name) in dependencies(&read(&manifest)) {
            assert_ne!(name, "bytes", "{} [{table}]", manifest.display());
        }
    }
}

#[test]
fn no_manifest_names_a_deleted_dependency() {
    for manifest in manifests() {
        for (table, name) in dependencies(&read(&manifest)) {
            assert!(
                !DELETED.contains(&name.as_str()),
                "{name} in {} [{table}]",
                manifest.display()
            );
        }
    }
}

#[test]
fn fault_injection_is_not_a_build_fork() {
    // Spelled in two pieces so this file does not match itself.
    let gate = concat!("feature = ", "\"fault-injection\"");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 100, "walked only {} files", files.len());
    let gated: Vec<_> = files
        .iter()
        .filter(|path| read(path).contains(gate))
        .map(|path| path.display().to_string())
        .collect();
    assert!(gated.is_empty(), "{gate} in {gated:?}");

    let runtime = read(&root().join("crates/runtime/Cargo.toml"));
    let features: Vec<&str> = runtime
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[features]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(
        features,
        ["fault-injection = []"],
        "the feature turns nothing on"
    );
}

/// Whether `name` occurs in `text` with no identifier character on
/// either side.
fn names_word(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

#[test]
fn every_declared_dependency_is_used() {
    let mut unused = Vec::new();
    for manifest in manifests() {
        let package = manifest.parent().expect("in a directory");
        let mut files = Vec::new();
        if package == root() {
            for dir in ["src", "tests", "examples"] {
                rust_files(&root().join(dir), &mut files);
            }
        } else {
            rust_files(package, &mut files);
        }
        let sources: Vec<String> = files.iter().map(|path| read(path)).collect();
        for (table, name) in dependencies(&read(&manifest)) {
            if table != "dependencies" && table != "dev-dependencies" {
                continue;
            }
            let krate = name.replace('-', "_");
            if !sources.iter().any(|text| names_word(text, &krate)) {
                unused.push(format!("{} [{table}] {name}", manifest.display()));
            }
        }
    }
    assert!(unused.is_empty(), "declared, never named: {unused:#?}");
}

#[test]
fn locks_come_from_rbs_core_sync() {
    // Spelled in pieces so this file does not match itself.
    let std_sync = concat!("std::", "sync::");
    let banned = [concat!("parking", "_lot"), concat!("Poison", "Error")];
    let locks = ["Mutex", "MutexGuard", "RwLock", "Condvar"];
    let home = root().join("crates/core/src/sync.rs");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut found = Vec::new();
    for path in files.iter().filter(|path| **path != home) {
        let text = read(path);
        for needle in banned.iter().filter(|needle| text.contains(*needle)) {
            found.push(format!("{}: {needle}", path.display()));
        }
        // What follows each `std::sync::`: one name, or a `{...}` group.
        for (at, _) in text.match_indices(std_sync) {
            let rest = &text[at + std_sync.len()..];
            let imported = match rest.strip_prefix('{') {
                Some(group) => &group[..group.find('}').unwrap_or(group.len())],
                None => {
                    &rest[..rest
                        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .unwrap_or(rest.len())]
                }
            };
            for lock in locks.iter().filter(|lock| names_word(imported, lock)) {
                found.push(format!("{}: {std_sync}{lock}", path.display()));
            }
        }
    }
    assert!(found.is_empty(), "locks outside rbs_core::sync: {found:#?}");
    assert!(files.contains(&home), "{} is missing", home.display());
}

#[test]
fn vendor_holds_exactly_the_pinned_shims() {
    let mut shims: Vec<String> = std::fs::read_dir(root().join("vendor"))
        .expect("vendor/")
        .map(|e| e.expect("readable entry").path())
        .filter(|path| path.is_dir())
        .map(|path| {
            path.file_name()
                .expect("named")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    shims.sort();
    assert_eq!(shims, VENDORED, "update VENDORED in the same reviewed diff");
}
