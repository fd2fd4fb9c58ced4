//! Every file, cargo target and item the docs name exists.
//!
//! The docs point readers at files (`crates/runtime/src/tenant.rs:147`),
//! at commands (`cargo test -p rbs-runtime --test tenant_fast_path`) and
//! at items (`rbs_core::sync::Mutex`). All three rot without a sound when
//! code moves, so this test fails listing each `doc:line token` that no
//! longer resolves.
//!
//! Scanned: every `*.md` in the tree except the logs (`CHANGES.md`,
//! `ROADMAP.md`), the paper notes (`PAPER*.md`, `SNIPPETS.md`),
//! `docs/perf/`, `vendor/`, the frozen `crates/benchmark/README.md`, and
//! any doc with an open checklist item (`- [ ]`): a to-do list names code
//! a change is about to delete. Checked:
//!
//! - a backticked path — one with a known extension, or a `/` after a
//!   top-level directory — with any `:line` suffix removed, must be the
//!   tail of a path in the tree: it may be written from the repo root,
//!   from the doc's directory, from a crate (`tests/flow_key_cache.rs`)
//!   or as a bare file name (`tenant.rs`);
//! - the argument of every `cargo` `-p`, `--example`, `--bin`, `--test`
//!   and `--features`, inline or in a fenced block, must name a package,
//!   example, binary, test target or feature;
//! - an item path `rbs_<crate>::…::Item`, inline or in a fenced block,
//!   must name a workspace crate, and its last segment (a trailing `()`
//!   dropped) an item that crate's `src/` declares `pub` or re-exports
//!   with `pub use`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Docs that are logs or frozen, not descriptions of the tree.
const SKIPPED_DOCS: &[&str] = &[
    "CHANGES.md",
    "ROADMAP.md",
    "SNIPPETS.md",
    "crates/benchmark/README.md",
];

/// Directories whose docs are history or someone else's.
const SKIPPED_DIRS: &[&str] = &["docs/perf", "vendor"];

/// Extensions that make a backticked token a file path.
const EXTENSIONS: &[&str] = &["rs", "md", "json", "toml", "yml"];

/// Keywords whose next word is the name of the item they declare.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// What a doc may name: every path in the tree and every cargo target.
#[derive(Default)]
struct Index {
    paths: Vec<String>,
    top_level: BTreeSet<String>,
    packages: BTreeSet<String>,
    bins: BTreeSet<String>,
    examples: BTreeSet<String>,
    tests: BTreeSet<String>,
    features: BTreeSet<String>,
    /// Per workspace crate, as code names it (`rbs_core`): the names its
    /// `src/` makes public.
    items: BTreeMap<String, BTreeSet<String>>,
}

impl Index {
    fn of_tree(root: &Path) -> Index {
        let mut index = Index::default();
        walk(root, "", &mut index.paths);
        for path in &index.paths {
            let parts: Vec<&str> = path.split('/').collect();
            index.top_level.insert(parts[0].to_owned());
            let stem = parts[parts.len() - 1].strip_suffix(".rs");
            let dir = parts.len().checked_sub(2).map(|i| parts[i]);
            match (dir, stem) {
                (Some("tests"), Some(stem)) => index.tests.insert(stem.to_owned()),
                (Some("examples"), Some(stem)) => index.examples.insert(stem.to_owned()),
                (Some("bin"), Some(stem)) => index.bins.insert(stem.to_owned()),
                _ => false,
            };
        }
        let manifests: Vec<(String, String)> = (index.paths.iter())
            .filter_map(|p| Some((p.strip_suffix("Cargo.toml")?, p)))
            .map(|(dir, p)| {
                let manifest = std::fs::read_to_string(root.join(p)).expect("manifest");
                (dir.to_owned(), manifest)
            })
            .collect();
        for (dir, manifest) in &manifests {
            let Some(package) = index.read_manifest(manifest) else {
                continue;
            };
            let src = format!("{dir}src/");
            let mut names = BTreeSet::new();
            for path in (index.paths.iter()).filter(|p| p.starts_with(&src) && p.ends_with(".rs")) {
                let source = std::fs::read_to_string(root.join(path)).expect("source");
                pub_names(&source, &mut names);
            }
            index.items.insert(package.replace('-', "_"), names);
        }
        index
    }

    /// Records the manifest's targets and features; returns its package
    /// name.
    fn read_manifest(&mut self, manifest: &str) -> Option<String> {
        let mut package = None;
        let mut table = "";
        for line in manifest
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
        {
            if line.starts_with('[') {
                table = line;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let (key, value) = (key.trim(), value.trim().trim_matches('"'));
            match table {
                "[package]" if key == "name" => {
                    package = Some(value.to_owned());
                    self.packages.insert(value.to_owned())
                }
                "[[bin]]" if key == "name" => self.bins.insert(value.to_owned()),
                "[features]" => self.features.insert(key.to_owned()),
                _ => false,
            };
        }
        package
    }

    /// Whether an `rbs_<crate>::…::Item` path names a public item of a
    /// workspace crate.
    fn has_item(&self, path: &str) -> bool {
        let (krate, item) = path.split_once("::").expect("an item path");
        let item = item.rsplit("::").next().unwrap_or(item);
        self.items
            .get(krate)
            .is_some_and(|names| names.contains(item))
    }

    /// Whether some path in the tree ends with `token`'s components.
    fn has_path(&self, token: &str) -> bool {
        let token = token.trim_end_matches('/');
        let tail = format!("/{token}");
        self.paths.iter().any(|p| p == token || p.ends_with(&tail))
    }

    /// Whether `token` reads as a repo path rather than code or prose.
    fn is_path(&self, token: &str) -> bool {
        let well_formed = token.starts_with(|c: char| c.is_ascii_alphanumeric())
            && token
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c));
        let extension = token.rsplit_once('.').map(|(_, ext)| ext);
        let rooted = token
            .split_once('/')
            .is_some_and(|(first, _)| self.top_level.contains(first));
        well_formed && (extension.is_some_and(|e| EXTENSIONS.contains(&e)) || rooted)
    }

    /// The targets `flag` may name, for the `cargo` flags this checks.
    fn targets(&self, flag: &str) -> Option<&BTreeSet<String>> {
        match flag {
            "-p" | "--package" => Some(&self.packages),
            "--bin" => Some(&self.bins),
            "--example" => Some(&self.examples),
            "--test" => Some(&self.tests),
            "--features" => Some(&self.features),
            _ => None,
        }
    }
}

/// Adds the names `source` declares `pub`: each item's, and every name a
/// `pub use` statement mentions. Over-inclusive on purpose: the test
/// asks whether a name is public, not where it lives.
fn pub_names(source: &str, names: &mut BTreeSet<String>) {
    let mut lines = source.lines().map(str::trim);
    while let Some(line) = lines.next() {
        let Some(decl) = line.strip_prefix("pub ") else {
            continue;
        };
        if decl.starts_with("use ") {
            let mut statement = decl.to_owned();
            while !statement.contains(';') {
                let Some(more) = lines.next() else { break };
                statement.push_str(more);
            }
            names.extend(identifiers(&statement).map(str::to_owned));
            continue;
        }
        let words: Vec<&str> = decl.split_whitespace().collect();
        for pair in words.windows(2) {
            if ITEM_KEYWORDS.contains(&pair[0]) {
                names.extend(identifiers(pair[1]).take(1).map(str::to_owned));
            }
        }
    }
}

/// The Rust identifiers in `text`, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The `rbs_<crate>::…` paths in `code` that go past the crate name, each
/// cut at the first character that cannot continue a path.
fn item_paths(code: &str) -> Vec<&str> {
    let mut paths = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("rbs_") {
        let boundary = rest[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        let tail = &rest[at..];
        let len = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(tail.len());
        let path = tail[..len].trim_end_matches(':');
        if boundary && path.contains("::") {
            paths.push(path);
        }
        rest = &tail[len.max(1)..];
    }
    paths
}

/// Every file and directory below `dir`, as `/`-separated paths from the
/// root, build output left out.
fn walk(dir: &Path, prefix: &str, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let entry = entry.expect("readable entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if prefix.is_empty() && [".git", "target", ".bench_build"].contains(&name.as_str()) {
            continue;
        }
        let path = format!("{prefix}{name}");
        if entry.file_type().expect("file type").is_dir() {
            walk(&entry.path(), &format!("{path}/"), out);
        }
        out.push(path);
    }
}

/// The docs this test scans, as paths from the root.
fn docs(index: &Index) -> Vec<&str> {
    index
        .paths
        .iter()
        .map(String::as_str)
        .filter(|p| p.ends_with(".md"))
        .filter(|p| !SKIPPED_DOCS.contains(p) && !p.starts_with("PAPER"))
        .filter(|p| !SKIPPED_DIRS.iter().any(|d| p.starts_with(&format!("{d}/"))))
        .collect()
}

/// The code in `text` — fenced blocks with `\` continuations joined, and
/// inline spans with their line breaks folded — each with the line it
/// starts on and whether it was inline.
fn code_spans(text: &str) -> Vec<(usize, String, bool)> {
    let mut spans = Vec::new();
    let mut prose = String::new();
    let mut fenced: Option<(usize, String)> = None;
    let mut in_fence = false;
    for (i, line) in text.lines().enumerate() {
        let fence = line.trim_start().starts_with("```");
        if fence {
            in_fence = !in_fence;
        } else if in_fence {
            let (start, mut code) = fenced.take().unwrap_or((i + 1, String::new()));
            match line.trim_end().strip_suffix('\\') {
                Some(continued) => fenced = Some((start, code + continued)),
                None => {
                    code.push_str(line);
                    spans.push((start, code, false));
                }
            }
        }
        prose.push_str(if fence || in_fence { "" } else { line });
        prose.push('\n');
    }
    let mut line = 1;
    let mut rest = prose.as_str();
    while let Some(open) = rest.find('`') {
        line += rest[..open].matches('\n').count();
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        let code = &after[..close];
        // A span never crosses a paragraph break; an unmatched tick does.
        if code.contains("\n\n") {
            rest = after;
            continue;
        }
        spans.push((
            line,
            code.split_whitespace().collect::<Vec<_>>().join(" "),
            true,
        ));
        line += code.matches('\n').count();
        rest = &after[close + 1..];
    }
    spans.sort_by_key(|span| span.0);
    spans
}

/// Every reference in `doc` (its path and text) that does not resolve,
/// as `doc:line token`.
fn stale_references(doc: &str, text: &str, index: &Index) -> Vec<String> {
    let mut stale = Vec::new();
    for (line, code, inline) in code_spans(text) {
        let token = code.trim();
        let path = token.split_once(':').map_or(token, |(path, _)| path);
        let line_suffix = token[path.len()..]
            .chars()
            .all(|c| ":-–0123456789".contains(c));
        if inline && line_suffix && index.is_path(path) && !index.has_path(path) {
            stale.push(format!("{doc}:{line} {token}"));
        }
        for item in item_paths(&code).into_iter().filter(|p| !index.has_item(p)) {
            stale.push(format!("{doc}:{line} {item}"));
        }
        let words: Vec<&str> = code.split_whitespace().collect();
        for (at, _) in words.iter().enumerate().filter(|(_, w)| **w == "cargo") {
            let args = words[at + 1..]
                .iter()
                .take_while(|w| !["--", "|", "||", "&&", ";"].contains(w))
                .take_while(|w| !w.starts_with(['#', '>']));
            let args: Vec<&str> = args.copied().collect();
            for pair in args.windows(2) {
                let (flag, value) = (pair[0], pair[1]);
                let Some(targets) = index.targets(flag) else {
                    continue;
                };
                if value.starts_with('<') {
                    continue; // a placeholder such as `<name>`
                }
                let names = value.split(',').map(|v| v.rsplit('/').next().unwrap_or(v));
                for name in names.filter(|n| !targets.contains(*n)) {
                    stale.push(format!("{doc}:{line} {flag} {name}"));
                }
            }
        }
    }
    stale
}

#[test]
fn every_file_and_cargo_target_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let index = Index::of_tree(root);
    let docs = docs(&index);
    assert!(docs.contains(&"DESIGN.md") && docs.contains(&"README.md"));
    let stale: Vec<String> = docs
        .iter()
        .flat_map(|doc| {
            let text = std::fs::read_to_string(root.join(doc)).expect("doc");
            if text.lines().any(|l| l.trim_start().starts_with("- [ ]")) {
                return Vec::new(); // a to-do list, not a description
            }
            stale_references(doc, &text, &index)
        })
        .collect();
    assert!(
        stale.is_empty(),
        "{} stale doc references:\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn a_stale_path_or_cargo_target_is_reported() {
    let index = Index::of_tree(Path::new(env!("CARGO_MANIFEST_DIR")));
    let doc = "\
Held by `crates/runtime/tests/buffer_lifecycle.rs:20` and
`tests/flow_key_cache.rs`; timed by `benches/maglev.rs`.
Locks are `rbs_core::sync::Mutex`; upgrades walked `rbs_runtime::upgrade::UpgradeRun`.

Run `cargo test -q -p rbs-runtime --test
buffer_lifecycle` or `cargo run -p rbs-bench --features alloc-count`.

```sh
cargo run --release -p rbs-nope \\
  --bin experiments --test no_such_test -- --test ignored
```
";
    assert_eq!(
        stale_references("NOTES.md", doc, &index),
        [
            "NOTES.md:2 benches/maglev.rs",
            "NOTES.md:3 rbs_runtime::upgrade::UpgradeRun",
            "NOTES.md:9 -p rbs-nope",
            "NOTES.md:9 --test no_such_test",
        ]
    );
}
