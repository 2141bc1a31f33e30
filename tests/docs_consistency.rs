//! Documentation lint: the markdown documents reference real artifacts.
//!
//! Keeps README/DESIGN/EXPERIMENTS/docs honest as the workspace evolves:
//! every `cargo run --example`/`--bin` they mention must exist, every test
//! file they name must exist, and every recorded `bench_out/` file they
//! cite must be in the tree.

use std::collections::BTreeSet;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(repo_root().join(path))
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn mentioned(pattern: &str, text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in text.lines() {
        let mut rest = line;
        while let Some(pos) = rest.find(pattern) {
            let tail = &rest[pos + pattern.len()..];
            let name: String = tail
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !name.is_empty() {
                out.insert(name);
            }
            rest = tail;
        }
    }
    out
}

#[test]
fn every_documented_example_exists() {
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/ALGORITHMS.md",
    ] {
        let text = read(doc);
        for example in mentioned("--example ", &text) {
            let path = repo_root().join("examples").join(format!("{example}.rs"));
            assert!(path.exists(), "{doc} mentions missing example `{example}`");
        }
    }
}

#[test]
fn every_documented_bin_exists() {
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = read(doc);
        for bin in mentioned("--bin ", &text) {
            let path = repo_root()
                .join("crates/bench/src/bin")
                .join(format!("{bin}.rs"));
            assert!(path.exists(), "{doc} mentions missing bin `{bin}`");
        }
    }
}

#[test]
fn every_documented_test_file_exists() {
    for doc in ["README.md", "EXPERIMENTS.md", "docs/ALGORITHMS.md"] {
        let text = read(doc);
        for t in mentioned("tests/", &text) {
            let path = repo_root().join("tests").join(format!("{t}.rs"));
            // `tests/` may also be referenced as a directory; only check
            // names that look like files (mentioned captures the stem).
            // Integration tests live both at the workspace root and under
            // `crates/<crate>/tests/`.
            if !t.is_empty() {
                let in_crate_tests = std::fs::read_dir(repo_root().join("crates"))
                    .map(|dir| {
                        dir.filter_map(Result::ok)
                            .any(|e| e.path().join("tests").join(format!("{t}.rs")).exists())
                    })
                    .unwrap_or(false);
                assert!(
                    path.exists() || repo_root().join("tests").join(&t).exists() || in_crate_tests,
                    "{doc} mentions missing test `{t}`"
                );
            }
        }
    }
}

/// Every concrete `bench_out/...` path a document cites in backticks is in
/// the tree: a recorded run a doc points at must be committed. A
/// placeholder (`<side>`), alternation (`{seq,wN}`) or optional part
/// (`[_<tag>]`) names the files a command writes, not one recorded file,
/// and is skipped.
#[test]
fn every_cited_bench_out_file_exists() {
    let mut cited = 0;
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/ALGORITHMS.md",
    ] {
        let text = read(doc);
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("`bench_out/") {
            let tail = &rest[pos + 1..];
            let end = tail.find('`').unwrap_or(tail.len());
            let path = &tail[..end];
            rest = &tail[(end + 1).min(tail.len())..];
            if path.contains(['<', '{', '[']) {
                continue;
            }
            cited += 1;
            assert!(
                repo_root().join(path).exists(),
                "{doc} cites `{path}`, which is not in the tree"
            );
        }
    }
    assert!(cited >= 3, "suspiciously few bench_out citations: {cited}");
}

#[test]
fn workspace_documents_exist() {
    for required in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "CHANGES.md",
        "docs/ALGORITHMS.md",
    ] {
        assert!(repo_root().join(required).exists(), "missing {required}");
    }
}

#[test]
fn design_lists_every_crate() {
    let design = read("DESIGN.md");
    for krate in [
        "sde-trace",
        "sde-pds",
        "sde-symbolic",
        "sde-vm",
        "sde-net",
        "sde-os",
        "sde-core",
        "sde-bench",
    ] {
        assert!(design.contains(krate), "DESIGN.md does not mention {krate}");
    }
}

/// The `TraceEvent` variant names, parsed out of the enum declaration in
/// `crates/trace/src/event.rs` (the source of truth — a new variant
/// added there must show up here without editing this test).
fn trace_event_variants() -> Vec<String> {
    let source = read("crates/trace/src/event.rs");
    let body = source
        .split_once("pub enum TraceEvent {")
        .expect("event.rs declares TraceEvent")
        .1;
    let mut variants = Vec::new();
    for line in body.lines() {
        if line.starts_with('}') {
            break;
        }
        // Variants are struct-like: `    Name {`.
        let trimmed = line.trim_start();
        if let Some(name) = trimmed.strip_suffix(" {") {
            if !name.is_empty() && name.chars().all(char::is_alphanumeric) {
                variants.push(name.to_string());
            }
        }
    }
    variants
}

#[test]
fn design_section_7_documents_every_trace_event() {
    let variants = trace_event_variants();
    assert!(
        variants.len() >= 10,
        "suspiciously few TraceEvent variants parsed: {variants:?}"
    );
    let design = read("DESIGN.md");
    let section = design
        .split("## 7. Execution tracing")
        .nth(1)
        .expect("DESIGN.md has §7 'Execution tracing'")
        .split("\n## ")
        .next()
        .expect("§7 has a body");
    for variant in &variants {
        assert!(
            section.contains(&format!("`{variant}`")),
            "DESIGN.md §7 does not document TraceEvent::{variant}"
        );
    }
}

#[test]
fn design_section_numbering_is_sequential() {
    let design = read("DESIGN.md");
    let numbers: Vec<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split('.').next()?.parse().ok())
        .collect();
    let expected: Vec<u32> = (1..=numbers.len() as u32).collect();
    assert_eq!(
        numbers, expected,
        "DESIGN.md top-level sections are misnumbered (a renumbering left a stale header)"
    );
}

/// The `EngineSnapshot` field names, parsed out of the struct
/// declaration in `crates/core/src/checkpoint.rs` (the source of truth —
/// a field added there must be documented in DESIGN.md §8 without
/// editing this test).
fn engine_snapshot_fields() -> Vec<String> {
    let source = read("crates/core/src/checkpoint.rs");
    let body = source
        .split_once("pub struct EngineSnapshot {")
        .expect("checkpoint.rs declares EngineSnapshot")
        .1;
    let mut fields = Vec::new();
    for line in body.lines() {
        if line.starts_with('}') {
            break;
        }
        if let Some(rest) = line.trim_start().strip_prefix("pub(crate) ") {
            if let Some((name, _)) = rest.split_once(':') {
                fields.push(name.trim().to_string());
            }
        }
    }
    fields
}

#[test]
fn design_section_8_documents_every_snapshot_field() {
    let fields = engine_snapshot_fields();
    assert!(
        fields.len() >= 20,
        "suspiciously few EngineSnapshot fields parsed: {fields:?}"
    );
    let design = read("DESIGN.md");
    let section = design
        .split("## 8. Checkpoint & resume")
        .nth(1)
        .expect("DESIGN.md has §8 'Checkpoint & resume'")
        .split("\n## ")
        .next()
        .expect("§8 has a body");
    for field in &fields {
        assert!(
            section.contains(field.as_str()),
            "DESIGN.md §8 does not document EngineSnapshot field `{field}`"
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {dir:?}: {e}")) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// No source file of the core crate grows past 1 500 lines: a file that
/// size holds more than one concern (DESIGN.md §2 lists the engine's).
#[test]
fn no_core_source_file_is_over_1500_lines() {
    let mut files = Vec::new();
    rust_files(&repo_root().join("crates/core/src"), &mut files);
    assert!(files.len() > 10, "suspiciously few files: {files:?}");
    for file in files {
        let lines = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {file:?}: {e}"))
            .lines()
            .count();
        assert!(lines <= 1500, "{} has {lines} lines", file.display());
    }
}
