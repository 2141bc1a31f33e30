//! What the bin suites share: a bin runner, a scratch directory, and
//! reading a JSON file the bins write (`BENCH_*.json`, repro artifacts,
//! Chrome traces) through `sde_trace::json`. Each suite pulls this in
//! with `mod common;`; what one does not use is dead code there.

#![allow(dead_code)]

use sde_trace::{json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The path of the bench bin named `bin`.
pub fn exe(bin: &str) -> &'static str {
    match bin {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "fig10" => env!("CARGO_BIN_EXE_fig10"),
        "parallel_sweep" => env!("CARGO_BIN_EXE_parallel_sweep"),
        "oracle" => env!("CARGO_BIN_EXE_oracle"),
        "repro" => env!("CARGO_BIN_EXE_repro"),
        "snapshot" => env!("CARGO_BIN_EXE_snapshot"),
        "lineage" => env!("CARGO_BIN_EXE_lineage"),
        other => panic!("no bin {other}"),
    }
}

/// Runs `bin` with `args`, asserts its exit code and returns its stdout
/// and stderr.
pub fn run(bin: &str, args: &[&str], code: i32) -> (String, String) {
    let mut command = Command::new(exe(bin));
    let out = command.args(args).output().expect("bin runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    let what = format!("{bin} {args:?}\n{stdout}{stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}");
    (stdout, stderr)
}

/// A fresh directory under the system temp dir, one per test.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sde-bench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// The JSON document in the file at `path`.
pub fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}
