//! The `oracle` bin's verdicts on its presets, read from
//! `BENCH_oracle.json`: every algorithm conforms exhaustively, with no
//! missing or phantom outcome and nothing truncated — without fault axes
//! on all three presets, and one axis at a time under `--faults all`.

mod common;

use common::{read_json, run, scratch};
use sde_trace::Json;
use std::collections::BTreeSet;

/// Runs `oracle --preset preset` with `flags`, checks every row's
/// verdict and returns the rows' labels.
fn conforming(preset: &str, flags: &[&str]) -> BTreeSet<String> {
    let dir = scratch(&format!("oracle-{preset}-{}", flags.len()));
    let args = [
        &["--preset", preset, "--out", dir.to_str().expect("utf-8")],
        flags,
    ]
    .concat();
    run("oracle", &args, 0);
    let rows = read_json(&dir.join("BENCH_oracle.json"));
    let _ = std::fs::remove_dir_all(dir);
    let mut labels = BTreeSet::new();
    for r in rows.as_arr().expect("an array of rows") {
        let label = r["label"].as_str().expect("a label");
        let flags = [
            "clean",
            "exhaustive",
            "truth_truncated",
            "testgen_truncated",
        ];
        let verdict = flags.map(|f| r[f] == Json::Bool(true));
        assert_eq!(verdict, [true, true, false, false], "{label}");
        let diverged = ["missing_count", "phantom_count"].map(|f| r[f].as_int());
        assert_eq!(diverged, [Some(0), Some(0)], "{label}");
        assert_eq!(r["matched"], r["truth_outcomes"], "{label}");
        assert!(r["matched"].as_int() > Some(0), "{label}");
        let algorithm = r["algorithm"]
            .as_str()
            .expect("an algorithm")
            .to_lowercase();
        assert!(label.ends_with(&format!("_{algorithm}")), "{label}");
        labels.insert(label.to_string());
    }
    labels
}

#[test]
fn oracle_presets_conform_with_and_without_fault_axes() {
    let algorithms = ["cob", "cow", "sds"];
    for preset in ["tiny", "line3", "grid"] {
        let want = algorithms.map(|a| format!("oracle_{preset}_{a}"));
        assert_eq!(conforming(preset, &[]), want.into());
    }
    for preset in ["tiny", "line3"] {
        let axes = ["partition", "latency", "corrupt", "crashrec"];
        let want = axes.map(|x| algorithms.map(|a| format!("oracle_{preset}_{x}_{a}")));
        let want: BTreeSet<String> = want.into_iter().flatten().collect();
        assert_eq!(conforming(preset, &["--faults", "all"]), want);
    }
}
