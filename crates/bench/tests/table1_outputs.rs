//! What `table1 --preset tiny` writes, read back: the BENCH rows, the
//! `--trace` files with their Chrome twins and lineage, and the
//! checkpoint flow through the `snapshot` bin. The counts behind the rows
//! are the equivalence suites' business; these tests hold the records.

mod common;

use common::{read_json, run, scratch};
use sde_bench::{paper_scenario, RunConfig};
use sde_core::Algorithm;
use sde_net::{FailureConfig, NodeId};
use sde_trace::{json, read_jsonl, Json, TimedEvent, TraceEvent};
use std::collections::BTreeSet;
use std::path::Path;

const ALGS: [&str; 3] = ["cob", "cow", "sds"];

/// Runs `table1 --preset tiny` with `flags`, its record in `dir` under
/// `tag`, and returns the rows.
fn table1(dir: &Path, tag: &str, flags: &[&str]) -> Json {
    let out = dir.to_str().expect("utf-8 temp path");
    let args = [&["--preset", "tiny", "--out", out, "--tag", tag], flags].concat();
    run("table1", &args, 0);
    read_json(&dir.join(format!("BENCH_table1_{tag}.json")))
}

/// The rows of a BENCH record.
fn rows_of(record: &Json) -> &[Json] {
    record.as_arr().expect("a BENCH record is an array of rows")
}

/// The Chrome twin is JSON, and `lineage --check` accepts the trace:
/// every line an event of the schema (a JSON object with an `ev` tag),
/// the lineage a forest.
fn check_trace(path: &Path) {
    read_json(&path.with_extension("chrome.json"));
    let path = path.to_str().expect("utf-8 temp path");
    run("lineage", &["--trace", path, "--check"], 0);
}

/// Asserts that each word of `want` is among the events' names and fork
/// reasons.
#[track_caller]
fn assert_seen(events: &[TimedEvent], want: &str) {
    let mut seen = BTreeSet::new();
    for te in events {
        seen.insert(te.ev.name());
        if let TraceEvent::Fork { reason, .. } = te.ev {
            seen.insert(reason.as_str());
        }
    }
    let missing: Vec<_> = want.split(' ').filter(|w| !seen.contains(w)).collect();
    assert!(missing.is_empty(), "no {missing:?} among {seen:?}");
}

#[test]
fn tiny_preset_rows_traces_and_invariants() {
    let dir = scratch("table1");
    // `--check` exits 1 on any violation of the workload's invariants.
    let trace = dir.join("t.jsonl").display().to_string();
    let rows = table1(&dir, "plain", &["--check", "--trace", &trace]);
    let algorithms: Vec<_> = rows_of(&rows)
        .iter()
        .map(|r| r["algorithm"].as_str())
        .collect();
    assert_eq!(algorithms, ["COB", "COW", "SDS"].map(Some));
    for row in rows_of(&table1(&dir, "dedup", &["--dedup"])) {
        assert!(row["dedup"] != Json::Null, "{row}");
    }
    for alg in ALGS {
        check_trace(&dir.join(format!("t_{alg}.jsonl")));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The faulted dedup run emits StatePruned, PartitionDrop and a fork of
/// every fault kind `--faults all` arms.
#[test]
fn faulted_dedup_run_traces_every_armed_fault() {
    let dir = scratch("table1-faults");
    let trace = dir.join("f.jsonl").display().to_string();
    let rows = table1(
        &dir,
        "f",
        &["--faults", "all", "--dedup", "--trace", &trace],
    );
    assert_eq!(rows_of(&rows).len(), 3);
    for row in rows_of(&rows) {
        let label = row["label"].as_str().expect("a label");
        assert!(
            label.contains("_faults_partition+latency+corrupt+crashrec"),
            "{label}"
        );
    }
    for alg in ALGS {
        let path = dir.join(format!("f_{alg}.jsonl"));
        check_trace(&path);
        let events = read_jsonl(&path).expect("the trace parses");
        let armed = "drop latency corrupt crash partition heal";
        assert_seen(&events, &format!("StatePruned PartitionDrop {armed}"));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `--faults all` arms neither the duplicate nor the reboot model, so
/// this run arms both on two nodes of the tiny grid, through the library
/// path the bins use (`RunConfig::run` writes the trace with
/// `sde_bench::write_trace`).
#[test]
fn duplicate_and_reboot_forks_trace_to_a_valid_lineage() {
    let dir = scratch("dup-reboot");
    let nodes = [NodeId(4), NodeId(5)];
    let failures = FailureConfig::new().with_duplicates(nodes, 1);
    let scenario = paper_scenario(3).with_failures(failures.with_reboots(nodes, 1));
    let trace = Some(dir.join("d.jsonl"));
    let config = RunConfig {
        trace,
        ..RunConfig::default()
    };
    for alg in Algorithm::ALL {
        let label = alg.name().to_lowercase();
        let run = config.run(&scenario, alg, &label).expect("traced run");
        let (_, events) = run.expect("not interrupted");
        check_trace(&dir.join(format!("d_{label}.jsonl")));
        assert_seen(&events, "duplicate reboot");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Interrupt after the first snapshot, read the snapshots through every
/// `snapshot` mode, resume, and compare with a straight run.
#[test]
fn interrupted_run_resumes_to_the_straight_rows() {
    let dir = scratch("checkpoint");
    let straight = table1(&dir, "straight", &[]);
    let snaps = dir.join("snaps").display().to_string();
    let every = ["--checkpoint-every", "50", "--stop-after", "1"];
    table1(
        &dir,
        "stopped",
        &[&every[..], &["--snapshot-dir", &snaps]].concat(),
    );
    let snap = |alg| format!("{snaps}/table1_{alg}.snap");
    for f in ALGS.map(snap) {
        run("snapshot", &["--validate", &f], 0);
        let (inspect, _) = run("snapshot", &["--inspect", &f], 0);
        json::parse(&inspect).unwrap_or_else(|e| panic!("{f}: {e}"));
        run("snapshot", &["--diff", &f, "--with", &f], 0);
    }
    let (cob, cow) = (snap("cob"), snap("cow"));
    run("snapshot", &["--diff", &cob, "--with", &cow], 1);

    let resumed = table1(&dir, "resumed", &["--resume", &snaps]);
    let fields = "algorithm virtual_ms total_states live_states final_bytes peak_bytes \
                  instructions events packets aborted groups duplicate_states history_digest";
    let (straight, resumed) = (rows_of(&straight), rows_of(&resumed));
    assert_eq!((straight.len(), resumed.len()), (3, 3));
    for (s, r) in straight.iter().zip(resumed) {
        for field in fields.split_whitespace() {
            assert!(s[field] != Json::Null, "{field}");
            assert_eq!(s[field], r[field], "{field}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
