//! The `repro` bin end to end: the seeded token bug is found and its
//! minimized artifact written (exit 1), the artifact replays to the digest
//! it records (exit 0), and an artifact path that cannot be written exits
//! 2, never a panic's 101. The minimizer's own contract (reduction,
//! idempotence, worker-count identity, negative controls) is
//! `check_minimize.rs`.

mod common;

use common::{run, scratch, Json};

#[test]
fn token_bug_artifact_replays_to_its_digest() {
    let dir = scratch("repro");
    let path = dir.join("token.repro.json").display().to_string();
    let emit = ["--demo", "token", "--faults", "all", "--emit", &path];
    let (log, _) = run("repro", &emit, 1);
    assert!(log.contains("BugReport") && log.contains("unique-token-owner"));
    let (head, _) = log.split_once("% reduction").expect("a reduction");
    let percent: u32 = head
        .rsplit(' ')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    assert!(percent >= 50, "{log}");

    let artifact = Json::read(path.as_ref());
    let (header, entries) = artifact.arr().split_first().expect("a header");
    let text = |key| header.at(key).str();
    let [version, entries_field, duration, base] =
        ["version", "entries", "duration_ms", "base_duration_ms"].map(|k| header.at(k).u64());
    let named = (text("demo"), text("invariant"));
    assert_eq!((version, named), (1, ("token", "unique-token-owner")));
    assert_eq!(entries_field, entries.len() as u64);
    assert!(!entries.is_empty() && duration <= base);
    let digest = text("bug_digest");
    let hex = digest.strip_prefix("0x").unwrap_or_default();
    let lower_hex = hex.bytes().all(|b| b"0123456789abcdef".contains(&b));
    assert!(hex.len() == 16 && lower_hex, "{digest}");

    let (replay, _) = run("repro", &["--replay", &path], 0);
    assert!(replay.contains("REPLAY OK"), "{replay}");
    let matches = format!("digest {digest} matches");
    assert!(replay.contains(&matches), "{replay}");
    let _ = std::fs::remove_dir_all(dir);
}

/// The persist demo holds: exit 0 and an empty report. Where the report
/// cannot be written, exit 2 with a message.
#[test]
fn holding_demo_writes_an_empty_report_or_exits_2() {
    let dir = scratch("repro-io");
    let report = dir.join("persist.repro.json").display().to_string();
    let persist = ["--demo", "persist", "--faults", "all", "--emit"];
    run("repro", &[&persist[..], &[&report]].concat(), 0);
    assert_eq!(std::fs::read_to_string(&report).expect("written"), "[]\n");

    std::fs::write(dir.join("blocker"), b"").expect("temp dir is writable");
    let blocked = dir.join("blocker/persist.repro.json").display().to_string();
    let (_, stderr) = run("repro", &[&persist[..], &[&blocked]].concat(), 2);
    assert!(stderr.contains("cannot write artifact"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}
