//! The `repro` bin end to end: the seeded token bug is found and its
//! minimized artifact written (exit 1), the artifact replays to the digest
//! it records (exit 0) in whatever layout its JSON is written, a
//! malformed one exits 2, and an artifact path that cannot be written
//! exits 2, never a panic's 101. The minimizer's own contract (reduction,
//! idempotence, worker-count identity, negative controls) is
//! `check_minimize.rs`.

mod common;

use common::{read_json, run, scratch};

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

    let artifact = read_json(path.as_ref());
    let items = artifact.as_arr().expect("an array");
    let (header, entries) = items.split_first().expect("a header");
    let text = |key: &'static str| header[key].as_str().expect(key);
    let [version, entries_field, duration, base] =
        ["version", "entries", "duration_ms", "base_duration_ms"]
            .map(|k| header[k].as_int().expect(k));
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

/// Emits the token demo's artifact into `dir` and returns its path and
/// text.
fn token_artifact(dir: &std::path::Path) -> (String, String) {
    let path = dir.join("token.repro.json").display().to_string();
    run(
        "repro",
        &["--demo", "token", "--faults", "all", "--emit", &path],
        1,
    );
    let text = std::fs::read_to_string(&path).expect("written");
    (path, text)
}

/// The artifact is one JSON document, not a line format: written on one
/// line or re-indented with one member per line, it replays to the same
/// digest.
#[test]
fn artifact_replays_in_any_layout() {
    let dir = scratch("repro-layout");
    let (path, text) = token_artifact(&dir);
    let (replay, _) = run("repro", &["--replay", &path], 0);
    let (_, digest) = replay.split_once("digest ").expect("a digest");
    let one_line = text.replace('\n', "");
    let reindented = (text.replace('{', "{\n    "))
        .replace(", \"", ",\n    \"")
        .replace('}', "\n  }");
    for (name, copy) in [("one-line", one_line), ("reindented", reindented)] {
        let copy_path = dir.join(format!("{name}.json"));
        std::fs::write(&copy_path, &copy).expect("temp dir is writable");
        let copy_path = copy_path.display().to_string();
        let (again, _) = run("repro", &["--replay", &copy_path], 0);
        assert!(
            again.contains("REPLAY OK") && again.ends_with(digest),
            "{name}: {again}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A document that is not an array, or an artifact cut off after its
/// header, is refused with exit 2; an empty array has nothing to replay.
#[test]
fn malformed_artifacts_exit_2() {
    let dir = scratch("repro-malformed");
    let (_, text) = token_artifact(&dir);
    let header = text.lines().nth(1).expect("a header line");
    let not_an_array = header.trim().trim_end_matches(',').to_string();
    let truncated: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
    for (name, bad) in [("object", not_an_array), ("truncated", truncated)] {
        let bad_path = dir.join(format!("{name}.json"));
        std::fs::write(&bad_path, bad).expect("temp dir is writable");
        let (_, stderr) = run("repro", &["--replay", &bad_path.display().to_string()], 2);
        assert!(stderr.contains("REPLAY FAILED"), "{name}: {stderr}");
    }
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "[]\n").expect("temp dir is writable");
    let (stdout, _) = run("repro", &["--replay", &empty.display().to_string()], 0);
    assert!(stdout.contains("nothing to replay"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}
