//! A typo'd flag value is a usage error: the bins print which values they
//! accept and exit 2 ("could not run"), never a panic's 101, and never a
//! silent fall-back to a default experiment. The same holds for a value
//! read from a file the bin is handed, such as a repro artifact.

use std::process::Command;

/// Runs the bin at `exe` with `args` and asserts a usage error: exit 2,
/// a message containing `says`, no panic.
fn assert_bin_usage(exe: &str, args: &[&str], says: &str) {
    let out = Command::new(exe).args(args).output().expect("bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.contains(says), "{exe} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
}

fn assert_usage(args: &[&str], names_the_choices: &str) {
    assert_bin_usage(env!("CARGO_BIN_EXE_table1"), args, names_the_choices);
}

/// `--help` is an answer, not an experiment: it prints the flags — the
/// cost of the `--layers off` ablation point among them — and exits 0
/// without running anything.
#[test]
fn table1_help_names_the_flags_and_what_the_ablation_layers_cost() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--help")
        .output()
        .expect("bin runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("--layers full|off"), "{stdout}");
    assert!(stdout.contains("49–64× the search"), "{stdout}");
    assert!(
        !stdout.contains("Table I —"),
        "ran the experiment: {stdout}"
    );
}

#[test]
fn junk_preset_is_a_usage_error() {
    assert_usage(&["--preset", "tinny"], "expected: tiny");
}

#[test]
fn junk_scenario_is_a_usage_error() {
    assert_usage(
        &["--preset", "tiny", "--scenario", "colect"],
        "expected collect or sense",
    );
}

#[test]
fn junk_faults_is_a_usage_error() {
    assert_usage(
        &["--preset", "tiny", "--faults", "partition,latncy"],
        "partition|latency|corrupt|crashrec|all",
    );
}

#[test]
fn junk_layers_is_a_usage_error() {
    for layers in ["of", "exact"] {
        assert_usage(
            &["--preset", "tiny", "--layers", layers],
            "expected full or off",
        );
    }
}

/// An unparsable numeric value (or, for `oracle` / `repro`, an unknown
/// `--algorithm`) is a usage error in every bin that takes one, and so is
/// every other value a bin cannot run: a grid side or node count no grid
/// has, a trace asked of a checkpointed run, a snapshot that does not
/// decode, an unknown preset or demo. `snapshot` takes only paths, which
/// always parse.
#[test]
fn junk_numbers_and_algorithms_are_usage_errors_in_every_bin() {
    let side = "invalid value \"banana\" for --side";
    let trace_and_checkpoint = "--trace cannot be combined with checkpointing";
    let truncated = std::env::temp_dir().join(format!(
        "sde-cli-usage-{}-truncated.snap",
        std::process::id()
    ));
    std::fs::write(&truncated, b"SDESNAP").expect("temp dir is writable");
    let truncated = truncated.to_str().expect("utf-8 temp path");
    for (exe, args, says) in [
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--side", "banana"][..],
            side,
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--preset", "tiny", "--checkpoint-every", "often"][..],
            "for --checkpoint-every",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--side", "0"][..],
            "invalid --side 0",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &[
                "--preset",
                "tiny",
                "--trace",
                "t.jsonl",
                "--checkpoint-every",
                "5",
            ][..],
            trace_and_checkpoint,
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--preset", "tiny", "--resume", truncated][..],
            truncated,
        ),
        (
            env!("CARGO_BIN_EXE_fig10"),
            &["--nodes", "many"][..],
            "invalid value \"many\" for --nodes",
        ),
        (
            env!("CARGO_BIN_EXE_fig10"),
            &["--nodes", "30"][..],
            "expected a square number",
        ),
        (
            env!("CARGO_BIN_EXE_fig10"),
            &[
                "--nodes",
                "25",
                "--trace",
                "t.jsonl",
                "--checkpoint-every",
                "5",
            ][..],
            trace_and_checkpoint,
        ),
        (
            env!("CARGO_BIN_EXE_parallel_sweep"),
            &["--side", "banana"][..],
            side,
        ),
        (
            env!("CARGO_BIN_EXE_parallel_sweep"),
            &["--trace", "t.jsonl", "--checkpoint-every", "5"][..],
            trace_and_checkpoint,
        ),
        (
            env!("CARGO_BIN_EXE_oracle"),
            &["--preset", "tinny"][..],
            "unknown oracle preset \"tinny\"",
        ),
        (
            env!("CARGO_BIN_EXE_oracle"),
            &["--max-cases", "lots"][..],
            "for --max-cases",
        ),
        (
            env!("CARGO_BIN_EXE_oracle"),
            &["--algorithm", "cobb"][..],
            "expected cob|cow|sds|all",
        ),
        (
            env!("CARGO_BIN_EXE_repro"),
            &["--algorithm", "sdz"][..],
            "expected cob|cow|sds",
        ),
        (
            env!("CARGO_BIN_EXE_repro"),
            &["--workers", "two"][..],
            "for --workers",
        ),
        (
            env!("CARGO_BIN_EXE_repro"),
            &["--demo", "tokn"][..],
            "unknown demo \"tokn\"",
        ),
        (
            env!("CARGO_BIN_EXE_lineage"),
            &["--trace", "/dev/null", "--state", "banana"][..],
            "for --state",
        ),
    ] {
        assert_bin_usage(exe, args, says);
    }
    let _ = std::fs::remove_file(truncated);
}

/// A witness entry whose value does not fit its field is rejected by
/// name: `repro --replay` exits 2, where a cast would replay node 65 536
/// as node 0 and report the original bug reproduced.
#[test]
fn replay_rejects_a_witness_node_out_of_range() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let artifact = std::env::temp_dir().join(format!(
        "sde-cli-usage-{}-token.repro.json",
        std::process::id()
    ));
    let path = artifact.to_str().expect("utf-8 temp path");
    let out = Command::new(exe)
        .args(["--demo", "token", "--faults", "all", "--emit", path])
        .output()
        .expect("bin runs");
    assert_eq!(out.status.code(), Some(1), "the seeded token bug is found");
    let text = std::fs::read_to_string(&artifact).expect("artifact written");
    let doctored = text.replacen("{\"node\": 0,", "{\"node\": 65536,", 1);
    assert_ne!(doctored, text, "no node-0 witness entry: {text}");
    std::fs::write(&artifact, doctored).expect("temp dir is writable");
    assert_bin_usage(exe, &["--replay", path], "witness entry \"node\"");
    let _ = std::fs::remove_file(&artifact);
}
