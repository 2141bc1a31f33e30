//! A typo'd flag, or a typo'd flag value, is a usage error: the bins
//! print what was wrong and exit 2 ("could not run"), never a panic's 101,
//! and never a silent fall-back to a default experiment. The same holds
//! for a value read from a file the bin is handed, such as a repro
//! artifact.

mod common;

use common::{run, scratch};

/// Runs `bin` with `args` and asserts a usage error: exit 2, a message
/// containing `says`, no panic.
fn assert_bin_usage(bin: &str, args: &[&str], says: &str) {
    let (_, stderr) = run(bin, args, 2);
    assert!(stderr.contains(says), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

fn assert_usage(args: &[&str], names_the_choices: &str) {
    assert_bin_usage("table1", args, names_the_choices);
}

/// `--help` is an answer, not an experiment: it prints the flags — the
/// cost of the `--layers off` ablation point among them — and exits 0
/// without running anything.
#[test]
fn table1_help_names_the_flags_and_what_the_ablation_layers_cost() {
    let (stdout, _) = run("table1", &["--help"], 0);
    assert!(stdout.contains("--layers full|off"), "{stdout}");
    assert!(stdout.contains("49–64× the search"), "{stdout}");
    assert!(!stdout.contains("Table I —"), "ran the experiment");
}

#[test]
fn junk_preset_is_a_usage_error() {
    assert_usage(&["--preset", "tinny"], "expected: tiny");
}

#[test]
fn junk_scenario_is_a_usage_error() {
    let says = "expected collect or sense";
    assert_usage(&["--preset", "tiny", "--scenario", "colect"], says);
}

#[test]
fn junk_faults_is_a_usage_error() {
    let says = "partition|latency|corrupt|crashrec|all";
    assert_usage(&["--preset", "tiny", "--faults", "partition,latncy"], says);
}

#[test]
fn junk_layers_is_a_usage_error() {
    for layers in ["of", "exact"] {
        let says = "expected full or off";
        assert_usage(&["--preset", "tiny", "--layers", layers], says);
    }
}

/// An argument no getter of the bin reads — a misspelled flag, another
/// bin's flag, a flag missing its value, a stray word — is named, not
/// ignored: ignored, it would run the default experiment and exit 0.
#[test]
fn unknown_flags_are_usage_errors_in_every_bin() {
    for (bin, args, says) in [
        ("table1", &["--preset", "tiny", "--dedupe"][..], "--dedupe"),
        ("table1", &["--preset", "tiny", "sense"][..], "\"sense\""),
        ("table1", &["--preset", "tiny", "--side"][..], "--side"),
        ("fig10", &["--nodes", "25", "--dedupe"][..], "--dedupe"),
        ("parallel_sweep", &["--sid", "3"][..], "--sid 3"),
        ("oracle", &["--help"][..], "--help"),
        (
            "repro",
            &["--demo", "token", "--emitt", "a"][..],
            "--emitt a",
        ),
        (
            "repro",
            &["--replay", "a", "--demo", "token"][..],
            "--demo token",
        ),
        ("snapshot", &["--valdate", "a.snap"][..], "--valdate a.snap"),
        ("lineage", &["--trace", "/dev/null", "--chek"][..], "--chek"),
    ] {
        assert_bin_usage(bin, args, says);
    }
}

/// An unparsable numeric value (or, for `oracle` / `repro`, an unknown
/// `--algorithm`) is a usage error in every bin that takes one, and so is
/// every other value a bin cannot run: a grid side or node count no grid
/// has, a trace asked of a checkpointed run, a snapshot that does not
/// decode, an unknown preset or demo, a missing mode or required flag.
/// `snapshot` takes only paths, which always parse; its usage errors are a
/// missing mode and `--diff` without `--with`. Exit 1 stays the code of a
/// finding (snapshots that differ, a bad trace).
#[test]
fn junk_numbers_and_algorithms_are_usage_errors_in_every_bin() {
    let side = "invalid value \"banana\" for --side";
    let traced = "--trace cannot be combined with checkpointing";
    let dir = scratch("cli-usage");
    let truncated = dir.join("truncated.snap");
    std::fs::write(&truncated, b"SDESNAP").expect("temp dir is writable");
    let truncated = truncated.to_str().expect("utf-8 temp path");
    let tiny = ["--preset", "tiny"];
    let trace = ["--trace", "t.jsonl", "--checkpoint-every", "5"];
    for (bin, args, says) in [
        ("table1", vec!["--side", "banana"], side),
        (
            "table1",
            [&tiny[..], &["--checkpoint-every", "often"]].concat(),
            "for --checkpoint-every",
        ),
        ("table1", vec!["--side", "0"], "invalid --side 0"),
        ("table1", [&tiny[..], &trace].concat(), traced),
        (
            "table1",
            [&tiny[..], &["--resume", truncated]].concat(),
            truncated,
        ),
        (
            "fig10",
            vec!["--nodes", "many"],
            "invalid value \"many\" for --nodes",
        ),
        ("fig10", vec!["--nodes", "30"], "expected a square number"),
        ("fig10", [&["--nodes", "25"][..], &trace].concat(), traced),
        ("parallel_sweep", vec!["--side", "banana"], side),
        ("parallel_sweep", trace.to_vec(), traced),
        (
            "oracle",
            vec!["--preset", "tinny"],
            "unknown oracle preset \"tinny\"",
        ),
        ("oracle", vec!["--max-cases", "lots"], "for --max-cases"),
        (
            "oracle",
            vec!["--algorithm", "cobb"],
            "expected cob|cow|sds|all",
        ),
        ("repro", vec!["--algorithm", "sdz"], "expected cob|cow|sds"),
        ("repro", vec!["--workers", "two"], "for --workers"),
        ("repro", vec!["--demo", "tokn"], "unknown demo \"tokn\""),
        (
            "lineage",
            vec!["--trace", "/dev/null", "--state", "banana"],
            "for --state",
        ),
        ("lineage", vec!["--check"], "usage: lineage --trace FILE"),
        ("snapshot", vec![], "usage: snapshot --inspect FILE"),
        (
            "snapshot",
            vec!["--diff", "a.snap"],
            "--diff needs --with <FILE>",
        ),
    ] {
        assert_bin_usage(bin, &args, says);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A witness entry whose value does not fit its field is rejected by
/// name: `repro --replay` exits 2, where a cast would replay node 65 536
/// as node 0 and report the original bug reproduced.
#[test]
fn replay_rejects_a_witness_node_out_of_range() {
    let dir = scratch("cli-usage-replay");
    let artifact = dir.join("token.repro.json");
    let path = artifact.to_str().expect("utf-8 temp path");
    run(
        "repro",
        &["--demo", "token", "--faults", "all", "--emit", path],
        1,
    );
    let text = std::fs::read_to_string(&artifact).expect("artifact written");
    let doctored = text.replacen("{\"node\": 0,", "{\"node\": 65536,", 1);
    assert_ne!(doctored, text, "no node-0 witness entry: {text}");
    std::fs::write(&artifact, doctored).expect("temp dir is writable");
    assert_bin_usage("repro", &["--replay", path], "witness entry \"node\"");
    let _ = std::fs::remove_dir_all(dir);
}
