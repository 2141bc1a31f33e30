//! A typo'd flag value is a usage error: the bins print which values they
//! accept and exit 2 ("could not run"), never a panic's 101, and never a
//! silent fall-back to a default experiment.

use std::process::Command;

/// Runs `table1 <args>` and returns `(exit code, stderr)`.
fn table1(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .output()
        .expect("table1 runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage(args: &[&str], names_the_choices: &str) {
    let (code, stderr) = table1(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(names_the_choices), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
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
fn junk_mode_is_a_usage_error() {
    assert_usage(
        &["--preset", "tiny", "--mode", "shrad"],
        "expected spec or shard",
    );
}

#[test]
fn junk_layers_is_a_usage_error() {
    assert_usage(
        &["--preset", "tiny", "--layers", "exat"],
        "expected full, exact, or off",
    );
}
