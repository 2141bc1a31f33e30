//! The ISSUE's acceptance criteria for the invariant-checking layer and
//! the counterexample minimizer, pinned as tests (DESIGN.md §12):
//!
//! * the seeded `token` demo under `--faults all` violates
//!   `unique-token-owner` and the minimizer reduces the witness by ≥50%;
//! * minimizing an already-minimal repro is a no-op (idempotence);
//! * repro artifacts are byte-identical whether the violation was found
//!   by 1, 2 or 4 workers (determinism);
//! * the repaired protocol (`--fixed`) and the `persist` demo are
//!   violation-free negative controls.

use sde_bench::{demo, render_artifact, with_fault_axes};
use sde_core::check::{Checker, Violation};
use sde_core::oracle::Assignment;
use sde_core::{Algorithm, Engine, MinimizeReport, Minimizer, Scenario};
use sde_net::FailureKind;
use sde_trace::{BufferSink, Lineage, TraceSink};
use std::sync::Arc;

/// A demo's scenario under every fault axis, and its invariants.
fn faulted_demo(name: &str, fixed: bool) -> (Scenario, Checker) {
    let (scenario, checker) = demo(name, fixed).expect("a known demo");
    (with_fault_axes(scenario, &FailureKind::AXES), checker)
}

fn token_scenario(fixed: bool) -> Scenario {
    faulted_demo("token", fixed).0
}

fn token_checker() -> Checker {
    faulted_demo("token", false).1
}

/// Explores the token demo with `workers` and returns the first
/// violation, lineage filled — the repro bin's selection rule.
fn find_violation(scenario: &Scenario, workers: usize) -> Option<Violation> {
    let sink = Arc::new(BufferSink::new());
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    if workers > 1 {
        engine.run_sharded_in_place(workers);
    } else {
        engine.run_in_place();
    }
    let mut violation = token_checker().check(&engine).into_iter().next()?;
    let lineage = Lineage::from_events(sink.drain().iter()).expect("trace must be well-formed");
    violation.fill_lineage(&lineage);
    Some(violation)
}

fn seed_of(violation: &Violation) -> Assignment {
    violation
        .preset
        .iter()
        .map(|(n, name, occ, v)| ((n, name.to_string(), occ), v))
        .collect()
}

fn minimize(scenario: &Scenario, violation: &Violation) -> MinimizeReport {
    Minimizer::new(
        scenario.clone(),
        Algorithm::Sds,
        token_checker(),
        &violation.invariant,
    )
    .minimize(&seed_of(violation))
    .expect("the found witness must stabilize and reproduce")
}

#[test]
fn token_demo_violates_unique_owner_and_shrinks_by_half() {
    let scenario = token_scenario(false);
    let violation = find_violation(&scenario, 1).expect("seeded token bug must be found");
    assert_eq!(violation.invariant, "unique-token-owner");
    assert!(
        violation.active_axes.contains(&FailureKind::CrashRecovery),
        "the bug is triggered by crash-recovery, got axes {:?}",
        violation.active_axes
    );
    assert!(
        !violation.lineage.is_empty(),
        "the violation must carry its root-to-state lineage slice"
    );

    let report = minimize(&scenario, &violation);
    assert!(
        report.reduction_percent() >= 50,
        "ISSUE acceptance: ≥50% witness reduction, got {}% ({} -> {})",
        report.reduction_percent(),
        report.initial_size(),
        report.final_size()
    );
    assert!(
        !report.truncated,
        "the search must converge, not hit the probe cap"
    );
    // The minimal repro keeps only the crash decision.
    assert_eq!(
        report.scenario.failures.active_axes(),
        vec![FailureKind::CrashRecovery]
    );
    assert_eq!(report.final_entries, 1);
    assert!(
        report.final_duration_ms < report.initial_duration_ms,
        "phase 4 must truncate the horizon"
    );
}

#[test]
fn minimizing_a_minimal_repro_is_a_noop() {
    let scenario = token_scenario(false);
    let violation = find_violation(&scenario, 1).expect("seeded token bug must be found");
    let first = minimize(&scenario, &violation);

    // Re-shrink the already-minimal repro: same scenario, same witness.
    let again = Minimizer::new(
        first.scenario.clone(),
        Algorithm::Sds,
        token_checker(),
        &first.violation.invariant,
    )
    .minimize(&first.assignment)
    .expect("a minimal repro must still reproduce");

    assert_eq!(again.assignment, first.assignment, "no entry may change");
    assert!(again.removed_axes.is_empty(), "no axis left to remove");
    assert_eq!(
        again.final_duration_ms, first.final_duration_ms,
        "no further horizon truncation"
    );
    assert_eq!(
        again.initial_size(),
        again.final_size(),
        "size must not move"
    );
    assert_eq!(
        again.violation.digest(),
        first.violation.digest(),
        "the canonical violation digest must be stable under re-minimization"
    );
}

#[test]
fn artifacts_are_byte_identical_across_worker_counts() {
    let scenario = token_scenario(false);
    let base_duration_ms = demo("token", false).expect("a known demo").0.duration_ms;
    let mut artifacts = Vec::new();
    for workers in [1usize, 2, 4] {
        let violation =
            find_violation(&scenario, workers).expect("every worker count must find the bug");
        let report = minimize(&scenario, &violation);
        artifacts.push(render_artifact(
            "token",
            false,
            "sds",
            base_duration_ms,
            &report,
            report.violation.digest(),
        ));
    }
    assert_eq!(artifacts[0], artifacts[1], "workers 1 vs 2");
    assert_eq!(artifacts[0], artifacts[2], "workers 1 vs 4");
    // The artifact really is the minimal one: a single witness entry.
    assert_eq!(
        artifacts[0].matches("\"name\"").count(),
        1,
        "exactly one witness entry expected in:\n{}",
        artifacts[0]
    );
}

#[test]
fn fixed_token_protocol_and_persist_demo_hold() {
    let fixed = token_scenario(true);
    assert!(
        find_violation(&fixed, 1).is_none(),
        "the repaired hand-off must clear the persistent flag"
    );

    let (persist, checker) = faulted_demo("persist", false);
    let mut engine = Engine::new(persist, Algorithm::Sds);
    engine.run_in_place();
    let violations = checker.check(&engine);
    assert!(
        violations.is_empty(),
        "persist demo is the negative control, got {violations:?}"
    );
}
