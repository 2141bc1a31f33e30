//! Cross-algorithm equivalence: COB is the correctness baseline (§III-A:
//! "COB is a correct state mapping and any other algorithm must cover
//! all dscenarios generated by COB. Therefore, more sophisticated state
//! mapping algorithms must discover the same code as COB, but produce
//! less duplicate states").
//!
//! These tests run the same scenario under all three algorithms and
//! check that (1) every node explores the same set of execution paths,
//! (2) the exploded dscenario sets coincide, and (3) the same bugs are
//! found.

mod common;

use common::matrix::{assert_algorithms_agree, baseline, Row};
use common::{grid_collect, line_collect, mesh_flood, ring_hello};
use sde::prelude::*;

fn assert_equivalent(scenario: &Scenario, label: &str) {
    let row = Row::new(label, scenario.clone());
    assert!(
        assert_algorithms_agree(&row),
        "{label}: a run hit the state cap"
    );
}

#[test]
fn line_with_single_drop() {
    assert_equivalent(&line_collect(4, &[2], 2, false), "line4/drop2");
}

#[test]
fn line_with_two_drop_nodes() {
    assert_equivalent(&line_collect(4, &[1, 2], 2, false), "line4/drop1+2");
}

#[test]
fn small_grid_with_route_drops() {
    assert_equivalent(&grid_collect(3, 3, 4000, false), "grid3x3");
}

#[test]
fn mesh_flooding() {
    assert_equivalent(&mesh_flood(3, 2), "mesh3/flood");
}

#[test]
fn ring_hello_no_failures() {
    // Without symbolic input there is exactly one dscenario and one path
    // per node, whatever the algorithm.
    let scenario = ring_hello(5);
    for alg in Algorithm::ALL {
        let report = run(&scenario, alg);
        assert_eq!(
            report.total_states, 5,
            "{alg}: no symbolic input → no forking"
        );
        assert_eq!(report.groups, 1);
    }
    assert_equivalent(&scenario, "ring5/hello");
}

#[test]
fn same_bugs_found_by_every_algorithm() {
    let row = Row::new("line3-strict-3pkt", line_collect(3, &[1], 3, true));
    let bugs = Algorithm::ALL.map(|alg| baseline(&row, alg).canonical().bugs.clone());
    assert!(
        !bugs[0].is_empty(),
        "the strict sink must catch the drop-induced gap"
    );
    assert!(
        bugs.iter().all(|b| *b == bugs[0]),
        "the algorithms disagree on bugs: {bugs:?}"
    );
}

#[test]
fn state_counts_are_ordered_cob_cow_sds() {
    // The paper's headline: COB ≥ COW ≥ SDS in states, with COB strictly
    // worse once branching meets communication.
    let scenario = grid_collect(3, 3, 6000, false);
    let reports: Vec<_> = Algorithm::ALL.iter().map(|a| run(&scenario, *a)).collect();
    let (cob, cow, sds) = (&reports[0], &reports[1], &reports[2]);
    assert!(
        cob.total_states > cow.total_states,
        "COB {} !> COW {}",
        cob.total_states,
        cow.total_states
    );
    assert!(
        cow.total_states >= sds.total_states,
        "COW {} !>= SDS {}",
        cow.total_states,
        sds.total_states
    );
    assert_eq!(sds.duplicate_states, 0, "SDS must be duplication-free");
    assert!(cob.duplicate_states > 0, "COB must exhibit duplicates");
}

#[test]
fn group_counts_match_between_cow_and_sds() {
    // COW dstates and SDS dstates partition the same scenario space; on
    // these workloads the counts coincide (every SDS dstate is a COW
    // dstate with bystanders shared instead of copied).
    for scenario in [
        line_collect(4, &[2], 2, false),
        grid_collect(3, 3, 4000, false),
    ] {
        let cow = run(&scenario, Algorithm::Cow);
        let sds = run(&scenario, Algorithm::Sds);
        assert_eq!(cow.groups, sds.groups);
    }
}
