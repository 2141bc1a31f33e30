//! Mutation self-test for the conformance oracle: a harness that cannot
//! fail its subject proves nothing, so corrupt exactly one mapping
//! decision and demand the oracle flags the divergence (DESIGN.md §9).
//!
//! [`MutantMapper`] wraps a real mapper and forwards everything except
//! one deliberate lie:
//!
//! * [`Mutation::DropDscenario`] suppresses one dscenario during the
//!   §IV-C explosion — the oracle must report its outcome as *missing*
//!   (a mapper losing coverage is exactly the unsoundness the oracle
//!   exists to catch).
//! * [`Mutation::StealReceiver`] removes one receiver from one mapped
//!   transmission — the exploration itself diverges from the ground
//!   truth, so the verdict must be dirty.

#[path = "common/line.rs"]
mod line;

use line::line_collect;
use sde::core::oracle::{
    conformance_against, ground_truth, Domains, GroundTruth, Mutation, OracleConfig,
};
use sde::prelude::*;
use sde_bench::{with_fault_axes, FaultAxis};
use std::collections::BTreeSet;

fn scenario() -> Scenario {
    line_collect(3, &[0, 1], 2, false)
}

#[test]
fn unmutated_baseline_is_clean() {
    // The control arm: without a mutation the very same harness must
    // report a clean, exhaustive verdict for every algorithm — otherwise
    // the dirty verdicts below would mean nothing.
    let scenario = scenario();
    let cfg = OracleConfig::default();
    let truth = ground_truth(&scenario, &cfg);
    assert!(truth.exhaustive());
    assert!(
        truth.outcomes.len() >= 4,
        "{} outcomes",
        truth.outcomes.len()
    );
    for alg in Algorithm::ALL {
        let report = conformance_against(&truth, &scenario, alg, None, &cfg);
        assert!(
            report.is_clean() && report.exhaustive(),
            "baseline {}: {}",
            alg.name(),
            report.summary()
        );
    }
}

#[test]
fn dropping_a_dscenario_is_flagged_as_missing() {
    let scenario = scenario();
    let cfg = OracleConfig::default();
    let truth = ground_truth(&scenario, &cfg);
    for alg in Algorithm::ALL {
        let report = conformance_against(
            &truth,
            &scenario,
            alg,
            Some(Mutation::DropDscenario(0)),
            &cfg,
        );
        assert!(
            !report.missing.is_empty(),
            "{}: suppressing a dscenario must surface as a missing outcome: {}",
            alg.name(),
            report.summary()
        );
        assert!(!report.is_clean(), "{}: verdict must be dirty", alg.name());
    }
}

#[test]
fn every_dscenario_position_matters() {
    // Not just the first: suppressing *any* of SDS's dscenarios must be
    // caught — SDS enumerates each dscenario exactly once (§III-D), so
    // every position carries unique coverage.
    let scenario = scenario();
    let cfg = OracleConfig::default();
    let truth = ground_truth(&scenario, &cfg);
    let baseline = conformance_against(&truth, &scenario, Algorithm::Sds, None, &cfg);
    assert!(baseline.is_clean());
    for n in 0..baseline.cases {
        let report = conformance_against(
            &truth,
            &scenario,
            Algorithm::Sds,
            Some(Mutation::DropDscenario(n)),
            &cfg,
        );
        assert!(
            !report.is_clean(),
            "SDS: dropping dscenario {n} of {} went unnoticed: {}",
            baseline.cases,
            report.summary()
        );
    }
}

// ---------------------------------------------------------------------------
// fault-axis kill coverage (DESIGN.md §11 × §9)
// ---------------------------------------------------------------------------

/// Oracle config for the fault-axis sweep: the corruption axis carries
/// an 8-bit value symbol, so cap its enumeration domain — four values
/// are plenty to move the outcome set, and the sweep stays fast.
fn axis_cfg() -> OracleConfig {
    OracleConfig {
        domains: Domains::new().with_max_domain(4),
        ..OracleConfig::default()
    }
}

fn outcome_set(truth: &GroundTruth) -> BTreeSet<sde::core::oracle::ScenarioOutcome> {
    truth.outcomes.keys().cloned().collect()
}

#[test]
fn every_fault_axis_changes_the_canonical_outcome_set() {
    // Kill-the-mutant coverage for the fault subsystem itself: an axis
    // wired to nothing would leave the ground truth unchanged, so each
    // of partition/latency/corrupt/crashrec must *independently* move
    // the canonical outcome set on line3.
    let base = scenario();
    let cfg = axis_cfg();
    let baseline = outcome_set(&ground_truth(&base, &cfg));
    assert!(!baseline.is_empty());
    let mut per_axis = Vec::new();
    for axis in FaultAxis::ALL {
        let faulted = with_fault_axes(base.clone(), &[axis]);
        let truth = ground_truth(&faulted, &cfg);
        let outcomes = outcome_set(&truth);
        assert_ne!(
            outcomes,
            baseline,
            "{axis}: the axis must change the canonical outcome set \
             ({} outcomes either way)",
            baseline.len()
        );
        assert!(
            outcomes.len() > baseline.len(),
            "{axis}: a new symbolic choice must widen the outcome set, \
             got {} vs baseline {}",
            outcomes.len(),
            baseline.len()
        );
        per_axis.push((axis, outcomes));
    }
    // And the axes are pairwise distinguishable — no two collapse into
    // the same behavior.
    for i in 0..per_axis.len() {
        for j in i + 1..per_axis.len() {
            assert_ne!(
                per_axis[i].1, per_axis[j].1,
                "{} and {} produced identical outcome sets",
                per_axis[i].0, per_axis[j].0
            );
        }
    }
}

#[test]
fn mutants_stay_killed_under_every_fault_axis() {
    // The oracle's kill-power must survive the larger fault space: with
    // each axis active, suppressing a dscenario is still caught.
    let base = scenario();
    let cfg = axis_cfg();
    for axis in FaultAxis::ALL {
        let faulted = with_fault_axes(base.clone(), &[axis]);
        let truth = ground_truth(&faulted, &cfg);
        let clean = conformance_against(&truth, &faulted, Algorithm::Sds, None, &cfg);
        assert!(
            clean.is_clean(),
            "{axis}: unmutated control arm must stay clean: {}",
            clean.summary()
        );
        let report = conformance_against(
            &truth,
            &faulted,
            Algorithm::Sds,
            Some(Mutation::DropDscenario(0)),
            &cfg,
        );
        assert!(
            !report.is_clean(),
            "{axis}: dropping a dscenario went unnoticed under the axis: {}",
            report.summary()
        );
    }
}

#[test]
fn stealing_a_receiver_is_flagged() {
    let scenario = scenario();
    let cfg = OracleConfig::default();
    let truth = ground_truth(&scenario, &cfg);
    for alg in Algorithm::ALL {
        let report = conformance_against(
            &truth,
            &scenario,
            alg,
            Some(Mutation::StealReceiver(0)),
            &cfg,
        );
        assert!(
            !report.is_clean(),
            "{}: corrupting a delivery mapping must dirty the verdict: {}",
            alg.name(),
            report.summary()
        );
    }
}
