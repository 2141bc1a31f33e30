//! Engine-level invariants from the paper:
//!
//! * §II-B / §III-B — states within one dstate/dscenario are pairwise
//!   conflict-free (their communication histories agree);
//! * §III-D — SDS never produces duplicate states;
//! * dstates always hold at least one state per node.

mod common;

use common::{grid_collect, line_collect, mesh_flood, ring_hello};
use sde::prelude::*;
use sde_core::Engine;

fn scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        ("line4", line_collect(4, &[2], 2, false)),
        ("line5-two-drops", line_collect(5, &[1, 3], 2, false)),
        ("grid3x3", grid_collect(3, 3, 5000, false)),
        ("mesh3-flood", mesh_flood(3, 2)),
        ("ring5-hello", ring_hello(5)),
    ]
}

#[test]
fn dscenario_members_are_conflict_free() {
    for (label, scenario) in scenarios() {
        for alg in Algorithm::ALL {
            let mut engine = Engine::new(scenario.clone(), alg);
            engine.run_in_place();
            let mut checked = 0usize;
            for dscenario in engine.mapper().dscenarios() {
                let members: Vec<_> = dscenario
                    .iter()
                    .filter_map(|id| engine.state(*id))
                    .collect();
                for (i, a) in members.iter().enumerate() {
                    for b in members.iter().skip(i + 1) {
                        let conflict = a
                            .history
                            .direct_conflict(a.node, &b.history, b.node)
                            .expect("history tracking enabled");
                        assert!(
                            !conflict,
                            "{label}/{alg}: {} and {} conflict within a dscenario",
                            a.id, b.id
                        );
                        checked += 1;
                    }
                }
            }
            assert!(checked > 0, "{label}/{alg}: nothing checked");
        }
    }
}

#[test]
fn same_node_states_in_one_dstate_share_history() {
    // Stronger than pairwise conflict-freedom: same-node states grouped
    // together must have *identical* histories (they only diverged in
    // local constraints).
    for (label, scenario) in scenarios() {
        for alg in [Algorithm::Cow, Algorithm::Sds] {
            let mut engine = Engine::new(scenario.clone(), alg);
            engine.run_in_place();
            for dscenario in engine.mapper().dscenarios() {
                use std::collections::BTreeMap;
                let mut per_node: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
                for id in &dscenario {
                    let s = engine.state(*id).expect("resident");
                    per_node.entry(s.node).or_default().push(s.history.digest());
                }
                // One state per node per dscenario by construction; the
                // interesting case is across the enumerated combinations,
                // which the fingerprint comparison in
                // algorithm_equivalence covers. Here, verify that the
                // dscenario is complete.
                assert_eq!(
                    per_node.len(),
                    scenario.node_count(),
                    "{label}/{alg:?}: dscenario misses a node"
                );
                assert!(per_node.values().all(|v| v.len() == 1));
            }
        }
    }
}

#[test]
fn sds_is_duplication_free_everywhere() {
    for (label, scenario) in scenarios() {
        let report = run(&scenario, Algorithm::Sds);
        assert_eq!(
            report.duplicate_states, 0,
            "{label}: SDS produced duplicates (violates §III-D)"
        );
    }
}

#[test]
fn sds_duplicate_freedom_is_exact_not_just_digest() {
    // Digests could collide; cross-check with exact configuration
    // comparison on a scenario known to stress the mapper.
    let mut engine = Engine::new(grid_collect(3, 3, 5000, false), Algorithm::Sds);
    engine.run_in_place();
    let states: Vec<_> = engine.states().collect();
    for (i, a) in states.iter().enumerate() {
        for b in states.iter().skip(i + 1) {
            if a.node == b.node && a.history == b.history {
                assert!(
                    !a.vm.config_eq(&b.vm),
                    "states {} and {} are exact duplicates",
                    a.id,
                    b.id
                );
            }
        }
    }
}

#[test]
fn mapper_invariants_hold_after_every_run() {
    for (label, scenario) in scenarios() {
        for alg in Algorithm::ALL {
            let mut engine = Engine::new(scenario.clone(), alg);
            engine.run_in_place();
            assert!(
                engine.mapper().check_invariants().is_none(),
                "{label}/{alg}: {:?}",
                engine.mapper().check_invariants()
            );
        }
    }
}

#[test]
fn cow_duplicates_are_exactly_the_bystander_copies() {
    // COW's duplicate count at the end is bounded by its mapper forks
    // (only mapper-created copies can be duplicates; engine branch
    // siblings differ in path constraints).
    for (label, scenario) in scenarios() {
        let report = run(&scenario, Algorithm::Cow);
        assert!(
            report.duplicate_states as u64 <= report.mapper.mapper_forks,
            "{label}: {} duplicates > {} mapper forks",
            report.duplicate_states,
            report.mapper.mapper_forks
        );
    }
}

#[test]
fn declared_invariants_check_cleanly_on_benign_scenarios() {
    // The declarative checking layer (DESIGN.md §12) on a failure-free
    // ring: "a ring node never hears more than its two neighbors" holds
    // in every final state, on every algorithm.
    let neighbors = |view: &NodeView| {
        let count = view.memory_byte(sde::os::layout::NEIGHBORS);
        Some(Expr::ugt(count, Expr::const_(2, Width::W8)))
    };
    for alg in Algorithm::ALL {
        let mut engine = Engine::new(ring_hello(5), alg);
        engine.run_in_place();
        let checker = Checker::new().node_local("neighbor-count-bounded", neighbors);
        assert!(
            checker.check(&engine).is_empty(),
            "{alg}: bounded neighbor count must hold on a benign ring"
        );
    }
}

#[test]
fn a_false_invariant_is_reported_with_a_witness() {
    // Positive control for the layer itself: claim every ring node hears
    // *fewer* than two neighbors — false everywhere — and demand a
    // structured violation naming the invariant and a concrete witness.
    let mut engine = Engine::new(ring_hello(4), Algorithm::Sds);
    engine.run_in_place();
    let checker = Checker::new().node_local("too-few-neighbors", |view: &NodeView| {
        let count = view.memory_byte(sde::os::layout::NEIGHBORS);
        Some(Expr::eq(count, Expr::const_(2, Width::W8)))
    });
    let violations = checker.check(&engine);
    assert!(!violations.is_empty(), "the false invariant must be caught");
    let v = &violations[0];
    assert_eq!(v.invariant, "too-few-neighbors");
    assert!(!v.nodes.is_empty());
    assert_ne!(v.digest(), 0);
}

#[test]
fn histories_grow_only_on_communication() {
    let scenario = ring_hello(4);
    let mut engine = Engine::new(scenario, Algorithm::Sds);
    engine.run_in_place();
    for s in engine.states() {
        // Each ring node broadcasts once (2 sends) and hears both
        // neighbors (2 receives).
        assert_eq!(s.history.len(), 4, "{}", s.id);
    }
}
