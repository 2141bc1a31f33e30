//! The dedup columns of the strategy matrix (`tests/common/matrix.rs`),
//! for online duplicate-dispatch pruning (DESIGN.md §10): a run with
//! `Engine::with_dedup(true)` must explore exactly what the plain run
//! explores — same per-node path sets, dscenario fingerprints, bugs and
//! state / event / packet counts — serially, sharded and resumed from
//! snapshots, while *executing* no more states or instructions. The
//! comparison is canonical because replayed states clone the memoized
//! survivor's expressions instead of minting fresh symbolic ids.
//!
//! Beside the matrix: the payoff on a duplicate-heavy run, identical
//! test generation, and the digest properties dedup rests on.

mod common;

use common::matrix::{baseline, check, checkpoint_rows, failure_row, preset_rows};
use common::matrix::{Column, Row, SERIAL};
use common::random::{build, random_scenarios};
use common::{grid_collect, line_collect, ring_hello};
use proptest::prelude::*;
use sde::prelude::*;
use sde_bench::oracle_scenario;
use std::collections::BTreeSet;

/// The rows of the serial dedup column, the `oracle` bin's three presets
/// among them.
fn scenarios() -> Vec<Row> {
    let oracle = |preset| oracle_scenario(preset).expect("a known oracle preset");
    vec![
        Row::new("line4-drop2", line_collect(4, &[2], 2, false)),
        Row::new("line3-strict", line_collect(3, &[1], 2, true)),
        Row::new("grid3x3-route", grid_collect(3, 3, 3000, false)),
        Row::new("ring5-hello", ring_hello(5)),
        failure_row("line4", Topology::line(4), "duplicate"),
        failure_row("line4", Topology::line(4), "reboot"),
        failure_row("grid2x2", Topology::grid(2, 2), "drop"),
        Row::new("oracle-tiny", oracle("tiny")),
        Row::new("oracle-line3", oracle("line3")),
        Row::new("oracle-grid", oracle("grid")),
    ]
}

#[test]
fn dedup_preserves_canonical_outputs_across_algorithms() {
    check(&scenarios(), &Algorithm::ALL, &[SERIAL.dedup()]);
}

/// A resumed dedup run restarts with a cold memo index: it may execute
/// more states than the uninterrupted one, never explore anything else.
#[test]
fn checkpointed_dedup_run_matches_straight_runs() {
    let rows = &checkpoint_rows()[..2];
    check(rows, &Algorithm::ALL, &[SERIAL.dedup().interrupted(7)]);
}

/// The sharded engine adopts worker recordings into the memo index under
/// the merge-computed key, so its dedup stats and executed states are the
/// serial dedup run's.
#[test]
fn parallel_dedup_matches_serial_dedup() {
    let rows = &checkpoint_rows()[..2];
    let columns = [2, 4].map(|w| Column::sharded(w).dedup());
    check(rows, &Algorithm::ALL, &columns);
}

/// The conformance oracle replays concrete presets and compares exact
/// outcomes: memoized replay stays off under a preset even with dedup on.
#[test]
fn preset_replay_keeps_dedup_inert() {
    let base = Row::new("line4-drop2", line_collect(4, &[2], 2, false));
    check(
        &preset_rows(&base, 4, 4),
        &[Algorithm::Sds],
        &[SERIAL.dedup()],
    );
}

/// COB floods the engine with mapper-forked duplicates (§III-A) whose
/// dispatches are congruent: dedup lands confirmed replays and executes
/// strictly fewer states.
#[test]
fn dedup_prunes_duplicate_heavy_cob_runs() {
    let scenario = grid_collect(3, 3, 3000, false);
    let off = Engine::new(scenario.clone(), Algorithm::Cob).run();
    let on = Engine::new(scenario, Algorithm::Cob).with_dedup(true).run();
    let summary = on.dedup.summary();
    assert!(on.dedup.confirmed > 0, "no congruent duplicates: {summary}");
    assert!(
        on.dedup.pruned_states > 0 && on.dedup.saved_instructions > 0,
        "confirmed replays bank pruned states and instructions: {summary}"
    );
    assert!(
        on.states_executed < off.states_executed,
        "dedup executed {} states, the plain run {}",
        on.states_executed,
        off.states_executed
    );
    assert_eq!(on.total_states, off.total_states);
}

#[test]
fn testgen_output_is_identical_with_dedup() {
    // Replayed duplicates must still explode into the same dscenarios
    // and solve to the same concrete test cases: same nodes, same state
    // ids (replay mints ids in recorded order), same input assignments.
    let rows = [
        Row::new("line4-drop2", line_collect(4, &[2], 2, false)),
        failure_row("grid2x2", Topology::grid(2, 2), "drop"),
    ];
    for row in rows {
        for alg in Algorithm::ALL {
            let generate = |dedup| {
                let mut engine = Engine::new(row.scenario.clone(), alg).with_dedup(dedup);
                engine.run_in_place();
                let cases = sde_core::testgen::generate(&engine, 64);
                // Dscenario order follows expression identity, which dedup
                // changes: compare the case *sets*.
                type Case = Vec<(u16, u64, Vec<(String, u64)>)>;
                let set: BTreeSet<Case> = cases
                    .cases
                    .iter()
                    .map(|c| {
                        let nodes = c.nodes.iter();
                        nodes
                            .map(|n| (n.node.0, n.state.0, n.inputs.clone()))
                            .collect()
                    })
                    .collect();
                (cases.dscenarios_seen, cases.unsolvable, set)
            };
            assert_eq!(generate(true), generate(false), "[{}] {alg}", row.label);
        }
    }
}

// The incremental digest is a sound index for structural equality.
// `dedup_eq` compares terms with their symbol ids, as the digest hashes
// them, plus fields the digest leaves out (branch trace, occurrence
// counters), so the testable direction is: equal digests imply
// structural equality — a failure would be a real hash collision,
// exactly what `MemoEntry::congruent` exists to absorb. The incremental
// accumulator must also always agree with the from-scratch rescan.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn digests_are_collision_free_and_incrementally_coherent(rs in random_scenarios(3..6)) {
        let scenario = build(&rs);
        // COB maximizes duplicates, so the quadratic scan below actually
        // sees digest-equal pairs.
        let mut engine = Engine::new(scenario.clone(), Algorithm::Cob);
        engine.run_in_place();
        prop_assume!(engine.states().count() < scenario.state_cap);
        let states: Vec<_> = engine.states().collect();
        prop_assert!(!states.is_empty());
        for (i, a) in states.iter().enumerate() {
            prop_assert_eq!(
                a.vm.config_digest(),
                a.vm.config_digest_reference(),
                "state {}: incremental digest drifted from the rescan ({:?})",
                a.id, rs
            );
            for b in &states[i + 1..] {
                if a.node == b.node && a.vm.config_digest() == b.vm.config_digest() {
                    prop_assert!(
                        a.vm.dedup_eq(&b.vm),
                        "digest collision between {} and {} on {} ({:?})",
                        a.id, b.id, a.node, rs
                    );
                }
            }
        }
    }

    /// The node count a path condition carries (what `approx_bytes`
    /// reads) against a walk over its constraints — on every state of a
    /// run, and again after the snapshot codec rebuilt the conditions
    /// through `PathCondition::from_parts`.
    #[test]
    fn path_node_counts_are_incrementally_coherent(rs in random_scenarios(3..6)) {
        let scenario = build(&rs);
        let mut engine = Engine::new(scenario.clone(), Algorithm::Cob);
        engine.run_in_place();
        let bytes = engine.snapshot().to_bytes();
        let resumed = Engine::resume(scenario, &EngineSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        for s in engine.states().chain(resumed.states()) {
            let pc = s.vm.path_condition();
            let walked: usize = pc.iter().map(|c| c.node_count()).sum();
            prop_assert_eq!(
                pc.node_count(), walked,
                "state {}: carried node count drifted from the walk ({:?})", s.id, rs
            );
        }
        prop_assert_eq!(engine.sample_reference(), resumed.sample_reference());
    }

    #[test]
    fn dedup_is_canonically_invisible_on_random_scenarios(rs in random_scenarios(3..6)) {
        let row = Row::new(format!("{rs:?}"), build(&rs));
        prop_assume!(!baseline(&row, Algorithm::Cob).canonical().aborted);
        check(&[row], &[Algorithm::Cob], &[SERIAL.dedup()]);
    }
}
