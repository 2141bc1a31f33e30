//! Differential tests for online duplicate-dispatch pruning (DESIGN.md
//! §10): a run with `Engine::set_dedup(true)` must explore exactly the
//! same behavior as a run without it — same per-node path sets, same
//! dscenario fingerprints, same bugs, same state/event/packet counts,
//! same generated test cases — while *executing* fewer states on
//! duplicate-heavy workloads.
//!
//! Replayed states clone the memoized survivor's expressions instead of
//! minting fresh symbolic ids, so raw configuration digests (and hence
//! `RunReport::equivalence_key`, which folds them into
//! `history_digest` and the duplicate counts) legitimately differ
//! between a dedup-on and a dedup-off run. The comparisons here are
//! therefore *canonical*: `path_digest` is location-based and
//! symbol-id-free, and bug/testgen outputs are compared by content.

#[path = "common/faults.rs"]
mod faults;
#[path = "common/fingerprints.rs"]
mod fingerprints;
#[path = "common/grid.rs"]
mod grid;
#[path = "common/line.rs"]
mod line;
#[path = "common/ring.rs"]
mod ring;

use fingerprints::{dscenario_fingerprints, path_sets};
use grid::grid_collect;
use line::line_collect;
use proptest::prelude::*;
use ring::ring_hello;
use sde::prelude::*;
use sde_bench::oracle_scenario;
use sde_core::{DedupStats, Engine, EngineSnapshot};
use sde_os::apps::collect::{self, CollectConfig};
use std::collections::BTreeSet;

/// Collect workload with a chosen failure model on two middle nodes —
/// exercises the drop/duplicate/reboot fork paths under dedup.
fn failure_scenario(topology: &Topology, failure: &str) -> Scenario {
    let k = topology.len() as u16;
    let cfg = CollectConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 1,
        strict_sink: false,
    };
    let failures = faults::failure_model(failure, &[NodeId(1), NodeId(k / 2)]);
    let programs = collect::programs(topology, &cfg);
    Scenario::new(topology.clone(), programs)
        .with_failures(failures)
        .with_duration_ms(4000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

/// The scenario matrix shared by the differential tests, the `oracle`
/// bin's three presets among them.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    let oracle = |preset| oracle_scenario(preset).expect("a known oracle preset");
    vec![
        ("line4-drop2", line_collect(4, &[2], 2, false)),
        ("line3-strict", line_collect(3, &[1], 2, true)),
        ("grid3x3", grid_collect(3, 3, 3000, false)),
        ("ring5", ring_hello(5)),
        (
            "line4-dup",
            failure_scenario(&Topology::line(4), "duplicate"),
        ),
        (
            "line4-reboot",
            failure_scenario(&Topology::line(4), "reboot"),
        ),
        (
            "grid2x2-drop",
            failure_scenario(&Topology::grid(2, 2), "drop"),
        ),
        ("oracle-tiny", oracle("tiny")),
        ("oracle-line3", oracle("line3")),
        ("oracle-grid", oracle("grid")),
    ]
}

/// Canonical, symbol-id-free fingerprint of what a run explored and
/// found. Two runs with this value equal covered the same behavior.
#[derive(Debug, PartialEq, Eq)]
struct Canonical {
    paths: Vec<(NodeId, Vec<u64>)>,
    dscenarios: BTreeSet<Vec<(u16, u64)>>,
    bugs: BTreeSet<(u16, String, String, String)>,
    total_states: usize,
    live_states: usize,
    events: u64,
    packets: u64,
    groups: usize,
    aborted: bool,
}

/// Runs `scenario` under `alg`, captures the canonical fingerprint from
/// the live engine, then consumes it into the report.
fn run_one(scenario: &Scenario, alg: Algorithm, dedup: bool) -> (Canonical, RunReport) {
    let mut engine = Engine::new(scenario.clone(), alg).with_dedup(dedup);
    engine.run_in_place();
    finish(engine)
}

/// Canonicalizes a finished engine and consumes it into its report.
fn finish(engine: Engine) -> (Canonical, RunReport) {
    let paths = path_sets(&engine);
    let dscenarios = dscenario_fingerprints(&engine);
    let report = engine.into_report();
    let canonical = Canonical {
        paths,
        dscenarios,
        bugs: report
            .bugs
            .iter()
            .map(|b| {
                (
                    b.node.0,
                    b.report.kind.to_string(),
                    b.report.loc.to_string(),
                    b.report.message.to_string(),
                )
            })
            .collect(),
        total_states: report.total_states,
        live_states: report.live_states,
        events: report.events,
        packets: report.packets,
        groups: report.groups,
        aborted: report.aborted,
    };
    (canonical, report)
}

#[test]
fn dedup_preserves_canonical_outputs_across_algorithms() {
    for (label, scenario) in &scenarios() {
        for alg in Algorithm::ALL {
            let (off_canon, off_report) = run_one(scenario, alg, false);
            let (on_canon, on_report) = run_one(scenario, alg, true);

            assert_eq!(
                off_report.dedup,
                DedupStats::default(),
                "[{label}] {alg}: dedup-off run must report zero dedup work"
            );
            assert_eq!(
                on_canon, off_canon,
                "[{label}] {alg}: dedup changed what the run explored"
            );
            // The pruning payoff: dedup never executes *more* states or
            // instructions, and every confirmed replay pruned at least its
            // dispatched state.
            assert!(
                on_report.states_executed <= off_report.states_executed,
                "[{label}] {alg}: dedup executed {} states, plain run {}",
                on_report.states_executed,
                off_report.states_executed
            );
            assert!(
                on_report.instructions <= off_report.instructions,
                "[{label}] {alg}: dedup executed {} instructions, plain run {}",
                on_report.instructions,
                off_report.instructions
            );
            assert!(
                on_report.dedup.pruned_states >= on_report.dedup.confirmed,
                "[{label}] {alg}: {} confirmed replays pruned only {} states",
                on_report.dedup.confirmed,
                on_report.dedup.pruned_states
            );
            assert_eq!(
                on_report.dedup.candidates,
                on_report.dedup.confirmed + on_report.dedup.collisions,
                "[{label}] {alg}: every candidate either confirms or collides"
            );
        }
    }
}

#[test]
fn dedup_prunes_duplicate_heavy_cob_runs() {
    // COB floods the engine with mapper-forked duplicate states (§III-A);
    // their dispatches are congruent, so dedup must land confirmed
    // replays and a measurable execution reduction.
    let scenario = grid_collect(3, 3, 3000, false);
    let (_, off) = run_one(&scenario, Algorithm::Cob, false);
    let (_, on) = run_one(&scenario, Algorithm::Cob, true);
    assert!(
        on.dedup.confirmed > 0,
        "COB grid must produce congruent duplicate dispatches: {}",
        on.dedup.summary()
    );
    assert!(
        on.dedup.pruned_states > 0 && on.dedup.saved_instructions > 0,
        "confirmed replays must bank pruned states and instructions: {}",
        on.dedup.summary()
    );
    assert!(
        on.states_executed < off.states_executed,
        "dedup must execute strictly fewer states on a duplicate-heavy \
         workload ({} vs {})",
        on.states_executed,
        off.states_executed
    );
    assert_eq!(
        on.total_states, off.total_states,
        "pruning execution must not change the explored state count"
    );
}

#[test]
fn testgen_output_is_identical_with_dedup() {
    // Replayed duplicates must still explode into the same dscenarios
    // and solve to the same concrete test cases: same nodes, same state
    // ids (replay mints ids in recorded order), same input assignments.
    for (label, scenario) in [
        ("line4-drop2", line_collect(4, &[2], 2, false)),
        (
            "grid2x2-drop",
            failure_scenario(&Topology::grid(2, 2), "drop"),
        ),
    ] {
        for alg in Algorithm::ALL {
            let mut off = Engine::new(scenario.clone(), alg);
            off.run_in_place();
            let mut on = Engine::new(scenario.clone(), alg).with_dedup(true);
            on.run_in_place();
            let off_gen = sde_core::testgen::generate(&off, 64);
            let on_gen = sde_core::testgen::generate(&on, 64);
            assert_eq!(
                off_gen.dscenarios_seen, on_gen.dscenarios_seen,
                "[{label}] {alg}: dscenario enumeration changed under dedup"
            );
            assert_eq!(
                off_gen.unsolvable, on_gen.unsolvable,
                "[{label}] {alg}: solvability changed under dedup"
            );
            // Dscenario iteration order can differ between the runs (it
            // follows expression identity), so compare the case *sets*.
            type CaseKey = Vec<(u16, u64, Vec<(String, u64)>)>;
            let strip = |r: &sde_core::testgen::TestGenReport| -> BTreeSet<CaseKey> {
                r.cases
                    .iter()
                    .map(|c| {
                        c.nodes
                            .iter()
                            .map(|n| (n.node.0, n.state.0, n.inputs.clone()))
                            .collect()
                    })
                    .collect()
            };
            assert_eq!(
                strip(&off_gen),
                strip(&on_gen),
                "[{label}] {alg}: generated test cases diverged under dedup"
            );
        }
    }
}

#[test]
fn checkpointed_dedup_run_matches_straight_runs() {
    // A dedup run paused, serialized, and resumed restarts with a cold
    // memo index — it may execute more states than the uninterrupted
    // run, but everything canonical must be identical to both the
    // straight dedup run and the plain run.
    for (label, scenario) in [
        ("line4-drop2", line_collect(4, &[1, 2], 2, false)),
        ("grid3x3", grid_collect(3, 3, 3000, false)),
    ] {
        for alg in Algorithm::ALL {
            let (plain, _) = run_one(&scenario, alg, false);
            let (straight, straight_report) = run_one(&scenario, alg, true);
            assert_eq!(straight, plain, "[{label}] {alg}: straight dedup diverged");

            let mut engine = Engine::new(scenario.clone(), alg).with_dedup(true);
            let mut pauses = 0usize;
            while engine.run_until(Budget::events(7)) != RunOutcome::Complete {
                let snap = if pauses < 3 {
                    let bytes = engine.snapshot().to_bytes();
                    EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode")
                } else {
                    engine.snapshot()
                };
                engine = Engine::resume(scenario.clone(), &snap).expect("snapshot must resume");
                assert!(
                    engine.dedup_enabled(),
                    "[{label}] {alg}: resume dropped the dedup flag"
                );
                pauses += 1;
            }
            assert!(pauses > 0, "[{label}] {alg}: run too small to pause");
            let (interrupted, interrupted_report) = finish(engine);
            assert_eq!(
                interrupted, straight,
                "[{label}] {alg}: interrupted dedup run diverged after {pauses} pauses"
            );
            // Cold index ⇒ at least as much execution as uninterrupted.
            assert!(
                interrupted_report.states_executed >= straight_report.states_executed,
                "[{label}] {alg}: resumed run cannot execute fewer states \
                 ({} vs {})",
                interrupted_report.states_executed,
                straight_report.states_executed
            );
        }
    }
}

#[test]
fn preset_replay_keeps_dedup_inert() {
    // The conformance oracle replays concrete presets through the
    // non-forking path and compares exact outcomes; memoized replay is
    // forced off there even when the engine has dedup enabled.
    let scenario = line_collect(4, &[2], 2, false);
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_in_place();
    let cases = sde_core::testgen::generate(&engine, 4);
    assert!(!cases.cases.is_empty(), "need at least one test case");
    for case in &cases.cases {
        let preset = sde::vm::Preset::from_model(&case.model, engine.symbols());
        let replay = Engine::new(scenario.clone(), Algorithm::Sds)
            .with_preset(preset)
            .with_dedup(true)
            .run();
        assert_eq!(
            replay.dedup,
            DedupStats::default(),
            "preset replay must never consult the memo index: {}",
            replay.dedup.summary()
        );
        assert_eq!(replay.total_states, scenario.node_count());
    }
}

#[test]
fn parallel_dedup_matches_serial_dedup() {
    // The sharded engine adopts worker recordings *into* the memo index
    // under the merge-computed key, so its commit-path dedup stats (and
    // executed-state marks) must match the serial run exactly.
    for (label, scenario) in [
        ("line4-drop2", line_collect(4, &[1, 2], 2, false)),
        ("grid3x3", grid_collect(3, 3, 3000, false)),
    ] {
        for alg in Algorithm::ALL {
            let (serial, serial_report) = run_one(&scenario, alg, true);
            for workers in [2usize, 4] {
                let mut engine = Engine::new(scenario.clone(), alg).with_dedup(true);
                engine.run_until_sharded(workers, Budget::unlimited());
                let (sharded, sharded_report) = finish(engine);
                assert_eq!(
                    sharded, serial,
                    "[{label}] {alg} w={workers}: sharded dedup diverged"
                );
                assert_eq!(
                    sharded_report.dedup, serial_report.dedup,
                    "[{label}] {alg} w={workers}: commit-path dedup stats must \
                     match the serial run"
                );
                assert_eq!(
                    sharded_report.states_executed, serial_report.states_executed,
                    "[{label}] {alg} w={workers}: authoritative execution set \
                     must match the serial run"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property: the incremental digest is a sound index for structural
// equality. `dedup_eq` compares terms with their symbol ids, as the
// digest hashes them, plus fields the digest leaves out (branch trace,
// occurrence counters), so the testable direction is: equal digests imply
// structural equality — a failure would be a real hash collision,
// exactly what `MemoEntry::congruent` exists to absorb, but worth
// knowing about on these deterministic workloads. The incremental
// accumulator must also always agree with the from-scratch rescan.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RandomScenario {
    topology_kind: u8,
    k: u16,
    drop_mask: u64,
    packets: u16,
}

fn random_scenarios() -> impl Strategy<Value = RandomScenario> {
    (0u8..4, 3u16..6, any::<u64>(), 1u16..3).prop_map(|(topology_kind, k, drop_mask, packets)| {
        RandomScenario {
            topology_kind,
            k,
            drop_mask,
            packets,
        }
    })
}

fn build(rs: &RandomScenario) -> Scenario {
    let topology = match rs.topology_kind {
        0 => Topology::line(rs.k),
        1 => Topology::ring(rs.k),
        2 => Topology::grid(2, rs.k.div_ceil(2)),
        _ => Topology::full_mesh(rs.k.min(4)),
    };
    let k = topology.len() as u16;
    let source = NodeId(k - 1);
    let cfg = CollectConfig {
        source,
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: rs.packets,
        strict_sink: false,
    };
    let drops: Vec<NodeId> = (0..k)
        .filter(|i| *i != source.0 && rs.drop_mask & (1 << (i % 64)) != 0)
        .map(NodeId)
        .collect();
    let failures = FailureConfig::new().with_drops(drops, 1);
    let programs = collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(1000 * u64::from(rs.packets) + 2000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn digests_are_collision_free_and_incrementally_coherent(rs in random_scenarios()) {
        let scenario = build(&rs);
        // COB maximizes duplicates, so the quadratic scan below actually
        // sees digest-equal pairs.
        let mut engine = Engine::new(scenario.clone(), Algorithm::Cob);
        engine.run_in_place();
        prop_assume!(engine.states().count() < scenario.state_cap);
        let states: Vec<_> = engine.states().collect();
        let mut digest_equal_pairs = 0usize;
        for (i, a) in states.iter().enumerate() {
            prop_assert_eq!(
                a.vm.config_digest(),
                a.vm.config_digest_reference(),
                "state {}: incremental digest drifted from the rescan ({:?})",
                a.id, rs
            );
            for b in &states[i + 1..] {
                if a.node != b.node || a.vm.config_digest() != b.vm.config_digest() {
                    continue;
                }
                digest_equal_pairs += 1;
                prop_assert!(
                    a.vm.dedup_eq(&b.vm),
                    "digest collision between {} and {} on {} ({:?})",
                    a.id, b.id, a.node, rs
                );
            }
        }
        // COB duplicates make the check non-vacuous on most draws; don't
        // require it (tiny topologies can dodge duplication), just make
        // sure the sweep ran over real states.
        prop_assert!(!states.is_empty());
        let _ = digest_equal_pairs;
    }

    /// The node count a path condition carries (what `approx_bytes`
    /// reads) against a walk over its constraints — on every state of a
    /// run, and again after the snapshot codec rebuilt the conditions
    /// through `PathCondition::from_parts`.
    #[test]
    fn path_node_counts_are_incrementally_coherent(rs in random_scenarios()) {
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
    fn dedup_is_canonically_invisible_on_random_scenarios(rs in random_scenarios()) {
        let scenario = build(&rs);
        let (off, off_report) = run_one(&scenario, Algorithm::Cob, false);
        prop_assume!(!off.aborted);
        let (on, on_report) = run_one(&scenario, Algorithm::Cob, true);
        prop_assert_eq!(&on, &off, "{:?}", rs);
        prop_assert!(
            on_report.states_executed <= off_report.states_executed,
            "dedup executed more states on {:?}", rs
        );
    }
}
