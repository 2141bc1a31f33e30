//! Test-case generation and concrete replay, end to end.
//!
//! The paper's §II-A promise: "symbolic execution automatically generates
//! concrete test cases for each explored execution path enabling
//! execution replay". These tests close the loop: solve a dscenario into
//! concrete inputs, replay the whole network with those inputs pinned,
//! and verify the replay is deterministic, unforked, and reproduces the
//! original observation (including distributed assertion failures).

mod common;

use common::line_collect;
use sde::prelude::*;
use sde_core::{testgen, Engine, HistoryEvent};
use sde_vm::{Preset, Status};

#[test]
fn every_test_case_replays_without_forking() {
    let scenario = line_collect(4, &[1, 2], 2, false);
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_in_place();
    let report = testgen::generate(&engine, 64);
    assert!(!report.truncated);
    assert_eq!(report.unsolvable, 0);
    assert!(
        report.cases.len() >= 4,
        "two drop decisions → at least 4 dscenarios"
    );

    for case in &report.cases {
        let preset = Preset::from_model(&case.model, engine.symbols());
        let replay = Engine::new(scenario.clone(), Algorithm::Sds)
            .with_preset(preset)
            .run();
        assert_eq!(
            replay.total_states,
            scenario.node_count(),
            "case {}: concrete replay must not fork",
            case.id
        );
        assert_eq!(replay.duplicate_states, 0);
    }
}

#[test]
fn distributed_bug_witness_replays_the_bug() {
    let scenario = line_collect(4, &[1, 2], 3, true);
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_in_place();

    let bug_states: Vec<_> = engine
        .states()
        .filter(|s| matches!(s.vm.status(), sde::vm::Status::Bugged(_)))
        .map(|s| s.id)
        .collect();
    assert!(!bug_states.is_empty(), "strict sink must fail under drops");

    let preset = testgen::preset_for(&engine, bug_states[0])
        .expect("bug state belongs to a feasible dscenario");
    assert!(
        !preset.is_empty(),
        "witness pins at least one drop decision"
    );

    let replay = Engine::new(scenario.clone(), Algorithm::Sds)
        .with_preset(preset)
        .run();
    assert!(
        replay.bugs.iter().any(|b| b.node == NodeId(0)),
        "replay must reproduce the sink assertion failure"
    );
    assert_eq!(replay.total_states, scenario.node_count());
}

#[test]
fn witnesses_work_from_every_algorithm() {
    let scenario = line_collect(3, &[1], 2, true);
    for alg in Algorithm::ALL {
        let mut engine = Engine::new(scenario.clone(), alg);
        engine.run_in_place();
        let bug = engine
            .states()
            .find(|s| matches!(s.vm.status(), sde::vm::Status::Bugged(_)))
            .map(|s| s.id)
            .expect("bug found");
        let preset = testgen::preset_for(&engine, bug).expect("witness");
        let replay = Engine::new(scenario.clone(), alg).with_preset(preset).run();
        assert!(!replay.bugs.is_empty(), "{alg}: bug must replay");
    }
}

#[test]
fn empty_preset_is_the_failure_free_run() {
    // All failure inputs default to 0 (no drop) → the sink receives
    // everything in order and nothing fails, even with the strict sink.
    let scenario = line_collect(4, &[1, 2], 3, true);
    let replay = Engine::new(scenario.clone(), Algorithm::Sds)
        .with_preset(Preset::new())
        .run();
    assert!(replay.bugs.is_empty());
    assert_eq!(replay.total_states, 4);
}

#[test]
fn replayed_sink_counters_match_the_model() {
    // Pick the dscenario where node 1 dropped (so the sink misses one
    // packet) and check the replayed sink's RECEIVED counter.
    let scenario = line_collect(3, &[1], 2, false);
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_in_place();
    let cases = testgen::generate(&engine, 16);
    for case in &cases.cases {
        let dropped: u64 = case
            .nodes
            .iter()
            .flat_map(|n| n.inputs.iter())
            .filter(|(name, v)| name == "drop" && *v == 1)
            .count() as u64;
        let preset = Preset::from_model(&case.model, engine.symbols());
        let mut replay_engine = Engine::new(scenario.clone(), Algorithm::Sds).with_preset(preset);
        replay_engine.run_in_place();
        let sink = replay_engine
            .states()
            .find(|s| s.node == NodeId(0))
            .expect("sink state");
        let received = sink
            .vm
            .memory_byte(sde::os::layout::RECEIVED)
            .as_const()
            .expect("concrete run");
        assert_eq!(
            received,
            2 - dropped,
            "case {}: sink received {} with {} drops",
            case.id,
            received,
            dropped
        );
    }
}

#[test]
fn strict_replay_flags_unkeyed_failure_decisions() {
    // An empty strict preset cannot answer the engine-level drop
    // decision: the replay must report it as an UnkeyedInput bug instead
    // of silently assuming "no drop" (which is exactly what the *lenient*
    // empty preset is for — see `empty_preset_is_the_failure_free_run`).
    let scenario = line_collect(3, &[0, 1], 1, false);
    let report = Engine::new(scenario.clone(), Algorithm::Cob)
        .with_preset(Preset::new().with_strict())
        .run();
    assert!(
        report
            .bugs
            .iter()
            .any(|b| matches!(b.report.kind, sde::vm::BugKind::UnkeyedInput)),
        "strict replay with no pinned drop decision must flag UnkeyedInput, got {:?}",
        report.bugs
    );

    // A complete assignment (drawn from a real dscenario model) replays
    // strictly with no bug and no forks: strict mode only fires on
    // genuinely unkeyed inputs.
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_in_place();
    let cases = testgen::generate(&engine, 64);
    let complete = cases.cases.iter().find(|c| {
        // Only models that constrain every failure decision replay
        // strictly without misses; dscenarios that never reached a
        // decision leave it unconstrained.
        c.model.len() == engine.symbols().len()
    });
    if let Some(case) = complete {
        let preset = Preset::from_model(&case.model, engine.symbols()).with_strict();
        let replay = Engine::new(scenario.clone(), Algorithm::Cob)
            .with_preset(preset)
            .run();
        assert!(
            replay.bugs.is_empty(),
            "a complete strict assignment must replay bug-free: {:?}",
            replay.bugs
        );
        assert_eq!(replay.total_states, scenario.node_count());
    }
}

#[test]
fn strict_replay_flags_unkeyed_program_inputs() {
    // Same contract one layer down: a `make_symbolic` the preset does not
    // pin is a bug under strict replay (and a silent 0 under lenient).
    use sde::os::apps::sense::{self, SenseConfig};
    let topology = Topology::line(2);
    let cfg = SenseConfig {
        source: NodeId(1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 1,
        max_reading: 7,
        levels: 1,
        parity_guard: false,
    };
    let programs = sense::programs(&topology, &cfg);
    let scenario = Scenario::new(topology, programs).with_duration_ms(3000);

    let strict = Engine::new(scenario.clone(), Algorithm::Cob)
        .with_preset(Preset::new().with_strict())
        .run();
    let unkeyed: Vec<_> = strict
        .bugs
        .iter()
        .filter(|b| matches!(b.report.kind, sde::vm::BugKind::UnkeyedInput))
        .collect();
    assert!(
        !unkeyed.is_empty(),
        "strict replay must flag the unpinned `reading`: {:?}",
        strict.bugs
    );
    assert!(
        unkeyed.iter().all(|b| b.node == NodeId(1)),
        "only the source mints `reading`: {unkeyed:?}"
    );

    let lenient = Engine::new(scenario, Algorithm::Cob)
        .with_preset(Preset::new())
        .run();
    assert!(
        lenient.bugs.is_empty(),
        "the lenient empty preset still replays as reading = 0: {:?}",
        lenient.bugs
    );
}

/// A history's shape, oldest first: direction and peer of every entry.
/// Packet ids are left out: they are minted in global order, so they
/// differ between a run and a faithful replay of one of its paths.
fn history_shape(state: &SdeState) -> Vec<(&'static str, u16)> {
    let mut shape: Vec<_> = (state.history.log().expect("histories are tracked"))
        .map(|event| match event {
            HistoryEvent::Sent { peer, .. } => ("sent", peer.0),
            HistoryEvent::Received { peer, .. } => ("received", peer.0),
        })
        .collect();
    shape.reverse();
    shape
}

/// The terminal status, with a bug compared by its kind.
fn status_class(state: &SdeState) -> String {
    match state.vm.status() {
        Status::Bugged(report) => format!("bugged: {:?}", report.kind),
        other => format!("{other:?}"),
    }
}

/// Line-3 collect of two packets with a duplication decision on the
/// forwarder, alone and beside a reboot or a crash decision on it.
fn duplication_scenarios() -> Vec<(&'static str, Scenario)> {
    let base = line_collect(3, &[], 2, false);
    let relay = [NodeId(1)];
    let dup = FailureConfig::new().with_duplicates(relay, 1);
    let crash = |failures: FailureConfig| {
        let (base, size) = (sde::os::layout::PERSIST_BASE, sde::os::layout::PERSIST_SIZE);
        failures.with_crash_recovery(relay, 1, base, size)
    };
    vec![
        ("duplicate", base.clone().with_failures(dup.clone())),
        (
            "duplicate+reboot",
            base.clone()
                .with_failures(dup.clone().with_reboots(relay, 1)),
        ),
        ("duplicate+crashrec", base.with_failures(crash(dup))),
    ]
}

/// A preset replays the path the symbolic run explored. The duplicated
/// branch of a symbolic run receives the packet twice and makes no later
/// decision about it; a replay that duplicated and then went on to
/// reboot on the same packet ends on a history no explored state has.
#[test]
fn every_state_replays_to_the_path_it_was_explored_on_under_duplication() {
    for (label, scenario) in duplication_scenarios() {
        for alg in Algorithm::ALL {
            let mut engine = Engine::new(scenario.clone(), alg);
            engine.run_in_place();
            for explored in engine.states() {
                let preset = testgen::preset_for(&engine, explored.id)
                    .unwrap_or_else(|| panic!("{label} {alg}: {} has no witness", explored.id));
                let mut replay = Engine::new(scenario.clone(), alg).with_preset(preset);
                replay.run_in_place();
                let replayed = (replay.states())
                    .find(|s| s.node == explored.node)
                    .expect("a replay keeps one state per node");
                assert_eq!(
                    (status_class(replayed), history_shape(replayed)),
                    (status_class(explored), history_shape(explored)),
                    "{label} {alg}: the replay of {} on {} left its path",
                    explored.id,
                    explored.node
                );
            }
        }
    }
}
