//! Interrupted-vs-straight differential tests for the checkpoint/resume
//! engine: a run that is paused every K events, snapshotted, serialized
//! to bytes, deserialized, and resumed — possibly many times — must be
//! indistinguishable from a run that was never interrupted. "Indistinguishable"
//! means the [`RunReport::equivalence_key`] matches *and* the
//! deterministic trace JSONL is byte-identical, for every algorithm,
//! worker count, and pause cadence.
//!
//! The sharded engine only pauses at the serial-merge barrier between
//! virtual-timestamp batches, so `K = 1` there means "pause after every
//! batch", not after every event.

#[path = "common/grid.rs"]
mod grid;
#[path = "common/line.rs"]
mod line;
#[path = "common/ring.rs"]
mod ring;

use grid::grid_collect;
use line::line_collect;
use ring::ring_hello;
use sde::core::MapperSnapshot;
use sde::os::apps::sense;
use sde::prelude::*;
use sde::trace::{to_jsonl, RingSink, TraceSink};
use std::sync::Arc;

/// Pause cadences: after every event, every few events, and a budget
/// large enough that most segments span a big chunk of the run.
const CADENCES: [u64; 3] = [1, 7, 997];

/// The three seed topologies of the matrix: a line with two symbolic
/// drops, the paper's grid with drops on the route, and a failure-free
/// ring (pure communication, no forking at delivery).
fn topologies() -> Vec<(&'static str, Scenario)> {
    vec![
        ("line4", line_collect(4, &[1, 2], 2, false)),
        ("grid3x3", grid_collect(3, 3, 3000, false)),
        ("ring5", ring_hello(5)),
    ]
}

/// Drives `engine` to completion under `budget`-sized segments,
/// performing a full snapshot→serialize→deserialize→resume round trip at
/// every pause (direct snapshot→resume after the first few, to keep the
/// quadratic-in-pauses byte shuffling bounded). Returns the number of
/// pauses taken and the finished engine.
fn run_interrupted(
    scenario: &Scenario,
    algorithm: Algorithm,
    workers: Option<usize>,
    every: u64,
    sink: Option<&Arc<RingSink>>,
) -> (usize, Engine) {
    let mut engine = Engine::new(scenario.clone(), algorithm);
    if let Some(sink) = sink {
        engine = engine.with_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>);
    }
    let mut pauses = 0usize;
    loop {
        let outcome = match workers {
            None => engine.run_until(Budget::events(every)),
            Some(w) => engine.run_until_sharded(w, Budget::events(every)),
        };
        if outcome == RunOutcome::Complete {
            return (pauses, engine);
        }
        let snap = if pauses < 3 {
            let bytes = engine.snapshot().to_bytes();
            EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode")
        } else {
            engine.snapshot()
        };
        engine = Engine::resume(scenario.clone(), &snap).expect("snapshot must resume");
        if let Some(sink) = sink {
            engine = engine.with_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>);
        }
        pauses += 1;
    }
}

#[test]
fn interrupted_serial_runs_match_straight_runs() {
    for (name, scenario) in topologies() {
        for algorithm in Algorithm::ALL {
            let straight = Engine::new(scenario.clone(), algorithm).run();
            for every in CADENCES {
                let (pauses, engine) = run_interrupted(&scenario, algorithm, None, every, None);
                if every == 1 {
                    assert!(pauses > 0, "[{name}] {algorithm}: run too small to pause");
                }
                assert_eq!(
                    engine.into_report().equivalence_key(),
                    straight.equivalence_key(),
                    "[{name}] {algorithm} serial run diverged when interrupted every {every}"
                );
            }
        }
    }
}

#[test]
fn interrupted_parallel_matrix_matches_straight_runs() {
    for (name, scenario) in topologies() {
        for algorithm in Algorithm::ALL {
            // The sequential, uninterrupted run is the baseline for the
            // whole worker matrix: sharded equivalence is already pinned
            // by `shard_equivalence.rs`, so comparing against the serial
            // key makes this a strictly stronger statement.
            let straight = Engine::new(scenario.clone(), algorithm).run();
            for workers in [1usize, 2, 4] {
                for every in CADENCES {
                    let (pauses, engine) =
                        run_interrupted(&scenario, algorithm, Some(workers), every, None);
                    if every == 1 {
                        assert!(
                            pauses > 0,
                            "[{name}] {algorithm} w={workers}: run too small to pause"
                        );
                    }
                    assert_eq!(
                        engine.into_report().equivalence_key(),
                        straight.equivalence_key(),
                        "[{name}] {algorithm} w={workers} diverged when interrupted every {every}"
                    );
                }
            }
        }
    }
}

/// Straight serial-run trace baseline, no interruption. A traced sharded
/// run is the serial run, so it is the baseline at every worker count too
/// (pinned by `trace_determinism.rs`).
fn straight_jsonl(scenario: &Scenario, algorithm: Algorithm) -> String {
    let sink = Arc::new(RingSink::default());
    Engine::new(scenario.clone(), algorithm)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .run();
    assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
    to_jsonl(&sink.take(), true)
}

#[test]
fn interrupted_traces_are_byte_identical_to_straight_traces() {
    for (name, scenario) in topologies() {
        for algorithm in Algorithm::ALL {
            let baseline = straight_jsonl(&scenario, algorithm);
            assert!(
                !baseline.is_empty(),
                "[{name}] {algorithm} produced an empty trace"
            );

            // Serial, paused after every event and every 7 events: the
            // same shared sink stays attached across all segments, so the
            // concatenated stream must equal the uninterrupted one.
            for every in [1u64, 7] {
                let sink = Arc::new(RingSink::default());
                let (pauses, _) = run_interrupted(&scenario, algorithm, None, every, Some(&sink));
                assert!(pauses > 0, "[{name}] {algorithm}: run too small to pause");
                assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
                assert_eq!(
                    to_jsonl(&sink.take(), true),
                    baseline,
                    "[{name}] {algorithm} serial trace diverged when interrupted every {every}"
                );
            }

            // Sharded at every worker count, paused at batch barriers.
            for workers in [1usize, 2, 4] {
                let sink = Arc::new(RingSink::default());
                run_interrupted(&scenario, algorithm, Some(workers), 7, Some(&sink));
                assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
                assert_eq!(
                    to_jsonl(&sink.take(), true),
                    baseline,
                    "[{name}] {algorithm} w={workers} trace diverged across interruption"
                );
            }
        }
    }
}

const SDS_GRID4_PAUSE_EVENTS: u64 = 600;
/// FNV-1a of the `{:?}` form of the `MapperSnapshot::Sds` exported at that
/// pause point, captured at the commit before `sds.rs` moved to owner
/// slots: the rewritten mapper must still *write* exactly what the parent
/// wrote, so resuming its snapshot is resuming the parent's. (The full
/// snapshot bytes also carry solver timings and do not repeat.)
const SDS_GRID4_PARENT_MAPPER_DIGEST: u64 = 0xe029_ee4d_43e7_b7b6;

/// Collect 4×4 under SDS, paused where bystanders already own vstates in
/// several dstates (so the next sends fork targets with a *far* set): the
/// snapshot equals the one the previous mapper wrote, import → export is
/// the identity on `MapperSnapshot::Sds`, and the resumed run ends on the
/// straight run's key.
#[test]
fn sds_far_set_snapshot_is_parent_format_and_resumes() {
    let scenario = grid_collect(4, 4, 6000, false);
    let straight = Engine::new(scenario.clone(), Algorithm::Sds).run();

    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    assert_ne!(
        engine.run_until(Budget::events(SDS_GRID4_PAUSE_EVENTS)),
        RunOutcome::Complete,
        "pause point must be mid-run"
    );
    let exported = engine.mapper().export_snapshot();
    let MapperSnapshot::Sds { vstates, .. } = &exported else {
        panic!("SDS exports an SDS snapshot");
    };
    let mut per_owner = std::collections::BTreeMap::<u64, usize>::new();
    for (_, owner, ..) in vstates {
        *per_owner.entry(*owner).or_default() += 1;
    }
    assert!(
        per_owner.values().filter(|n| **n >= 4).count() >= 4,
        "pause point must have fat super-dstates"
    );

    let mut fresh = Algorithm::Sds.new_mapper();
    fresh.import_snapshot(exported.clone()).expect("import");
    assert_eq!(fresh.export_snapshot(), exported, "export ∘ import = id");
    assert_eq!(fresh.check_invariants(), None);

    let digest = format!("{exported:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        digest, SDS_GRID4_PARENT_MAPPER_DIGEST,
        "mapper snapshot differs from the parent commit's ({digest:#018x})"
    );
    let bytes = engine.snapshot().to_bytes();
    let snap = EngineSnapshot::from_bytes(&bytes).expect("decode");
    let resumed = Engine::resume(scenario, &snap).expect("resume");
    assert_eq!(
        resumed.run().equivalence_key(),
        straight.equivalence_key(),
        "resumed SDS run diverged from the straight run"
    );
}

/// Sense 3×3 under COB — every fork copies the source, and each copy mints
/// its own second reading — interrupted at the last event boundary before
/// any second reading exists. The solver cache at that point holds what the
/// first reading's classification solved, as canonical entries; after a
/// trip through the wire form the second readings must hit exactly those
/// entries, under their own symbols: a byte-identical trace (every query's
/// answering layer included) and the straight run's search-node count.
#[test]
fn sense_run_interrupted_between_readings_resumes_on_canonical_entries() {
    let topology = Topology::grid(3, 3);
    let cfg = SenseConfig::paper_grid(3, 3);
    let scenario = Scenario::new(topology.clone(), sense::programs(&topology, &cfg))
        .with_duration_ms(cfg.interval_ms * 4);
    let traced = |engine: Engine| {
        let sink = Arc::new(RingSink::default());
        (
            engine.with_trace_sink(sink.clone() as Arc<dyn TraceSink>),
            sink,
        )
    };
    let jsonl = |sink: &RingSink| {
        assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
        to_jsonl(&sink.take(), true)
    };

    let (straight, straight_sink) = traced(Engine::new(scenario.clone(), Algorithm::Cob));
    let straight = straight.run();
    let baseline = jsonl(&straight_sink);

    // Where the second reading is minted, in events.
    let mut probe = Engine::new(scenario.clone(), Algorithm::Cob);
    let mut events = 0u64;
    while probe.symbols().len() < 2 {
        assert_eq!(
            probe.run_until(Budget::events(1)),
            RunOutcome::Paused,
            "the run mints two readings"
        );
        events += 1;
    }

    let (mut engine, sink) = traced(Engine::new(scenario.clone(), Algorithm::Cob));
    assert_eq!(
        engine.run_until(Budget::events(events - 1)),
        RunOutcome::Paused
    );
    assert_eq!(engine.symbols().len(), 1, "paused between the readings");
    let cached = engine.solver().export_state().exact_entries();
    assert!(cached > 0, "the first reading populated the exact cache");
    let searched = engine.solver().stats().nodes_visited;
    assert!(searched >= 1 << 16, "… by sweeping for it");

    let snap = EngineSnapshot::from_bytes(&engine.snapshot().to_bytes()).expect("decode");
    let resumed = Engine::resume(scenario, &snap).expect("resume");
    assert_eq!(resumed.solver().export_state().exact_entries(), cached);
    let report = resumed
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .run();

    assert_eq!(jsonl(&sink), baseline, "resumed sense trace diverged");
    assert_eq!(report.equivalence_key(), straight.equivalence_key());
    assert_eq!(report.solver, straight.solver);
    assert!(
        report.solver.nodes_visited - searched < 1 << 16,
        "the second readings hit the first one's entries, so none of them sweeps: {:?}",
        report.solver
    );
}
