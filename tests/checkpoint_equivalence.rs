//! The interrupted columns of the strategy matrix
//! (`tests/common/matrix.rs`): a run paused every K events, snapshotted,
//! serialized to bytes, deserialized and resumed — possibly many times —
//! must be indistinguishable from a run that was never interrupted: the
//! same `RunReport::equivalence_key` and, traced, byte-identical JSONL,
//! for every algorithm, worker count and pause cadence. The sharded engine
//! pauses only between virtual-timestamp batches, so `K = 1` there means
//! "after every batch".
//!
//! Beside the matrix: the parent-format snapshot pins.

mod common;

use common::grid_collect;
use common::matrix::{check, checkpoint_rows, Column, SERIAL};
use sde::core::MapperSnapshot;
use sde::os::apps::sense;
use sde::prelude::*;
use sde::trace::{to_jsonl, RingSink, TraceSink};
use std::sync::Arc;

/// Pause cadences: after every event, every few events, and a budget
/// large enough that most segments span a big chunk of the run.
const CADENCES: [u64; 3] = [1, 7, 997];

#[test]
fn interrupted_serial_runs_match_straight_runs() {
    check(
        &checkpoint_rows(),
        &Algorithm::ALL,
        &CADENCES.map(|n| SERIAL.interrupted(n)),
    );
}

#[test]
fn interrupted_parallel_matrix_matches_straight_runs() {
    let columns = [1, 2, 4].map(|w| CADENCES.map(|n| Column::sharded(w).interrupted(n)));
    check(&checkpoint_rows(), &Algorithm::ALL, &columns.concat());
}

/// One sink stays attached across every segment, so the concatenated
/// stream must equal the uninterrupted serial trace.
#[test]
fn interrupted_traces_are_byte_identical_to_straight_traces() {
    let serial = [1, 7].map(|n| SERIAL.traced().interrupted(n));
    let sharded = [1, 2, 4].map(|w| Column::sharded(w).traced().interrupted(7));
    check(
        &checkpoint_rows(),
        &Algorithm::ALL,
        &[&serial[..], &sharded].concat(),
    );
}

const SDS_GRID4_PAUSE_EVENTS: u64 = 600;
/// FNV-1a of the `{:?}` form of the sorted `(owner, node, dstate)`
/// memberships of the `MapperSnapshot::Sds` exported at that pause point,
/// then its dstate count and counters. Virtual ids are left out: they only
/// number the memberships. Captured with this code at the commit before
/// dstates shared their columns: the rewritten mapper must still hold
/// exactly the memberships the parent held, so resuming its snapshot is
/// resuming the parent's. (The full snapshot bytes also carry solver
/// timings and do not repeat.)
const SDS_GRID4_PARENT_MAPPER_DIGEST: u64 = 0xb6eb_5181_e5f2_c20b;

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
    let MapperSnapshot::Sds {
        vstates,
        next_group,
        stats,
        ..
    } = &exported
    else {
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

    let mut memberships: Vec<(u64, u16, u64)> = (vstates.iter())
        .map(|(_, owner, node, dstate)| (*owner, *node, *dstate))
        .collect();
    memberships.sort_unstable();
    let digest = format!("{memberships:?} {next_group} {stats:?}")
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
