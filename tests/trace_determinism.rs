//! Trace determinism: the deterministic JSONL export of a run is
//! byte-identical across repeated runs and — for the sharded engine —
//! equal to the serial trace at every worker count (a traced sharded run
//! offloads nothing: the merge thread is the only emitter of events).
//!
//! Also pins the per-algorithm mapping signature the trace exposes: COB
//! forks peers on a local branch (`MapBranch.forked` non-empty), COW and
//! SDS fork only on transmission (`MapSend.forked`).

#[path = "common/line.rs"]
mod line;
#[path = "common/seeded.rs"]
mod seeded;

use sde::prelude::*;
use sde::trace::{to_jsonl, RingSink, TraceEvent, TraceSink};
use seeded::scenario_from_seed;
use std::sync::Arc;

/// Runs `scenario` with a recorder attached (sequentially when `workers`
/// is `None`) and returns the deterministic JSONL rendering.
fn traced_jsonl(scenario: &Scenario, algorithm: Algorithm, workers: Option<usize>) -> String {
    let sink = Arc::new(RingSink::default());
    let engine = Engine::new(scenario.clone(), algorithm)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    match workers {
        None => engine.run(),
        Some(w) => engine.run_sharded(w),
    };
    assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
    to_jsonl(&sink.take(), true)
}

/// Like [`traced_jsonl`] but also returns the parsed events.
fn traced_events(scenario: &Scenario, algorithm: Algorithm) -> Vec<TraceEvent> {
    let sink = Arc::new(RingSink::default());
    Engine::new(scenario.clone(), algorithm)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .run();
    sink.take().into_iter().map(|te| te.ev).collect()
}

#[test]
fn sequential_traces_are_reproducible() {
    for i in 0..4u64 {
        let seed = 0x7ace ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (label, scenario) = scenario_from_seed(seed);
        for alg in Algorithm::ALL {
            let first = traced_jsonl(&scenario, alg, None);
            let second = traced_jsonl(&scenario, alg, None);
            assert!(!first.is_empty(), "[{label}] {alg} produced an empty trace");
            assert_eq!(
                first, second,
                "[{label}] {alg} sequential trace not reproducible"
            );
        }
    }
}

#[test]
fn parallel_traces_are_identical_across_worker_counts() {
    for i in 0..4u64 {
        let seed = 0xd00d ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (label, scenario) = scenario_from_seed(seed);
        for alg in Algorithm::ALL {
            let serial = traced_jsonl(&scenario, alg, None);
            for workers in [1usize, 2, 4] {
                assert_eq!(
                    serial,
                    traced_jsonl(&scenario, alg, Some(workers)),
                    "[{label}] {alg} sharded trace diverged from serial at {workers} workers"
                );
            }
        }
    }
}

/// A line with a symbolic drop in the middle: every algorithm forks at
/// the drop, and the mapping-decision events show *where* each algorithm
/// puts its consistency forks.
fn drop_scenario() -> Scenario {
    line::line_collect(3, &[1], 2, false)
}

#[test]
fn cob_forks_peers_on_branch() {
    let events = traced_events(&drop_scenario(), Algorithm::Cob);
    let map_branches: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::MapBranch { .. }))
        .collect();
    assert!(!map_branches.is_empty(), "COB run must branch at the drop");
    // COB clones every peer on every branch: with 3 nodes, each branch
    // forks the 2 other nodes' states.
    assert!(
        map_branches
            .iter()
            .all(|e| matches!(e, TraceEvent::MapBranch { forked, .. } if forked.len() == 2)),
        "COB must fork both peers on every branch: {map_branches:?}"
    );
    // ... and never on transmission.
    assert!(
        events
            .iter()
            .all(|e| !matches!(e, TraceEvent::MapSend { forked, .. } if !forked.is_empty())),
        "COB must not fork on sends"
    );
}

#[test]
fn cow_and_sds_fork_only_on_transmission() {
    for alg in [Algorithm::Cow, Algorithm::Sds] {
        let events = traced_events(&drop_scenario(), alg);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::MapBranch { .. })),
            "{alg}: the drop must reach the mapper as a branch"
        );
        assert!(
            events
                .iter()
                .all(|e| !matches!(e, TraceEvent::MapBranch { forked, .. } if !forked.is_empty())),
            "{alg} must not fork peers on a branch"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::MapSend { forked, .. } if !forked.is_empty())),
            "{alg} must fork on some conflicting transmission"
        );
    }
}
