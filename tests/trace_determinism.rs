//! Trace determinism: the deterministic JSONL export of a run is
//! byte-identical across repeated runs and — for the sharded engine —
//! equal to the serial trace at every worker count (a traced sharded run
//! offloads nothing: the merge thread is the only emitter of events).
//! Both are traced columns of the strategy matrix
//! (`tests/common/matrix.rs`) over seeded rows.
//!
//! Also pins the per-algorithm mapping signature the trace exposes: COB
//! forks peers on a local branch (`MapBranch.forked` non-empty), COW and
//! SDS fork only on transmission (`MapSend.forked`).

mod common;

use common::line_collect;
use common::matrix::{check, seeded_rows, trace_events, Column, SERIAL};
use sde::prelude::*;

#[test]
fn sequential_traces_are_reproducible() {
    check(&seeded_rows(0x7ace, 4), &Algorithm::ALL, &[SERIAL.traced()]);
}

#[test]
fn parallel_traces_are_identical_across_worker_counts() {
    let columns = [2, 4].map(|w| Column::sharded(w).traced());
    check(&seeded_rows(0xd00d, 4), &Algorithm::ALL, &columns);
}

/// The one-worker column of the same rows: a test of its own, so cargo
/// runs it beside the other two on a second thread.
#[test]
fn one_worker_traces_are_the_serial_traces() {
    let column = Column::sharded(1).traced();
    check(&seeded_rows(0xd00d, 4), &Algorithm::ALL, &[column]);
}

/// The events of a serial run of a 3-node line with a symbolic drop in
/// the middle: every algorithm forks at the drop, and the mapping-decision
/// events show *where* each algorithm puts its consistency forks.
fn drop_trace(algorithm: Algorithm) -> Vec<TraceEvent> {
    trace_events(&line_collect(3, &[1], 2, false), algorithm)
}

#[test]
fn cob_forks_peers_on_branch() {
    let events = drop_trace(Algorithm::Cob);
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
        let events = drop_trace(alg);
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
