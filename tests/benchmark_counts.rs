//! The counts that identify four of the benchmark's workloads at seed 0
//! (`benchmark/src/workloads.rs`), built here through the library: a
//! change that moves one has changed what the run explores, whatever its
//! wall time says. Wall time and RSS are not pinned.

mod common;

use sde::prelude::*;
use sde_bench::{paper_scenario, symbolic_grid};

/// Runs with the benchmark's harness settings (sample period 512, cap
/// 10⁶) and its per-run checks: no abort, no bug, no unknown query, and
/// no duplicate state under SDS.
fn run(scenario: Scenario, algorithm: Algorithm) -> RunReport {
    let scenario = scenario.with_sample_every(512).with_state_cap(1_000_000);
    let r = Engine::new(scenario, algorithm).run();
    assert!(!r.aborted && r.bugs.is_empty() && r.solver.unknown == 0);
    assert!(algorithm != Algorithm::Sds || r.duplicate_states == 0);
    r
}

/// `collect8_sds`: the mapper does the same work in the same order.
/// Every table the mappers and the store key by a dense id is a flat
/// vector (DESIGN.md §2 / §3): that changes what a virtual state costs,
/// never which ones exist.
#[test]
fn collect8_sds_mapper_counts() {
    let r = run(paper_scenario(8).with_duration_ms(6_000), Algorithm::Sds);
    let m = &r.mapper;
    assert_eq!((m.virtual_forks, m.mapper_forks), (178_983, 13_648));
    assert_eq!(
        (m.sends_mapped, r.groups, r.events),
        (22_715, 2_380, 29_171)
    );
}

/// `collect7_cow`: `peak_bytes` is the peak of Σ `approx_bytes`, the
/// paper-substitute RAM model (DESIGN.md §1). Its constants are frozen
/// because the peak is in the equivalence key: a state's real layout
/// may shrink under it — also where forks share one copy-on-write core —
/// while the model does not move.
#[test]
fn collect7_cow_modelled_bytes_and_states() {
    let r = run(paper_scenario(7).with_duration_ms(7_000), Algorithm::Cow);
    assert_eq!((r.peak_bytes, r.total_states), (39_924_112, 87_914));
}

/// `flood10_sds`: symbolic drop decisions are the only inputs, so every
/// instruction computes on inline constants (DESIGN.md §2, `Value`) and
/// the solver sees no query.
#[test]
fn flood10_sds_never_reaches_the_solver() {
    let scenario = common::mesh_flood(10, 2).with_history_tracking(false);
    let r = run(scenario, Algorithm::Sds);
    assert_eq!((r.instructions, r.events), (2_253_295, 140_126));
    assert_eq!(r.solver.queries, 0);
}

/// `sense4_cob`: COB forks mint a fresh reading symbol per copied sender;
/// the exact cache keys modulo symbol renaming (DESIGN.md §6), so the run
/// searches 328 726 nodes (keyed by symbol it was 21 366 475).
#[test]
fn sense4_cob_search_and_modelled_bytes() {
    let r = run(symbolic_grid(4), Algorithm::Cob);
    let counts = (r.solver.nodes_visited, r.peak_bytes, r.total_states);
    assert_eq!(counts, (328_726, 47_120_384, 65_536));
}
