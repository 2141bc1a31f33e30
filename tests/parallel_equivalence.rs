//! The `--layers` column of the strategy matrix (`tests/common/matrix.rs`):
//! with the bench bins' `--layers off` applied to the engine's solver, a
//! sharded run must still be bit-identical to the serial run with the full
//! solver stack, at every worker count, for every algorithm, topology and
//! failure model. Each shard worker gets a solver configured like the
//! engine's (`Solver::fresh_like`), so these cells run the uncached
//! solving path on every thread, and no answer may come from a cache. Solver layers may only change solver
//! counters, which `RunReport::equivalence_key` deliberately excludes.

mod common;

use common::matrix::{check, failure_row, failure_rows, preset_rows, sense_line4};
use common::matrix::{Column, WORKERS};
use sde::prelude::*;
use sde_bench::SolverLayers;

/// The uncached solver at every worker count.
fn layered() -> Vec<Column> {
    WORKERS
        .map(|w| Column::sharded(w).layers(SolverLayers::Off))
        .into()
}

#[test]
fn drops_are_bit_identical_across_worker_counts() {
    check(&failure_rows("drop"), &Algorithm::ALL, &layered());
}

#[test]
fn duplicates_are_bit_identical_across_worker_counts() {
    check(&failure_rows("duplicate"), &Algorithm::ALL, &layered());
}

#[test]
fn reboots_are_bit_identical_across_worker_counts() {
    check(&failure_rows("reboot"), &Algorithm::ALL, &layered());
}

/// The data-forking sense workload: branch outcomes, fork order and state
/// ids all flow through solvers that, with `--layers off`, answer nothing
/// from a cache.
#[test]
fn sense_workload_is_bit_identical_across_worker_counts() {
    let columns = WORKERS.map(|w| Column::sharded(w).layers(SolverLayers::Off));
    check(&[sense_line4()], &Algorithm::ALL, &columns);
}

/// Replay presets skip offloading but still go through the sharded loop,
/// here in budgeted slices with every cache layer off.
#[test]
fn preset_replays_match_under_parallel_execution() {
    let rows = preset_rows(&failure_row("line4", Topology::line(4), "drop"), 4, 2);
    let column = Column::sharded(4).layers(SolverLayers::Off).sliced(5, None);
    check(&rows, &[Algorithm::Sds], &[column]);
}
