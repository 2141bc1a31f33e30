//! The sharded engine's columns of the strategy matrix
//! (`tests/common/matrix.rs`): `Engine::run_sharded` partitions the
//! frontier into disjoint subtrees by root-fork lineage and lets workers
//! execute them authoritatively, yet the deterministic merge must keep
//! the report bit-identical to the serial run — same state ids, packet
//! ids, instruction counts, series rows, bugs and final-state digest — at
//! every worker count, for every algorithm, topology and failure model,
//! traced (byte-identical JSONL), replaying a preset, interrupted, and
//! with other threads fighting for the cores.
//!
//! Beside the matrix: the payoff counters of a mint-free workload and the
//! benchmark's job count.

mod common;

use common::matrix::{check, failure_row, failure_rows, panics_within, preset_rows, sense_line4};
use common::matrix::{Column, WORKERS};
use sde::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn drops_are_bit_identical_across_worker_counts() {
    check(
        &failure_rows("drop"),
        &Algorithm::ALL,
        &WORKERS.map(Column::sharded),
    );
}

#[test]
fn duplicates_are_bit_identical_across_worker_counts() {
    let columns = WORKERS.map(Column::sharded);
    check(&failure_rows("duplicate"), &Algorithm::ALL, &columns);
}

#[test]
fn reboots_are_bit_identical_across_worker_counts() {
    check(
        &failure_rows("reboot"),
        &Algorithm::ALL,
        &WORKERS.map(Column::sharded),
    );
}

/// The solver-bound row; its `--layers` columns are `parallel_equivalence`'s.
#[test]
fn sense_workload_is_bit_identical_across_worker_counts() {
    let row = sense_line4();
    for alg in Algorithm::ALL {
        let base = common::matrix::baseline(&row, alg);
        assert!(
            base.report().solver.queries > 0,
            "sense must exercise the solver"
        );
    }
    check(&[row], &Algorithm::ALL, &WORKERS.map(Column::sharded));
}

/// Traced shard runs commit serially, so their JSONL is the serial trace.
#[test]
fn traced_shard_runs_emit_byte_identical_serial_jsonl() {
    let columns = [1, 2, 4].map(|w| Column::sharded(w).traced());
    check(&failure_rows("drop"), &Algorithm::ALL, &columns);
}

/// Replay presets skip offloading but still go through the sharded loop.
#[test]
fn preset_replays_match_under_sharded_execution() {
    let rows = preset_rows(&failure_row("line4", Topology::line(4), "drop"), 4, 2);
    check(&rows, &[Algorithm::Sds], &[Column::sharded(4)]);
}

/// Sharded segments interrupted by snapshot → bytes → resume land on the
/// serial run: the snapshot carries the shard lineage and the engine's
/// `sharded` flag.
#[test]
fn interrupted_sharded_runs_match_straight_serial_runs() {
    let columns = [2, 4].map(|w| Column::sharded(w).interrupted(7));
    check(&failure_rows("drop"), &Algorithm::ALL, &columns);
}

/// The contention column: 16 seeds of spinner threads competing with the
/// merge thread and one or two workers for every core.
#[test]
fn the_key_holds_under_core_contention() {
    let columns: Vec<Column> = (0..16)
        .map(|seed| Column::sharded(1 + seed as usize % 2).contended(seed))
        .collect();
    check(&[sense_line4()], &[Algorithm::Cob], &columns);
    let grid = failure_row("grid3x3", Topology::grid(3, 3), "drop");
    check(&[grid], &[Algorithm::Cob], &columns);
}

/// A panic anywhere in a sharded run is a panic of its caller, within a
/// watchdog timeout, however many workers are parked on the pool — and
/// with spinner threads fighting for the cores. The sink has no receive
/// handler, so the merge thread panics on the first packet that reaches
/// it (a shard worker leaves such a dispatch to the merge thread).
#[test]
fn a_panic_in_a_sharded_run_surfaces_instead_of_hanging() {
    let mut row = failure_row("grid3x3", Topology::grid(3, 3), "drop");
    let mut sink = ProgramBuilder::new();
    sink.function("on_boot", 0, |f| f.ret(None));
    row.scenario.programs[0] = Arc::new(sink.build().unwrap());
    row.label = "grid3x3-drop, sink without on_recv".into();
    let columns = [1, 2, 4].map(Column::sharded);
    for col in columns.iter().chain([&Column::sharded(2).contended(0)]) {
        panics_within(&row, Algorithm::Sds, col, Duration::from_secs(60));
    }
}

/// The payoff counters: on a mint-free workload the workers record real
/// dispatch effects and the merge adopts them instead of re-executing
/// (the run's key is the sense row's `sharded(4)` cell).
#[test]
fn shard_workers_do_authoritative_work() {
    let shard = Engine::new(sense_line4().scenario, Algorithm::Sds).run_sharded(4);
    let pstats = shard.parallel.as_ref().expect("shard stats");
    let summary = pstats.summary();
    assert!(pstats.jobs > 0, "a 4-node batch fans out a shard group");
    assert!(pstats.shard_recorded > 0, "workers record: {summary}");
    assert!(pstats.shard_applied > 0, "the merge adopts: {summary}");
    assert_eq!(pstats.worker_aborts, 0, "no sense group nears the cap");
    assert!(pstats.worker_instructions > 0, "workers bank instructions");
}

/// The benchmark's `sense4_cob_shard2` shape — 4×4 grid, COB, 65 536
/// states, batches of up to 6 144 groups that fall into a few hundred
/// distinct dispatches — at worker counts on both sides of the
/// benchmark's 2. Every group's dispatch is covered by a recording
/// (nothing falls back to the merge thread), and the hand-off offers one
/// job per distinct dispatch: workers cut almost no chain at a key
/// somebody else holds, where one job per group had them throw away ten
/// chains for every one they recorded.
#[test]
fn the_benchmark_shape_is_one_job_per_distinct_dispatch() {
    let topology = Topology::grid(4, 4);
    let cfg = SenseConfig::paper_grid(4, 4);
    let duration = cfg.interval_ms * (u64::from(cfg.packet_count) + 2);
    let scenario = Scenario::new(
        topology.clone(),
        sde::os::apps::sense::programs(&topology, &cfg),
    )
    .with_duration_ms(duration)
    .with_sample_every(512);
    let seq = Engine::new(scenario.clone(), Algorithm::Cob).run();
    assert_eq!(seq.total_states, 65_536);
    let mut jobs = None;
    for workers in [1usize, 2, 3, 4, 8] {
        let shard = Engine::new(scenario.clone(), Algorithm::Cob).run_sharded(workers);
        assert_eq!(
            shard.equivalence_key(),
            seq.equivalence_key(),
            "sense 4×4 COB diverged at {workers} workers"
        );
        let pstats = shard.parallel.as_ref().expect("shard stats");
        assert_eq!(pstats.shard_fallback, 0, "{}", pstats.summary());
        assert!(
            pstats.shard_skips < pstats.shard_recorded,
            "{workers} workers: {}",
            pstats.summary()
        );
        assert!(
            pstats.shard_applied > 10 * pstats.shard_recorded,
            "one recording serves every congruent state: {}",
            pstats.summary()
        );
        // What is offered is decided before any worker runs.
        assert_eq!(*jobs.get_or_insert(pstats.jobs), pstats.jobs);
    }
}
