//! The store's incremental bookkeeping against its rescans: the sliced
//! columns of the strategy matrix (`tests/common/matrix.rs`).
//!
//! `Engine::sample()`, the `max_live_states` budget axis and
//! `into_report` read `(live, bytes)` totals the state table keeps
//! current at `insert` / `update` / `remove`, and a fork or a reboot
//! reads one state's list in the per-state pending-event index — nothing
//! on a per-event path walks the store or the queue any more (DESIGN.md
//! §3). The walks survive as oracles: `Engine::sample_reference()` and
//! the queue scan behind `Engine::check_accounting()`. These columns drive
//! every kind of run in `run_until` slices and compare the two after each
//! slice — across algorithms, topologies, failure models (reboot and
//! crash-recovery clear a state's events and replace its VM), every fault
//! axis at once, dedup replay, the sharded loop, and a snapshot/resume
//! that rebuilds index and totals from the decoded store.

mod common;

use common::matrix::{check, Column, Row, SERIAL};
use common::{failure_model, grid_collect, line_collect, mesh_flood, ring_hello, FAILURE_MODELS};
use sde::prelude::*;
use sde_bench::{with_fault_axes, FaultAxis};

/// Events per slice: small enough that slices end mid-burst (between a
/// fork and the dispatch of its copied events), odd so they drift against
/// the sampling period.
const SLICE: u64 = 7;

/// Line, grid, ring and mesh workloads, each under the three classic
/// failure models on two middle nodes and under all four fault axes at
/// once (each aimed at the sink), capped at 20 000 states.
fn rows() -> Vec<Row> {
    let bases = [
        ("line4", line_collect(4, &[], 2, false)),
        ("grid3x3", grid_collect(3, 3, 3000, false)),
        ("ring5", ring_hello(5)),
        ("mesh4", mesh_flood(4, 1)),
    ];
    let mut rows = Vec::new();
    for (topo, base) in bases {
        let base = base.with_state_cap(20_000);
        let k = base.node_count() as u16;
        for model in FAILURE_MODELS {
            let failures = failure_model(model, &[NodeId(1), NodeId(k / 2)]);
            rows.push(Row::new(
                format!("{topo}-{model}"),
                base.clone().with_failures(failures),
            ));
        }
        let all_axes = with_fault_axes(base, &FaultAxis::ALL);
        rows.push(Row::new(format!("{topo}-all-axes"), all_axes));
    }
    rows
}

/// Sampled every 5 events, so samples land between slices.
#[test]
fn totals_and_index_match_their_rescans_across_the_matrix() {
    let sampled = rows().into_iter().map(|row| {
        Row::new(
            format!("{}/sample5", row.label),
            row.scenario.with_sample_every(5),
        )
    });
    let rows: Vec<Row> = sampled.collect();
    check(&rows, &Algorithm::ALL, &[SERIAL.sliced(SLICE, None)]);
}

#[test]
fn dedup_replay_keeps_the_books() {
    check(
        &rows(),
        &Algorithm::ALL,
        &[SERIAL.dedup().sliced(SLICE, None)],
    );
}

#[test]
fn sharded_commits_keep_the_books() {
    check(
        &rows(),
        &Algorithm::ALL,
        &[Column::sharded(2).sliced(SLICE, None)],
    );
}

#[test]
fn resume_rebuilds_index_and_totals_from_the_decoded_store() {
    let serial = [1, 4].map(|pause| SERIAL.sliced(SLICE, Some(pause)));
    let sharded = [1, 4].map(|pause| Column::sharded(2).sliced(SLICE, Some(pause)));
    check(&rows(), &[Algorithm::Cob, Algorithm::Sds], &serial);
    check(&rows(), &[Algorithm::Cow], &sharded);
}

#[test]
fn live_state_budget_reads_the_kept_total() {
    let scenario = grid_collect(3, 3, 3000, false);
    for alg in Algorithm::ALL {
        let mut engine = Engine::new(scenario.clone(), alg);
        let mut bound = 10;
        while !engine.run_until(Budget::live_states(bound)).is_complete() {
            let (live, _) = engine.sample_reference();
            assert!(
                live >= bound,
                "{alg}: paused at {live} live states, below the bound of {bound}"
            );
            engine.check_accounting().unwrap();
            bound = live + 5;
        }
    }
}
