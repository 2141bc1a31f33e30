//! The store's incremental bookkeeping against its rescans.
//!
//! `Engine::sample()`, the `max_live_states` budget axis and
//! `into_report` read `(live, bytes)` totals the state table keeps
//! current at `insert` / `update` / `remove`, and a fork or a reboot
//! reads one state's list in the per-state pending-event index — nothing
//! on a per-event path walks the store or the queue any more (DESIGN.md
//! §3). The walks survive as oracles: `Engine::sample_reference()` and
//! the queue scan behind `Engine::check_accounting()`. This suite drives
//! every kind of run in small `run_until(Budget::events(n))` slices and
//! compares the two after each slice — across algorithms, topologies,
//! failure models (reboot and crash-recovery clear a state's events and
//! replace its VM), every fault axis at once, dedup replay, the sharded
//! loop, and a snapshot/resume that rebuilds index and totals from the
//! decoded store.

#[path = "common/faults.rs"]
mod faults;
#[path = "common/grid.rs"]
mod grid;
#[path = "common/line.rs"]
mod line;
#[path = "common/mesh.rs"]
mod mesh;
#[path = "common/ring.rs"]
mod ring;

use sde::prelude::*;
use sde_bench::{with_fault_axes, FaultAxis};
use sde_core::{Budget, Engine, EngineSnapshot};

/// Events per slice: small enough that slices end mid-burst (between a
/// fork and the dispatch of its copied events), odd so they drift against
/// the sampling period.
const SLICE: u64 = 7;

/// How a scenario is driven between checks.
#[derive(Clone, Copy, Debug)]
enum Drive {
    Serial,
    Sharded(usize),
}

/// Line, grid, ring and mesh workloads without failures; the matrix adds
/// its own.
fn topologies() -> Vec<(&'static str, Scenario)> {
    vec![
        ("line4", line::line_collect(4, &[], 2, false)),
        ("grid3x3", grid::grid_collect(3, 3, 3000, false)),
        ("ring5", ring::ring_hello(5)),
        ("mesh4", mesh::mesh_flood(4, 1)),
    ]
}

/// The failure axis of the matrix applied to one base scenario.
fn variants(base: &Scenario) -> Vec<(String, Scenario)> {
    let k = base.node_count() as u16;
    let victims = [NodeId(1), NodeId(k / 2)];
    let mut out: Vec<(String, Scenario)> = faults::FAILURE_MODELS
        .iter()
        .map(|model| {
            let failures = faults::failure_model(model, &victims);
            (model.to_string(), base.clone().with_failures(failures))
        })
        .collect();
    // All four fault axes at once, each aimed at the sink (node 0).
    out.push((
        "all-axes".to_string(),
        with_fault_axes(base.clone(), &FaultAxis::ALL),
    ));
    out
}

fn step(engine: &mut Engine, drive: Drive) -> bool {
    let budget = Budget::events(SLICE);
    match drive {
        Drive::Serial => engine.run_until(budget),
        Drive::Sharded(workers) => engine.run_until_sharded(workers, budget),
    }
    .is_complete()
}

/// Runs `engine` to completion in slices, checking the bookkeeping after
/// each; `resume_after` slices in, the engine is replaced by one resumed
/// from its own snapshot bytes.
fn drive_checked(
    label: &str,
    scenario: &Scenario,
    mut engine: Engine,
    drive: Drive,
    resume_after: Option<usize>,
) -> RunReport {
    let mut slices = 0;
    loop {
        let done = step(&mut engine, drive);
        slices += 1;
        engine
            .check_accounting()
            .unwrap_or_else(|why| panic!("{label}, slice {slices}: {why}"));
        if done {
            break;
        }
        if resume_after == Some(slices) {
            let bytes = engine.snapshot().to_bytes();
            let snapshot = EngineSnapshot::from_bytes(&bytes).expect("own snapshot decodes");
            engine = Engine::resume(scenario.clone(), &snapshot).expect("own snapshot resumes");
            engine
                .check_accounting()
                .unwrap_or_else(|why| panic!("{label}, just resumed: {why}"));
        }
    }
    let report = engine.into_report();
    let last = report.series.samples().last().expect("a final sample");
    assert_eq!(
        (last.live_states, last.bytes),
        (report.live_states, report.final_bytes),
        "{label}: the final sample and the report read the same totals"
    );
    report
}

#[test]
fn totals_and_index_match_their_rescans_across_the_matrix() {
    for (topo, base) in topologies() {
        let base = base.with_state_cap(20_000).with_sample_every(5);
        for (failure, scenario) in variants(&base) {
            for alg in Algorithm::ALL {
                let label = format!("{alg} on {topo} with {failure}");
                let straight = Engine::new(scenario.clone(), alg).run();
                let sliced = drive_checked(
                    &label,
                    &scenario,
                    Engine::new(scenario.clone(), alg),
                    Drive::Serial,
                    None,
                );
                assert_eq!(
                    sliced.equivalence_key(),
                    straight.equivalence_key(),
                    "{label}: slicing changed the run"
                );
            }
        }
    }
}

#[test]
fn dedup_replay_keeps_the_books() {
    for (topo, base) in topologies() {
        let base = base.with_state_cap(20_000);
        for (failure, scenario) in variants(&base) {
            for alg in Algorithm::ALL {
                let label = format!("{alg} on {topo} with {failure}, dedup");
                let engine = Engine::new(scenario.clone(), alg).with_dedup(true);
                let report = drive_checked(&label, &scenario, engine, Drive::Serial, None);
                let plain = Engine::new(scenario.clone(), alg).run();
                assert_eq!(
                    (report.total_states, report.live_states, report.final_bytes),
                    (plain.total_states, plain.live_states, plain.final_bytes),
                    "{label}: replayed dispatches must leave the same totals"
                );
            }
        }
    }
}

#[test]
fn sharded_commits_keep_the_books() {
    for (topo, base) in topologies() {
        let base = base.with_state_cap(20_000);
        for (failure, scenario) in variants(&base) {
            for alg in Algorithm::ALL {
                let label = format!("{alg} on {topo} with {failure}, 2 shards");
                let serial = Engine::new(scenario.clone(), alg).run();
                let sharded = drive_checked(
                    &label,
                    &scenario,
                    Engine::new(scenario.clone(), alg),
                    Drive::Sharded(2),
                    None,
                );
                assert_eq!(
                    sharded.equivalence_key(),
                    serial.equivalence_key(),
                    "{label}: diverged from the serial run"
                );
            }
        }
    }
}

#[test]
fn resume_rebuilds_index_and_totals_from_the_decoded_store() {
    for (topo, base) in topologies() {
        let base = base.with_state_cap(20_000);
        for (failure, scenario) in variants(&base) {
            for (alg, drive) in [
                (Algorithm::Cob, Drive::Serial),
                (Algorithm::Cow, Drive::Sharded(2)),
                (Algorithm::Sds, Drive::Serial),
            ] {
                let label = format!("{alg} on {topo} with {failure}, resumed ({drive:?})");
                let straight = Engine::new(scenario.clone(), alg).run();
                for pause in [1, 4] {
                    let resumed = drive_checked(
                        &label,
                        &scenario,
                        Engine::new(scenario.clone(), alg),
                        drive,
                        Some(pause),
                    );
                    assert_eq!(
                        resumed.equivalence_key(),
                        straight.equivalence_key(),
                        "{label}: resuming after slice {pause} changed the run"
                    );
                }
            }
        }
    }
}

#[test]
fn live_state_budget_reads_the_kept_total() {
    let scenario = grid::grid_collect(3, 3, 3000, false);
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
