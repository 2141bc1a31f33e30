//! Differential tests for the parallel engine under cut-down solvers:
//! with the bench bins' `--layers exact` and `--layers off` applied to
//! the engine's solver, `Engine::run_sharded_in_place` must still be
//! *bit-identical* to the sequential `Engine::run` with the full solver
//! stack — same state ids, packet ids, instruction counts, series rows,
//! and final-state digest — at every worker count, for every algorithm,
//! topology, and symbolic failure model.
//!
//! Each shard worker gets a solver configured like the engine's
//! (`Solver::fresh_like`), so these runs exercise the uncached solving
//! paths on every thread. `shard_equivalence` covers the same matrix
//! with the default solver through `Engine::run_sharded`. Solver layers
//! may only change solver counters, which `RunReport::equivalence_key`
//! deliberately excludes.

#[path = "common/faults.rs"]
mod faults;

use sde::prelude::*;
use sde_core::Engine;
use sde_os::apps::collect::{self, CollectConfig};
use sde_os::apps::sense::{self, SenseConfig};
use sde_symbolic::{Solver, SolverStats};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A `--layers` configuration, applied to a solver's ablation toggles.
type Layers = fn(&Solver);

/// The bench bins' two cut-down `--layers` configurations.
const LAYERS: [(&str, Layers); 2] = [("exact", exact_only), ("off", layers_off)];

/// `--layers exact`: whole-query exact matching only.
fn exact_only(solver: &Solver) {
    solver.set_group_caching(false);
    solver.set_cex_caching(false);
}

/// `--layers off`: every cache layer disabled.
fn layers_off(solver: &Solver) {
    solver.set_caching(false);
    solver.set_cex_caching(false);
}

/// Answers that came from a cache layer rather than a fresh solve.
fn cache_answers(s: &SolverStats) -> u64 {
    s.cache_hits + s.group_cache_hits + s.model_reuse_hits + s.ucore_hits
}

/// Runs `scenario` sharded over `workers` threads with `layers` applied
/// to the engine's solver before the run starts.
fn run_layered(scenario: &Scenario, alg: Algorithm, layers: Layers, workers: usize) -> RunReport {
    let mut engine = Engine::new(scenario.clone(), alg);
    layers(engine.solver());
    engine.run_sharded_in_place(workers);
    engine.into_report()
}

/// The three topologies of the matrix: line(4), grid(3×3), ring(5).
fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("line4", Topology::line(4)),
        ("grid3x3", Topology::grid(3, 3)),
        ("ring5", Topology::ring(5)),
    ]
}

/// Collect workload with one symbolic failure model injected on two
/// middle nodes (budget 1 each).
fn scenario(topology: &Topology, failure: &str) -> Scenario {
    let k = topology.len() as u16;
    let cfg = CollectConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 1,
        strict_sink: false,
    };
    let failures = faults::failure_model(failure, &[NodeId(1), NodeId(k / 2)]);
    let programs = collect::programs(topology, &cfg);
    Scenario::new(topology.clone(), programs)
        .with_failures(failures)
        .with_duration_ms(4000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

/// Runs the full worker-count sweep for one failure model under both
/// cut-down solver configurations and compares every report against the
/// full-stack sequential baseline.
fn check_failure_model(failure: &str) {
    for (topo_name, topology) in topologies() {
        let scenario = scenario(&topology, failure);
        for alg in Algorithm::ALL {
            let seq_key = Engine::new(scenario.clone(), alg).run().equivalence_key();
            for (layer_name, layers) in LAYERS {
                for workers in WORKER_COUNTS {
                    let par = run_layered(&scenario, alg, layers, workers);
                    assert_eq!(
                        par.equivalence_key(),
                        seq_key,
                        "{alg} on {topo_name} with {failure}, --layers {layer_name}, \
                         diverged at {workers} workers"
                    );
                    let pstats = par
                        .parallel
                        .as_ref()
                        .expect("parallel runs report ParallelStats");
                    assert_eq!(pstats.workers, workers);
                    assert!(
                        pstats.batches >= 1 && pstats.batches <= par.events,
                        "batches ({}) must count distinct timestamps, bounded by \
                         processed events ({})",
                        pstats.batches,
                        par.events
                    );
                }
            }
        }
    }
}

#[test]
fn drops_are_bit_identical_across_worker_counts() {
    check_failure_model("drop");
}

#[test]
fn duplicates_are_bit_identical_across_worker_counts() {
    check_failure_model("duplicate");
}

#[test]
fn reboots_are_bit_identical_across_worker_counts() {
    check_failure_model("reboot");
}

/// Solver-bound workload: symbolic sensor readings classified at every
/// route hop (see `sde_os::apps::sense`). This is the scenario where the
/// solver layers have real queries to answer or miss.
fn sense_scenario(topology: &Topology) -> Scenario {
    let k = topology.len() as u16;
    let cfg = SenseConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 2,
        max_reading: 63,
        levels: 1,
        parity_guard: true,
    };
    let programs = sense::programs(topology, &cfg);
    Scenario::new(topology.clone(), programs)
        .with_duration_ms(4000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

/// The data-forking sense workload must also be bit-identical — its
/// branch outcomes, fork order, and state ids all flow through solvers
/// that, with `--layers off`, answer nothing from a cache.
#[test]
fn sense_workload_is_bit_identical_across_worker_counts() {
    let topology = Topology::line(4);
    let scenario = sense_scenario(&topology);
    for alg in Algorithm::ALL {
        let seq = Engine::new(scenario.clone(), alg).run();
        let seq_key = seq.equivalence_key();
        assert!(seq.solver.queries > 0, "sense must exercise the solver");
        for (layer_name, layers) in LAYERS {
            for workers in WORKER_COUNTS {
                let par = run_layered(&scenario, alg, layers, workers);
                assert_eq!(
                    par.equivalence_key(),
                    seq_key,
                    "{alg} sense with --layers {layer_name} diverged at {workers} workers"
                );
                if layer_name == "off" {
                    assert_eq!(
                        cache_answers(&par.solver),
                        0,
                        "{alg} at {workers} workers: --layers off must keep the \
                         merge thread's solver uncached"
                    );
                }
            }
        }
    }
}

/// Replay presets skip offloading but still go through the sharded loop,
/// here in budgeted slices with every cache layer off: reports must match
/// the sequential replay exactly, and no batch may be offloaded.
#[test]
fn preset_replays_match_under_parallel_execution() {
    let topology = Topology::line(4);
    let scenario = scenario(&topology, "drop");
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_in_place();
    let cases = sde_core::testgen::generate(&engine, 4);
    assert!(!cases.cases.is_empty());
    for case in cases.cases.iter().take(2) {
        let preset = sde::vm::Preset::from_model(&case.model, engine.symbols());
        let seq = Engine::new(scenario.clone(), Algorithm::Sds)
            .with_preset(preset.clone())
            .run();
        let mut par = Engine::new(scenario.clone(), Algorithm::Sds).with_preset(preset);
        layers_off(par.solver());
        let mut slices = 0usize;
        while par.run_until_sharded(4, Budget::events(5)) != RunOutcome::Complete {
            slices += 1;
        }
        assert!(slices > 0, "case {}: replay too small to pause", case.id);
        let par = par.into_report();
        assert_eq!(
            par.equivalence_key(),
            seq.equivalence_key(),
            "case {} across {slices} slices",
            case.id
        );
        let pstats = par.parallel.as_ref().expect("parallel stats");
        assert_eq!(pstats.workers, 4);
        assert_eq!(
            pstats.offloaded_batches, 0,
            "preset runs must not offload batches"
        );
    }
}
