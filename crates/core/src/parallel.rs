//! Parallel execution helpers (the paper's §VI future work).
//!
//! "In the future, we plan to parallelize SDE's implementation in
//! KleeNet... we have to identify the sets of states which can be safely
//! offloaded on other cores." Three units are parallelized today:
//!
//! * **a single run** — [`Engine::run_sharded`] partitions each
//!   same-virtual-time batch into disjoint subtrees that workers execute
//!   authoritatively, and a deterministic merge applies their recordings
//!   so the report stays bit-identical to [`Engine::run`] (DESIGN.md §13);
//!   [`run_sharded`] is the function-style shorthand mirroring
//!   [`run`](crate::run);
//! * **whole runs** — the Table I / Figure 10 harness executes the same
//!   scenario under all three algorithms; [`run_all`] runs them on
//!   separate cores;
//! * **test-case solving** — dscenarios are solved independently;
//!   [`generate_parallel`] fans the §IV-C explosion out over a worker
//!   pool, each worker with its own solver.

use crate::engine::Engine;
use crate::mapping::Algorithm;
use crate::scenario::Scenario;
use crate::state::StateId;
use crate::stats::RunReport;
use crate::testgen::{NodeInputs, TestCase, TestGenReport};
use sde_net::NodeId;
use sde_symbolic::{ExprRef, Solver, SolverResult, SymId};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Mutex;

/// Runs one scenario through the *sharded* parallel engine with
/// `workers` authoritative workers — the function-style shorthand for
/// [`Engine::run_sharded`] (DESIGN.md §13). Shard workers execute their
/// subtrees (worker-local solver caches, recorded dispatch effects) and
/// the merge thread applies the recordings in serial order, so the report
/// stays bit-identical to the sequential one at every worker count while
/// the execution itself spreads over cores.
///
/// # Examples
///
/// ```
/// use sde_core::{parallel, run, Algorithm, Scenario};
/// use sde_net::Topology;
/// use sde_os::apps::hello::{self, HelloConfig};
///
/// let topology = Topology::line(3);
/// let programs = hello::programs(&topology, &HelloConfig::default());
/// let scenario = Scenario::new(topology, programs);
/// let shard = parallel::run_sharded(&scenario, Algorithm::Sds, 2);
/// let seq = run(&scenario, Algorithm::Sds);
/// assert_eq!(shard.equivalence_key(), seq.equivalence_key());
/// assert_eq!(shard.parallel.unwrap().workers, 2);
/// ```
pub fn run_sharded(scenario: &Scenario, algorithm: Algorithm, workers: usize) -> RunReport {
    Engine::new(scenario.clone(), algorithm).run_sharded(workers)
}

/// Runs `scenario` under every algorithm in `algorithms`, one thread
/// each, and returns the reports in the same order.
///
/// # Examples
///
/// ```
/// use sde_core::{parallel, Algorithm, Scenario};
/// use sde_net::Topology;
/// use sde_os::apps::hello::{self, HelloConfig};
///
/// let topology = Topology::line(3);
/// let programs = hello::programs(&topology, &HelloConfig::default());
/// let scenario = Scenario::new(topology, programs);
/// let reports = parallel::run_all(&scenario, &Algorithm::ALL);
/// assert_eq!(reports.len(), 3);
/// assert_eq!(reports[2].algorithm, "SDS");
/// ```
pub fn run_all(scenario: &Scenario, algorithms: &[Algorithm]) -> Vec<RunReport> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = algorithms
            .iter()
            .map(|alg| {
                let scenario = scenario.clone();
                let alg = *alg;
                scope.spawn(move || Engine::new(scenario, alg).run())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run thread"))
            .collect()
    })
}

/// Parallel §IV-C explosion: enumerates dscenarios on the caller thread
/// (the mapper is not `Sync`) and solves them on `workers` threads.
///
/// Results are ordered by enumeration index, identical to
/// [`testgen::generate`](crate::testgen::generate).
pub fn generate_parallel(engine: &Engine, limit: usize, workers: usize) -> TestGenReport {
    let workers = workers.max(1);

    // Enumerate and deduplicate dscenarios up front (cheap relative to
    // solving); collect each member's constraints so workers never touch
    // the engine.
    /// One dscenario member handed to a worker: state, node, its
    /// constraints, and its variables with display names pre-resolved
    /// (workers cannot touch the engine).
    type Member = (StateId, NodeId, Vec<ExprRef>, Vec<(SymId, String)>);

    #[derive(Debug)]
    struct Job {
        index: usize,
        members: Vec<Member>,
    }

    let mut seen: HashSet<Vec<StateId>> = HashSet::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut dscenarios_seen = 0usize;
    let mut truncated = false;
    for dscenario in engine.mapper().dscenarios() {
        let mut key = dscenario.clone();
        key.sort_unstable();
        if !seen.insert(key) {
            continue;
        }
        dscenarios_seen += 1;
        if jobs.len() >= limit {
            truncated = true;
            continue;
        }
        let name_of = |v: SymId| -> String {
            engine
                .symbols()
                .get(v)
                .map(|s| s.name().to_string())
                .unwrap_or_else(|| v.to_string())
        };
        let members: Vec<Member> = dscenario
            .iter()
            .filter_map(|id| {
                let st = engine.state(*id)?;
                let constraints: Vec<ExprRef> = st.vm.path_condition().iter().cloned().collect();
                let mut vars = BTreeSet::new();
                st.vm.path_condition().collect_vars(&mut vars);
                let named: Vec<(SymId, String)> =
                    vars.into_iter().map(|v| (v, name_of(v))).collect();
                Some((*id, st.node, constraints, named))
            })
            .collect();
        jobs.push(Job {
            index: jobs.len(),
            members,
        });
    }

    /// A worker's answer for one job: (enumeration index, solved case).
    type JobResult = (usize, Option<TestCase>);

    let queue = Mutex::new(jobs);
    let results: Mutex<Vec<JobResult>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let solver = Solver::new();
                loop {
                    let job = { queue.lock().expect("queue lock").pop() };
                    let Some(job) = job else { break };
                    let mut constraints: Vec<ExprRef> = Vec::new();
                    for (_, _, cs, _) in &job.members {
                        constraints.extend(cs.iter().cloned());
                    }
                    let outcome = match solver.check_constraints(&constraints) {
                        SolverResult::Sat(model) => {
                            let mut nodes: BTreeMap<NodeId, NodeInputs> = BTreeMap::new();
                            for (id, node, _, vars) in &job.members {
                                let inputs: Vec<(String, u64)> = vars
                                    .iter()
                                    .map(|(v, name)| {
                                        (name.clone(), model.value_of(*v).unwrap_or(0))
                                    })
                                    .collect();
                                nodes.insert(
                                    *node,
                                    NodeInputs {
                                        node: *node,
                                        state: *id,
                                        inputs,
                                    },
                                );
                            }
                            Some(TestCase {
                                id: job.index,
                                nodes: nodes.into_values().collect(),
                                model,
                            })
                        }
                        _ => None,
                    };
                    results
                        .lock()
                        .expect("results lock")
                        .push((job.index, outcome));
                }
            });
        }
    });

    let mut collected: Vec<JobResult> = results.into_inner().expect("results");
    collected.sort_by_key(|(i, _)| *i);
    let mut report = TestGenReport {
        dscenarios_seen,
        truncated,
        ..TestGenReport::default()
    };
    for (_, outcome) in collected {
        match outcome {
            Some(case) => report.cases.push(case),
            None => report.unsolvable += 1,
        }
    }
    // Re-number sequentially after the parallel scramble.
    for (i, case) in report.cases.iter_mut().enumerate() {
        case.id = i;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sde_net::Topology;
    use sde_os::apps::fig1;

    #[test]
    fn parallel_runs_match_sequential() {
        let scenario = Scenario::new(Topology::disconnected(1), vec![fig1::program()]);
        let reports = run_all(&scenario, &Algorithm::ALL);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.live_states, 4, "{}: fig1 has four paths", r.algorithm);
        }
        let sequential = crate::engine::run(&scenario, Algorithm::Sds);
        assert_eq!(reports[2].total_states, sequential.total_states);
    }

    #[test]
    fn parallel_testgen_matches_sequential() {
        let scenario = Scenario::new(Topology::disconnected(1), vec![fig1::program()]);
        let mut engine = Engine::new(scenario, Algorithm::Sds);
        engine.run_in_place();
        let seq = crate::testgen::generate(&engine, 100);
        let par = generate_parallel(&engine, 100, 4);
        assert_eq!(par.cases.len(), seq.cases.len());
        assert_eq!(par.unsolvable, 0);
        assert_eq!(par.dscenarios_seen, seq.dscenarios_seen);
        // Same set of per-node assignments (order-insensitive).
        let key = |c: &TestCase| {
            let mut inputs: Vec<String> = c
                .nodes
                .iter()
                .flat_map(|n| n.inputs.iter().map(|(k, v)| format!("{k}={v}")))
                .collect();
            inputs.sort();
            inputs.join(",")
        };
        let mut a: Vec<String> = seq.cases.iter().map(key).collect();
        let mut b: Vec<String> = par.cases.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
