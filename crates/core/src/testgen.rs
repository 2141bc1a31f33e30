//! Test-case generation (§II-A, §IV-C).
//!
//! "Solving these constraints for each explored path provides developers
//! concrete values, that is, test cases to replay a bug or particular
//! program behavior." For a distributed run, a test case assigns every
//! symbolic input of every node in one *dscenario* — one consistent
//! concrete execution of the whole network.
//!
//! The compact COW/SDS representation has to be "exploded" back into
//! dscenarios first (§IV-C). The explosion here is *incremental*: the
//! dscenario iterator is lazy and each dscenario is solved and emitted
//! one at a time under a configurable limit, so the exponential set is
//! never materialized — the strategy the paper describes as "forking
//! states for a dscenario, generating test cases, and deleting the
//! states ... in one step" (we never need the actual state forks, only
//! the member tuple).

use crate::engine::Engine;
use crate::state::StateId;
use sde_net::NodeId;
use sde_symbolic::{ExprRef, Model, SolverResult, SymId};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Concrete inputs for one node within one test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInputs {
    /// The node.
    pub node: NodeId,
    /// The execution state this assignment was solved from.
    pub state: StateId,
    /// `(input name, concrete value)` for every symbolic input this
    /// node's path constrains, in creation order.
    pub inputs: Vec<(String, u64)>,
}

/// One distributed test case: a consistent concrete input assignment for
/// every node of one dscenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCase {
    /// Sequence number within the generation run.
    pub id: usize,
    /// Per-node assignments, ascending by node.
    pub nodes: Vec<NodeInputs>,
    /// The combined solver model (also usable with
    /// [`Engine::with_preset`] to replay this exact dscenario).
    pub model: Model,
}

/// The outcome of a generation run.
#[derive(Debug, Clone, Default)]
pub struct TestGenReport {
    /// The generated cases (at most the requested limit).
    pub cases: Vec<TestCase>,
    /// Distinct dscenarios enumerated (including unsolved ones once the
    /// limit was reached).
    pub dscenarios_seen: usize,
    /// Dscenarios whose combined path condition was unsatisfiable or
    /// undecidable within budget (should be zero; counted for honesty).
    pub unsolvable: usize,
    /// `true` when enumeration stopped at the limit.
    pub truncated: bool,
}

/// Generates up to `limit` test cases from a finished engine
/// (run it with [`Engine::run_in_place`] first).
///
/// # Examples
///
/// ```
/// use sde_core::{testgen, Algorithm, Engine, Scenario};
/// use sde_net::Topology;
/// use sde_os::apps::fig1;
///
/// let topology = Topology::disconnected(1);
/// let scenario = Scenario::new(topology, vec![fig1::program()]);
/// let mut engine = Engine::new(scenario, Algorithm::Sds);
/// engine.run_in_place();
/// let report = testgen::generate(&engine, 10);
/// assert_eq!(report.cases.len(), 4); // Fig. 1: four paths, four test cases
/// ```
pub fn generate(engine: &Engine, limit: usize) -> TestGenReport {
    let mut report = TestGenReport::default();
    let mut seen: HashSet<Vec<StateId>> = HashSet::new();

    for dscenario in engine.mapper().dscenarios() {
        let mut key = dscenario.clone();
        key.sort_unstable();
        if !seen.insert(key) {
            continue; // overlapping dstates can repeat a dscenario (SDS)
        }
        report.dscenarios_seen += 1;
        if report.cases.len() >= limit {
            report.truncated = true;
            continue; // keep counting, stop solving
        }
        match solve_dscenario(engine, &dscenario) {
            Some((nodes, model)) => {
                report.cases.push(TestCase {
                    id: report.cases.len(),
                    nodes,
                    model,
                });
            }
            None => report.unsolvable += 1,
        }
    }
    report
}

/// Solves a concrete witness for `state` — typically a state that hit a
/// bug.
///
/// A distributed bug's cause often lives in *another* node's path
/// condition (e.g. the sink's gap assertion fails because a forwarder's
/// state carries the `drop = 1` constraint), so the witness must be
/// solved from a whole dscenario containing the state, not from the
/// state's own constraints. Returns the first feasible dscenario's
/// model; use it with [`Engine::with_preset`] to replay the bug
/// concretely.
pub fn witness_for(engine: &Engine, state: StateId) -> Option<Model> {
    for dscenario in engine.mapper().dscenarios_containing(state) {
        if let Some((_, model)) = solve_dscenario(engine, &dscenario) {
            return Some(model);
        }
    }
    None
}

/// Like [`witness_for`], converted into a replay-ready
/// [`Preset`](sde_vm::Preset) (see [`Engine::with_preset`]).
pub fn preset_for(engine: &Engine, state: StateId) -> Option<sde_vm::Preset> {
    let model = witness_for(engine, state)?;
    Some(sde_vm::Preset::from_model(&model, engine.symbols()))
}

/// Solves the combined path condition of one dscenario; returns the
/// per-node assignments plus the combined model.
fn solve_dscenario(engine: &Engine, members: &[StateId]) -> Option<(Vec<NodeInputs>, Model)> {
    // Union of all members' constraints (deduplicated by pointer-free
    // structural identity through the solver's own normalization).
    let mut constraints: Vec<ExprRef> = Vec::new();
    for id in members {
        let state = engine.state(*id)?;
        for c in state.vm.path_condition().iter() {
            constraints.push(c.clone());
        }
    }
    let model = match engine.solver().check_constraints(&constraints) {
        SolverResult::Sat(m) => m,
        SolverResult::Unsat | SolverResult::Unknown => return None,
    };

    let mut nodes: BTreeMap<NodeId, NodeInputs> = BTreeMap::new();
    for id in members {
        let state = engine.state(*id)?;
        let mut vars: BTreeSet<SymId> = BTreeSet::new();
        state.vm.path_condition().collect_vars(&mut vars);
        let inputs: Vec<(String, u64)> = vars
            .iter()
            .map(|v| {
                let name = engine
                    .symbols()
                    .get(*v)
                    .map(|s| s.name().to_string())
                    .unwrap_or_else(|| v.to_string());
                // Unconstrained-in-model inputs may take any value; 0 is
                // the canonical choice.
                (name, model.value_of(*v).unwrap_or(0))
            })
            .collect();
        nodes.insert(
            state.node,
            NodeInputs {
                node: state.node,
                state: *id,
                inputs,
            },
        );
    }
    Some((nodes.into_values().collect(), model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::mapping::Algorithm;
    use crate::scenario::Scenario;
    use sde_net::Topology;
    use sde_os::apps::fig1;

    fn fig1_engine(alg: Algorithm) -> Engine {
        let scenario = Scenario::new(Topology::disconnected(1), vec![fig1::program()]);
        let mut e = Engine::new(scenario, alg);
        e.run_in_place();
        e
    }

    #[test]
    fn fig1_produces_four_test_cases() {
        for alg in Algorithm::ALL {
            let engine = fig1_engine(alg);
            let report = generate(&engine, 100);
            assert_eq!(report.cases.len(), 4, "{alg}");
            assert_eq!(report.unsolvable, 0);
            assert!(!report.truncated);
            // Each test case pins x into a distinct region.
            let mut regions = BTreeSet::new();
            for case in &report.cases {
                assert_eq!(case.nodes.len(), 1);
                let x = case.nodes[0]
                    .inputs
                    .iter()
                    .find(|(name, _)| name == "x")
                    .map(|(_, v)| *v)
                    .expect("x constrained on every path");
                let region = if x == 0 {
                    1
                } else if x > 10 && x < 50 {
                    2
                } else if x <= 10 {
                    3
                } else {
                    4
                };
                regions.insert(region);
            }
            assert_eq!(regions.len(), 4, "{alg}: all four regions covered");
        }
    }

    #[test]
    fn limit_truncates_incrementally() {
        let engine = fig1_engine(Algorithm::Sds);
        let report = generate(&engine, 2);
        assert_eq!(report.cases.len(), 2);
        assert!(report.truncated);
        assert_eq!(
            report.dscenarios_seen, 4,
            "enumeration continues past the limit"
        );
    }
}
