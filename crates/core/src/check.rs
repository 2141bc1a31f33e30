//! Invariant checking (DESIGN.md §12): application-level predicates over
//! the explored state space, with replayable violation witnesses.
//!
//! An exploration proves a *safety property* only if someone states the
//! property. This module lets a scenario register invariants —
//! node-local ("the persisted counter never regresses") or cross-node
//! ("no two nodes both believe they own the token") — and evaluates them
//! against the engine's state space:
//!
//! * **node-local** predicates run on every resident state of the
//!   checked engine, conjoined with that state's own path condition;
//! * **cross-node** predicates run once per *dscenario* (the mapper's
//!   consistent global snapshots, one per concrete network execution),
//!   conjoined with the union of the members' path conditions — exactly
//!   the constraint set [`testgen`](crate::testgen) solves test cases
//!   from.
//!
//! A predicate returns the *violation condition*: an expression that is
//! satisfiable iff the invariant is broken on that state/dscenario. When
//! the solver finds a model, the checker packages a [`Violation`]
//! carrying a [`BugReport`] (kind [`BugKind::InvariantViolated`]), the
//! concretized [`Preset`] witness, the active fault axes, and the fork
//! lineage slice from the root to the violating state (when the caller
//! recorded trace events).
//!
//! Checks run at quiescence ([`Checker::check`]) or additionally at
//! configurable virtual-time barriers ([`Checker::check_with_barriers`]),
//! which drives the engine with one-event [`Budget`]s and evaluates the
//! invariants whenever the clock crosses a barrier.
//!
//! [`stabilize`] turns a solver model into a *replay-stable* witness: it
//! re-runs the scenario through the strict, request-recording
//! [`Preset`](sde_vm::Preset) path, pinning every input the replay
//! requests, until a non-forking concrete run reproduces the violation.
//! The replayed violation defines the canonical [`Violation::digest`]
//! that repro artifacts are diffed against.

use crate::checkpoint::{fnv1a, Budget};
use crate::engine::Engine;
use crate::mapping::Algorithm;
use crate::oracle::Assignment;
use crate::scenario::Scenario;
use crate::state::StateId;
use sde_net::{FaultPlan, NodeId};
use sde_symbolic::{Expr, ExprRef, SolverResult, Width};
use sde_vm::{BugKind, BugReport, FuncId, Loc, Preset, Status, VmState};
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

/// Synthetic location base for invariant violations: `loc.func` is
/// `INVARIANT_LOC_BASE | invariant_index`, `loc.index` is 0. Disjoint
/// from program functions and from the engine's fault-decision locations
/// (`0xffff_0000 | kind`).
pub const INVARIANT_LOC_BASE: u32 = 0xffff_0100;

/// Iteration cap of the adaptive [`stabilize`] loop. Each iteration pins
/// at least one more input, so this bounds the number of *distinct*
/// symbolic inputs a witness can involve, not the run length.
const MAX_STABILIZE_ROUNDS: usize = 64;

// ---------------------------------------------------------------------------
// Node views
// ---------------------------------------------------------------------------

/// Read-only window onto one node's memory inside a checked state,
/// handed to invariant predicates.
pub struct NodeView<'a> {
    /// The node this state belongs to.
    pub node: NodeId,
    /// The engine state id backing the view.
    pub state: StateId,
    vm: &'a VmState,
}

impl<'a> NodeView<'a> {
    /// One memory byte as a (possibly symbolic) 8-bit expression.
    pub fn memory_byte(&self, addr: u32) -> ExprRef {
        self.vm.memory_byte(addr).into()
    }

    /// A little-endian 16-bit load, the width the bundled apps store
    /// their counters and flags at.
    pub fn memory_u16(&self, addr: u32) -> ExprRef {
        let lo = Expr::zext(self.memory_byte(addr), Width::W16);
        let hi = Expr::zext(self.memory_byte(addr + 1), Width::W16);
        Expr::or(lo, Expr::shl(hi, Expr::const_(8, Width::W16)))
    }

    /// The underlying VM state, for predicates that need more than
    /// memory (status, path condition).
    pub fn vm(&self) -> &'a VmState {
        self.vm
    }
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

type NodeLocalFn = dyn Fn(&NodeView<'_>) -> Option<ExprRef> + Send + Sync;
type CrossNodeFn = dyn Fn(&[NodeView<'_>]) -> Option<ExprRef> + Send + Sync;

enum Predicate {
    NodeLocal(Box<NodeLocalFn>),
    CrossNode(Box<CrossNodeFn>),
}

/// A named safety predicate. Construct via [`Checker::node_local`] /
/// [`Checker::cross_node`]; the closure returns the violation condition
/// (`None` = not applicable to this state/dscenario).
pub struct Invariant {
    name: String,
    pred: Predicate,
}

impl fmt::Debug for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.pred {
            Predicate::NodeLocal(_) => "node-local",
            Predicate::CrossNode(_) => "cross-node",
        };
        write!(f, "Invariant({:?}, {kind})", self.name)
    }
}

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

/// One invariant violation, packaged for replay and minimization.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: String,
    /// Engine states the violating dscenario consists of (one for a
    /// node-local invariant), ascending by node id.
    pub members: Vec<StateId>,
    /// The nodes those states live on, same order.
    pub nodes: Vec<NodeId>,
    /// The structured report: kind [`BugKind::InvariantViolated`],
    /// synthetic loc (see [`INVARIANT_LOC_BASE`]), solver model attached.
    pub report: BugReport,
    /// The concretized witness: every symbolic input of the violating
    /// dscenario pinned to a concrete value, replayable through
    /// [`Engine::with_preset`].
    pub preset: Preset,
    /// Fault axes with a non-zero decision in the witness, in
    /// [`FaultPlan::AXES`] order.
    pub active_axes: Vec<&'static str>,
    /// Fork lineage from the root state to the violating state (state
    /// ids, root first). Empty unless filled from recorded trace events
    /// via [`Violation::fill_lineage`].
    pub lineage: Vec<u64>,
}

impl Violation {
    /// Number of pinned inputs in the witness — the minimizer's primary
    /// size metric.
    pub fn witness_entries(&self) -> usize {
        self.preset.len()
    }

    /// Stable digest of the violation: FNV-1a over the invariant name,
    /// member nodes, bug kind/message and the sorted witness entries.
    /// Replaying the emitted artifact must reproduce this exact value.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(self.invariant.as_bytes());
        bytes.push(0xff);
        for n in &self.nodes {
            bytes.extend_from_slice(&n.0.to_le_bytes());
        }
        bytes.push(0xff);
        bytes.extend_from_slice(self.report.kind.to_string().as_bytes());
        bytes.push(0xff);
        bytes.extend_from_slice(self.report.message.as_bytes());
        bytes.push(0xff);
        for (node, name, occurrence, value) in sorted_entries(&self.preset) {
            bytes.extend_from_slice(&node.to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&occurrence.to_le_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// Fills [`Violation::lineage`] with the fork chain (root first)
    /// ending at the newest member state, reconstructed from a recorded
    /// trace via [`sde_trace::Lineage`].
    pub fn fill_lineage(&mut self, lineage: &sde_trace::Lineage) {
        if let Some(tip) = self.members.iter().map(|s| s.0).max() {
            if let Some(chain) = lineage.ancestry(tip) {
                self.lineage = chain.iter().map(|step| step.state).collect();
            }
        }
    }
}

/// The witness entries of `preset`, sorted by replay key.
pub fn sorted_entries(preset: &Preset) -> Vec<(u16, String, u32, u64)> {
    let mut entries: Vec<(u16, String, u32, u64)> = preset
        .iter()
        .map(|(n, name, occ, v)| (n, name.to_string(), occ, v))
        .collect();
    entries.sort();
    entries
}

// ---------------------------------------------------------------------------
// Fault-axis bookkeeping
// ---------------------------------------------------------------------------

/// The fault axis a symbolic decision input belongs to, if any (`part`/
/// `heal` → partition, `lat` → latency, `cor`/`corb` → corrupt, `crash`
/// → crashrec). Failure-model decisions (`drop`, `dup`, `reboot`) have
/// no [`FaultPlan`] axis.
pub fn axis_of_input(name: &str) -> Option<&'static str> {
    match name {
        "part" | "heal" => Some("partition"),
        "lat" => Some("latency"),
        "cor" | "corb" => Some("corrupt"),
        "crash" => Some("crashrec"),
        _ => None,
    }
}

/// The decision-input names a fault axis contributes to a witness — the
/// keys the minimizer drops when it removes the axis.
///
/// # Panics
///
/// Panics on an unknown axis name, mirroring
/// [`FaultPlan::without_axis`].
pub fn axis_input_names(axis: &str) -> &'static [&'static str] {
    match axis {
        "partition" => &["part", "heal"],
        "latency" => &["lat"],
        "corrupt" => &["cor", "corb"],
        "crashrec" => &["crash"],
        other => panic!(
            "unknown fault axis {other:?} (expected one of {:?})",
            FaultPlan::AXES
        ),
    }
}

/// Fault axes with at least one non-zero decision in `preset`, in
/// [`FaultPlan::AXES`] order.
pub fn active_axes_of(preset: &Preset) -> Vec<&'static str> {
    let mut seen: HashSet<&'static str> = HashSet::new();
    for (_, name, _, value) in preset.iter() {
        if value != 0 {
            if let Some(axis) = axis_of_input(name) {
                seen.insert(axis);
            }
        }
    }
    FaultPlan::AXES
        .iter()
        .copied()
        .filter(|a| seen.contains(a))
        .collect()
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

/// A registry of invariants, evaluated against an [`Engine`].
#[derive(Debug, Default)]
pub struct Checker {
    invariants: Vec<Invariant>,
}

impl Checker {
    /// An empty checker.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Number of registered invariants.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// `true` when no invariant is registered.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Registers a node-local invariant: `violated` returns the
    /// violation condition for one node's state.
    #[must_use]
    pub fn node_local(
        mut self,
        name: &str,
        violated: impl Fn(&NodeView<'_>) -> Option<ExprRef> + Send + Sync + 'static,
    ) -> Checker {
        self.invariants.push(Invariant {
            name: name.to_string(),
            pred: Predicate::NodeLocal(Box::new(violated)),
        });
        self
    }

    /// Registers a cross-node invariant: `violated` receives one view
    /// per member of a dscenario (ascending by node id) and returns the
    /// violation condition over the whole snapshot.
    #[must_use]
    pub fn cross_node(
        mut self,
        name: &str,
        violated: impl Fn(&[NodeView<'_>]) -> Option<ExprRef> + Send + Sync + 'static,
    ) -> Checker {
        self.invariants.push(Invariant {
            name: name.to_string(),
            pred: Predicate::CrossNode(Box::new(violated)),
        });
        self
    }

    /// Evaluates every invariant against the engine's current state
    /// space (call at quiescence, after a `run_*` method).
    pub fn check(&self, engine: &Engine) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (idx, inv) in self.invariants.iter().enumerate() {
            match &inv.pred {
                Predicate::NodeLocal(pred) => {
                    for state in engine.states() {
                        if matches!(state.vm.status(), Status::Infeasible | Status::Bugged(_)) {
                            continue;
                        }
                        let view = NodeView {
                            node: state.node,
                            state: state.id,
                            vm: &state.vm,
                        };
                        let Some(cond) = pred(&view) else { continue };
                        if let Some(v) = self.solve_violation(engine, inv, idx, &[state.id], cond) {
                            violations.push(v);
                        }
                    }
                }
                Predicate::CrossNode(pred) => {
                    let mut seen: HashSet<Vec<StateId>> = HashSet::new();
                    for dscenario in engine.mapper().dscenarios() {
                        let mut members = dscenario.clone();
                        members.sort_unstable_by_key(|id| {
                            engine.state(*id).map(|s| s.node.0).unwrap_or(u16::MAX)
                        });
                        if !seen.insert(members.clone()) {
                            continue; // overlapping dstates repeat dscenarios
                        }
                        let views: Vec<NodeView<'_>> = members
                            .iter()
                            .filter_map(|id| engine.state(*id))
                            .map(|s| NodeView {
                                node: s.node,
                                state: s.id,
                                vm: &s.vm,
                            })
                            .collect();
                        if views.len() != members.len()
                            || views
                                .iter()
                                .any(|v| matches!(v.vm.status(), Status::Infeasible))
                        {
                            continue;
                        }
                        let Some(cond) = pred(&views) else { continue };
                        if let Some(v) = self.solve_violation(engine, inv, idx, &members, cond) {
                            violations.push(v);
                        }
                    }
                }
            }
        }
        violations
    }

    /// Drives a booted engine to completion, evaluating the invariants
    /// whenever virtual time first reaches each barrier (ascending
    /// milliseconds) and once more at quiescence. Violations are
    /// deduplicated by digest across evaluation points.
    pub fn check_with_barriers(&self, engine: &mut Engine, barriers_ms: &[u64]) -> Vec<Violation> {
        let mut barriers: Vec<u64> = barriers_ms.to_vec();
        barriers.sort_unstable();
        let mut violations: Vec<Violation> = Vec::new();
        let mut digests: HashSet<u64> = HashSet::new();
        let mut next = 0;
        loop {
            let outcome = engine.run_until(Budget::events(1));
            while next < barriers.len() && engine.now() >= barriers[next] {
                for v in self.check(engine) {
                    if digests.insert(v.digest()) {
                        violations.push(v);
                    }
                }
                next += 1;
            }
            if outcome.is_complete() {
                break;
            }
        }
        for v in self.check(engine) {
            if digests.insert(v.digest()) {
                violations.push(v);
            }
        }
        violations
    }

    /// Solves `cond` under the members' combined path condition; `Sat`
    /// means the invariant is violated on a reachable input.
    fn solve_violation(
        &self,
        engine: &Engine,
        inv: &Invariant,
        idx: usize,
        members: &[StateId],
        cond: ExprRef,
    ) -> Option<Violation> {
        if cond.is_false() {
            return None;
        }
        let mut constraints: Vec<ExprRef> = Vec::new();
        for id in members {
            for c in engine.state(*id)?.vm.path_condition().iter() {
                constraints.push(c.clone());
            }
        }
        constraints.push(cond);
        let model = match engine.solver().check_constraints(&constraints) {
            SolverResult::Sat(m) => m,
            SolverResult::Unsat | SolverResult::Unknown => return None,
        };
        let nodes: Vec<NodeId> = members
            .iter()
            .filter_map(|id| engine.state(*id).map(|s| s.node))
            .collect();
        let preset = Preset::from_model(&model, engine.symbols());
        let message: Arc<str> = Arc::from(
            format!(
                "invariant {:?} violated on nodes {:?}",
                inv.name,
                nodes.iter().map(|n| n.0).collect::<Vec<_>>()
            )
            .as_str(),
        );
        let active_axes = active_axes_of(&preset);
        Some(Violation {
            invariant: inv.name.clone(),
            members: members.to_vec(),
            nodes,
            report: BugReport {
                kind: BugKind::InvariantViolated,
                message,
                loc: Loc {
                    func: FuncId(INVARIANT_LOC_BASE | (idx as u32 & 0xff)),
                    index: 0,
                },
                model: Some(model),
            },
            preset,
            active_axes,
            lineage: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Witness stabilization
// ---------------------------------------------------------------------------

/// Replays `assignment` through the strict, recording preset path and
/// reports whether the concrete run violates `invariant`.
pub fn replay_violates(
    scenario: &Scenario,
    algorithm: Algorithm,
    checker: &Checker,
    invariant: &str,
    assignment: &Assignment,
) -> Option<Violation> {
    let (engine, first_miss) = replay(scenario, algorithm, assignment);
    if first_miss.is_some() {
        return None; // incomplete witness — not a faithful replay
    }
    checker
        .check(&engine)
        .into_iter()
        .find(|v| v.invariant == invariant)
}

/// One strict, recording replay; returns the finished engine and the
/// replay key of the first input the run requested that `assignment`
/// does not pin (`None` = complete witness).
fn replay(
    scenario: &Scenario,
    algorithm: Algorithm,
    assignment: &Assignment,
) -> (Engine, Option<(u16, String, u32)>) {
    let mut preset = Preset::new();
    for ((node, name, occurrence), value) in assignment {
        preset.insert(*node, name, *occurrence, *value);
    }
    let preset = preset.with_strict().recording();
    let log = preset.log().expect("recording preset has a log");
    let mut engine = Engine::new(scenario.clone(), algorithm).with_preset(preset);
    engine.run_in_place();
    let first_miss = log
        .lock()
        .expect("request log poisoned")
        .first_miss()
        .map(sde_vm::InputRequest::replay_key);
    (engine, first_miss)
}

/// Stabilizes a solver-model witness into a replay-complete one.
///
/// A model only pins the inputs that appear in the violating dscenario's
/// path condition; a strict replay may request more (other nodes'
/// decisions, later occurrences). The loop replays, pins each first
/// missing input to 0 (the benign default), and repeats until the
/// replay is complete *and* still violates the invariant — or gives up
/// after [`MAX_STABILIZE_ROUNDS`] rounds / when the violation
/// evaporates under the completed assignment.
///
/// On success returns the canonical violation as observed by the
/// concrete replay — the one whose [`Violation::digest`] repro
/// artifacts carry.
pub fn stabilize(
    scenario: &Scenario,
    algorithm: Algorithm,
    checker: &Checker,
    invariant: &str,
    seed: &Preset,
) -> Option<(Assignment, Violation)> {
    let assignment: Assignment = seed
        .iter()
        .map(|(n, name, occ, v)| ((n, name.to_string(), occ), v))
        .collect();
    stabilize_assignment(scenario, algorithm, checker, invariant, &assignment)
}

/// [`stabilize`] with an [`Assignment`] seed — the minimizer's probe
/// primitive: pins every missing request to 0 and reports whether the
/// completed concrete replay still violates `invariant`.
pub fn stabilize_assignment(
    scenario: &Scenario,
    algorithm: Algorithm,
    checker: &Checker,
    invariant: &str,
    seed: &Assignment,
) -> Option<(Assignment, Violation)> {
    let mut assignment = seed.clone();
    for _ in 0..MAX_STABILIZE_ROUNDS {
        let (engine, first_miss) = replay(scenario, algorithm, &assignment);
        match first_miss {
            Some(key) => {
                assignment.insert(key, 0); // pin to the benign default
            }
            None => {
                let violation = checker
                    .check(&engine)
                    .into_iter()
                    .find(|v| v.invariant == invariant)?;
                return Some((assignment, violation));
            }
        }
    }
    None
}

/// Symbol ids appearing in any member's path condition — handy for
/// domain-shrink diagnostics.
pub fn witness_vars(engine: &Engine, members: &[StateId]) -> BTreeSet<sde_symbolic::SymId> {
    let mut vars = BTreeSet::new();
    for id in members {
        if let Some(s) = engine.state(*id) {
            s.vm.path_condition().collect_vars(&mut vars);
        }
    }
    vars
}
