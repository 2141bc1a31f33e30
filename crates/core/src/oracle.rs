//! Concrete-enumeration conformance oracle.
//!
//! The paper's central claim (§III) is that COB, COW and SDS explore
//! *exactly the same* set of distributed scenarios — the algorithms
//! differ in duplication, never in coverage — and §II-A promises every
//! explored path is concretely replayable. This module checks both
//! claims against an independent ground truth instead of trusting them:
//!
//! 1. **Exhaustive enumeration.** [`ground_truth`] walks the full
//!    cross-product of concrete input assignments (per-node
//!    drop/dup/reboot decisions, bounded header fields) *adaptively*:
//!    replay a partial assignment through the non-forking
//!    [`Preset`] path with request recording on, find
//!    the first input the execution asks for that is not pinned yet, and
//!    branch on it across its whole domain. Because the engine is
//!    deterministic and an execution only depends on the inputs it has
//!    already consumed, the set of requests is a pure function of the
//!    pinned prefix — so every leaf of this search tree is a *complete*
//!    assignment (strict replay, zero misses) and no reachable
//!    assignment is skipped. Inputs whose existence depends on earlier
//!    decisions (a dropped packet never reaches the duplication
//!    decision) are handled for free.
//! 2. **Canonicalization.** Each complete replay is collapsed into a
//!    [`ScenarioOutcome`]: per node, the final status (including bug
//!    verdicts), the path digest (every branch decision, including the
//!    engine-level failure decisions), and the packet history digest.
//!    Outcomes are *path classes* — value-insensitive on purpose, so an
//!    input that never influences control flow or communication
//!    collapses its whole domain into one outcome, exactly matching what
//!    one symbolic path represents.
//! 3. **Differencing.** [`conformance`] explodes the symbolic run's
//!    dscenario set (§IV-C, via [`testgen`]), replays
//!    every generated test case, and diffs the replayed outcome multiset
//!    against the ground truth: **missing** outcomes (in truth, not
//!    produced by any dscenario — unsoundness), **phantom** outcomes
//!    (produced by a dscenario, not in truth — over-approximation), and
//!    **duplicate** coverage (several dscenarios replaying into one
//!    outcome — the paper's Table 1 quantity, now checked rather than
//!    trusted).
//!
//! The harness proves it has teeth with a *mutation self-test*:
//! [`MutantMapper`] wraps a real mapper and corrupts exactly one mapping
//! decision ([`Mutation`]); the oracle must flag the divergence (see
//! `tests/oracle_mutation.rs`).

use crate::check;
use crate::engine::Engine;
use crate::mapping::{Algorithm, Delivery, MapperSnapshot, MapperStats, StateMapper, StateStore};
use crate::scenario::Scenario;
use crate::state::StateId;
use crate::testgen;
use sde_net::NodeId;
use sde_vm::{InputRequest, Preset, Status};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A (partial or complete) concrete assignment of symbolic inputs,
/// keyed by the run-independent replay key `(node, name, occurrence)`.
pub type Assignment = BTreeMap<(u16, String, u32), u64>;

// ---------------------------------------------------------------------------
// input domains
// ---------------------------------------------------------------------------

/// Enumeration domains for symbolic inputs.
///
/// By default an input's domain is its full width range (`2^width`
/// values, from [`SymVar::domain_size`](sde_symbolic::SymVar)); a
/// name-keyed *hint* narrows it to the values an `Assume` in the program
/// admits (e.g. the sense workload asserts `reading <= max_reading`, so
/// enumerating beyond the bound only produces infeasible replays).
/// `max_domain` caps any single axis; a capped axis is reported as
/// *domain-truncated* — the oracle never truncates silently.
#[derive(Debug, Clone)]
pub struct Domains {
    hints: BTreeMap<String, u64>,
    max_domain: u64,
}

impl Default for Domains {
    fn default() -> Domains {
        Domains {
            hints: BTreeMap::new(),
            max_domain: 256,
        }
    }
}

impl Domains {
    /// Full-width domains, capped at 256 values per axis.
    pub fn new() -> Domains {
        Domains::default()
    }

    /// Restricts every input named `name` to `0..=max_value`. Use this to
    /// mirror an `Assume` bound the program itself enforces.
    #[must_use]
    pub fn with_hint(mut self, name: &str, max_value: u64) -> Domains {
        self.hints.insert(name.to_string(), max_value);
        self
    }

    /// Caps every axis at `cap` values (axes that exceed it are reported
    /// as domain-truncated).
    #[must_use]
    pub fn with_max_domain(mut self, cap: u64) -> Domains {
        self.max_domain = cap.max(1);
        self
    }

    /// The inclusive upper bound to enumerate for `request`, plus whether
    /// the cap truncated the natural domain.
    fn bound_for(&self, request: &InputRequest) -> (u64, bool) {
        let natural = match self.hints.get(&request.name) {
            Some(hint) => hint.saturating_add(1),
            None => request.width.domain_size(),
        };
        if natural > self.max_domain {
            (self.max_domain - 1, true)
        } else {
            (natural - 1, false)
        }
    }
}

/// Tuning knobs for the oracle.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Input domains (hints + per-axis cap).
    pub domains: Domains,
    /// Cap on total enumeration replays (internal prefixes + leaves).
    /// Hitting it sets [`GroundTruth::truncated`] — reported, never
    /// silent.
    pub max_assignments: usize,
    /// Test-case generation limit per algorithm (→
    /// [`ConformanceReport::testgen_truncated`]).
    pub max_cases: usize,
    /// Run the *symbolic* engines with online duplicate-dispatch pruning
    /// ([`Engine::with_dedup`], DESIGN.md §10). The concrete replay
    /// engines always run with memoization inert — a preset forces it
    /// off — so the ground truth and the per-case replays are identical
    /// either way; this knob checks that the symbolic side still
    /// conforms when it prunes.
    pub dedup: bool,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            domains: Domains::new(),
            max_assignments: 50_000,
            max_cases: 4096,
            dedup: false,
        }
    }
}

// ---------------------------------------------------------------------------
// outcomes
// ---------------------------------------------------------------------------

/// A node's terminal status, canonicalized for outcome comparison.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutcomeStatus {
    /// Ready for more events when the run ended.
    Idle,
    /// Executed `Halt`.
    Halted,
    /// Failed an `Assume` (the assignment is excluded from ground truth).
    Infeasible,
    /// Hit a bug: kind and location rendered run-independently.
    Bugged {
        /// `BugKind` display string.
        kind: String,
        /// `Loc` display string (function id + instruction index).
        loc: String,
    },
}

/// One node's contribution to a [`ScenarioOutcome`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeOutcome {
    /// The node.
    pub node: u16,
    /// Terminal status (bug verdicts included).
    pub status: OutcomeStatus,
    /// Digest of every branch decision taken — program branches *and*
    /// engine-level failure decisions (replays record both).
    pub path_digest: u64,
    /// Order-sensitive digest of the packet log (sends and receives).
    pub history_digest: u64,
    /// Packet-log length (quick shape check alongside the digest).
    pub history_len: u32,
    /// Instructions executed (a pure function of the path taken).
    pub instructions: u64,
}

/// The canonical, value-insensitive outcome of one concrete run: one
/// [`NodeOutcome`] per node, ascending by node id.
///
/// Two runs compare equal exactly when every node took the same branch
/// decisions, saw the same packet log, and ended in the same status —
/// the *path class* a symbolic dscenario represents. Memory contents are
/// deliberately excluded: they are value-dependent, and one symbolic
/// path covers every concrete valuation of its inputs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScenarioOutcome {
    /// Per-node outcomes, ascending by node.
    pub nodes: Vec<NodeOutcome>,
}

impl fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let status = match &n.status {
                OutcomeStatus::Idle => "idle".to_string(),
                OutcomeStatus::Halted => "halted".to_string(),
                OutcomeStatus::Infeasible => "infeasible".to_string(),
                OutcomeStatus::Bugged { kind, loc } => format!("bug({kind}@{loc})"),
            };
            write!(
                f,
                "n{}:{}:path={:#010x}:hist={:#010x}/{}",
                n.node,
                status,
                n.path_digest & 0xffff_ffff,
                n.history_digest & 0xffff_ffff,
                n.history_len
            )?;
        }
        Ok(())
    }
}

/// Canonicalizes a finished engine's resident states into a
/// [`ScenarioOutcome`].
///
/// Meaningful for *replay* engines (one state per node); on a forking
/// engine it would mix all branches into one tuple.
pub fn outcome_of(engine: &Engine) -> ScenarioOutcome {
    let mut nodes: Vec<NodeOutcome> = engine
        .states()
        .map(|s| NodeOutcome {
            node: s.node.0,
            status: match s.vm.status() {
                Status::Idle | Status::Running => OutcomeStatus::Idle,
                Status::Halted => OutcomeStatus::Halted,
                Status::Infeasible => OutcomeStatus::Infeasible,
                Status::Bugged(report) => OutcomeStatus::Bugged {
                    kind: report.kind.to_string(),
                    loc: report.loc.to_string(),
                },
            },
            path_digest: s.vm.path_digest(),
            history_digest: s.history.digest(),
            history_len: s.history.len(),
            instructions: s.vm.instructions_executed(),
        })
        .collect();
    nodes.sort();
    ScenarioOutcome { nodes }
}

// ---------------------------------------------------------------------------
// ground truth
// ---------------------------------------------------------------------------

/// Evidence for one distinct ground-truth outcome.
#[derive(Debug, Clone)]
pub struct OutcomeEvidence {
    /// Number of complete assignments replaying into this outcome.
    pub count: u64,
    /// The first such assignment (a concrete repro for the outcome).
    pub witness: Assignment,
}

/// The explicit-state ground truth: every reachable path class of the
/// scenario, established by exhaustive concrete enumeration — no
/// symbolic machinery, no state mapping, no solver involved.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Distinct outcomes with multiplicity and a witness assignment.
    pub outcomes: BTreeMap<ScenarioOutcome, OutcomeEvidence>,
    /// Complete, feasible assignments replayed.
    pub assignments: usize,
    /// Complete assignments excluded by a failed `Assume`.
    pub infeasible: usize,
    /// Total replays, including partial-prefix probes.
    pub replays: usize,
    /// `true` when `max_assignments` stopped the enumeration early — the
    /// outcome set is then a *subset* of the truth and only soundness
    /// (no phantom outcomes) can still be concluded.
    pub truncated: bool,
    /// Input names whose domain hit the per-axis cap (enumerated
    /// `0..cap` instead of the full width range).
    pub domain_truncated: BTreeSet<String>,
}

impl GroundTruth {
    /// `true` when the enumeration covered the entire input space.
    pub fn exhaustive(&self) -> bool {
        !self.truncated && self.domain_truncated.is_empty()
    }
}

/// Exhaustively enumerates the scenario's concrete input space and
/// collects the set of reachable [`ScenarioOutcome`]s.
///
/// Worklist search over partial [`Assignment`]s: each probe replays the
/// scenario with a strict, recording preset; a probe with no unpinned
/// request is a complete leaf (recorded, or counted infeasible), and
/// otherwise the first unpinned request becomes the next axis, branched
/// across the domain [`Domains`] assigns it. Replays never fork, so the
/// engine cost per probe is one concrete run of the network.
pub fn ground_truth(scenario: &Scenario, cfg: &OracleConfig) -> GroundTruth {
    let mut truth = GroundTruth::default();
    let mut worklist: Vec<Assignment> = vec![Assignment::new()];
    while let Some(partial) = worklist.pop() {
        if truth.replays >= cfg.max_assignments {
            truth.truncated = true;
            break;
        }
        truth.replays += 1;
        let (engine, first_miss) = check::replay(scenario, Algorithm::Cob, &partial);
        match first_miss {
            Some(miss) => {
                // Branch on the first input the execution requested that
                // the prefix does not pin. Everything before this request
                // is identical across the whole subtree (prefix
                // stability), so the subtree enumerates exactly the
                // reachable completions.
                let key = miss.replay_key();
                debug_assert!(
                    !partial.contains_key(&key),
                    "a pinned key cannot miss: {key:?}"
                );
                let (max_value, capped) = cfg.domains.bound_for(&miss);
                if capped {
                    truth.domain_truncated.insert(miss.name.clone());
                }
                // Push descending so value 0 (the failure-free choice)
                // pops first — depth-first toward the common case.
                for v in (0..=max_value).rev() {
                    let mut next = partial.clone();
                    next.insert(key.clone(), v);
                    worklist.push(next);
                }
            }
            None => {
                // Complete assignment: the strict replay answered every
                // request. An Assume-violating assignment is not a real
                // execution — excluded, but counted for honesty.
                if engine
                    .states()
                    .any(|s| matches!(s.vm.status(), Status::Infeasible))
                {
                    truth.infeasible += 1;
                } else {
                    truth.assignments += 1;
                    let outcome = outcome_of(&engine);
                    truth
                        .outcomes
                        .entry(outcome)
                        .and_modify(|e| e.count += 1)
                        .or_insert(OutcomeEvidence {
                            count: 1,
                            witness: partial,
                        });
                }
            }
        }
    }
    truth
}

// ---------------------------------------------------------------------------
// conformance
// ---------------------------------------------------------------------------

/// The oracle's verdict for one algorithm on one scenario.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The mapper that produced the dscenario set ("COB", "COW", "SDS").
    pub algorithm: &'static str,
    /// Distinct ground-truth outcomes.
    pub truth_outcomes: usize,
    /// Complete feasible assignments enumerated.
    pub truth_assignments: usize,
    /// Assume-excluded assignments.
    pub truth_infeasible: usize,
    /// Total enumeration replays (probes + leaves).
    pub truth_replays: usize,
    /// Ground-truth enumeration hit `max_assignments`.
    pub truth_truncated: bool,
    /// Inputs whose enumeration domain was capped.
    pub domain_truncated: Vec<String>,
    /// Naive upper bound on the input space: the product of every minted
    /// symbolic variable's domain size (saturating) — how big the space
    /// *would* be without adaptive enumeration.
    pub input_space: u64,
    /// Test cases generated from the symbolic run's dscenario set.
    pub cases: usize,
    /// Distinct dscenarios the mapper represented.
    pub dscenarios_seen: usize,
    /// Dscenarios whose *union* of member path conditions is UNSAT.
    /// Expected to be non-zero when symbolic data crosses nodes: a
    /// receiver forks on a payload whose constraint (e.g. an `Assume`
    /// bound) lives in the sender's path condition, so some lazily
    /// cross-producted dscenarios are globally infeasible. Test-case
    /// generation filters exactly these, which is why they do not count
    /// against [`ConformanceReport::is_clean`] — they produce no
    /// replayable case, hence no outcome, hence no divergence.
    pub unsolvable: usize,
    /// `true` when test-case generation stopped at `max_cases` — the
    /// symbolic outcome set is then incomplete and missing-outcome
    /// verdicts are unreliable. Surfaced, never silent.
    pub testgen_truncated: bool,
    /// Outcomes in both sets.
    pub matched: usize,
    /// Ground-truth outcomes no dscenario replayed into (unsoundness:
    /// the mapper lost coverage). Rendered with a witness assignment.
    pub missing: Vec<String>,
    /// Replayed dscenario outcomes absent from the ground truth
    /// (over-approximation: the mapper represents impossible runs).
    pub phantom: Vec<String>,
    /// Dscenarios beyond the first replaying into an already-covered
    /// outcome (Table 1's duplication, measured at the outcome level).
    pub duplicates: u64,
}

impl ConformanceReport {
    /// `true` when the replayed outcome set matches the ground truth
    /// exactly: nothing missing, nothing phantom. (Unsolvable dscenarios
    /// are reported but do not dirty the verdict — see
    /// [`ConformanceReport::unsolvable`].)
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.phantom.is_empty()
    }

    /// `true` when the verdict is based on complete information on both
    /// sides (no enumeration or testgen truncation).
    pub fn exhaustive(&self) -> bool {
        !self.truth_truncated && !self.testgen_truncated && self.domain_truncated.is_empty()
    }

    /// One-paragraph human rendering, truncation surfaced explicitly.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{}: truth {} outcomes / {} assignments ({} infeasible, {} replays), \
             cases {} ({} dscenarios, {} unsolvable) -> matched {}, missing {}, \
             phantom {}, duplicates {}",
            self.algorithm,
            self.truth_outcomes,
            self.truth_assignments,
            self.truth_infeasible,
            self.truth_replays,
            self.cases,
            self.dscenarios_seen,
            self.unsolvable,
            self.matched,
            self.missing.len(),
            self.phantom.len(),
            self.duplicates,
        );
        if self.truth_truncated {
            let _ = write!(out, " [TRUNCATED: enumeration hit max-assignments]");
        }
        if self.testgen_truncated {
            let _ = write!(out, " [TRUNCATED: testgen hit max-cases]");
        }
        if !self.domain_truncated.is_empty() {
            let _ = write!(
                out,
                " [TRUNCATED domains: {}]",
                self.domain_truncated.join(", ")
            );
        }
        out
    }
}

/// Runs the full oracle for one algorithm: enumerate ground truth, run
/// the symbolic engine, explode + replay its dscenarios, diff.
pub fn conformance(
    scenario: &Scenario,
    algorithm: Algorithm,
    cfg: &OracleConfig,
) -> ConformanceReport {
    let truth = ground_truth(scenario, cfg);
    conformance_against(&truth, scenario, algorithm, None, cfg)
}

/// Like [`conformance`], but against a pre-computed [`GroundTruth`]
/// (compute it once, diff all three algorithms against it) and with an
/// optional [`Mutation`] injected into the mapper (the self-test).
pub fn conformance_against(
    truth: &GroundTruth,
    scenario: &Scenario,
    algorithm: Algorithm,
    mutation: Option<Mutation>,
    cfg: &OracleConfig,
) -> ConformanceReport {
    let mut engine = Engine::new(scenario.clone(), algorithm).with_dedup(cfg.dedup);
    if let Some(m) = mutation {
        engine = engine.with_mapper(Box::new(MutantMapper::new(algorithm.new_mapper(), m)));
    }
    engine.run_in_place();

    // Naive cross-product bound over every minted input, via
    // SymVar::domain_size — what exhaustive enumeration would cost
    // without adaptivity (and without Assume-pruning / domain hints).
    let input_space = engine
        .symbols()
        .iter()
        .fold(1u64, |acc, var| acc.saturating_mul(var.domain_size()));

    let report = testgen::generate(&engine, cfg.max_cases);
    let mut replayed: BTreeMap<ScenarioOutcome, u64> = BTreeMap::new();
    for case in &report.cases {
        // Lenient replay: inputs the dscenario leaves unconstrained are
        // genuinely free — the canonical 0 default picks one concrete
        // representative, which ground truth also enumerated.
        let preset = Preset::from_model(&case.model, engine.symbols());
        let mut replay = Engine::new(scenario.clone(), Algorithm::Cob).with_preset(preset);
        replay.run_in_place();
        *replayed.entry(outcome_of(&replay)).or_insert(0) += 1;
    }

    let mut missing = Vec::new();
    for (outcome, evidence) in &truth.outcomes {
        if !replayed.contains_key(outcome) {
            missing.push(format!(
                "missing outcome [{outcome}] (witness assignment: {})",
                render_assignment(&evidence.witness)
            ));
        }
    }
    let mut phantom = Vec::new();
    let mut matched = 0usize;
    let mut duplicates = 0u64;
    for (outcome, count) in &replayed {
        if truth.outcomes.contains_key(outcome) {
            matched += 1;
        } else {
            phantom.push(format!("phantom outcome [{outcome}] ({count} case(s))"));
        }
        duplicates += count - 1;
    }

    ConformanceReport {
        algorithm: engine.mapper().name(),
        truth_outcomes: truth.outcomes.len(),
        truth_assignments: truth.assignments,
        truth_infeasible: truth.infeasible,
        truth_replays: truth.replays,
        truth_truncated: truth.truncated,
        domain_truncated: truth.domain_truncated.iter().cloned().collect(),
        input_space,
        cases: report.cases.len(),
        dscenarios_seen: report.dscenarios_seen,
        unsolvable: report.unsolvable,
        testgen_truncated: report.truncated,
        matched,
        missing,
        phantom,
        duplicates,
    }
}

fn render_assignment(a: &Assignment) -> String {
    if a.is_empty() {
        return "(empty)".to_string();
    }
    a.iter()
        .map(|((node, name, occ), v)| format!("n{node}.{name}#{occ}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------------------------------------------------------------------------
// mutation self-test machinery
// ---------------------------------------------------------------------------

/// A deliberate single-decision corruption of a state mapper, used to
/// prove the oracle detects mapping bugs (a harness that cannot fail its
/// subject proves nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Suppress the `n`th dscenario during the §IV-C explosion — the
    /// oracle must report its outcome as *missing*.
    DropDscenario(usize),
    /// Remove one receiver from the `n`th mapped transmission — the
    /// symbolic exploration itself diverges, so outcomes go missing
    /// and/or phantom.
    StealReceiver(usize),
}

/// A [`StateMapper`] wrapper that forwards every decision to the real
/// mapper except for the one [`Mutation`] it is configured to corrupt.
/// Install it with [`Engine::with_mapper`].
#[derive(Debug)]
pub struct MutantMapper {
    inner: Box<dyn StateMapper>,
    mutation: Mutation,
    sends: usize,
}

impl MutantMapper {
    /// Wraps `inner`, corrupting `mutation`.
    pub fn new(inner: Box<dyn StateMapper>, mutation: Mutation) -> MutantMapper {
        MutantMapper {
            inner,
            mutation,
            sends: 0,
        }
    }
}

impl StateMapper for MutantMapper {
    // Keep the inner name: reports should line up with the algorithm
    // under test, the corruption is the experiment's hidden variable.
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_boot(&mut self, states: &[(StateId, NodeId)]) {
        self.inner.on_boot(states);
    }

    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        store: &mut dyn StateStore,
    ) {
        self.inner.on_branch(parent, child, node, store);
    }

    fn map_send(
        &mut self,
        sender: StateId,
        sender_node: NodeId,
        dest: NodeId,
        store: &mut dyn StateStore,
    ) -> Delivery {
        let mut delivery = self.inner.map_send(sender, sender_node, dest, store);
        if let Mutation::StealReceiver(n) = self.mutation {
            if self.sends == n {
                delivery.receivers.pop();
            }
        }
        self.sends += 1;
        delivery
    }

    fn group_count(&self) -> usize {
        self.inner.group_count()
    }

    fn stats(&self) -> MapperStats {
        self.inner.stats()
    }

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        let it = self.inner.dscenarios();
        match self.mutation {
            Mutation::DropDscenario(n) => {
                Box::new(it.enumerate().filter(move |(i, _)| *i != n).map(|(_, s)| s))
            }
            Mutation::StealReceiver(_) => it,
        }
    }

    fn check_invariants(&self) -> Option<String> {
        self.inner.check_invariants()
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        self.inner.export_snapshot()
    }

    fn import_snapshot(&mut self, snapshot: MapperSnapshot) -> Result<(), String> {
        self.inner.import_snapshot(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sde_net::Topology;
    use sde_os::apps::fig1;
    use sde_symbolic::Width;

    fn fig1_scenario() -> Scenario {
        Scenario::new(Topology::disconnected(1), vec![fig1::program()])
    }

    #[test]
    fn fig1_ground_truth_has_four_path_classes() {
        // Fig. 1: one W8 input, four paths. 256 concrete assignments must
        // collapse into exactly 4 outcomes.
        let cfg = OracleConfig::default();
        let truth = ground_truth(&fig1_scenario(), &cfg);
        assert!(truth.exhaustive());
        assert_eq!(truth.outcomes.len(), 4);
        assert_eq!(truth.assignments, 256);
        assert_eq!(truth.infeasible, 0);
        let total: u64 = truth.outcomes.values().map(|e| e.count).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn fig1_conformance_is_clean_for_all_algorithms() {
        let cfg = OracleConfig::default();
        let scenario = fig1_scenario();
        let truth = ground_truth(&scenario, &cfg);
        for alg in Algorithm::ALL {
            let report = conformance_against(&truth, &scenario, alg, None, &cfg);
            assert!(report.is_clean(), "{}", report.summary());
            assert!(report.exhaustive(), "{}", report.summary());
            assert_eq!(report.matched, 4);
            assert_eq!(report.input_space, 256);
            assert_eq!(report.duplicates, 0);
        }
    }

    #[test]
    fn domain_bounds_follow_hints_and_caps() {
        let req = |name: &str, width: Width| InputRequest {
            node: 0,
            name: name.to_string(),
            occurrence: 0,
            width,
            pinned: None,
        };
        let d = Domains::new().with_hint("reading", 31);
        assert_eq!(d.bound_for(&req("drop", Width::BOOL)), (1, false));
        assert_eq!(d.bound_for(&req("x", Width::W8)), (255, false));
        assert_eq!(d.bound_for(&req("reading", Width::W16)), (31, false));
        // An unhinted wide input hits the cap — and says so.
        assert_eq!(d.bound_for(&req("y", Width::W16)), (255, true));
        let tight = Domains::new().with_max_domain(4);
        assert_eq!(tight.bound_for(&req("x", Width::W8)), (3, true));
        assert_eq!(tight.bound_for(&req("b", Width::BOOL)), (1, false));
    }

    #[test]
    fn enumeration_cap_is_reported() {
        let cfg = OracleConfig {
            max_assignments: 3,
            ..OracleConfig::default()
        };
        let truth = ground_truth(&fig1_scenario(), &cfg);
        assert!(truth.truncated);
        assert!(!truth.exhaustive());
    }

    #[test]
    fn outcome_display_is_compact() {
        let cfg = OracleConfig::default();
        let truth = ground_truth(&fig1_scenario(), &cfg);
        let rendered = truth.outcomes.keys().next().unwrap().to_string();
        assert!(rendered.starts_with("n0:"), "{rendered}");
        assert!(rendered.contains(":path="), "{rendered}");
    }
}
