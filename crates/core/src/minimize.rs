//! Automatic counterexample minimization (DESIGN.md §12).
//!
//! A violation witness produced by the checking layer pins *every*
//! symbolic input the failing execution requested — fault decisions on
//! irrelevant links, latency choices that never mattered, the full event
//! horizon of the original scenario. [`Minimizer`] shrinks it to a
//! 1-minimal failing repro by replaying candidates through the strict
//! [`Preset`](sde_vm::Preset) path (via
//! [`check::stabilize_assignment`]) and keeping a candidate exactly when
//! the concrete replay still violates the same invariant.
//!
//! Candidates are tried in a fixed order (spelled out in DESIGN.md §12
//! so artifacts are reproducible):
//!
//! 1. **Fault-axis removal** — for each axis in [`FailureKind::AXES`]
//!    order, rebuild the scenario with
//!    [`FailureConfig::without_axis`](sde_net::FailureConfig::without_axis)
//!    and drop the axis's decision keys from the witness.
//! 2. **ddmin over witness entries** — classic delta debugging over the
//!    non-zero decision entries: zeroing an entry restores the benign
//!    default (packet delivered, no crash, zero latency), so "removing
//!    a dscenario entry" is sound without re-solving.
//! 3. **Value shrinking** — halve each surviving non-zero value toward
//!    0/1 (shrinks symbolic domains like corruption bytes).
//! 4. **Horizon truncation** — halve the scenario's `duration_ms` while
//!    the violation still reproduces.
//!
//! Every candidate replay emits a
//! [`TraceEvent::ShrinkStep`](sde_trace::TraceEvent) through the
//! thread-local trace hook ([`sde_trace::install`]), so a recorder
//! installed by the caller sees the whole shrink history. Replays are
//! serial and deterministic, so minimization results are byte-identical
//! regardless of how many workers found the original violation.

use crate::check::{self, axis_input_names, Checker, Violation};
use crate::mapping::Algorithm;
use crate::oracle::Assignment;
use crate::scenario::Scenario;
use sde_net::FailureKind;
use sde_trace::TraceEvent;

/// Cap on candidate replays (each candidate costs one bounded
/// stabilization loop of concrete, non-forking runs).
const MAX_PROBES: u64 = 4096;

/// ddmin-based witness shrinker for one invariant violation.
pub struct Minimizer {
    scenario: Scenario,
    algorithm: Algorithm,
    checker: Checker,
    invariant: String,
}

/// Outcome of [`Minimizer::minimize`]: the minimal failing repro plus
/// shrink accounting.
#[derive(Debug)]
pub struct MinimizeReport {
    /// The minimized scenario (fault axes removed, horizon truncated).
    pub scenario: Scenario,
    /// The minimal witness: replaying `scenario` strictly under it
    /// violates the invariant.
    pub assignment: Assignment,
    /// The canonical violation observed by the minimal replay.
    pub violation: Violation,
    /// Fault axes the shrinker removed, in removal order.
    pub removed_axes: Vec<FailureKind>,
    /// Non-zero witness entries before / after shrinking.
    pub initial_entries: usize,
    /// See [`MinimizeReport::initial_entries`].
    pub final_entries: usize,
    /// Active fault axes before / after shrinking.
    pub initial_axes: usize,
    /// See [`MinimizeReport::initial_axes`].
    pub final_axes: usize,
    /// Scenario duration before / after horizon truncation (virtual ms).
    pub initial_duration_ms: u64,
    /// See [`MinimizeReport::initial_duration_ms`].
    pub final_duration_ms: u64,
    /// Candidate replays tried (kept + rejected).
    pub shrink_steps: u64,
    /// `true` when the cap of 4096 candidate replays stopped the search
    /// before it converged — the repro is valid but may not be
    /// 1-minimal.
    pub truncated: bool,
}

impl MinimizeReport {
    /// The ISSUE's reduction metric: non-zero witness entries plus
    /// active fault axes.
    pub fn initial_size(&self) -> usize {
        self.initial_entries + self.initial_axes
    }

    /// See [`MinimizeReport::initial_size`].
    pub fn final_size(&self) -> usize {
        self.final_entries + self.final_axes
    }

    /// Percentage of the initial size the shrinker removed (0 when the
    /// witness was already empty).
    pub fn reduction_percent(&self) -> u64 {
        if self.initial_size() == 0 {
            return 0;
        }
        let removed = self.initial_size().saturating_sub(self.final_size());
        (removed * 100 / self.initial_size()) as u64
    }
}

/// Number of non-zero entries in an assignment (zero entries pin the
/// benign default and carry no information).
fn nonzero_entries(a: &Assignment) -> usize {
    a.values().filter(|v| **v != 0).count()
}

impl Minimizer {
    /// A minimizer for violations of `invariant` found on `scenario`
    /// under `algorithm`. The checker must contain the invariant.
    pub fn new(
        scenario: Scenario,
        algorithm: Algorithm,
        checker: Checker,
        invariant: &str,
    ) -> Minimizer {
        Minimizer {
            scenario,
            algorithm,
            checker,
            invariant: invariant.to_string(),
        }
    }

    /// Shrinks `seed` (a stabilization-ready witness, e.g.
    /// [`Violation::preset`] converted via [`check::stabilize`]) to a
    /// 1-minimal failing repro. Returns `None` when the seed does not
    /// reproduce the violation in the first place.
    pub fn minimize(&self, seed: &Assignment) -> Option<MinimizeReport> {
        let mut shrink = Shrink {
            minimizer: self,
            steps: 0,
            truncated: false,
        };

        // Establish the baseline: the seed must reproduce.
        let (mut assignment, mut violation) = check::stabilize_assignment(
            &self.scenario,
            self.algorithm,
            &self.checker,
            &self.invariant,
            seed,
        )?;
        let mut scenario = self.scenario.clone();
        let initial_entries = nonzero_entries(&assignment);
        let initial_axes = scenario.failures.active_axes().len();
        let initial_duration_ms = scenario.duration_ms;

        // Phase 1: fault-axis removal, FailureKind::AXES order.
        let mut removed_axes = Vec::new();
        for axis in FailureKind::AXES {
            if !scenario.failures.active_axes().contains(&axis) {
                continue;
            }
            let candidate_scenario = scenario
                .clone()
                .with_failures(scenario.failures.clone().without_axis(axis));
            let dropped = axis_input_names(axis);
            let candidate: Assignment = assignment
                .iter()
                .filter(|((_, name, _), _)| !dropped.contains(&name.as_str()))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            if let Some((a, v)) = shrink.probe("axis", &candidate_scenario, &candidate) {
                scenario = candidate_scenario;
                assignment = a;
                violation = v;
                removed_axes.push(axis);
            }
        }

        // Phase 2: ddmin over the non-zero entries (zeroing = removal).
        let mut keys: Vec<_> = assignment
            .iter()
            .filter(|(_, v)| **v != 0)
            .map(|(k, _)| k.clone())
            .collect();
        let mut granularity = 2usize;
        while keys.len() >= 2 {
            let chunk = keys.len().div_ceil(granularity);
            let mut reduced = false;
            // Try removing each subset, then each complement.
            let mut start = 0;
            while start < keys.len() {
                let end = (start + chunk).min(keys.len());
                for complement in [false, true] {
                    let drop: Vec<_> = if complement {
                        keys[..start].iter().chain(&keys[end..]).cloned().collect()
                    } else {
                        keys[start..end].to_vec()
                    };
                    if drop.is_empty() || drop.len() == keys.len() {
                        continue;
                    }
                    let mut candidate = assignment.clone();
                    for k in &drop {
                        candidate.insert(k.clone(), 0);
                    }
                    if let Some((a, v)) = shrink.probe("entry", &scenario, &candidate) {
                        assignment = a;
                        violation = v;
                        keys.retain(|k| !drop.contains(k));
                        granularity = 2.max(granularity - 1);
                        reduced = true;
                        break;
                    }
                }
                if reduced {
                    break;
                }
                start = end;
            }
            if shrink.exhausted() {
                break;
            }
            if !reduced {
                if granularity >= keys.len() {
                    break; // 1-minimal
                }
                granularity = (granularity * 2).min(keys.len());
            }
        }

        // Phase 3: halve surviving values toward the benign default.
        let survivors: Vec<_> = assignment
            .iter()
            .filter(|(_, v)| **v > 1)
            .map(|(k, _)| k.clone())
            .collect();
        for key in survivors {
            while assignment[&key] > 1 {
                let mut candidate = assignment.clone();
                let halved = candidate[&key] / 2;
                candidate.insert(key.clone(), halved);
                match shrink.probe("value", &scenario, &candidate) {
                    Some((a, v)) => {
                        assignment = a;
                        violation = v;
                    }
                    None => break,
                }
            }
        }

        // Phase 4: truncate the event horizon.
        while scenario.duration_ms >= 2 {
            let candidate_scenario = scenario.clone().with_duration_ms(scenario.duration_ms / 2);
            match shrink.probe("horizon", &candidate_scenario, &assignment) {
                Some((a, v)) => {
                    scenario = candidate_scenario;
                    assignment = a;
                    violation = v;
                }
                None => break,
            }
        }

        Some(MinimizeReport {
            final_entries: nonzero_entries(&assignment),
            final_axes: scenario.failures.active_axes().len(),
            final_duration_ms: scenario.duration_ms,
            scenario,
            assignment,
            violation,
            removed_axes,
            initial_entries,
            initial_axes,
            initial_duration_ms,
            shrink_steps: shrink.steps,
            truncated: shrink.truncated,
        })
    }
}

/// Probe bookkeeping: counts candidate replays, enforces the cap and
/// emits [`TraceEvent::ShrinkStep`] per candidate.
struct Shrink<'a> {
    minimizer: &'a Minimizer,
    steps: u64,
    truncated: bool,
}

impl Shrink<'_> {
    fn exhausted(&self) -> bool {
        self.truncated
    }

    /// Replays one candidate; `Some` iff it still violates the
    /// invariant (the candidate is then the new baseline).
    fn probe(
        &mut self,
        axis: &str,
        scenario: &Scenario,
        candidate: &Assignment,
    ) -> Option<(Assignment, Violation)> {
        if self.steps >= MAX_PROBES {
            self.truncated = true;
            return None;
        }
        let step = self.steps;
        self.steps += 1;
        let result = check::stabilize_assignment(
            scenario,
            self.minimizer.algorithm,
            &self.minimizer.checker,
            &self.minimizer.invariant,
            candidate,
        );
        let kept = result.is_some();
        let entries = result
            .as_ref()
            .map(|(a, _)| nonzero_entries(a) as u64)
            .unwrap_or_else(|| nonzero_entries(candidate) as u64);
        sde_trace::record(|| TraceEvent::ShrinkStep {
            step,
            axis: axis.to_string(),
            entries,
            kept,
        });
        result
    }
}
