//! Always-on run digest.
//!
//! [`TraceSummary`] is built from plain counters the engine keeps whether
//! or not a recording sink is attached (they are just integer increments,
//! inside the <2% no-op overhead budget), plus a snapshot of the solver's
//! per-layer hit counters. It rides inside `RunReport` so every run —
//! traced or not — reports per-phase durations, fork counts by reason and
//! the solver layer histogram.

use crate::event::{DispatchKind, ForkReason};

/// Counter digest of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Initial states booted.
    pub boots: u64,
    /// Dispatched events, indexed by [`DispatchKind`].
    pub dispatches: [u64; DispatchKind::ALL.len()],
    /// Forks, indexed by [`ForkReason`].
    pub forks: [u64; ForkReason::ALL.len()],
    /// Packets sent (transmissions mapped).
    pub packets_sent: u64,
    /// Packet deliveries handed to a receiver handler (duplicate copies
    /// included).
    pub packets_delivered: u64,
    /// Packet drops observed (failure-model drop branches).
    pub packets_dropped: u64,
    /// Solver queries issued by the engine's own solver (a sharded run's
    /// worker-local solvers are not counted).
    pub solver_queries: u64,
    /// Whole queries answered by the exact cache.
    pub solver_exact_hits: u64,
    /// Independence groups answered by the per-group exact cache.
    pub solver_group_hits: u64,
    /// Independence groups answered by counterexample-model reuse.
    pub solver_reuse_hits: u64,
    /// Always 0: the solver no longer reuses UNSAT cores. Kept only as a
    /// slot of the engine snapshot's wire format; it goes with the next
    /// `SNAPSHOT_VERSION` bump.
    pub solver_ucore_hits: u64,
    /// Bug reports recorded by the run (VM safety checks, strict-replay
    /// unkeyed inputs, invariant violations).
    pub bugs_found: u64,
    /// Candidate evaluations performed by the counterexample minimizer
    /// (zero for plain engine runs; set by `sde-core::minimize`).
    pub shrink_steps: u64,
    /// Wall-clock of the boot phase, microseconds.
    pub boot_wall_us: u64,
    /// Wall-clock of the event loop, microseconds.
    pub run_wall_us: u64,
}

/// `name=count` pairs, space-separated.
fn labelled(names: impl Iterator<Item = &'static str>, counts: &[u64]) -> String {
    let pairs: Vec<String> = names.zip(counts).map(|(n, c)| format!("{n}={c}")).collect();
    pairs.join(" ")
}

impl TraceSummary {
    /// Total forks across all reasons.
    pub fn forks_total(&self) -> u64 {
        self.forks.iter().sum()
    }

    fn fork_counts(&self) -> String {
        labelled(
            ForkReason::ALL.into_iter().map(ForkReason::as_str),
            &self.forks,
        )
    }

    fn dispatch_counts(&self) -> String {
        labelled(
            DispatchKind::ALL.into_iter().map(DispatchKind::as_str),
            &self.dispatches,
        )
    }

    /// The deterministic slice of the summary, for equivalence keys:
    /// fork counts by reason plus packet counters. Wall-clock and solver
    /// layer hits are excluded (they differ between serial and sharded
    /// runs, whose workers answer part of the queries).
    pub fn deterministic_key(&self) -> String {
        format!(
            "forks {} packets sent={} delivered={} dropped={} dispatch {} bugs={}",
            self.fork_counts(),
            self.packets_sent,
            self.packets_delivered,
            self.packets_dropped,
            self.dispatch_counts(),
            self.bugs_found,
        )
    }

    /// Human-readable multi-line digest.
    pub fn render(&self) -> String {
        format!(
            "phases: boot {:.1}ms, run {:.1}ms\n\
             dispatch: {}\n\
             forks: {} (total {})\n\
             packets: sent={} delivered={} dropped={}\n\
             bugs: found={} (shrink steps {})\n\
             solver: queries={} exact={} group={} reuse={}",
            self.boot_wall_us as f64 / 1000.0,
            self.run_wall_us as f64 / 1000.0,
            self.dispatch_counts(),
            self.fork_counts(),
            self.forks_total(),
            self.packets_sent,
            self.packets_delivered,
            self.packets_dropped,
            self.bugs_found,
            self.shrink_steps,
            self.solver_queries,
            self.solver_exact_hits,
            self.solver_group_hits,
            self.solver_reuse_hits,
        )
    }
}
