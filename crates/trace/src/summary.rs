//! Always-on run digest.
//!
//! [`TraceSummary`] is built from plain counters the engine keeps whether
//! or not a recording sink is attached (they are just integer increments,
//! inside the <2% no-op overhead budget). It rides inside `RunReport` so
//! every run — traced or not — reports per-phase durations, dispatches by
//! kind, fork counts by reason and packet fates. What the report holds
//! elsewhere (packets sent, bugs, the solver's counters) it does not
//! repeat.

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
    /// Packet deliveries handed to a receiver handler (duplicate copies
    /// included).
    pub packets_delivered: u64,
    /// Packet drops observed (failure-model drop branches).
    pub packets_dropped: u64,
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
    /// fork counts by reason, packet and dispatch counters, with the
    /// report's `packets_sent` and `bugs` count spliced in. Wall-clock is
    /// excluded.
    pub fn deterministic_key(&self, packets_sent: u64, bugs: usize) -> String {
        format!(
            "forks {} packets sent={packets_sent} delivered={} dropped={} dispatch {} bugs={bugs}",
            self.fork_counts(),
            self.packets_delivered,
            self.packets_dropped,
            self.dispatch_counts(),
        )
    }

    /// Human-readable multi-line digest.
    pub fn render(&self) -> String {
        format!(
            "phases: boot {:.1}ms, run {:.1}ms\n\
             dispatch: {}\n\
             forks: {} (total {})\n\
             packets: delivered={} dropped={}",
            self.boot_wall_us as f64 / 1000.0,
            self.run_wall_us as f64 / 1000.0,
            self.dispatch_counts(),
            self.fork_counts(),
            self.forks_total(),
            self.packets_delivered,
            self.packets_dropped,
        )
    }
}
