//! Always-on run digest.
//!
//! [`TraceSummary`] is built from plain counters the engine keeps whether
//! or not a recording sink is attached (they are just integer increments,
//! inside the <2% no-op overhead budget), plus a snapshot of the solver's
//! per-layer hit counters. It rides inside `RunReport` so every run —
//! traced or not — reports per-phase durations, fork counts by reason and
//! the solver layer histogram.

/// Counter digest of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Initial states booted.
    pub boots: u64,
    /// Dispatched boot events.
    pub dispatch_boot: u64,
    /// Dispatched timer events.
    pub dispatch_timer: u64,
    /// Dispatched delivery events.
    pub dispatch_deliver: u64,
    /// Forks caused by symbolic branches inside handlers.
    pub forks_branch: u64,
    /// Forks performed by the state mapper (COB peers, COW/SDS bystanders).
    pub forks_mapping: u64,
    /// Forks from the symbolic packet-drop failure model.
    pub forks_drop: u64,
    /// Forks from the symbolic packet-duplication failure model.
    pub forks_duplicate: u64,
    /// Forks from the symbolic node-reboot failure model.
    pub forks_reboot: u64,
    /// Forks from the symbolic link-latency fault model.
    pub forks_latency: u64,
    /// Forks from the symbolic payload-corruption fault model.
    pub forks_corrupt: u64,
    /// Forks from the symbolic crash-recovery fault model.
    pub forks_crash: u64,
    /// Forks from the symbolic partition fault model.
    pub forks_partition: u64,
    /// Forks from the symbolic partition-heal-time choice.
    pub forks_heal: u64,
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
    /// Independence groups answered by a cached UNSAT core.
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

impl TraceSummary {
    /// Total forks across all reasons.
    pub fn forks_total(&self) -> u64 {
        self.forks_branch
            + self.forks_mapping
            + self.forks_drop
            + self.forks_duplicate
            + self.forks_reboot
            + self.forks_latency
            + self.forks_corrupt
            + self.forks_crash
            + self.forks_partition
            + self.forks_heal
    }

    /// The deterministic slice of the summary, for equivalence keys:
    /// fork counts by reason plus packet counters. Wall-clock and solver
    /// layer hits are excluded (they differ between serial and sharded
    /// runs, whose workers answer part of the queries).
    pub fn deterministic_key(&self) -> String {
        format!(
            "forks branch={} mapping={} drop={} duplicate={} reboot={} \
             latency={} corrupt={} crash={} partition={} heal={} \
             packets sent={} delivered={} dropped={} \
             dispatch boot={} timer={} deliver={} bugs={}",
            self.forks_branch,
            self.forks_mapping,
            self.forks_drop,
            self.forks_duplicate,
            self.forks_reboot,
            self.forks_latency,
            self.forks_corrupt,
            self.forks_crash,
            self.forks_partition,
            self.forks_heal,
            self.packets_sent,
            self.packets_delivered,
            self.packets_dropped,
            self.dispatch_boot,
            self.dispatch_timer,
            self.dispatch_deliver,
            self.bugs_found,
        )
    }

    /// Human-readable multi-line digest.
    pub fn render(&self) -> String {
        format!(
            "phases: boot {:.1}ms, run {:.1}ms\n\
             dispatch: boot={} timer={} deliver={}\n\
             forks: branch={} mapping={} drop={} duplicate={} reboot={} \
             latency={} corrupt={} crash={} partition={} heal={} (total {})\n\
             packets: sent={} delivered={} dropped={}\n\
             bugs: found={} (shrink steps {})\n\
             solver: queries={} exact={} group={} reuse={} ucore={}",
            self.boot_wall_us as f64 / 1000.0,
            self.run_wall_us as f64 / 1000.0,
            self.dispatch_boot,
            self.dispatch_timer,
            self.dispatch_deliver,
            self.forks_branch,
            self.forks_mapping,
            self.forks_drop,
            self.forks_duplicate,
            self.forks_reboot,
            self.forks_latency,
            self.forks_corrupt,
            self.forks_crash,
            self.forks_partition,
            self.forks_heal,
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
            self.solver_ucore_hits,
        )
    }
}
