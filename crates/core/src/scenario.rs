//! Scenario descriptions: everything a run needs besides the algorithm.

use sde_net::{FailureConfig, NodeId, Topology};
use sde_vm::Program;
use std::sync::Arc;

/// A complete test scenario: who exists, what they run, which failures
/// are injected symbolically, and how long the virtual experiment lasts.
///
/// # Examples
///
/// ```
/// use sde_core::Scenario;
/// use sde_net::Topology;
/// use sde_os::apps::collect::{self, CollectConfig};
///
/// let topology = Topology::grid(5, 5);
/// let cfg = CollectConfig::paper_grid(5, 5);
/// let programs = collect::programs(&topology, &cfg);
/// let scenario = Scenario::new(topology, programs).with_duration_ms(10_000);
/// assert_eq!(scenario.node_count(), 25);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The connectivity graph.
    pub topology: Topology,
    /// One program per node, indexed by node id. Shared: a dispatch or
    /// a shard job takes a pointer copy, never a copy of the program.
    pub programs: Vec<Arc<Program>>,
    /// Symbolic failure injection, all seven kinds.
    pub failures: FailureConfig,
    /// Virtual duration in milliseconds (paper: 10 000).
    pub duration_ms: u64,
    /// Per-hop delivery latency in virtual milliseconds.
    pub link_latency_ms: u64,
    /// Abort the run when the total number of created states exceeds this
    /// cap — the reproducible analogue of the paper's 40 GB memory limit
    /// that forced the COB run to be aborted.
    pub state_cap: usize,
    /// Keep full communication logs (needed by the conflict-freedom
    /// invariant checks; costs memory).
    pub track_history: bool,
    /// Record a statistics sample every this many processed events.
    pub sample_every: u64,
}

impl Scenario {
    /// Creates a scenario with defaults matching the paper's setup
    /// (10-second run, no failures, no state cap).
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one program per topology node.
    pub fn new(topology: Topology, programs: Vec<Program>) -> Scenario {
        assert_eq!(
            topology.len(),
            programs.len(),
            "need exactly one program per node"
        );
        Scenario {
            topology,
            programs: programs.into_iter().map(Arc::new).collect(),
            failures: FailureConfig::new(),
            duration_ms: 10_000,
            link_latency_ms: 2,
            state_cap: usize::MAX,
            track_history: false,
            sample_every: 64,
        }
    }

    /// Sets the symbolic failure configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration names a cut edge that is not a link
    /// of this scenario's topology — such an edge could never partition
    /// anything and almost certainly indicates a mis-specified config.
    #[must_use]
    pub fn with_failures(mut self, failures: FailureConfig) -> Scenario {
        assert!(
            failures.cut_edges_exist_in(&self.topology),
            "failure config names a cut edge missing from the topology"
        );
        self.failures = failures;
        self
    }

    /// Sets the virtual duration.
    #[must_use]
    pub fn with_duration_ms(mut self, ms: u64) -> Scenario {
        self.duration_ms = ms;
        self
    }

    /// Sets the abort cap on total created states.
    #[must_use]
    pub fn with_state_cap(mut self, cap: usize) -> Scenario {
        self.state_cap = cap;
        self
    }

    /// Enables full communication-history logs.
    #[must_use]
    pub fn with_history_tracking(mut self, on: bool) -> Scenario {
        self.track_history = on;
        self
    }

    /// Sets the sampling period (in processed events).
    #[must_use]
    pub fn with_sample_every(mut self, events: u64) -> Scenario {
        self.sample_every = events.max(1);
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.topology.len()
    }

    /// The program of `node`.
    pub fn program(&self, node: NodeId) -> &Arc<Program> {
        &self.programs[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sde_vm::ProgramBuilder;

    fn noop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.function("on_boot", 0, |f| f.ret(None));
        pb.build().unwrap()
    }

    #[test]
    fn builder_chain() {
        let t = Topology::line(3);
        let programs = vec![noop_program(), noop_program(), noop_program()];
        let s = Scenario::new(t, programs)
            .with_duration_ms(5000)
            .with_state_cap(100)
            .with_history_tracking(true)
            .with_sample_every(0);
        assert_eq!(s.duration_ms, 5000);
        assert_eq!(s.state_cap, 100);
        assert!(s.track_history);
        assert_eq!(s.sample_every, 1, "clamped to at least 1");
        assert_eq!(s.node_count(), 3);
    }

    #[test]
    #[should_panic(expected = "one program per node")]
    fn program_count_must_match() {
        let t = Topology::line(3);
        Scenario::new(t, vec![noop_program()]);
    }
}
