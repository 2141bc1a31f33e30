//! Symbolic failure-injection configuration.
//!
//! Failures live in the layer *above* the ideal network (paper footnote
//! 2): the network always delivers, and a configured node then branches
//! at reception — one state keeps the packet, the sibling drops (or
//! duplicates) it. The engine in `sde-core` consumes this configuration;
//! this module only describes *which* nodes inject *what*, mirroring the
//! KleeNet configuration file described in §IV-A.
//!
//! One table covers all seven [`FailureKind`]s: the paper's drop,
//! duplicate and reboot, and four more — partition, latency, corruption
//! and crash-recovery — each still a symbolic decision the engine forks
//! on at a delivery.

use crate::topology::{NodeId, Topology};
use std::collections::BTreeSet;

/// The kinds of symbolic failures a node can decide at a reception. The
/// discriminant is the kind's budget slot — in [`FailureConfig::budgets`]
/// and in every engine state — in the order snapshots store the budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureKind {
    /// At reception, fork into {received, dropped}.
    PacketDrop,
    /// At reception, fork into {delivered once, delivered twice}.
    PacketDuplicate,
    /// At reception, fork into {normal, node reboots} (volatile memory is
    /// cleared and `on_boot` runs again in the reboot branch).
    NodeReboot,
    /// At the first delivery across a cut edge, fork into {delivered,
    /// partitioned}: the partitioned lineage silently loses every
    /// cut-crossing delivery until a (possibly symbolic) heal time.
    Partition,
    /// At reception, fork into {now, delayed by the latency delay},
    /// reordering the delivery in the virtual-time queue.
    Latency,
    /// At reception, fork into {intact, first payload word XOR-flipped
    /// by a fresh symbolic byte}.
    Corruption,
    /// At reception, fork into {normal, crash}: like a reboot, but heap
    /// cells inside the persistence window survive.
    CrashRecovery,
}

impl FailureKind {
    /// Every kind, in budget-slot order.
    pub const ALL: [FailureKind; 7] = [
        FailureKind::PacketDrop,
        FailureKind::PacketDuplicate,
        FailureKind::NodeReboot,
        FailureKind::Partition,
        FailureKind::Latency,
        FailureKind::Corruption,
        FailureKind::CrashRecovery,
    ];

    /// The fault axes a sweep layers over a workload's own failures, in
    /// the canonical order every sweep and the minimizer's shrink pass
    /// use.
    pub const AXES: [FailureKind; 4] = [
        FailureKind::Partition,
        FailureKind::Latency,
        FailureKind::Corruption,
        FailureKind::CrashRecovery,
    ];

    /// The kind's stable name, for labels, CLI values and repro
    /// artifacts.
    pub fn name(self) -> &'static str {
        let names = [
            "drop",
            "duplicate",
            "reboot",
            "partition",
            "latency",
            "corrupt",
            "crashrec",
        ];
        names[self as usize]
    }
}

/// Normalizes an undirected edge to `(min, max)` node-id order.
fn edge(a: NodeId, b: NodeId) -> (u16, u16) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Which nodes inject which symbolic failures, and how often: per
/// [`FailureKind`], a node set and a budget of decisions per node, plus
/// what the extended kinds need besides — the partition's cut set and
/// heal choices, the latency delay and the persistence window.
///
/// The paper's setup: "nodes on the data path towards the destination and
/// their neighbors should symbolically drop one packet" — expressed here
/// as [`FailureConfig::drops_on_route_and_neighbors`].
///
/// Every builder *replaces* its axis: arming a kind twice keeps the
/// second call's nodes and budget only.
///
/// # Examples
///
/// ```
/// use sde_net::{FailureConfig, FailureKind, NodeId, Topology};
///
/// let grid = Topology::grid(5, 5);
/// let cfg = FailureConfig::new()
///     .drops_on_route_and_neighbors(&grid, NodeId(24), NodeId(0), 1)
///     .with_partition([(NodeId(0), NodeId(1))], [40])
///     .with_latency([NodeId(2)], 6, 1);
/// assert!(cfg.budget(NodeId(19), FailureKind::PacketDrop) > 0); // route node
/// assert_eq!(cfg.budget(NodeId(24), FailureKind::PacketDrop), 0); // the source itself never receives
/// assert!(cfg.cut_contains(NodeId(1), NodeId(0)));
/// assert_eq!(cfg.budget(NodeId(1), FailureKind::Partition), 1);
/// assert_eq!(cfg.budgets(NodeId(2))[FailureKind::Latency as usize], 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureConfig {
    /// The nodes armed for each kind, indexed by [`FailureKind`].
    nodes: [BTreeSet<NodeId>; 7],
    /// Decisions per armed node, indexed by [`FailureKind`].
    budgets: [u32; 7],
    /// Partitionable edges, normalized to `(min, max)` node-id order.
    cut: BTreeSet<(u16, u16)>,
    /// Candidate heal durations (virtual ms); 1 entry = concrete heal
    /// time, 2 entries = one extra symbolic choice between them.
    heal_ms: Vec<u64>,
    /// Extra delay (virtual ms) of the delayed branch.
    latency_extra_ms: u64,
    /// First heap address of the persistence window.
    persist_base: u32,
    /// Size (bytes of address space) of the persistence window.
    persist_size: u32,
}

impl FailureConfig {
    /// No failures anywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `kind` on exactly `nodes`, `budget` decisions each.
    fn arm(
        mut self,
        kind: FailureKind,
        nodes: impl IntoIterator<Item = NodeId>,
        budget: u32,
    ) -> Self {
        self.nodes[kind as usize] = nodes.into_iter().collect();
        self.budgets[kind as usize] = budget;
        self
    }

    /// Lets each node in `nodes` symbolically drop up to `budget` packets.
    #[must_use]
    pub fn with_drops(self, nodes: impl IntoIterator<Item = NodeId>, budget: u32) -> Self {
        self.arm(FailureKind::PacketDrop, nodes, budget)
    }

    /// Lets each node in `nodes` symbolically duplicate up to `budget`
    /// packets.
    #[must_use]
    pub fn with_duplicates(self, nodes: impl IntoIterator<Item = NodeId>, budget: u32) -> Self {
        self.arm(FailureKind::PacketDuplicate, nodes, budget)
    }

    /// Lets each node in `nodes` symbolically reboot up to `budget` times.
    #[must_use]
    pub fn with_reboots(self, nodes: impl IntoIterator<Item = NodeId>, budget: u32) -> Self {
        self.arm(FailureKind::NodeReboot, nodes, budget)
    }

    /// Declares a partitionable cut set and its candidate heal
    /// durations. Edges are undirected (normalized internally); each
    /// endpoint gets one partition decision (one episode per lineage).
    ///
    /// # Panics
    ///
    /// Panics unless `heal_ms` has one or two entries (two entries make
    /// the heal time itself one extra symbolic choice).
    #[must_use]
    pub fn with_partition(
        mut self,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
        heal_ms: impl IntoIterator<Item = u64>,
    ) -> Self {
        self.cut = edges.into_iter().map(|(a, b)| edge(a, b)).collect();
        self.heal_ms = heal_ms.into_iter().collect();
        assert!(
            (1..=2).contains(&self.heal_ms.len()),
            "heal_ms needs one or two candidate durations"
        );
        let ends: Vec<NodeId> = (self.cut.iter())
            .flat_map(|&(a, b)| [NodeId(a), NodeId(b)])
            .collect();
        self.arm(FailureKind::Partition, ends, 1)
    }

    /// Enables symbolic delivery latency on `nodes`: each gets `budget`
    /// decisions, and the delayed branch arrives `extra_ms` later.
    #[must_use]
    pub fn with_latency(
        mut self,
        nodes: impl IntoIterator<Item = NodeId>,
        extra_ms: u64,
        budget: u32,
    ) -> Self {
        self.latency_extra_ms = extra_ms;
        self.arm(FailureKind::Latency, nodes, budget)
    }

    /// Enables symbolic payload corruption on `nodes`, `budget`
    /// decisions each.
    #[must_use]
    pub fn with_corruption(self, nodes: impl IntoIterator<Item = NodeId>, budget: u32) -> Self {
        self.arm(FailureKind::Corruption, nodes, budget)
    }

    /// Enables symbolic crash-recovery on `nodes`, `budget` decisions
    /// each; heap cells in `[persist_base, persist_base + persist_size)`
    /// survive a crash.
    #[must_use]
    pub fn with_crash_recovery(
        mut self,
        nodes: impl IntoIterator<Item = NodeId>,
        budget: u32,
        persist_base: u32,
        persist_size: u32,
    ) -> Self {
        self.persist_base = persist_base;
        self.persist_size = persist_size;
        self.arm(FailureKind::CrashRecovery, nodes, budget)
    }

    /// The paper's §IV-A configuration: every node on the static route
    /// from `source` to `sink`, plus each such node's one-hop neighbors,
    /// may symbolically drop up to `budget` packets. The source itself is
    /// excluded (it only transmits).
    #[must_use]
    pub fn drops_on_route_and_neighbors(
        self,
        topology: &Topology,
        source: NodeId,
        sink: NodeId,
        budget: u32,
    ) -> Self {
        let mut nodes = BTreeSet::new();
        if let Some(route) = topology.route(source, sink) {
            for &hop in &route {
                nodes.insert(hop);
                for nb in topology.neighbors(hop) {
                    nodes.insert(nb);
                }
            }
        }
        nodes.remove(&source);
        self.with_drops(nodes, budget)
    }

    /// The configured decisions of `kind` for `node` (per-state budgets
    /// are tracked by the engine; this is the configured maximum).
    pub fn budget(&self, node: NodeId, kind: FailureKind) -> u32 {
        if self.nodes[kind as usize].contains(&node) {
            self.budgets[kind as usize]
        } else {
            0
        }
    }

    /// Every configured budget of `node`, indexed by [`FailureKind`]: a
    /// boot state's budgets.
    pub fn budgets(&self, node: NodeId) -> [u32; 7] {
        FailureKind::ALL.map(|kind| self.budget(node, kind))
    }

    /// Is the undirected edge `a`–`b` in the partitionable cut set?
    pub fn cut_contains(&self, a: NodeId, b: NodeId) -> bool {
        self.cut.contains(&edge(a, b))
    }

    /// Candidate heal durations (1 or 2 entries; empty when no
    /// partition is configured).
    pub fn heal_choices(&self) -> &[u64] {
        &self.heal_ms
    }

    /// Extra delay of the delayed delivery branch, in virtual ms.
    pub fn latency_extra_ms(&self) -> u64 {
        self.latency_extra_ms
    }

    /// First heap address that survives a crash.
    pub fn persist_base(&self) -> u32 {
        self.persist_base
    }

    /// Length of the persistence window.
    pub fn persist_size(&self) -> u32 {
        self.persist_size
    }

    /// Does every cut edge exist in `topology`? A cut naming a non-edge
    /// partitions nothing on it (deliveries only ever cross real links),
    /// so this is a configuration lint.
    pub fn cut_edges_exist_in(&self, topology: &Topology) -> bool {
        self.cut
            .iter()
            .all(|&(a, b)| topology.are_neighbors(NodeId(a), NodeId(b)))
    }

    /// Returns `true` when no node injects any failure.
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(BTreeSet::is_empty)
    }

    /// The armed kinds of [`FailureKind::AXES`], in that order — the
    /// minimizer's shrink candidates and the repro artifact's fault
    /// label.
    pub fn active_axes(&self) -> Vec<FailureKind> {
        (FailureKind::AXES.into_iter())
            .filter(|&kind| !self.nodes[kind as usize].is_empty())
            .collect()
    }

    /// Removes the `kind` axis entirely — the minimizer's generic shrink
    /// hook. A partition loses its cut set and heal choices, latency its
    /// delay; the persistence window bounds stay (they describe memory
    /// layout, not injected behavior).
    #[must_use]
    pub fn without_axis(mut self, kind: FailureKind) -> Self {
        match kind {
            FailureKind::Partition => {
                self.cut.clear();
                self.heal_ms.clear();
            }
            FailureKind::Latency => self.latency_extra_ms = 0,
            _ => {}
        }
        self.arm(kind, [], 0)
    }

    /// Order-independent FNV-style fingerprint of the extended axes. A
    /// snapshot stores it and resume checks it (a checkpoint resumed
    /// under a different configuration would silently change the meaning
    /// of every stored budget); a `repro` artifact stores it as
    /// `fault_fingerprint`, and `repro --replay` refuses a mismatch.
    ///
    /// It folds the cut set, the heal choices, then latency, corruption
    /// and crash-recovery (nodes, delay, budget), then the persistence
    /// window. Drop, duplicate and reboot stay out: folding them in would
    /// move the `fault_fingerprint` of every drop-bearing artifact already
    /// written, and `--replay` would refuse it. After boot their budgets
    /// ride in each state's `budgets`, which a snapshot stores whole.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        fold(self.cut.len() as u64);
        for &(a, b) in &self.cut {
            fold(u64::from(a) << 16 | u64::from(b));
        }
        fold(self.heal_ms.len() as u64);
        for &ms in &self.heal_ms {
            fold(ms);
        }
        // Latency, corruption, crash-recovery.
        for &kind in &FailureKind::AXES[1..] {
            let nodes = &self.nodes[kind as usize];
            fold(nodes.len() as u64);
            for n in nodes {
                fold(u64::from(n.0));
            }
            if kind == FailureKind::Latency {
                fold(self.latency_extra_ms);
            }
            fold(u64::from(self.budgets[kind as usize]));
        }
        fold(u64::from(self.persist_base));
        fold(u64::from(self.persist_size));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_has_no_budgets() {
        let cfg = FailureConfig::new();
        assert!(cfg.is_empty());
        assert_eq!(cfg.budgets(NodeId(0)), [0; 7]);
        assert!(cfg.heal_choices().is_empty());
        assert!(!cfg.cut_contains(NodeId(0), NodeId(1)));
        assert!(cfg.active_axes().is_empty());
    }

    #[test]
    fn explicit_drop_nodes() {
        let cfg = FailureConfig::new().with_drops([NodeId(1), NodeId(2)], 3);
        assert_eq!(cfg.budget(NodeId(1), FailureKind::PacketDrop), 3);
        assert_eq!(cfg.budget(NodeId(2), FailureKind::PacketDrop), 3);
        assert_eq!(cfg.budget(NodeId(3), FailureKind::PacketDrop), 0);
        assert_eq!(cfg.budget(NodeId(1), FailureKind::NodeReboot), 0);
    }

    #[test]
    fn route_and_neighbors_on_a_line() {
        // Line 0-1-2-3, route 3→0 covers everything; all but the source
        // get a budget.
        let t = Topology::line(4);
        let cfg = FailureConfig::new().drops_on_route_and_neighbors(&t, NodeId(3), NodeId(0), 1);
        let drops: Vec<u32> = (t.nodes())
            .map(|n| cfg.budget(n, FailureKind::PacketDrop))
            .collect();
        assert_eq!(drops, [1, 1, 1, 0]);
    }

    #[test]
    fn route_and_neighbors_on_a_grid_excludes_far_nodes() {
        let t = Topology::grid(5, 5);
        let cfg = FailureConfig::new().drops_on_route_and_neighbors(&t, NodeId(24), NodeId(0), 1);
        // Which nodes neighbor the route depends on BFS tie-breaking, so
        // count instead: the route plus its neighbors is a strict subset.
        let with_budget = (t.nodes())
            .filter(|&n| cfg.budget(n, FailureKind::PacketDrop) > 0)
            .count();
        assert!(with_budget > 8, "route plus neighbors, got {with_budget}");
        assert!(with_budget < 25, "not the whole grid");
    }

    #[test]
    fn kinds_are_independent() {
        let cfg = FailureConfig::new()
            .with_drops([NodeId(1)], 1)
            .with_duplicates([NodeId(2)], 2)
            .with_reboots([NodeId(3)], 1)
            .with_latency([NodeId(1)], 6, 2)
            .with_corruption([NodeId(2)], 1)
            .with_crash_recovery([NodeId(0)], 1, 0x8000, 64);
        assert_eq!(cfg.budgets(NodeId(1)), [1, 0, 0, 0, 2, 0, 0]);
        assert_eq!(cfg.budgets(NodeId(2)), [0, 2, 0, 0, 0, 1, 0]);
        assert_eq!(cfg.budgets(NodeId(3)), [0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(cfg.budgets(NodeId(0)), [0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(cfg.latency_extra_ms(), 6);
        assert_eq!(cfg.persist_base(), 0x8000);
        assert_eq!(cfg.persist_size(), 64);
        assert!(!cfg.is_empty());
    }

    #[test]
    fn an_axis_builder_replaces_the_axis() {
        let cfg = FailureConfig::new()
            .with_drops([NodeId(0)], 2)
            .with_drops([NodeId(1)], 1)
            .with_latency([NodeId(0)], 6, 2)
            .with_latency([NodeId(1)], 9, 1);
        for kind in [FailureKind::PacketDrop, FailureKind::Latency] {
            assert_eq!(cfg.budget(NodeId(0), kind), 0, "{kind:?}");
            assert_eq!(cfg.budget(NodeId(1), kind), 1, "{kind:?}");
        }
        assert_eq!(cfg.latency_extra_ms(), 9);
    }

    #[test]
    fn cut_edges_are_undirected() {
        let cfg = FailureConfig::new().with_partition([(NodeId(2), NodeId(1))], [10]);
        assert!(cfg.cut_contains(NodeId(1), NodeId(2)));
        assert!(cfg.cut_contains(NodeId(2), NodeId(1)));
        assert!(!cfg.cut_contains(NodeId(0), NodeId(1)));
        assert_eq!(cfg.budget(NodeId(1), FailureKind::Partition), 1);
        assert_eq!(cfg.budget(NodeId(2), FailureKind::Partition), 1);
        assert_eq!(cfg.budget(NodeId(0), FailureKind::Partition), 0);
    }

    #[test]
    #[should_panic(expected = "one or two candidate durations")]
    fn heal_needs_at_most_two_choices() {
        let _ = FailureConfig::new().with_partition([(NodeId(0), NodeId(1))], [1, 2, 3]);
    }

    #[test]
    fn cut_edge_lint_checks_the_topology() {
        let t = Topology::line(3);
        let real = FailureConfig::new().with_partition([(NodeId(0), NodeId(1))], [10]);
        assert!(real.cut_edges_exist_in(&t));
        let fake = FailureConfig::new().with_partition([(NodeId(0), NodeId(2))], [10]);
        assert!(!fake.cut_edges_exist_in(&t));
    }

    #[test]
    fn axis_shrink_hooks_remove_exactly_one_axis() {
        let full = FailureConfig::new()
            .with_drops([NodeId(0)], 1)
            .with_partition([(NodeId(0), NodeId(1))], [40, 80])
            .with_latency([NodeId(0)], 6, 1)
            .with_corruption([NodeId(0)], 1)
            .with_crash_recovery([NodeId(0)], 1, 0x8000, 64);
        assert_eq!(full.active_axes(), FailureKind::AXES.to_vec());
        for axis in FailureKind::AXES {
            let shrunk = full.clone().without_axis(axis);
            let expected: Vec<FailureKind> = (FailureKind::AXES.into_iter())
                .filter(|a| *a != axis)
                .collect();
            assert_eq!(shrunk.active_axes(), expected, "{axis:?}");
            assert_ne!(shrunk.fingerprint(), full.fingerprint(), "{axis:?}");
        }
        let dropless = (FailureKind::AXES.into_iter()).fold(full, FailureConfig::without_axis);
        assert!(dropless.active_axes().is_empty());
        assert_eq!(dropless.budgets(NodeId(0)), [1, 0, 0, 0, 0, 0, 0]);
        assert!(dropless.heal_choices().is_empty());
        let empty = dropless.without_axis(FailureKind::PacketDrop);
        assert!(empty.is_empty());
    }

    #[test]
    fn fingerprint_tracks_every_extended_field_and_no_other() {
        let base = FailureConfig::new().with_latency([NodeId(1)], 6, 1);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        assert_ne!(base.fingerprint(), FailureConfig::new().fingerprint());
        let more = base.clone().with_latency([NodeId(1)], 7, 1);
        assert_ne!(base.fingerprint(), more.fingerprint());
        let crash = base.clone().with_crash_recovery([NodeId(0)], 1, 0x8000, 64);
        assert_ne!(base.fingerprint(), crash.fingerprint());
        let part = base.clone().with_partition([(NodeId(0), NodeId(1))], [40]);
        assert_ne!(part.fingerprint(), base.fingerprint());
        let paper = base
            .clone()
            .with_drops([NodeId(1)], 1)
            .with_duplicates([NodeId(1)], 1)
            .with_reboots([NodeId(1)], 1);
        assert_eq!(paper.fingerprint(), base.fingerprint());
    }
}
