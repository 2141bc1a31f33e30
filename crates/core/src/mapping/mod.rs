//! The state mapping problem and its three solutions (§III).
//!
//! When an execution state transmits a packet, the *state mapping
//! algorithm* decides which states on the destination node receive it and
//! which states must be forked so that the set of represented distributed
//! scenarios stays consistent. The paper develops three algorithms:
//!
//! * [`Cob`](crate::mapping::cob::Cob) — Copy On Branch (§III-A): the
//!   correctness baseline. Exactly one state per node per *dscenario*;
//!   every local branch forks all `k − 1` peer states.
//! * [`Cow`](crate::mapping::cow::Cow) — Delayed Copy On Write (§III-B):
//!   *dstates* hold conflict-free states (several per node); only a
//!   conflicting transmission forks, but it forks bystanders too.
//! * [`Sds`](crate::mapping::sds::Sds) — Super DStates (§III-C): states
//!   belong to several dstates through *virtual states*; COW runs on the
//!   virtual layer and only target states fork at the execution level —
//!   provably duplication-free (§III-D).
//!
//! Mappers are engine-agnostic: they see opaque [`StateId`]s and a
//! [`StateStore`] through which they fork states; the engine owns the
//! states themselves, packet delivery and history updates.

pub mod cob;
pub mod cow;
mod members;
pub mod sds;

use crate::state::StateId;
use sde_net::NodeId;
use std::fmt;

/// The engine-side service mappers use to duplicate states.
///
/// `fork` clones the state (including its pending events) under a fresh
/// identity and returns the new id; the clone starts in the same group
/// bookkeeping state as any other new state — registering it in the
/// mapper's own structures is the mapper's job.
pub trait StateStore {
    /// Clones `original` (must be resident and not currently executing)
    /// and returns the clone's id.
    fn fork(&mut self, original: StateId) -> StateId;

    /// The node a resident state belongs to.
    fn node_of(&self, state: StateId) -> NodeId;
}

/// The mapper's answer to "state `s` transmits a packet to node `d`":
/// which states receive it. All forking the answer required has already
/// happened through the [`StateStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The states receiving the packet (the paper's *targets*, post-fork).
    pub receivers: Vec<StateId>,
}

/// Work counters of a state mapping algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapperStats {
    /// Local branches observed.
    pub branches_seen: u64,
    /// Transmissions mapped.
    pub sends_mapped: u64,
    /// Execution states the mapper forked (beyond the branch itself).
    /// This is the algorithm's duplication cost: COB pays per branch,
    /// COW per conflicting send (targets *and* bystanders), SDS only per
    /// genuinely-receiving target.
    pub mapper_forks: u64,
    /// Virtual states forked (SDS only; free at the execution level).
    pub virtual_forks: u64,
}

/// One exported COB dscenario: `(group id, members as (node, state))`,
/// members in node order.
pub type CobGroupSnapshot = (u64, Vec<(u16, u64)>);

/// One exported COW dstate: `(group id, per-node member state sets)`,
/// nodes and members in ascending order.
pub type CowGroupSnapshot = (u64, Vec<(u16, Vec<u64>)>);

/// One exported SDS virtual state: `(vid, owner state, node, dstate)`.
pub type VStateSnapshot = (u64, u64, u16, u64);

/// A mapper's complete bookkeeping, flattened for the snapshot codec
/// (see [`crate::EngineSnapshot`]). Derived indexes (state → group; for
/// SDS the owner slots, and the columns its dstates share) are rebuilt on
/// import, so only the primary tables are stored. Exports are
/// deterministic: every list is sorted by its leading id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapperSnapshot {
    /// Copy-On-Branch bookkeeping: one complete dscenario per group.
    Cob {
        /// All dscenarios, sorted by group id.
        groups: Vec<CobGroupSnapshot>,
        /// The next group id to allocate.
        next_group: u64,
        /// Work counters.
        stats: MapperStats,
    },
    /// Delayed-Copy-On-Write bookkeeping: per-dstate member sets.
    Cow {
        /// All dstates, sorted by group id.
        dstates: Vec<CowGroupSnapshot>,
        /// The next group id to allocate.
        next_group: u64,
        /// Work counters.
        stats: MapperStats,
    },
    /// Super-DState bookkeeping: the virtual-state table plus the dstate
    /// id set (ids alone suffice — membership is derived from the
    /// virtual states). Both id spaces are dense and never freed, so the
    /// lists are exactly `0..next_v` and `0..next_group`; an import
    /// rejects anything else, and ends with
    /// [`StateMapper::check_invariants`], so a table the mapper could not
    /// have written is an `Err`, never a later panic in `map_send`.
    Sds {
        /// Every virtual state, sorted by vid. Within one dstate and node
        /// the vid order is the members' join order; the mapper numbers
        /// them dstate by dstate, node by node, on export.
        vstates: Vec<VStateSnapshot>,
        /// Every dstate id (kept separately so a dstate that happens to
        /// be empty still counts toward [`StateMapper::group_count`]).
        groups: Vec<u64>,
        /// The next dstate id to allocate.
        next_group: u64,
        /// The next virtual-state id to allocate.
        next_v: u64,
        /// Work counters.
        stats: MapperStats,
    },
}

impl MapperSnapshot {
    /// The algorithm this snapshot belongs to.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            MapperSnapshot::Cob { .. } => Algorithm::Cob,
            MapperSnapshot::Cow { .. } => Algorithm::Cow,
            MapperSnapshot::Sds { .. } => Algorithm::Sds,
        }
    }

    /// Every `(state, node)` pair the bookkeeping names, with repeats (a
    /// COW state sits in one dstate, an SDS state owns many virtual
    /// states). [`Engine::resume`](crate::Engine::resume) checks these
    /// against the resident states.
    pub(crate) fn members(&self) -> Box<dyn Iterator<Item = (StateId, NodeId)> + '_> {
        match self {
            MapperSnapshot::Cob { groups, .. } => Box::new(
                groups
                    .iter()
                    .flat_map(|(_, members)| members)
                    .map(|(node, state)| (StateId(*state), NodeId(*node))),
            ),
            MapperSnapshot::Cow { dstates, .. } => Box::new(
                dstates
                    .iter()
                    .flat_map(|(_, nodes)| nodes)
                    .flat_map(|(node, states)| states.iter().map(|s| (StateId(*s), NodeId(*node)))),
            ),
            MapperSnapshot::Sds { vstates, .. } => Box::new(
                vstates
                    .iter()
                    .map(|(_, owner, node, _)| (StateId(*owner), NodeId(*node))),
            ),
        }
    }
}

/// A state mapping algorithm (object-safe so the engine can switch
/// implementations at run time).
pub trait StateMapper: fmt::Debug {
    /// Short algorithm name ("COB", "COW", "SDS").
    fn name(&self) -> &'static str;

    /// Registers the initial states, one per node, forming the initial
    /// dscenario/dstate.
    fn on_boot(&mut self, states: &[(StateId, NodeId)]);

    /// A state branched locally (symbolic input, failure model): `child`
    /// is the freshly created sibling of `parent`, both on `node`.
    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        store: &mut dyn StateStore,
    );

    /// `sender` (on `sender_node`) transmits a packet to node `dest`;
    /// decides the receivers, forking through `store` as needed.
    fn map_send(
        &mut self,
        sender: StateId,
        sender_node: NodeId,
        dest: NodeId,
        store: &mut dyn StateStore,
    ) -> Delivery;

    /// Number of groups (dscenarios for COB, dstates for COW/SDS)
    /// currently represented.
    fn group_count(&self) -> usize;

    /// Work counters.
    fn stats(&self) -> MapperStats;

    /// Deterministic estimate of the bytes the mapper's own tables hold —
    /// the companion of [`SdeState::approx_bytes`](crate::SdeState::approx_bytes)
    /// for the bookkeeping *about* states. Computed from element counts
    /// only (never capacities), so equal tables report equal bytes however
    /// they were arrived at. (SDS dstates share columns: a mapper imported
    /// from a snapshot shares every equal column, and may report fewer
    /// bytes than the run that wrote it.) The default — for mappers that
    /// do not account for themselves — is 0.
    fn approx_bytes(&self) -> usize {
        0
    }

    /// Enumerates every represented dscenario as a set of state ids (one
    /// state per node). This is the §IV-C "explosion" used for test-case
    /// generation; the iterator is lazy because the count is exponential
    /// for COW/SDS.
    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_>;

    /// Enumerates only the dscenarios containing `state` — the contexts a
    /// bug found in `state` can occur in. The default filters
    /// [`dscenarios`](StateMapper::dscenarios); implementations override
    /// with a group-local enumeration.
    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        Box::new(self.dscenarios().filter(move |sc| sc.contains(&state)))
    }

    /// Validates internal invariants, returning a description of the
    /// first violation. Used by tests; `None` means consistent.
    fn check_invariants(&self) -> Option<String>;

    /// Exports the mapper's complete bookkeeping for a checkpoint
    /// (deterministic: equal mappers export equal snapshots).
    fn export_snapshot(&self) -> MapperSnapshot;

    /// Replaces this mapper's bookkeeping with a snapshot exported by
    /// [`StateMapper::export_snapshot`]. Fails when the snapshot belongs
    /// to a different algorithm or is internally inconsistent; the mapper
    /// must be freshly constructed (nothing booted).
    fn import_snapshot(&mut self, snapshot: MapperSnapshot) -> Result<(), String>;
}

/// Selects a state mapping algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Copy On Branch (§III-A).
    Cob,
    /// Delayed Copy On Write (§III-B).
    Cow,
    /// Super DStates (§III-C).
    Sds,
}

impl Algorithm {
    /// All three algorithms, in the paper's order.
    pub const ALL: [Algorithm; 3] = [Algorithm::Cob, Algorithm::Cow, Algorithm::Sds];

    /// Instantiates the mapper.
    pub fn new_mapper(self) -> Box<dyn StateMapper> {
        match self {
            Algorithm::Cob => Box::new(cob::Cob::new()),
            Algorithm::Cow => Box::new(cow::Cow::new()),
            Algorithm::Sds => Box::new(sds::Sds::new()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Cob => "COB",
            Algorithm::Cow => "COW",
            Algorithm::Sds => "SDS",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Lazily enumerates the cartesian product of per-node state sets — the
/// dscenarios represented by one dstate.
pub(crate) struct CartesianScenarios {
    axes: Vec<Vec<StateId>>,
    cursor: Vec<usize>,
    done: bool,
}

impl CartesianScenarios {
    pub(crate) fn new(axes: Vec<Vec<StateId>>) -> CartesianScenarios {
        let done = axes.is_empty() || axes.iter().any(Vec::is_empty);
        let cursor = vec![0; axes.len()];
        CartesianScenarios { axes, cursor, done }
    }
}

impl Iterator for CartesianScenarios {
    type Item = Vec<StateId>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item: Vec<StateId> = self
            .axes
            .iter()
            .zip(&self.cursor)
            .map(|(axis, &i)| axis[i])
            .collect();
        // Odometer increment.
        let mut pos = self.axes.len();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            self.cursor[pos] += 1;
            if self.cursor[pos] < self.axes[pos].len() {
                break;
            }
            self.cursor[pos] = 0;
        }
        Some(item)
    }
}

/// A minimal in-memory [`StateStore`]: node assignments and fork
/// genealogy only, no VM states.
///
/// Lets the mapping algorithms run standalone — unit tests and the
/// benchmark's mapping drivers exercise mapping decisions without paying
/// for program execution.
///
/// # Examples
///
/// ```
/// use sde_core::mapping::{Algorithm, MemoryStore};
///
/// let mut mapper = Algorithm::Sds.new_mapper();
/// let mut store = MemoryStore::booted(mapper.as_mut(), 4);
/// let d = mapper.map_send(
///     store.state(0), store.node(0), store.node(1), &mut store);
/// assert_eq!(d.receivers.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MemoryStore {
    nodes: std::collections::HashMap<StateId, NodeId>,
    next: u64,
    forks: Vec<(StateId, StateId)>,
}

impl MemoryStore {
    /// A store pre-populated with the given states.
    pub fn with_states(states: &[(StateId, NodeId)]) -> MemoryStore {
        let mut s = MemoryStore::default();
        for (id, n) in states {
            s.nodes.insert(*id, *n);
            s.next = s.next.max(id.0 + 1);
        }
        s
    }

    /// Boots `mapper` with one state per node (state ids `0..k` on nodes
    /// `0..k`) and returns the matching store.
    pub fn booted(mapper: &mut dyn StateMapper, k: u16) -> MemoryStore {
        let states: Vec<(StateId, NodeId)> =
            (0..k).map(|i| (StateId(u64::from(i)), NodeId(i))).collect();
        mapper.on_boot(&states);
        MemoryStore::with_states(&states)
    }

    /// Registers a branch child of `parent` (allocates the id, tells the
    /// mapper) and returns the child's id.
    pub fn branch(&mut self, mapper: &mut dyn StateMapper, parent: StateId) -> StateId {
        let node = self.nodes[&parent];
        let child = StateId(self.next);
        self.next += 1;
        self.nodes.insert(child, node);
        mapper.on_branch(parent, child, node, self);
        child
    }

    /// Convenience: the boot state id `i` (the `MemoryStore::booted`
    /// numbering).
    pub fn state(&self, i: u64) -> StateId {
        StateId(i)
    }

    /// Convenience: node id `i`.
    pub fn node(&self, i: u16) -> NodeId {
        NodeId(i)
    }

    /// All forks the mappers requested, in order.
    pub fn forks(&self) -> &[(StateId, StateId)] {
        &self.forks
    }

    /// Total states known to the store.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false` once booted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl StateStore for MemoryStore {
    fn fork(&mut self, original: StateId) -> StateId {
        let node = self.nodes[&original];
        let id = StateId(self.next);
        self.next += 1;
        self.nodes.insert(id, node);
        self.forks.push((original, id));
        id
    }

    fn node_of(&self, state: StateId) -> NodeId {
        self.nodes[&state]
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Thin aliases keeping the existing unit tests readable.

    use super::*;

    pub type MockStore = MemoryStore;

    /// Boots a mapper with one state per node (ids `0..k`), returning the
    /// store.
    pub fn boot(mapper: &mut dyn StateMapper, k: u16) -> MemoryStore {
        MemoryStore::booted(mapper, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_covers_all_combinations() {
        let axes = vec![
            vec![StateId(0), StateId(1)],
            vec![StateId(2)],
            vec![StateId(3), StateId(4), StateId(5)],
        ];
        let all: Vec<Vec<StateId>> = CartesianScenarios::new(axes).collect();
        assert_eq!(all.len(), 6);
        // All distinct.
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        // Every combination has one entry per axis.
        for combo in &all {
            assert_eq!(combo.len(), 3);
            assert_eq!(combo[1], StateId(2));
        }
    }

    #[test]
    fn cartesian_empty_axis_yields_nothing() {
        let axes = vec![vec![StateId(0)], vec![]];
        assert_eq!(CartesianScenarios::new(axes).count(), 0);
        assert_eq!(CartesianScenarios::new(vec![]).count(), 0);
    }

    #[test]
    fn mapper_snapshots_roundtrip_per_algorithm() {
        for alg in Algorithm::ALL {
            let mut mapper = alg.new_mapper();
            let mut store = MemoryStore::booted(mapper.as_mut(), 3);
            store.branch(mapper.as_mut(), StateId(0));
            mapper.map_send(StateId(0), store.node(0), store.node(1), &mut store);
            let snap = mapper.export_snapshot();
            assert_eq!(snap.algorithm(), alg);

            let mut fresh = alg.new_mapper();
            fresh.import_snapshot(snap.clone()).expect("import");
            assert_eq!(fresh.export_snapshot(), snap, "export is a fixed point");
            assert_eq!(fresh.group_count(), mapper.group_count());
            assert_eq!(fresh.stats(), mapper.stats());
            assert!(fresh.check_invariants().is_none());
            let mut original: Vec<Vec<StateId>> = mapper.dscenarios().collect();
            let mut restored: Vec<Vec<StateId>> = fresh.dscenarios().collect();
            original.sort();
            restored.sort();
            assert_eq!(original, restored, "same represented dscenarios");
        }
    }

    #[test]
    fn mapper_snapshot_import_rejects_wrong_algorithm() {
        let mut cob = Algorithm::Cob.new_mapper();
        MemoryStore::booted(cob.as_mut(), 2);
        let snap = cob.export_snapshot();
        let mut cow = Algorithm::Cow.new_mapper();
        let err = cow.import_snapshot(snap).unwrap_err();
        assert!(
            err.contains("COB"),
            "error names the offending algorithm: {err}"
        );
    }

    #[test]
    fn mapper_snapshot_import_rejects_inconsistencies() {
        // A state listed in two dscenarios.
        let snap = MapperSnapshot::Cob {
            groups: vec![(0, vec![(0, 7)]), (1, vec![(0, 7)])],
            next_group: 2,
            stats: MapperStats::default(),
        };
        assert!(Algorithm::Cob.new_mapper().import_snapshot(snap).is_err());
        // An SDS vstate pointing at a missing dstate.
        let snap = MapperSnapshot::Sds {
            vstates: vec![(0, 0, 0, 9)],
            groups: vec![0],
            next_group: 1,
            next_v: 1,
            stats: MapperStats::default(),
        };
        assert!(Algorithm::Sds.new_mapper().import_snapshot(snap).is_err());
    }

    #[test]
    fn algorithm_factory() {
        for alg in Algorithm::ALL {
            let mapper = alg.new_mapper();
            assert_eq!(mapper.name(), alg.name());
            assert_eq!(mapper.group_count(), 0);
        }
        assert_eq!(Algorithm::Sds.to_string(), "SDS");
    }
}
