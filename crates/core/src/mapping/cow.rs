//! Delayed Copy On Write (§III-B).
//!
//! A *dstate* holds a set of pairwise conflict-free states, at least one
//! per node and possibly several; every state belongs to exactly one
//! dstate. Local branches are free: the child simply joins the parent's
//! dstate (identical communication history). Only a *conflicting*
//! transmission forks: when the sender has rivals (other states of its
//! node in the same dstate), the packet cannot be delivered in place —
//! in the rivals' context it was never sent. COW then moves the sender
//! into a fresh dstate together with forked copies of all targets and
//! bystanders, and delivers the packet to the forked targets (Fig. 4).
//!
//! The bystander copies are pure duplicates — the waste SDS eliminates.

use crate::mapping::{
    CartesianScenarios, CowGroupSnapshot, Delivery, MapperSnapshot, MapperStats, StateMapper,
    StateStore,
};
use crate::state::StateId;
use sde_net::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifier of one dstate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupId(u64);

/// The Copy-On-Write mapper. See the module documentation.
#[derive(Debug, Default)]
pub struct Cow {
    dstates: HashMap<GroupId, BTreeMap<NodeId, BTreeSet<StateId>>>,
    group_of: HashMap<StateId, GroupId>,
    next_group: u64,
    stats: MapperStats,
}

impl Cow {
    /// Creates an empty mapper; call
    /// [`on_boot`](StateMapper::on_boot) before use.
    pub fn new() -> Cow {
        Cow::default()
    }

    fn fresh_group(&mut self) -> GroupId {
        let g = GroupId(self.next_group);
        self.next_group += 1;
        g
    }
}

impl StateMapper for Cow {
    fn name(&self) -> &'static str {
        "COW"
    }

    fn on_boot(&mut self, states: &[(StateId, NodeId)]) {
        let g = self.fresh_group();
        let mut members: BTreeMap<NodeId, BTreeSet<StateId>> = BTreeMap::new();
        for (s, n) in states {
            members.entry(*n).or_default().insert(*s);
            self.group_of.insert(*s, g);
        }
        self.dstates.insert(g, members);
    }

    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        _store: &mut dyn StateStore,
    ) {
        self.stats.branches_seen += 1;
        // Branching is free: the sibling has the same communication
        // history, so it is conflict-free with everything in the dstate.
        let g = self.group_of[&parent];
        self.dstates
            .get_mut(&g)
            .expect("parent's dstate exists")
            .entry(node)
            .or_default()
            .insert(child);
        self.group_of.insert(child, g);
    }

    fn map_send(
        &mut self,
        sender: StateId,
        sender_node: NodeId,
        dest: NodeId,
        store: &mut dyn StateStore,
    ) -> Delivery {
        self.stats.sends_mapped += 1;
        let g = self.group_of[&sender];
        let has_rivals = self.dstates[&g]
            .get(&sender_node)
            .is_some_and(|set| set.len() > 1);

        if !has_rivals {
            // No conflict: every state of the destination node in this
            // dstate receives in place.
            let receivers: Vec<StateId> = self.dstates[&g]
                .get(&dest)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            debug_assert!(!receivers.is_empty(), "dstates keep one state per node");
            return Delivery { receivers };
        }

        // Conflict: move the sender into a fresh dstate and fork every
        // non-rival state of the original dstate into it.
        let snapshot: Vec<(NodeId, Vec<StateId>)> = self.dstates[&g]
            .iter()
            .map(|(n, set)| (*n, set.iter().copied().collect()))
            .collect();
        let new_g = self.fresh_group();

        let mut new_members: BTreeMap<NodeId, BTreeSet<StateId>> = BTreeMap::new();
        let mut receivers = Vec::new();
        for (n, states) in snapshot {
            if n == sender_node {
                continue; // rivals (and the sender) are handled below
            }
            for s in states {
                let copy = store.fork(s);
                self.stats.mapper_forks += 1;
                self.group_of.insert(copy, new_g);
                new_members.entry(n).or_default().insert(copy);
                if n == dest {
                    receivers.push(copy);
                }
            }
        }
        // Move the sender.
        self.dstates
            .get_mut(&g)
            .expect("dstate exists")
            .get_mut(&sender_node)
            .expect("sender's node populated")
            .remove(&sender);
        new_members.entry(sender_node).or_default().insert(sender);
        self.group_of.insert(sender, new_g);
        self.dstates.insert(new_g, new_members);

        Delivery { receivers }
    }

    fn group_count(&self) -> usize {
        self.dstates.len()
    }

    fn stats(&self) -> MapperStats {
        self.stats
    }

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // Within one dstate all same-node states are interchangeable
        // (identical histories), so its dscenarios are the cartesian
        // product of the per-node member sets.
        Box::new(self.dstates.values().flat_map(|members| {
            let axes: Vec<Vec<StateId>> = members
                .values()
                .map(|set| set.iter().copied().collect())
                .collect();
            CartesianScenarios::new(axes)
        }))
    }

    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // Pin the state's own node axis to `state`, cross the rest.
        let Some(g) = self.group_of.get(&state) else {
            return Box::new(std::iter::empty());
        };
        let axes: Vec<Vec<StateId>> = self.dstates[g]
            .values()
            .map(|set| {
                if set.contains(&state) {
                    vec![state]
                } else {
                    set.iter().copied().collect()
                }
            })
            .collect();
        Box::new(CartesianScenarios::new(axes))
    }

    fn check_invariants(&self) -> Option<String> {
        for (g, members) in &self.dstates {
            if members.is_empty() {
                return Some(format!("dstate {g:?} is empty"));
            }
            for (n, set) in members {
                if set.is_empty() {
                    return Some(format!("dstate {g:?} has no state on {n}"));
                }
                for s in set {
                    if self.group_of.get(s) != Some(g) {
                        return Some(format!("state {s} ownership inconsistent for {g:?}"));
                    }
                }
            }
        }
        for (s, g) in &self.group_of {
            let Some(members) = self.dstates.get(g) else {
                return Some(format!("state {s} references missing dstate {g:?}"));
            };
            if !members.values().any(|set| set.contains(s)) {
                return Some(format!("state {s} not present in its dstate {g:?}"));
            }
        }
        None
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        let mut dstates: Vec<CowGroupSnapshot> = self
            .dstates
            .iter()
            .map(|(g, members)| {
                let per_node = members
                    .iter()
                    .map(|(n, set)| (n.0, set.iter().map(|s| s.0).collect()))
                    .collect();
                (g.0, per_node)
            })
            .collect();
        dstates.sort_unstable_by_key(|(g, _)| *g);
        MapperSnapshot::Cow {
            dstates,
            next_group: self.next_group,
            stats: self.stats,
        }
    }

    fn import_snapshot(&mut self, snapshot: MapperSnapshot) -> Result<(), String> {
        let MapperSnapshot::Cow {
            dstates,
            next_group,
            stats,
        } = snapshot
        else {
            return Err(format!(
                "COW mapper cannot import a {} snapshot",
                snapshot.algorithm()
            ));
        };
        let mut restored = Cow {
            next_group,
            stats,
            ..Cow::default()
        };
        for (gid, per_node) in dstates {
            if gid >= next_group {
                return Err(format!("dstate id {gid} beyond allocator {next_group}"));
            }
            let g = GroupId(gid);
            let mut members: BTreeMap<NodeId, BTreeSet<StateId>> = BTreeMap::new();
            for (n, states) in per_node {
                let set = members.entry(NodeId(n)).or_default();
                for s in states {
                    if !set.insert(StateId(s)) {
                        return Err(format!("dstate {gid} lists state {s} twice"));
                    }
                    if restored.group_of.insert(StateId(s), g).is_some() {
                        return Err(format!("state {s} appears in two dstates"));
                    }
                }
            }
            if restored.dstates.insert(g, members).is_some() {
                return Err(format!("dstate id {gid} duplicated"));
            }
        }
        // Everything delivery indexes into is an invariant; a table that
        // breaks one is refused here, not found by a panic mid-run.
        if let Some(violation) = restored.check_invariants() {
            return Err(violation);
        }
        *self = restored;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::testutil::boot;

    #[test]
    fn branch_is_free() {
        let mut cow = Cow::new();
        let mut store = boot(&mut cow, 4);
        let child = StateId(100);
        store.nodes.insert(child, NodeId(0));
        store.next = 101;
        cow.on_branch(StateId(0), child, NodeId(0), &mut store);
        assert_eq!(cow.group_count(), 1, "branch does not split the dstate");
        assert!(store.forks.is_empty(), "no forks on branch");
        assert!(cow.check_invariants().is_none());
        // The dstate now represents two dscenarios.
        assert_eq!(cow.dscenarios().count(), 2);
    }

    #[test]
    fn send_without_rivals_delivers_in_place() {
        let mut cow = Cow::new();
        let mut store = boot(&mut cow, 3);
        let d = cow.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers, vec![StateId(1)]);
        assert!(store.forks.is_empty());
        assert_eq!(cow.group_count(), 1);
    }

    #[test]
    fn send_without_rivals_delivers_to_all_dest_states() {
        let mut cow = Cow::new();
        let mut store = boot(&mut cow, 3);
        // Branch node 1 twice: three states on node 1, one dstate.
        for child in [StateId(10), StateId(11)] {
            store.nodes.insert(child, NodeId(1));
            cow.on_branch(StateId(1), child, NodeId(1), &mut store);
        }
        store.next = 12;
        let d = cow.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers.len(), 3, "all node-1 states are targets");
        assert!(store.forks.is_empty(), "no rivals → no forking");
    }

    #[test]
    fn conflicting_send_forks_targets_and_bystanders() {
        // 4 nodes; node 0 has two states (sender + one rival).
        let mut cow = Cow::new();
        let mut store = boot(&mut cow, 4);
        let rival = StateId(10);
        store.nodes.insert(rival, NodeId(0));
        store.next = 11;
        cow.on_branch(StateId(0), rival, NodeId(0), &mut store);

        let d = cow.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        // Forked: target copy (node 1) + bystanders (nodes 2, 3).
        assert_eq!(store.forks.len(), 3);
        assert_eq!(d.receivers.len(), 1);
        let receiver = d.receivers[0];
        assert_ne!(
            receiver,
            StateId(1),
            "the *copy* receives, not the original"
        );
        assert_eq!(store.nodes[&receiver], NodeId(1));
        // Two dstates now: {rival, originals} and {sender, copies}.
        assert_eq!(cow.group_count(), 2);
        assert!(cow.check_invariants().is_none());
        assert_eq!(cow.stats().mapper_forks, 3);
        // The sender moved: a second send from it has no rivals.
        let d2 = cow.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(d2.receivers, vec![receiver]);
        assert_eq!(store.forks.len(), 3, "no further forks");
    }

    #[test]
    fn rival_send_after_split_also_splits() {
        let mut cow = Cow::new();
        let mut store = boot(&mut cow, 3);
        let rival = StateId(10);
        store.nodes.insert(rival, NodeId(0));
        store.next = 11;
        cow.on_branch(StateId(0), rival, NodeId(0), &mut store);
        cow.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(cow.group_count(), 2);
        // Now the rival sends: it is alone on node 0 in the original
        // dstate, so in-place delivery to the original node-1 state.
        let d = cow.map_send(rival, NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers, vec![StateId(1)]);
        assert_eq!(cow.group_count(), 2);
        assert!(cow.check_invariants().is_none());
    }

    #[test]
    fn dscenario_count_is_product_of_members() {
        let mut cow = Cow::new();
        let mut store = boot(&mut cow, 3);
        // 2 states on node 0, 3 on node 1, 1 on node 2 → 6 dscenarios.
        let c0 = StateId(10);
        store.nodes.insert(c0, NodeId(0));
        cow.on_branch(StateId(0), c0, NodeId(0), &mut store);
        for child in [StateId(11), StateId(12)] {
            store.nodes.insert(child, NodeId(1));
            cow.on_branch(StateId(1), child, NodeId(1), &mut store);
        }
        assert_eq!(cow.dscenarios().count(), 6);
    }

    #[test]
    fn import_rejects_hostile_tables() {
        let table = |dstates| MapperSnapshot::Cow {
            dstates,
            next_group: 2,
            stats: MapperStats::default(),
        };
        let cases = [
            (
                "state 1 appears in two dstates",
                table(vec![
                    (0, vec![(0, vec![0]), (1, vec![1])]),
                    (1, vec![(0, vec![2]), (1, vec![1])]),
                ]),
            ),
            (
                "has no state on",
                table(vec![(0, vec![(0, vec![0]), (1, vec![])])]),
            ),
        ];
        for (expected, snapshot) in cases {
            let mut cow = Cow::new();
            boot(&mut cow, 2);
            let before = cow.export_snapshot();
            let err = cow.import_snapshot(snapshot).expect_err(expected);
            assert!(err.contains(expected), "{err}");
            assert_eq!(
                cow.export_snapshot(),
                before,
                "a refused import changes nothing"
            );
        }
    }
}
