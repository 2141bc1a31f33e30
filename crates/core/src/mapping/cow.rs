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

use crate::mapping::members::{ByState, Members};
use crate::mapping::{
    CartesianScenarios, Delivery, MapperSnapshot, MapperStats, StateMapper, StateStore,
};
use crate::state::StateId;
use sde_net::NodeId;

/// Identifier of one dstate: its index in [`Cow::dstates`] (dense, never
/// freed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupId(u64);

impl GroupId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The Copy-On-Write mapper. See the module documentation.
#[derive(Debug, Default)]
pub struct Cow {
    /// Indexed by [`GroupId`]: per node, the member states.
    dstates: Vec<Members<StateId>>,
    group_of: ByState,
    stats: MapperStats,
}

impl Cow {
    /// Creates an empty mapper; call
    /// [`on_boot`](StateMapper::on_boot) before use.
    pub fn new() -> Cow {
        Cow::default()
    }

    fn group_of(&self, state: StateId) -> Option<GroupId> {
        self.group_of.get(state).map(GroupId)
    }
}

impl StateMapper for Cow {
    fn name(&self) -> &'static str {
        "COW"
    }

    fn on_boot(&mut self, states: &[(StateId, NodeId)]) {
        let g = GroupId(self.dstates.len() as u64);
        let mut members = Members::with_capacity(states.len());
        for (s, n) in states {
            members.insert(*n, *s);
            self.group_of.set(*s, g.0);
        }
        self.dstates.push(members);
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
        let g = self.group_of(parent).expect("parent is in a dstate");
        self.dstates[g.index()].insert(node, child);
        self.group_of.set(child, g.0);
    }

    fn map_send(
        &mut self,
        sender: StateId,
        sender_node: NodeId,
        dest: NodeId,
        store: &mut dyn StateStore,
    ) -> Delivery {
        self.stats.sends_mapped += 1;
        let g = self.group_of(sender).expect("sender is in a dstate");
        let rivals = self.dstates[g.index()].of(sender_node).len();

        if rivals <= 1 {
            // No conflict: every state of the destination node in this
            // dstate receives in place.
            let receivers = states_of(self.dstates[g.index()].of(dest));
            debug_assert!(!receivers.is_empty(), "dstates keep one state per node");
            return Delivery { receivers };
        }

        // Conflict: move the sender into a fresh dstate and fork every
        // non-rival state of the original dstate into it. The walk is in
        // (node, id) order and copies get rising ids, so the new dstate's
        // list is sorted as appended.
        let new_g = GroupId(self.dstates.len() as u64);
        let members = &self.dstates[g.index()];
        let mut new_members = Members::with_capacity(members.len() - rivals + 1);
        let mut receivers = Vec::new();
        for &(n, s) in members.as_slice() {
            if n == sender_node {
                // The sender moves, alone on its node; its rivals stay.
                if s == sender {
                    new_members.push(sender_node, sender);
                }
                continue;
            }
            let copy = store.fork(s);
            self.stats.mapper_forks += 1;
            self.group_of.set(copy, new_g.0);
            new_members.push(n, copy);
            if n == dest {
                receivers.push(copy);
            }
        }
        self.dstates[g.index()].remove(sender_node, sender);
        self.group_of.set(sender, new_g.0);
        self.dstates.push(new_members);

        Delivery { receivers }
    }

    fn group_count(&self) -> usize {
        self.dstates.len()
    }

    fn stats(&self) -> MapperStats {
        self.stats
    }

    fn approx_bytes(&self) -> usize {
        let members: usize = self.dstates.iter().map(Members::len).sum();
        members * size_of::<(NodeId, StateId)>()
            + self.dstates.len() * size_of::<Members<StateId>>()
            + self.group_of.len() * size_of::<u64>()
    }

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // Within one dstate all same-node states are interchangeable
        // (identical histories), so its dscenarios are the cartesian
        // product of the per-node member sets.
        Box::new(self.dstates.iter().flat_map(|members| {
            CartesianScenarios::new(members.per_node().map(states_of).collect())
        }))
    }

    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // Pin the state's own node axis to `state`, cross the rest.
        let Some(g) = self.group_of(state) else {
            return Box::new(std::iter::empty());
        };
        let axes: Vec<Vec<StateId>> = self.dstates[g.index()]
            .per_node()
            .map(|on_node| {
                if on_node.iter().any(|(_, s)| *s == state) {
                    vec![state]
                } else {
                    states_of(on_node)
                }
            })
            .collect();
        Box::new(CartesianScenarios::new(axes))
    }

    fn check_invariants(&self) -> Option<String> {
        let mut listed = 0;
        for (g, members) in (0u64..).zip(&self.dstates) {
            let g = GroupId(g);
            if members.is_empty() {
                return Some(format!("dstate {g:?} is empty"));
            }
            if !members.is_strictly_sorted() {
                return Some(format!("dstate {g:?} is not sorted by (node, state)"));
            }
            for (_, s) in members.as_slice() {
                if self.group_of(*s) != Some(g) {
                    return Some(format!("state {s} ownership inconsistent for {g:?}"));
                }
            }
            listed += members.len();
        }
        // Every state belongs to exactly one dstate and appears there: each
        // listed state points back at its dstate, so it is enough that no
        // state is listed twice or points at a dstate that does not list it.
        let placed = self.group_of.placed();
        if placed != listed {
            return Some(format!(
                "{placed} states are placed in a dstate, {listed} are listed in one"
            ));
        }
        None
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        let dstates = (0u64..)
            .zip(&self.dstates)
            .map(|(g, members)| {
                let per_node = members.per_node().map(|on_node| {
                    let states = on_node.iter().map(|(_, s)| s.0);
                    (on_node[0].0 .0, states.collect())
                });
                (g, per_node.collect())
            })
            .collect();
        MapperSnapshot::Cow {
            dstates,
            next_group: self.dstates.len() as u64,
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
        // What a member list cannot express is refused as listed.
        for (gid, per_node) in &dstates {
            if per_node.is_empty() {
                return Err(format!("dstate {gid} is empty"));
            }
            if let Some((n, _)) = per_node.iter().find(|(_, listed)| listed.is_empty()) {
                return Err(format!("dstate {gid} has no state on {}", NodeId(*n)));
            }
        }
        // Ids are table indexes: the dstates must be exactly
        // `0..next_group`, and — a run keeps every state it ever made in
        // exactly one dstate — the states exactly `0..` the number of
        // members listed. Checked before a table is sized by either.
        if !dstates.iter().map(|(gid, _)| *gid).eq(0..next_group) {
            return Err(format!("dstate ids are not exactly 0..{next_group}"));
        }
        let members_of = |per_node: &[(u16, Vec<u64>)]| -> usize {
            per_node.iter().map(|(_, listed)| listed.len()).sum()
        };
        let states: usize = dstates.iter().map(|(_, d)| members_of(d)).sum();
        let mut restored = Cow {
            dstates: Vec::with_capacity(dstates.len()),
            group_of: ByState::with_len(states),
            stats,
        };
        for (gid, per_node) in dstates {
            let mut members = Members::with_capacity(members_of(&per_node));
            for (n, listed) in per_node {
                for s in listed {
                    if s >= states as u64 {
                        return Err(format!(
                            "state id {s} is not below the {states} states listed"
                        ));
                    }
                    if restored.group_of(StateId(s)).is_some() {
                        return Err(format!("state {s} appears in two dstates"));
                    }
                    if !members.try_push(NodeId(n), StateId(s)) {
                        return Err(format!(
                            "dstate {gid} lists state {s} on node {n} out of order"
                        ));
                    }
                    restored.group_of.set(StateId(s), gid);
                }
            }
            restored.dstates.push(members);
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

/// The states of (part of) a member list, in list order.
fn states_of(members: &[(NodeId, StateId)]) -> Vec<StateId> {
    members.iter().map(|(_, s)| *s).collect()
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
