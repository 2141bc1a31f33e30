//! Copy On Branch (§III-A): the correctness baseline.
//!
//! Every *dscenario* holds exactly one state per node — the direct image
//! of one concrete network simulation. A local branch therefore cannot be
//! represented inside a dscenario: COB forks **every other node's state**
//! to materialize a second, fully independent dscenario (Fig. 3). Packet
//! delivery is then a constant-time lookup of the destination node's
//! state in the sender's dscenario.
//!
//! All the copies are duplicates (identical configuration to their
//! originals), which is why COB "scales poorly" — reproduced faithfully
//! here because every other algorithm is validated against COB's
//! dscenario set.

use crate::mapping::members::{ByState, Members};
use crate::mapping::{Delivery, MapperSnapshot, MapperStats, StateMapper, StateStore};
use crate::state::StateId;
use sde_net::NodeId;

/// Identifier of one dscenario: its index in [`Cob::groups`] (dense, never
/// freed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupId(u64);

impl GroupId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The Copy-On-Branch mapper. See the module documentation.
#[derive(Debug, Default)]
pub struct Cob {
    /// Indexed by [`GroupId`]: the dscenario's one state per node.
    groups: Vec<Members<StateId>>,
    group_of: ByState,
    stats: MapperStats,
}

impl Cob {
    /// Creates an empty mapper; call
    /// [`on_boot`](StateMapper::on_boot) before use.
    pub fn new() -> Cob {
        Cob::default()
    }

    fn group_of(&self, state: StateId) -> Option<GroupId> {
        self.group_of.get(state).map(GroupId)
    }
}

impl StateMapper for Cob {
    fn name(&self) -> &'static str {
        "COB"
    }

    fn on_boot(&mut self, states: &[(StateId, NodeId)]) {
        let g = GroupId(self.groups.len() as u64);
        let mut members = Members::with_capacity(states.len());
        for (s, n) in states {
            assert!(
                members.of(*n).is_empty(),
                "boot requires exactly one state per node"
            );
            members.insert(*n, *s);
            self.group_of.set(*s, g.0);
        }
        self.groups.push(members);
    }

    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        store: &mut dyn StateStore,
    ) {
        self.stats.branches_seen += 1;
        let g = self.group_of(parent).expect("parent is in a dscenario");
        let new_g = GroupId(self.groups.len() as u64);
        // One state per node, walked in node order: the new dscenario's
        // list is sorted as appended, whatever ids the copies get.
        let members = &self.groups[g.index()];
        let mut new_members = Members::with_capacity(members.len());
        for &(n, s) in members.as_slice() {
            if n == node {
                debug_assert_eq!(s, parent, "parent must be its dscenario's member");
                new_members.push(node, child);
                self.group_of.set(child, new_g.0);
                continue;
            }
            let copy = store.fork(s);
            self.stats.mapper_forks += 1;
            new_members.push(n, copy);
            self.group_of.set(copy, new_g.0);
        }
        debug_assert_eq!(new_members.len(), members.len(), "node has a member");
        self.groups.push(new_members);
    }

    fn map_send(
        &mut self,
        sender: StateId,
        _sender_node: NodeId,
        dest: NodeId,
        _store: &mut dyn StateStore,
    ) -> Delivery {
        self.stats.sends_mapped += 1;
        let g = self.group_of(sender).expect("sender is in a dscenario");
        let (_, receiver) = *self.groups[g.index()]
            .of(dest)
            .first()
            .expect("a dscenario has a state on every node");
        Delivery {
            receivers: vec![receiver],
        }
    }

    fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn stats(&self) -> MapperStats {
        self.stats
    }

    fn approx_bytes(&self) -> usize {
        let members: usize = self.groups.iter().map(Members::len).sum();
        members * size_of::<(NodeId, StateId)>()
            + self.groups.len() * size_of::<Members<StateId>>()
            + self.group_of.len() * size_of::<u64>()
    }

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // Each group is exactly one dscenario.
        Box::new(self.groups.iter().map(states_of))
    }

    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // A COB state lives in exactly one dscenario.
        Box::new(
            self.group_of(state)
                .into_iter()
                .map(|g| states_of(&self.groups[g.index()])),
        )
    }

    fn check_invariants(&self) -> Option<String> {
        let mut listed = 0;
        for (g, members) in (0u64..).zip(&self.groups) {
            let g = GroupId(g);
            if members.is_empty() {
                return Some(format!("dscenario {g:?} is empty"));
            }
            if !members.is_strictly_sorted() {
                return Some(format!("dscenario {g:?} is not sorted by node"));
            }
            if let Some(twice) = members.per_node().find(|on_node| on_node.len() > 1) {
                return Some(format!("dscenario {g:?} lists {} twice", twice[0].0));
            }
            for (n, s) in members.as_slice() {
                match self.group_of(*s) {
                    Some(owner) if owner == g => {}
                    other => {
                        return Some(format!(
                            "state {s} on {n} in {g:?} has inconsistent ownership {other:?}"
                        ))
                    }
                }
            }
            listed += members.len();
        }
        // Every state belongs to exactly one group and appears there: each
        // listed state points back at its group, so it is enough that no
        // state is listed twice or points at a group that does not list it.
        let placed = self.group_of.placed();
        if placed != listed {
            return Some(format!(
                "{placed} states are placed in a dscenario, {listed} are listed in one"
            ));
        }
        None
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        let groups = (0u64..)
            .zip(&self.groups)
            .map(|(g, members)| {
                let members = members.as_slice().iter().map(|(n, s)| (n.0, s.0));
                (g, members.collect())
            })
            .collect();
        MapperSnapshot::Cob {
            groups,
            next_group: self.groups.len() as u64,
            stats: self.stats,
        }
    }

    fn import_snapshot(&mut self, snapshot: MapperSnapshot) -> Result<(), String> {
        let MapperSnapshot::Cob {
            groups,
            next_group,
            stats,
        } = snapshot
        else {
            return Err(format!(
                "COB mapper cannot import a {} snapshot",
                snapshot.algorithm()
            ));
        };
        if let Some((gid, _)) = groups.iter().find(|(_, listed)| listed.is_empty()) {
            return Err(format!("dscenario {gid} is empty"));
        }
        // Ids are table indexes: the dscenarios must be exactly
        // `0..next_group`, and — a run keeps every state it ever made in
        // exactly one dscenario — the states exactly `0..` the number of
        // members listed. Checked before a table is sized by either.
        if !groups.iter().map(|(gid, _)| *gid).eq(0..next_group) {
            return Err(format!("dscenario ids are not exactly 0..{next_group}"));
        }
        let states: usize = groups.iter().map(|(_, listed)| listed.len()).sum();
        let mut restored = Cob {
            groups: Vec::with_capacity(groups.len()),
            group_of: ByState::with_len(states),
            stats,
        };
        for (gid, listed) in groups {
            let mut members = Members::with_capacity(listed.len());
            for (n, s) in listed {
                if s >= states as u64 {
                    return Err(format!(
                        "state id {s} is not below the {states} states listed"
                    ));
                }
                if restored.group_of(StateId(s)).is_some() {
                    return Err(format!("state {s} appears in two dscenarios"));
                }
                if !members.try_push(NodeId(n), StateId(s)) {
                    return Err(format!("dscenario {gid} lists node {n} out of order"));
                }
                restored.group_of.set(StateId(s), gid);
            }
            restored.groups.push(members);
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

/// The states of one dscenario, in node order.
fn states_of(members: &Members<StateId>) -> Vec<StateId> {
    members.as_slice().iter().map(|(_, s)| *s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::testutil::boot;

    #[test]
    fn boot_forms_one_dscenario() {
        let mut cob = Cob::new();
        boot(&mut cob, 3);
        assert_eq!(cob.group_count(), 1);
        assert!(cob.check_invariants().is_none());
        let scenarios: Vec<_> = cob.dscenarios().collect();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].len(), 3);
    }

    #[test]
    fn branch_forks_all_other_nodes() {
        let mut cob = Cob::new();
        let mut store = boot(&mut cob, 4);
        // Node 0's state (id 0) branches into child id 100.
        let child = StateId(100);
        store.nodes.insert(child, NodeId(0));
        store.next = 101;
        cob.on_branch(StateId(0), child, NodeId(0), &mut store);
        assert_eq!(cob.group_count(), 2);
        assert_eq!(store.forks.len(), 3, "k − 1 peers forked");
        assert!(cob.check_invariants().is_none());
        assert_eq!(cob.stats().mapper_forks, 3);
        // Both dscenarios are complete.
        for sc in cob.dscenarios() {
            assert_eq!(sc.len(), 4);
        }
    }

    #[test]
    fn delivery_is_a_dscenario_lookup() {
        let mut cob = Cob::new();
        let mut store = boot(&mut cob, 3);
        let d = cob.map_send(StateId(0), NodeId(0), NodeId(2), &mut store);
        assert_eq!(d.receivers, vec![StateId(2)]);
        assert!(store.forks.is_empty(), "COB never forks on send");
        // After a branch, the new dscenario delivers to its own copies.
        let child = StateId(50);
        store.nodes.insert(child, NodeId(0));
        store.next = 51;
        cob.on_branch(StateId(0), child, NodeId(0), &mut store);
        let d2 = cob.map_send(child, NodeId(0), NodeId(2), &mut store);
        assert_eq!(d2.receivers.len(), 1);
        assert_ne!(
            d2.receivers[0],
            StateId(2),
            "child's dscenario has its own node-2 copy"
        );
        // The original dscenario still delivers to the original.
        let d3 = cob.map_send(StateId(0), NodeId(0), NodeId(2), &mut store);
        assert_eq!(d3.receivers, vec![StateId(2)]);
    }

    #[test]
    fn repeated_branches_multiply_dscenarios() {
        let mut cob = Cob::new();
        let mut store = boot(&mut cob, 3);
        let mut parents = vec![StateId(0)];
        // Three rounds of branching node 0's states: dscenarios double
        // each round (1 → 2 → 4 → 8).
        for round in 0..3 {
            let mut new_parents = Vec::new();
            for p in parents.clone() {
                let child = StateId(1000 + store.next);
                store.nodes.insert(child, NodeId(0));
                cob.on_branch(p, child, NodeId(0), &mut store);
                new_parents.push(child);
            }
            parents.extend(new_parents);
            assert_eq!(cob.group_count(), 1 << (round + 1));
        }
        assert!(cob.check_invariants().is_none());
    }

    #[test]
    fn import_rejects_hostile_tables() {
        let table = |groups| MapperSnapshot::Cob {
            groups,
            next_group: 2,
            stats: MapperStats::default(),
        };
        let cases = [
            (
                "state 1 appears in two dscenarios",
                table(vec![(0, vec![(0, 0), (1, 1)]), (1, vec![(0, 2), (1, 1)])]),
            ),
            (
                "is empty",
                table(vec![(0, vec![(0, 0), (1, 1)]), (1, vec![])]),
            ),
        ];
        for (expected, snapshot) in cases {
            let mut cob = Cob::new();
            boot(&mut cob, 2);
            let before = cob.export_snapshot();
            let err = cob.import_snapshot(snapshot).expect_err(expected);
            assert!(err.contains(expected), "{err}");
            assert_eq!(
                cob.export_snapshot(),
                before,
                "a refused import changes nothing"
            );
        }
    }
}
