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

use crate::mapping::{Delivery, MapperSnapshot, MapperStats, StateMapper, StateStore};
use crate::state::StateId;
use sde_net::NodeId;
use std::collections::{BTreeMap, HashMap};

/// Identifier of one dscenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupId(u64);

/// The Copy-On-Branch mapper. See the module documentation.
#[derive(Debug, Default)]
pub struct Cob {
    groups: HashMap<GroupId, BTreeMap<NodeId, StateId>>,
    group_of: HashMap<StateId, GroupId>,
    next_group: u64,
    stats: MapperStats,
}

impl Cob {
    /// Creates an empty mapper; call
    /// [`on_boot`](StateMapper::on_boot) before use.
    pub fn new() -> Cob {
        Cob::default()
    }

    fn fresh_group(&mut self) -> GroupId {
        let g = GroupId(self.next_group);
        self.next_group += 1;
        g
    }
}

impl StateMapper for Cob {
    fn name(&self) -> &'static str {
        "COB"
    }

    fn on_boot(&mut self, states: &[(StateId, NodeId)]) {
        let g = self.fresh_group();
        let mut members = BTreeMap::new();
        for (s, n) in states {
            assert!(
                members.insert(*n, *s).is_none(),
                "boot requires exactly one state per node"
            );
            self.group_of.insert(*s, g);
        }
        self.groups.insert(g, members);
    }

    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        store: &mut dyn StateStore,
    ) {
        self.stats.branches_seen += 1;
        let g = self.group_of[&parent];
        let new_g = self.fresh_group();
        let mut new_members = BTreeMap::new();
        let members: Vec<(NodeId, StateId)> =
            self.groups[&g].iter().map(|(n, s)| (*n, *s)).collect();
        for (n, s) in members {
            if n == node {
                debug_assert_eq!(s, parent, "parent must be its dscenario's member");
                continue;
            }
            let copy = store.fork(s);
            self.stats.mapper_forks += 1;
            new_members.insert(n, copy);
            self.group_of.insert(copy, new_g);
        }
        new_members.insert(node, child);
        self.group_of.insert(child, new_g);
        self.groups.insert(new_g, new_members);
    }

    fn map_send(
        &mut self,
        sender: StateId,
        _sender_node: NodeId,
        dest: NodeId,
        _store: &mut dyn StateStore,
    ) -> Delivery {
        self.stats.sends_mapped += 1;
        let g = self.group_of[&sender];
        let receiver = self.groups[&g][&dest];
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

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // Each group is exactly one dscenario.
        Box::new(
            self.groups
                .values()
                .map(|members| members.values().copied().collect::<Vec<StateId>>()),
        )
    }

    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // A COB state lives in exactly one dscenario.
        match self.group_of.get(&state) {
            Some(g) => Box::new(std::iter::once(
                self.groups[g].values().copied().collect::<Vec<StateId>>(),
            )),
            None => Box::new(std::iter::empty()),
        }
    }

    fn check_invariants(&self) -> Option<String> {
        for (g, members) in &self.groups {
            if members.is_empty() {
                return Some(format!("dscenario {g:?} is empty"));
            }
            for (n, s) in members {
                match self.group_of.get(s) {
                    Some(owner) if owner == g => {}
                    other => {
                        return Some(format!(
                            "state {s} on {n} in {g:?} has inconsistent ownership {other:?}"
                        ))
                    }
                }
            }
        }
        // Every state belongs to exactly one group and appears there.
        for (s, g) in &self.group_of {
            let Some(members) = self.groups.get(g) else {
                return Some(format!("state {s} references missing dscenario {g:?}"));
            };
            if !members.values().any(|m| m == s) {
                return Some(format!("state {s} not present in its dscenario {g:?}"));
            }
        }
        None
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        let mut groups: Vec<(u64, Vec<(u16, u64)>)> = self
            .groups
            .iter()
            .map(|(g, members)| (g.0, members.iter().map(|(n, s)| (n.0, s.0)).collect()))
            .collect();
        groups.sort_unstable_by_key(|(g, _)| *g);
        MapperSnapshot::Cob {
            groups,
            next_group: self.next_group,
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
        let mut restored = Cob {
            next_group,
            stats,
            ..Cob::default()
        };
        for (gid, members) in groups {
            if gid >= next_group {
                return Err(format!("dscenario id {gid} beyond allocator {next_group}"));
            }
            let g = GroupId(gid);
            let mut map = BTreeMap::new();
            for (n, s) in members {
                if map.insert(NodeId(n), StateId(s)).is_some() {
                    return Err(format!("dscenario {gid} lists node {n} twice"));
                }
                if restored.group_of.insert(StateId(s), g).is_some() {
                    return Err(format!("state {s} appears in two dscenarios"));
                }
            }
            if restored.groups.insert(g, map).is_some() {
                return Err(format!("dscenario id {gid} duplicated"));
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
