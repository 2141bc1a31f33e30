//! The mappers' flat tables: the membership of one group — a COB
//! dscenario, a COW or SDS dstate — as one sorted list, and the state →
//! group (or slot) direction as a vector indexed by state id.

use crate::state::StateId;
use sde_net::NodeId;

/// Where each state sits — its group for COB / COW, its owner slot for
/// SDS — as one `u64` per state id. State ids are minted densely, so this
/// is a vector indexed by the id; an id nobody placed (tests use sparse
/// ones) reads as `None`.
#[derive(Debug, Default)]
pub(crate) struct ByState {
    places: Vec<u64>,
}

impl ByState {
    /// The entry of an id that was never placed.
    const NOWHERE: u64 = u64::MAX;

    /// A table for the ids `0..states`, none of them placed yet.
    pub(crate) fn with_len(states: usize) -> ByState {
        ByState {
            places: vec![ByState::NOWHERE; states],
        }
    }

    pub(crate) fn get(&self, state: StateId) -> Option<u64> {
        let place = *self.places.get(state.index())?;
        (place != ByState::NOWHERE).then_some(place)
    }

    pub(crate) fn set(&mut self, state: StateId, place: u64) {
        let index = state.index();
        if index >= self.places.len() {
            self.places.resize(index + 1, ByState::NOWHERE);
        }
        self.places[index] = place;
    }

    /// One past the largest id ever placed.
    pub(crate) fn len(&self) -> usize {
        self.places.len()
    }

    /// How many ids are placed.
    pub(crate) fn placed(&self) -> usize {
        (self.places.iter())
            .filter(|place| **place != ByState::NOWHERE)
            .count()
    }
}

/// `(node, id)` pairs, strictly ascending: per node, the member ids.
///
/// This is the `BTreeMap<NodeId, BTreeSet<I>>` the mappers used to keep
/// per group, held in a single allocation: iteration visits the members in
/// exactly that map's order, and [`Members::of`] finds one node's members
/// by binary search. A node without members has no entry, so "every node
/// of the group has a member" is not something a list can violate.
///
/// Ids are minted in ascending order, so the list of a group that is built
/// by walking another group in node order and giving each member a fresh
/// id is sorted as appended — [`Members::push`] — and costs the one
/// allocation [`Members::with_capacity`] makes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Members<I> {
    list: Vec<(NodeId, I)>,
}

impl<I: Copy + Ord> Members<I> {
    pub(crate) fn new() -> Members<I> {
        Members { list: Vec::new() }
    }

    /// An empty list with room for exactly `members` pairs.
    pub(crate) fn with_capacity(members: usize) -> Members<I> {
        Members {
            list: Vec::with_capacity(members),
        }
    }

    /// Appends `(node, id)` if it sorts behind every listed pair; `false`
    /// (and no change) otherwise.
    pub(crate) fn try_push(&mut self, node: NodeId, id: I) -> bool {
        let ascending = self.list.last().is_none_or(|last| *last < (node, id));
        if ascending {
            self.list.push((node, id));
        }
        ascending
    }

    /// Appends a pair that sorts behind every listed one.
    pub(crate) fn push(&mut self, node: NodeId, id: I) {
        let ascending = self.try_push(node, id);
        debug_assert!(ascending, "appended out of order");
    }

    /// Adds `(node, id)`; `false` when it was already a member.
    pub(crate) fn insert(&mut self, node: NodeId, id: I) -> bool {
        // A fresh id on the last node — the common case — appends.
        if self.try_push(node, id) {
            return true;
        }
        match self.list.binary_search(&(node, id)) {
            Ok(_) => false,
            Err(at) => {
                self.list.insert(at, (node, id));
                true
            }
        }
    }

    /// Removes `(node, id)`; `false` when it was not a member.
    pub(crate) fn remove(&mut self, node: NodeId, id: I) -> bool {
        match self.list.binary_search(&(node, id)) {
            Ok(at) => {
                self.list.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// The members on `node`, ascending by id.
    pub(crate) fn of(&self, node: NodeId) -> &[(NodeId, I)] {
        let start = self.list.partition_point(|(n, _)| *n < node);
        let len = self.list[start..].partition_point(|(n, _)| *n == node);
        &self.list[start..start + len]
    }

    /// Every `(node, id)`, ascending.
    pub(crate) fn as_slice(&self) -> &[(NodeId, I)] {
        &self.list
    }

    /// The members grouped by node, nodes ascending.
    pub(crate) fn per_node(&self) -> impl Iterator<Item = &[(NodeId, I)]> {
        self.list.chunk_by(|a, b| a.0 == b.0)
    }

    /// The nodes that have a member, ascending.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.per_node().map(|members| members[0].0)
    }

    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// `true` when the pairs are strictly ascending — what every method
    /// here relies on and an import has to establish.
    pub(crate) fn is_strictly_sorted(&self) -> bool {
        self.list.windows(2).all(|pair| pair[0] < pair[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;
    use std::collections::{BTreeMap, BTreeSet};

    const OPS: u64 = 20_000;
    const NODES: u64 = 7;

    type Model = BTreeMap<NodeId, BTreeSet<u64>>;

    fn model_pairs(model: &Model) -> Vec<(NodeId, u64)> {
        model
            .iter()
            .flat_map(|(n, set)| set.iter().map(|id| (*n, *id)))
            .collect()
    }

    /// `insert` / `remove` / `of` / per-node iteration against the tree of
    /// trees the list replaces. `fresh` draws each inserted id from a
    /// rising counter (how the mappers mint them: mostly appends);
    /// otherwise ids come from a small range in any order, so inserts land
    /// mid-list and repeat.
    fn agrees_with_the_tree_model(seed: u64, fresh: bool) {
        let mut rng = TestRng::for_case(seed, u64::from(fresh));
        let mut list: Members<u64> = Members::new();
        let mut model = Model::new();
        let mut next_id = 0u64;
        for op in 0..OPS {
            let node = NodeId(rng.below(NODES) as u16);
            match rng.below(8) {
                0..=3 => {
                    let id = if fresh {
                        next_id += 1;
                        next_id
                    } else {
                        rng.below(64)
                    };
                    let added = model.entry(node).or_default().insert(id);
                    assert_eq!(list.insert(node, id), added, "op {op}");
                }
                4..=5 => {
                    // Mostly a member (removal succeeds), sometimes not.
                    let id = match model.get(&node).filter(|_| rng.below(4) != 0) {
                        Some(set) if !set.is_empty() => *set
                            .iter()
                            .nth(rng.below(set.len() as u64) as usize)
                            .unwrap(),
                        _ => rng.below(64),
                    };
                    let removed = model.get_mut(&node).is_some_and(|set| set.remove(&id));
                    if model.get(&node).is_some_and(BTreeSet::is_empty) {
                        model.remove(&node);
                    }
                    assert_eq!(list.remove(node, id), removed, "op {op}");
                }
                6 => {
                    let expected: Vec<(NodeId, u64)> = model
                        .get(&node)
                        .map(|set| set.iter().map(|id| (node, *id)).collect())
                        .unwrap_or_default();
                    assert_eq!(list.of(node), expected, "op {op}");
                }
                _ => {
                    let chunks: Vec<Vec<(NodeId, u64)>> =
                        list.per_node().map(<[_]>::to_vec).collect();
                    let expected: Vec<Vec<(NodeId, u64)>> = model
                        .iter()
                        .map(|(n, set)| set.iter().map(|id| (*n, *id)).collect())
                        .collect();
                    assert_eq!(chunks, expected, "op {op}");
                    assert!(list.nodes().eq(model.keys().copied()), "op {op}");
                }
            }
            assert_eq!(list.len(), model.values().map(BTreeSet::len).sum::<usize>());
            assert!(list.is_strictly_sorted(), "op {op}");
        }
        assert_eq!(list.as_slice(), model_pairs(&model));
        assert_eq!(list.is_empty(), model.is_empty());
    }

    #[test]
    fn ascending_ids_agree_with_the_tree_model() {
        agrees_with_the_tree_model(0x22, true);
    }

    #[test]
    fn shuffled_ids_agree_with_the_tree_model() {
        agrees_with_the_tree_model(0x22, false);
    }

    #[test]
    fn a_state_table_has_gaps_in_memory_and_reads_them_as_unplaced() {
        let mut table = ByState::with_len(2);
        assert_eq!((table.len(), table.placed()), (2, 0));
        table.set(StateId(1), 7);
        table.set(StateId(1_000), 0);
        assert_eq!(table.get(StateId(1)), Some(7));
        assert_eq!(table.get(StateId(1_000)), Some(0));
        assert_eq!(table.get(StateId(0)), None);
        assert_eq!(table.get(StateId(999)), None);
        assert_eq!(table.get(StateId(u64::MAX / 2)), None, "past the end");
        assert_eq!((table.len(), table.placed()), (1_001, 2));
    }

    #[test]
    fn appending_in_node_order_fills_one_exact_allocation() {
        let mut list: Members<u64> = Members::with_capacity(5);
        let buffer = list.as_slice().as_ptr();
        for (node, id) in [(0, 10), (0, 11), (2, 3), (2, 12), (5, 0)] {
            list.push(NodeId(node), id);
        }
        assert_eq!(list.as_slice().as_ptr(), buffer, "never regrown");
        assert_eq!(list.list.capacity(), 5);
        assert!(list.is_strictly_sorted());
        assert_eq!(list.of(NodeId(2)), [(NodeId(2), 3), (NodeId(2), 12)]);
        assert!(list.of(NodeId(1)).is_empty());
    }
}
