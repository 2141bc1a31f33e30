//! Super DStates (§III-C): the paper's scalable state mapping algorithm.
//!
//! SDS removes COW's bystander duplication with one level of indirection:
//! every execution state owns one or more *virtual states*, each virtual
//! state belongs to exactly one dstate, and COW runs on the virtual
//! layer. Forking a bystander then only forks its virtual state — the
//! execution state is shared between dstates (its *super-dstate* is the
//! set of dstates its virtual states live in). Only *targets* fork at the
//! execution level, and each at most once per mapping (they either
//! receive the packet or they don't).
//!
//! Terminology for one transmission from `s` (node `src`) to node `dst`
//! (§III-C, Fig. 5/6):
//!
//! * **sending vstates** — `s`'s virtual states; their dstates are the
//!   *sending dstates*.
//! * **virtual targets** — node-`dst` virtual states inside sending
//!   dstates; their owners are the **targets**.
//! * **direct rivals** — node-`src` virtual states (other than the
//!   sender's) inside sending dstates.
//! * **super-rivals** — node-`src` virtual states sharing a dstate with a
//!   target but not with the sender.
//!
//! A target forks iff any of its virtual states sits in a dstate with a
//! direct rival (case A below) or in a dstate without a sending virtual
//! state (case C — the Fig. 7 super-rival situation). Per dstate:
//!
//! * **case A** (sending vstate + direct rivals): virtual COW — the
//!   sending vstate moves to a fresh dstate; virtual targets get copies
//!   there (owned by the *receiving* original target) while the stale
//!   originals are handed to the non-receiving sibling; bystander
//!   vstates get copies owned by the *same* execution state (the
//!   virtual-only fork that makes SDS scale).
//! * **case B** (sending vstate, no direct rival): delivery in place,
//!   nothing forks.
//! * **case C** (no sending vstate): the virtual target merely moves to
//!   the non-receiving sibling; its dstate is untouched.
//!
//! # Ownership and the cost of a send
//!
//! A virtual state names its owner through an *owner slot*: one slot per
//! execution state, holding the state's id and its virtual states. A
//! target that was a bystander of many earlier conflicts owns a vstate in
//! every one of those dstates, almost all of them outside the sending
//! dstates (case C). When it forks, the non-receiving sibling *takes over
//! the slot* — one write — and the receiving original gets a fresh slot
//! with only its case-B vstates and the case-A copies. A send therefore
//! reads and writes members of the sending dstates only; its cost does not
//! depend on the size of any target's super-dstate.

use crate::mapping::members::{ByState, Members};
use crate::mapping::{
    CartesianScenarios, Delivery, MapperSnapshot, MapperStats, StateMapper, StateStore,
};
use crate::state::StateId;
use sde_net::NodeId;

/// Identifier of one dstate: its index in [`Sds::dstates`] (dense, never
/// freed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupId(u64);

/// Identifier of one virtual state: its index in [`Sds::vstates`] (dense,
/// never freed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct VId(u64);

impl GroupId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl VId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index into [`Sds::slots`].
type SlotId = usize;

#[derive(Debug, Clone, Copy)]
struct VState {
    slot: SlotId,
    node: NodeId,
    dstate: GroupId,
}

/// An owner slot: the virtual states of one execution state (its
/// super-dstate), ascending. Virtual states point at the slot, not at the
/// execution state, so handing a whole super-dstate to another execution
/// state is one write to `owner`.
#[derive(Debug)]
struct Slot {
    owner: StateId,
    owned: Vec<VId>,
}

/// What the phase-1 scan of the sending dstates learns about one target.
#[derive(Debug)]
struct Target {
    state: StateId,
    slot: SlotId,
    /// Its virtual states inside sending dstates…
    near: usize,
    /// …whether one of them shares its dstate with a direct rival (case A)…
    rival: bool,
    /// …and the ones in rival-free sending dstates (case B): all a forked
    /// target keeps of its old super-dstate.
    keeps: Vec<VId>,
}

/// The Super-DState mapper. See the module documentation.
///
/// Every table is a vector indexed by a dense id, and a dstate's
/// membership is one sorted list ([`Members`]): a virtual state costs its
/// 24-byte [`VState`], a 16-byte list entry and an 8-byte entry in its
/// owner's slot, and copying a dstate (phase 4 of a send) is one
/// allocation however many members it has.
#[derive(Debug, Default)]
pub struct Sds {
    /// Indexed by [`VId`].
    vstates: Vec<VState>,
    /// Indexed by [`GroupId`]; per node, the member virtual states.
    dstates: Vec<Members<VId>>,
    slots: Vec<Slot>,
    slot_of: ByState,
    stats: MapperStats,
    /// `map_send`'s working lists, emptied by each send and kept for the
    /// next, so a send allocates only what it hands out.
    scratch: SendScratch,
}

/// The working lists of one [`Sds::map_send`]; see the phases there.
#[derive(Debug, Default)]
struct SendScratch {
    /// The sender's virtual states by dstate.
    sending: Vec<(GroupId, VId)>,
    /// The sending dstates with a direct rival (case A).
    rival_dstates: Vec<(GroupId, VId)>,
    /// Ascending by state: the order the targets fork in.
    targets: Vec<Target>,
    /// `(stale slot, fresh slot)` of every forked target.
    receiving: Vec<(SlotId, SlotId)>,
    /// Emptied `keeps` buffers of past targets (a forked target's became
    /// its fresh slot's list and left an empty one behind).
    spare_keeps: Vec<Vec<VId>>,
}

impl Sds {
    /// Creates an empty mapper; call
    /// [`on_boot`](StateMapper::on_boot) before use.
    pub fn new() -> Sds {
        Sds::default()
    }

    fn fresh_group(&mut self) -> GroupId {
        self.dstates.push(Members::new());
        GroupId(self.dstates.len() as u64 - 1)
    }

    fn slot_of(&self, state: StateId) -> Option<SlotId> {
        self.slot_of.get(state).map(|slot| slot as SlotId)
    }

    fn set_slot(&mut self, state: StateId, slot: SlotId) {
        self.slot_of.set(state, slot as u64);
    }

    /// Gives `owner` a fresh, empty slot (replacing any it had).
    fn fresh_slot(&mut self, owner: StateId) -> SlotId {
        self.slots.push(Slot {
            owner,
            owned: Vec::new(),
        });
        self.set_slot(owner, self.slots.len() - 1);
        self.slots.len() - 1
    }

    /// Creates a virtual state for `slot`'s owner (on `node`) inside
    /// `dstate`. Its id is the largest so far: it goes to the end of the
    /// slot's list and of its node's stretch of the dstate's.
    fn add_vstate(&mut self, slot: SlotId, node: NodeId, dstate: GroupId) -> VId {
        let v = VId(self.vstates.len() as u64);
        self.vstates.push(VState { slot, node, dstate });
        self.dstates[dstate.index()].insert(node, v);
        self.slots[slot].owned.push(v);
        v
    }

    fn owner(&self, v: VId) -> StateId {
        self.slots[self.vstates[v.index()].slot].owner
    }

    /// The virtual states `state` owns (its super-dstate), ascending.
    fn owned(&self, state: StateId) -> impl Iterator<Item = VId> + '_ {
        let slot = self.slot_of(state);
        slot.into_iter()
            .flat_map(|s| self.slots[s].owned.iter().copied())
    }

    /// The owners of (part of) a member list, in list order.
    fn owners_of(&self, members: &[(NodeId, VId)]) -> Vec<StateId> {
        members.iter().map(|(_, v)| self.owner(*v)).collect()
    }
}

/// Removes the ascending `gone` from the ascending `owned`, touching
/// nothing in front of the first one.
fn remove_ascending(owned: &mut Vec<VId>, gone: &[VId]) {
    let Some(first) = gone.first() else {
        return;
    };
    let start = owned.partition_point(|v| v < first);
    let mut kept = start;
    let mut gone = gone.iter().peekable();
    for read in start..owned.len() {
        if gone.peek() == Some(&&owned[read]) {
            gone.next();
        } else {
            owned[kept] = owned[read];
            kept += 1;
        }
    }
    owned.truncate(kept);
}

impl StateMapper for Sds {
    fn name(&self) -> &'static str {
        "SDS"
    }

    fn on_boot(&mut self, states: &[(StateId, NodeId)]) {
        let g = self.fresh_group();
        for (s, n) in states {
            let slot = self.fresh_slot(*s);
            self.add_vstate(slot, *n, g);
        }
    }

    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        _store: &mut dyn StateStore,
    ) {
        self.stats.branches_seen += 1;
        // Mirror the parent's virtual states: the child enters every
        // dstate of the parent's super-dstate (identical history).
        let parents: Vec<GroupId> = self
            .owned(parent)
            .map(|v| self.vstates[v.index()].dstate)
            .collect();
        let slot = self.fresh_slot(child);
        self.slots[slot].owned.reserve_exact(parents.len());
        for d in parents {
            self.add_vstate(slot, node, d);
            self.stats.virtual_forks += 1;
        }
    }

    fn map_send(
        &mut self,
        sender: StateId,
        sender_node: NodeId,
        dest: NodeId,
        store: &mut dyn StateStore,
    ) -> Delivery {
        self.stats.sends_mapped += 1;
        let Some(sender_slot) = self.slot_of(sender) else {
            debug_assert!(false, "sender must own virtual states");
            return Delivery {
                receivers: Vec::new(),
            };
        };

        // Phases 1 + 2, one scan of the sending dstates (ascending): which
        // have direct rivals (case A), who the targets are, and what each
        // target owns in here. Nothing outside the sending dstates is read.
        let SendScratch {
            mut sending,
            mut rival_dstates,
            mut targets,
            mut receiving,
            mut spare_keeps,
        } = std::mem::take(&mut self.scratch);
        sending.extend(
            (self.slots[sender_slot].owned.iter()).map(|v| (self.vstates[v.index()].dstate, *v)),
        );
        sending.sort_unstable();
        for &(d, vs) in &sending {
            let members = &self.dstates[d.index()];
            let rival = (members.of(sender_node).iter())
                .any(|(_, v)| self.vstates[v.index()].slot != sender_slot);
            if rival {
                rival_dstates.push((d, vs));
            }
            for (_, vt) in members.of(dest) {
                let slot = self.vstates[vt.index()].slot;
                let state = self.slots[slot].owner;
                let at = targets
                    .binary_search_by_key(&state, |t| t.state)
                    .unwrap_or_else(|at| {
                        let unmet = Target {
                            state,
                            slot,
                            near: 0,
                            rival: false,
                            keeps: spare_keeps.pop().unwrap_or_default(),
                        };
                        targets.insert(at, unmet);
                        at
                    });
                let t = &mut targets[at];
                t.near += 1;
                if rival {
                    t.rival = true;
                } else {
                    t.keeps.push(*vt);
                }
            }
        }
        debug_assert!(
            !targets.is_empty(),
            "every dstate keeps one vstate per node"
        );

        // Phase 3: a target forks iff it has a vstate next to a direct
        // rival (case A) or outside the sending dstates (case C — it owns
        // more than the scan met). The non-receiving sibling takes over
        // the target's slot as it stands, which hands it every case-A and
        // case-C virtual target at once (Fig. 7: their dstates are
        // untouched); the receiving original restarts from a fresh slot
        // holding only its case-B vstates.
        for t in &mut targets {
            if !t.rival && t.near == self.slots[t.slot].owned.len() {
                continue;
            }
            let sibling = store.fork(t.state);
            self.stats.mapper_forks += 1;
            self.slots[t.slot].owner = sibling;
            self.set_slot(sibling, t.slot);
            let fresh = self.fresh_slot(t.state);
            // The scan met them dstate by dstate, not in id order.
            t.keeps.sort_unstable();
            remove_ascending(&mut self.slots[t.slot].owned, &t.keeps);
            for v in &t.keeps {
                self.vstates[v.index()].slot = fresh;
            }
            self.slots[fresh].owned = std::mem::take(&mut t.keeps);
            receiving.push((t.slot, fresh));
        }
        receiving.sort_unstable();

        // Phase 4: virtual COW in every sending dstate with direct rivals.
        for &(d, vs) in &rival_dstates {
            // The sender's virtual state in `d` moves to the new dstate;
            // direct rivals stay put; everyone else is copied. The walk is
            // in (node, id) order and copies get rising ids, so the new
            // dstate's list is sorted as appended.
            let new_d = GroupId(self.dstates.len() as u64);
            let members = &self.dstates[d.index()];
            let staying = members.of(sender_node).len() - 1;
            let mut new_members = Members::with_capacity(members.len() - staying);
            for &(node, vx) in members.as_slice() {
                if node == sender_node {
                    if vx == vs {
                        new_members.push(sender_node, vs);
                    }
                    continue;
                }
                // A virtual target stays behind with the sibling and its
                // copy goes to the receiving original; a bystander's copy
                // has the same owner (the virtual-only fork).
                let slot = self.vstates[vx.index()].slot;
                let slot = if node == dest {
                    let at = receiving
                        .binary_search_by_key(&slot, |(stale, _)| *stale)
                        .expect("a target next to a direct rival forked");
                    receiving[at].1
                } else {
                    slot
                };
                let v = VId(self.vstates.len() as u64);
                self.vstates.push(VState {
                    slot,
                    node,
                    dstate: new_d,
                });
                self.slots[slot].owned.push(v);
                new_members.push(node, v);
                self.stats.virtual_forks += 1;
            }
            self.dstates[d.index()].remove(sender_node, vs);
            self.vstates[vs.index()].dstate = new_d;
            self.dstates.push(new_members);
        }

        let receivers = targets.iter().map(|t| t.state).collect();
        spare_keeps.extend(targets.drain(..).map(|mut t| {
            t.keeps.clear();
            t.keeps
        }));
        sending.clear();
        rival_dstates.clear();
        receiving.clear();
        self.scratch = SendScratch {
            sending,
            rival_dstates,
            targets,
            receiving,
            spare_keeps,
        };
        Delivery { receivers }
    }

    fn group_count(&self) -> usize {
        self.dstates.len()
    }

    fn stats(&self) -> MapperStats {
        self.stats
    }

    fn approx_bytes(&self) -> usize {
        // Every virtual state has one `VState`, one entry in its dstate's
        // list and one in its owner's.
        self.vstates.len() * (size_of::<VState>() + size_of::<(NodeId, VId)>() + size_of::<VId>())
            + self.dstates.len() * size_of::<Members<VId>>()
            + self.slots.len() * size_of::<Slot>()
            + self.slot_of.len() * size_of::<u64>()
    }

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        Box::new(self.dstates.iter().flat_map(move |members| {
            let axes = members.per_node().map(|on_node| self.owners_of(on_node));
            CartesianScenarios::new(axes.collect())
        }))
    }

    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // One enumeration per dstate of the state's super-dstate, with
        // the state's own node axis pinned.
        let groups: Vec<GroupId> = self
            .owned(state)
            .map(|v| self.vstates[v.index()].dstate)
            .collect();
        Box::new(groups.into_iter().flat_map(move |g| {
            let axes = self.dstates[g.index()].per_node().map(|on_node| {
                let owners = self.owners_of(on_node);
                if owners.contains(&state) {
                    vec![state]
                } else {
                    owners
                }
            });
            CartesianScenarios::new(axes.collect())
        }))
    }

    fn check_invariants(&self) -> Option<String> {
        // Node counts: every dstate covers the same node set (once booted).
        let mut listed = 0;
        for (g, members) in self.dstates.iter().enumerate() {
            if !members.nodes().eq(self.dstates[0].nodes()) {
                return Some(format!("dstate {g} covers different nodes"));
            }
            if !members.is_strictly_sorted() {
                return Some(format!("dstate {g} is not sorted by (node, vstate)"));
            }
            for on_node in members.per_node() {
                let mut owners: Vec<SlotId> = Vec::with_capacity(on_node.len());
                for (n, v) in on_node {
                    let vs = match self.vstates.get(v.index()) {
                        Some(vs) => vs,
                        None => return Some(format!("dangling vstate {v:?} in dstate {g}")),
                    };
                    if vs.dstate.index() != g {
                        return Some(format!("vstate {v:?} dstate pointer mismatch"));
                    }
                    if vs.node != *n {
                        return Some(format!("vstate {v:?} node mismatch"));
                    }
                    if self.slots[vs.slot].owned.binary_search(v).is_err() {
                        return Some(format!("ownership index misses vstate {v:?}"));
                    }
                    owners.push(vs.slot);
                }
                // No two vstates of one dstate share an owner.
                owners.sort_unstable();
                if let Some(twice) = owners.windows(2).find(|pair| pair[0] == pair[1]) {
                    return Some(format!(
                        "dstate {g} holds two vstates of state {}",
                        self.slots[twice[0]].owner
                    ));
                }
            }
            listed += members.len();
        }
        if listed != self.vstates.len() {
            return Some(format!(
                "{} virtual states, {listed} listed in a dstate",
                self.vstates.len()
            ));
        }
        // Every execution state has one slot, owns at least one vstate,
        // and all of them on one node.
        for (i, slot) in self.slots.iter().enumerate() {
            let s = slot.owner;
            if self.slot_of(s) != Some(i) {
                return Some(format!("state {s} does not map to its slot"));
            }
            let Some(first) = slot.owned.first() else {
                return Some(format!("state {s} owns no virtual states"));
            };
            if !slot.owned.windows(2).all(|pair| pair[0] < pair[1]) {
                return Some(format!("state {s}'s virtual states are not ascending"));
            }
            let node = self.vstates[first.index()].node;
            for v in &slot.owned {
                let vs = &self.vstates[v.index()];
                if vs.slot != i {
                    return Some(format!("vstate {v:?} slot pointer mismatch"));
                }
                if vs.node != node {
                    return Some(format!("state {s} owns vstates on {node} and {}", vs.node));
                }
            }
        }
        None
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        let vstates = (0u64..)
            .zip(&self.vstates)
            .map(|(v, vs)| (v, self.slots[vs.slot].owner.0, vs.node.0, vs.dstate.0))
            .collect();
        MapperSnapshot::Sds {
            vstates,
            groups: (0..self.dstates.len() as u64).collect(),
            next_group: self.dstates.len() as u64,
            next_v: self.vstates.len() as u64,
            stats: self.stats,
        }
    }

    fn import_snapshot(&mut self, snapshot: MapperSnapshot) -> Result<(), String> {
        let MapperSnapshot::Sds {
            vstates,
            groups,
            next_group,
            next_v,
            stats,
        } = snapshot
        else {
            return Err(format!(
                "SDS mapper cannot import a {} snapshot",
                snapshot.algorithm()
            ));
        };
        // Ids are table indexes: both lists must be exactly `0..next`.
        if !groups.iter().copied().eq(0..next_group) {
            return Err(format!("dstate ids are not exactly 0..{next_group}"));
        }
        if !vstates.iter().map(|(v, ..)| *v).eq(0..next_v) {
            return Err(format!("vstate ids are not exactly 0..{next_v}"));
        }
        let mut restored = Sds {
            dstates: vec![Members::new(); groups.len()],
            stats,
            ..Sds::default()
        };
        // So are state ids, and every state of a run owns a virtual state:
        // an owner at or past the number of virtual states listed cannot
        // be one of `0..` the number of owners. Checked before `slot_of`
        // grows to it.
        let listed = vstates.len() as u64;
        for (vid, owner, node, dstate) in vstates {
            if dstate >= next_group {
                return Err(format!("vstate {vid} references missing dstate {dstate}"));
            }
            if owner >= listed {
                return Err(format!(
                    "state id {owner} is not below the {listed} virtual states listed"
                ));
            }
            let slot = match restored.slot_of(StateId(owner)) {
                Some(slot) => slot,
                None => restored.fresh_slot(StateId(owner)),
            };
            restored.add_vstate(slot, NodeId(node), GroupId(dstate));
        }
        if restored.slot_of.len() != restored.slots.len() {
            return Err(format!(
                "state ids are not exactly 0..{}",
                restored.slots.len()
            ));
        }
        // Everything `map_send` indexes or `expect`s on is an invariant.
        match restored.check_invariants() {
            Some(violation) => Err(violation),
            None => {
                *self = restored;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::testutil::{boot, MockStore};
    use crate::mapping::VStateSnapshot;

    fn branch(sds: &mut Sds, store: &mut MockStore, parent: StateId, node: NodeId) -> StateId {
        let child = StateId(store.next);
        store.next += 1;
        store.nodes.insert(child, node);
        sds.on_branch(parent, child, node, store);
        child
    }

    #[test]
    fn boot_and_branch_share_the_single_dstate() {
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 4);
        assert_eq!(sds.group_count(), 1);
        let child = branch(&mut sds, &mut store, StateId(0), NodeId(0));
        assert_eq!(sds.group_count(), 1);
        assert!(store.forks.is_empty(), "branching forks nothing");
        assert!(sds.check_invariants().is_none());
        assert_eq!(sds.owned(child).count(), 1);
        assert_eq!(sds.dscenarios().count(), 2);
    }

    #[test]
    fn send_without_rivals_delivers_in_place() {
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 3);
        let d = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers, vec![StateId(1)]);
        assert!(store.forks.is_empty());
        assert_eq!(sds.group_count(), 1);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn conflicting_send_forks_only_the_target() {
        // 4 nodes, sender has one rival. COW would fork 3 states
        // (target + 2 bystanders); SDS forks exactly 1 (the target).
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 4);
        branch(&mut sds, &mut store, StateId(0), NodeId(0)); // rival
        let d = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(store.forks.len(), 1, "only the target forks");
        let (orig, copy) = store.forks[0];
        assert_eq!(orig, StateId(1));
        // The *original* receives (paper: "t will receive the packet,
        // while t' will not").
        assert_eq!(d.receivers, vec![StateId(1)]);
        // Two dstates; bystanders (nodes 2, 3) own a vstate in each.
        assert_eq!(sds.group_count(), 2);
        assert_eq!(sds.owned(StateId(2)).count(), 2);
        assert_eq!(sds.owned(StateId(3)).count(), 2);
        // Receiver owns only the new dstate's vstate; sibling the old one.
        assert_eq!(sds.owned(StateId(1)).count(), 1);
        assert_eq!(sds.owned(copy).count(), 1);
        assert_ne!(
            sds.vstates[sds.owned(StateId(1)).next().unwrap().index()].dstate,
            sds.vstates[sds.owned(copy).next().unwrap().index()].dstate,
        );
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn second_send_hits_the_super_rival_case() {
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 4);
        branch(&mut sds, &mut store, StateId(0), NodeId(0));
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        let forks_before = store.forks.len();
        let groups_before = sds.group_count();
        // The sender's vstate moved to a rival-free dstate, so there is
        // no direct rival — but the new target (state 2) still shares its
        // *other* dstate with the rival (a super-rival, Fig. 7): the
        // target forks once, no dstate is forked, and the case-C virtual
        // state moves to the sibling.
        let d = sds.map_send(StateId(0), NodeId(0), NodeId(2), &mut store);
        assert_eq!(
            store.forks.len(),
            forks_before + 1,
            "exactly the target forks"
        );
        assert_eq!(
            sds.group_count(),
            groups_before,
            "no new dstate (case B + C only)"
        );
        assert_eq!(d.receivers, vec![StateId(2)]);
        let (_, sibling) = *store.forks.last().unwrap();
        assert_eq!(sds.owned(StateId(2)).count(), 1);
        assert_eq!(sds.owned(sibling).count(), 1);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn rival_send_reuses_shared_bystander_vstates() {
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 4);
        let rival = branch(&mut sds, &mut store, StateId(0), NodeId(0));
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        // Now the rival sends. In its dstate it has no direct rival
        // (the original sender moved out), so delivery is in place.
        let d = sds.map_send(rival, NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers.len(), 1);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn super_rival_case_moves_virtual_target_without_dstate_fork() {
        // Reproduce the Fig. 7 shape: the sender has no direct rival, but
        // the target also lives in a second dstate whose node-0 states
        // are super-rivals.
        //
        // Construction: nodes {0, 1, 2}. Branch node 0 → rival r. Send
        // 0→1 (conflict): creates dstate D' = {s, t(new), b'} and leaves
        // D = {r, t'(old vt reassigned), b}. After this, state 1 (the
        // receiver) has exactly one vstate (in D'). Branch the *receiver*
        // so it re-enters only D'. To get a target sharing a dstate with
        // super-rivals but not the sender, send again 0→2: target is
        // state 2, whose vstates live in D' (sending dstate, no direct
        // rival → case B) and in D (no sending vstate, node-0 occupants
        // are super-rivals → case C). The target must fork; its D-vstate
        // moves to the sibling; D itself is untouched.
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 3);
        let _rival = branch(&mut sds, &mut store, StateId(0), NodeId(0));
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(sds.group_count(), 2);
        let groups_before = sds.group_count();
        let forks_before = store.forks.len();

        // Node 2's state is a bystander so far: it owns vstates in BOTH
        // dstates (its super-dstate has size 2).
        assert_eq!(sds.owned(StateId(2)).count(), 2);

        let d = sds.map_send(StateId(0), NodeId(0), NodeId(2), &mut store);
        assert_eq!(d.receivers, vec![StateId(2)]);
        // One fork (the target), no new dstate (case B + case C only).
        assert_eq!(store.forks.len(), forks_before + 1);
        assert_eq!(sds.group_count(), groups_before);
        let (_, t_sibling) = *store.forks.last().unwrap();
        // The receiving original keeps the sending-dstate vstate; the
        // sibling took over the other one.
        assert_eq!(sds.owned(StateId(2)).count(), 1);
        assert_eq!(sds.owned(t_sibling).count(), 1);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn multi_dstate_sender_transmits_virtually_in_each() {
        // Make the sender itself own two vstates: it must be a bystander
        // of someone else's conflicting send first.
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 4);
        // Node 1 branches, then node 1's original sends to node 2 →
        // node 0 and node 3 states become two-dstate bystanders.
        branch(&mut sds, &mut store, StateId(1), NodeId(1));
        sds.map_send(StateId(1), NodeId(1), NodeId(2), &mut store);
        assert_eq!(
            sds.owned(StateId(0)).count(),
            2,
            "node 0 is a shared bystander"
        );

        // Now node 0 sends to node 3. It has two vstates, no direct
        // rivals anywhere (node 0 never branched): delivery in place in
        // both dstates, and the targets are node 3's states reachable
        // through either dstate.
        let forks_before = store.forks.len();
        let d = sds.map_send(StateId(0), NodeId(0), NodeId(3), &mut store);
        assert_eq!(store.forks.len(), forks_before, "no rivals → no forks");
        assert_eq!(d.receivers, vec![StateId(3)]);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn dscenario_explosion_covers_products_per_dstate() {
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 3);
        branch(&mut sds, &mut store, StateId(0), NodeId(0));
        branch(&mut sds, &mut store, StateId(1), NodeId(1));
        // One dstate: 2 × 2 × 1 = 4 dscenarios.
        assert_eq!(sds.dscenarios().count(), 4);
    }

    #[test]
    fn stats_track_virtual_and_real_forks() {
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 4);
        branch(&mut sds, &mut store, StateId(0), NodeId(0));
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        let stats = sds.stats();
        assert_eq!(stats.branches_seen, 1);
        assert_eq!(stats.sends_mapped, 1);
        assert_eq!(
            stats.mapper_forks, 1,
            "one execution-level fork (the target)"
        );
        // Virtual forks: the branch mirror (1) + target copy (1) +
        // bystander copies (2).
        assert_eq!(stats.virtual_forks, 4);
    }

    /// A hand-built snapshot: `vstates` as `(owner, node, dstate)` in vid
    /// order, `groups` dstates, allocators matching.
    fn snapshot_of(vstates: &[(u64, u16, u64)], groups: u64) -> MapperSnapshot {
        MapperSnapshot::Sds {
            vstates: (0u64..)
                .zip(vstates)
                .map(|(v, (owner, node, dstate))| (v, *owner, *node, *dstate))
                .collect(),
            groups: (0..groups).collect(),
            next_group: groups,
            next_v: vstates.len() as u64,
            stats: MapperStats::default(),
        }
    }

    fn import(snapshot: MapperSnapshot) -> Result<Sds, String> {
        let mut sds = Sds::new();
        sds.import_snapshot(snapshot).map(|()| sds)
    }

    #[test]
    fn import_accepts_a_consistent_hand_built_snapshot() {
        // Two dstates over nodes {0, 1}; state 1 is a bystander of both.
        let snap = snapshot_of(&[(0, 0, 0), (1, 1, 0), (2, 0, 1), (1, 1, 1)], 2);
        let mut sds = import(snap.clone()).expect("consistent");
        assert_eq!(sds.export_snapshot(), snap);
        let mut store = MockStore::with_states(&[
            (StateId(0), NodeId(0)),
            (StateId(1), NodeId(1)),
            (StateId(2), NodeId(0)),
        ]);
        // State 1 has a far vstate (next to state 2): it forks.
        let d = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers, vec![StateId(1)]);
        assert_eq!(store.forks(), [(StateId(1), StateId(3))]);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn import_rejects_what_check_invariants_rejects() {
        let cases: [(&str, MapperSnapshot); 5] = [
            (
                "two vstates of state",
                snapshot_of(&[(0, 0, 0), (1, 1, 0), (1, 1, 0)], 1),
            ),
            (
                "covers different nodes",
                snapshot_of(&[(0, 0, 0), (1, 1, 0), (2, 0, 1)], 2),
            ),
            (
                "owns vstates on",
                snapshot_of(&[(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)], 2),
            ),
            (
                "covers different nodes",
                snapshot_of(&[(0, 0, 0), (1, 1, 0)], 2), // an empty dstate
            ),
            ("missing dstate", snapshot_of(&[(0, 0, 7)], 1)),
        ];
        for (needle, snap) in cases {
            let err = import(snap).expect_err(needle);
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn import_rejects_gaps_and_disorder_in_the_dense_ids() {
        // Each case edits the four id-bearing parts of a good snapshot.
        type Tamper = fn(&mut Vec<VStateSnapshot>, &mut Vec<u64>, &mut u64, &mut u64);
        let cases: [(&str, Tamper); 8] = [
            ("vid gap", |v, _, _, _| v[3].0 = 5),
            ("vids out of order", |v, _, _, _| v.swap(0, 1)),
            ("vid duplicated", |v, _, _, _| v[1].0 = 0),
            ("next_v ahead", |_, _, _, nv| *nv = 9),
            ("next_v behind", |_, _, _, nv| *nv = 3),
            ("gids out of order", |_, g, _, _| g.swap(0, 1)),
            ("gid gap", |_, g, _, _| g[1] = 4),
            ("next_group ahead", |_, _, ng, _| *ng = u64::MAX),
        ];
        let good = snapshot_of(&[(0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)], 2);
        assert!(import(good.clone()).is_ok());
        for (what, tamper) in cases {
            let MapperSnapshot::Sds {
                mut vstates,
                mut groups,
                mut next_group,
                mut next_v,
                stats,
            } = good.clone()
            else {
                unreachable!()
            };
            tamper(&mut vstates, &mut groups, &mut next_group, &mut next_v);
            let tampered = MapperSnapshot::Sds {
                vstates,
                groups,
                next_group,
                next_v,
                stats,
            };
            assert!(import(tampered).is_err(), "{what}");
        }
    }
}
