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
//! # Representation
//!
//! A virtual state is not an object here but a *membership*: an owner
//! slot listed in one of a dstate's columns. Three tables hold them:
//!
//! * an **owner slot** per execution state: the state's id and its
//!   super-dstate, as ascending dstate ids (4 bytes per membership);
//! * a **column**: the owner slots of one dstate on one node, in the
//!   order they joined. Any number of dstates may share a column;
//! * a **row** per dstate: one column id per node (4 bytes per node).
//!
//! A case-A copy of a dstate copies its row, not its members: the new
//! dstate shares every bystander column with the old one and gets new
//! columns only for the sender's node (the sender alone) and the
//! destination (the targets' receiving originals). A column is never
//! edited for some of the dstates sharing it only: such an edit copies
//! it, once per send however many of them take the copy
//! (copy-on-write), and an edit every sharer takes is made in place.
//!
//! # Ownership and the cost of a send
//!
//! A column names an owner slot, not an execution state. A target that
//! was a bystander of many earlier conflicts is a member of every one of
//! those dstates, almost all of them outside the sending dstates
//! (case C). When it forks, the non-receiving sibling *takes over the
//! slot* — one write — and the receiving original gets a fresh slot with
//! only its case-B dstates and the case-A copies. A send therefore reads
//! and writes the rows and columns of the sending dstates only; its cost
//! does not depend on the size of any target's super-dstate.

use crate::mapping::members::ByState;
use crate::mapping::{
    CartesianScenarios, Delivery, MapperSnapshot, MapperStats, StateMapper, StateStore,
};
use crate::state::StateId;
use sde_net::NodeId;
use std::collections::HashMap;

/// Identifier of one dstate: the index of its row in [`Sds::rows`]
/// (dense, never freed).
type DState = u32;

/// Index into [`Sds::columns`].
type ColumnId = u32;

/// Index into [`Sds::slots`].
type SlotId = u32;

/// An owner slot: one execution state and its super-dstate, ascending.
/// Columns name the slot, not the execution state, so handing a whole
/// super-dstate to another execution state is one write to `owner`.
#[derive(Debug)]
struct Slot {
    owner: StateId,
    dstates: Vec<DState>,
}

/// The members of one dstate on one node, in the order they joined, and
/// how many rows name the column.
#[derive(Debug)]
struct Column {
    slots: Vec<SlotId>,
    rows: u32,
}

/// What the phase-1 scan of the sending dstates learns about one target.
#[derive(Debug)]
struct Target {
    state: StateId,
    slot: SlotId,
    /// Its memberships in sending dstates…
    near: usize,
    /// …whether one of them shares its dstate with a direct rival (case A)…
    rival: bool,
    /// …and the rival-free sending dstates it is in (case B), ascending:
    /// all a forked target keeps of its old super-dstate.
    keeps: Vec<DState>,
}

/// The Super-DState mapper. See the module documentation.
#[derive(Debug, Default)]
pub struct Sds {
    /// The nodes every dstate covers, ascending: a node's position here
    /// is its column's position in a row.
    nodes: Vec<NodeId>,
    /// Every dstate's row, `nodes.len()` column ids each, back to back.
    rows: Vec<ColumnId>,
    /// The number of dstates (a row of no nodes takes no room in `rows`).
    dstates: usize,
    columns: Vec<Column>,
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
    /// The sending dstates with a direct rival (case A), ascending…
    rival: Vec<DState>,
    /// …and those without (case B).
    calm: Vec<DState>,
    /// Ascending by state: the order the targets fork in.
    targets: Vec<Target>,
    /// `(stale slot, fresh slot)` of every forked target, by stale slot.
    receiving: Vec<(SlotId, SlotId)>,
    /// `(destination column, dstate)` of the case-B dstates whose column
    /// lists a forked target.
    edits: Vec<(ColumnId, DState)>,
    /// `(column, its copy for the receiving originals)`, by column.
    copies: Vec<(ColumnId, ColumnId)>,
    /// Emptied `keeps` buffers of past targets (a forked target's became
    /// its fresh slot's list and left an empty one behind).
    spare_keeps: Vec<Vec<DState>>,
}

impl Sds {
    /// Creates an empty mapper; call
    /// [`on_boot`](StateMapper::on_boot) before use.
    pub fn new() -> Sds {
        Sds::default()
    }

    /// A node's position in every row.
    fn axis(&self, node: NodeId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }

    /// Where `dstate`'s column on `axis` is named in [`Sds::rows`].
    fn cell(&self, dstate: DState, axis: usize) -> usize {
        dstate as usize * self.nodes.len() + axis
    }

    fn row(&self, dstate: DState) -> &[ColumnId] {
        let width = self.nodes.len();
        &self.rows[dstate as usize * width..][..width]
    }

    fn column(&self, dstate: DState, axis: usize) -> &[SlotId] {
        &self.columns[self.rows[self.cell(dstate, axis)] as usize].slots
    }

    /// A column no row names yet.
    fn new_column(&mut self, slots: Vec<SlotId>) -> ColumnId {
        self.columns.push(Column { slots, rows: 0 });
        (self.columns.len() - 1) as ColumnId
    }

    fn slot_of(&self, state: StateId) -> Option<SlotId> {
        self.slot_of.get(state).map(|slot| slot as SlotId)
    }

    fn set_slot(&mut self, state: StateId, slot: SlotId) {
        self.slot_of.set(state, u64::from(slot));
    }

    /// Gives `owner` a fresh, empty slot (replacing any it had).
    fn fresh_slot(&mut self, owner: StateId) -> SlotId {
        self.slots.push(Slot {
            owner,
            dstates: Vec::new(),
        });
        let slot = (self.slots.len() - 1) as SlotId;
        self.set_slot(owner, slot);
        slot
    }

    fn owner(&self, slot: SlotId) -> StateId {
        self.slots[slot as usize].owner
    }

    /// The dstates `state` is a member of (its super-dstate), ascending.
    fn super_dstate(&self, state: StateId) -> &[DState] {
        match self.slot_of(state) {
            Some(slot) => &self.slots[slot as usize].dstates,
            None => &[],
        }
    }

    /// The dscenarios of one dstate; with `pinned`, only those containing
    /// that state.
    fn scenarios_of(&self, dstate: DState, pinned: Option<StateId>) -> CartesianScenarios {
        let axes = self.row(dstate).iter().map(|c| {
            let owners: Vec<StateId> = (self.columns[*c as usize].slots.iter())
                .map(|slot| self.owner(*slot))
                .collect();
            match pinned {
                Some(state) if owners.contains(&state) => vec![state],
                _ => owners,
            }
        });
        CartesianScenarios::new(axes.collect())
    }

    /// `column` with every forked target in it replaced by its receiving
    /// original, as a column no row names yet: made once per send
    /// (`copies`) however many dstates take it.
    fn receiving_copy(
        &mut self,
        column: ColumnId,
        receiving: &[(SlotId, SlotId)],
        copies: &mut Vec<(ColumnId, ColumnId)>,
    ) -> ColumnId {
        match copies.binary_search_by_key(&column, |(original, _)| *original) {
            Ok(at) => copies[at].1,
            Err(at) => {
                let slots = (self.columns[column as usize].slots.iter())
                    .map(|slot| receiver(receiving, *slot))
                    .collect();
                let copy = self.new_column(slots);
                copies.insert(at, (column, copy));
                copy
            }
        }
    }
}

/// The slot that receives in place of `slot`: the fresh slot of a forked
/// target, `slot` itself otherwise.
fn receiver(receiving: &[(SlotId, SlotId)], slot: SlotId) -> SlotId {
    match receiving.binary_search_by_key(&slot, |(stale, _)| *stale) {
        Ok(at) => receiving[at].1,
        Err(_) => slot,
    }
}

/// Removes the ascending `gone` from the ascending `owned`, touching
/// nothing in front of the first one.
fn remove_ascending(owned: &mut Vec<DState>, gone: &[DState]) {
    let Some(first) = gone.first() else {
        return;
    };
    let start = owned.partition_point(|d| d < first);
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
        self.nodes = states.iter().map(|(_, n)| *n).collect();
        self.nodes.sort_unstable();
        self.nodes.dedup();
        let mut columns = vec![Vec::new(); self.nodes.len()];
        for (s, n) in states {
            let slot = self.fresh_slot(*s);
            self.slots[slot as usize].dstates.push(0);
            columns[self.axis(*n).expect("a booted node")].push(slot);
        }
        for slots in columns {
            let c = self.new_column(slots);
            self.columns[c as usize].rows = 1;
            self.rows.push(c);
        }
        self.dstates = 1;
    }

    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        _store: &mut dyn StateStore,
    ) {
        self.stats.branches_seen += 1;
        // The child enters every dstate of the parent's super-dstate
        // (identical history), right behind the parent. Every row naming
        // one of the parent's columns is one of those dstates, so each
        // column takes the child in place, once.
        let dstates = self.super_dstate(parent).to_vec();
        let slot = self.fresh_slot(child);
        match self.axis(node) {
            Some(axis) => {
                for &d in &dstates {
                    let c = self.rows[self.cell(d, axis)] as usize;
                    let column = &mut self.columns[c].slots;
                    if column.last() != Some(&slot) {
                        column.push(slot);
                    }
                }
            }
            None => debug_assert!(false, "a branch on a booted node"),
        }
        self.stats.virtual_forks += dstates.len() as u64;
        self.slots[slot as usize].dstates = dstates;
    }

    fn map_send(
        &mut self,
        sender: StateId,
        sender_node: NodeId,
        dest: NodeId,
        store: &mut dyn StateStore,
    ) -> Delivery {
        self.stats.sends_mapped += 1;
        let (Some(sender_slot), Some(src), Some(dst)) = (
            self.slot_of(sender),
            self.axis(sender_node),
            self.axis(dest),
        ) else {
            debug_assert!(false, "sender must own virtual states on a booted node");
            return Delivery {
                receivers: Vec::new(),
            };
        };

        // Phases 1 + 2, one scan of the sending dstates (ascending): which
        // have direct rivals (case A), who the targets are, and which
        // sending dstates each target is in. Nothing outside the sending
        // dstates is read.
        let SendScratch {
            mut rival,
            mut calm,
            mut targets,
            mut receiving,
            mut edits,
            mut copies,
            mut spare_keeps,
        } = std::mem::take(&mut self.scratch);
        for &d in &self.slots[sender_slot as usize].dstates {
            // The sender's column lists the sender once, so anyone else
            // in it is a direct rival.
            let has_rival = self.column(d, src).len() > 1;
            if has_rival {
                rival.push(d);
            } else {
                calm.push(d);
            }
            for &slot in self.column(d, dst) {
                let state = self.owner(slot);
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
                if has_rival {
                    t.rival = true;
                } else {
                    t.keeps.push(d);
                }
            }
        }
        debug_assert!(
            !targets.is_empty(),
            "every dstate keeps one vstate per node"
        );

        // Phase 3: a target forks iff it has a membership next to a direct
        // rival (case A) or outside the sending dstates (case C — it is
        // in more dstates than the scan met). The non-receiving sibling
        // takes over the target's slot as it stands, which hands it every
        // case-A and case-C membership at once (Fig. 7: their dstates are
        // untouched); the receiving original restarts from a fresh slot
        // holding only its case-B dstates.
        for t in &mut targets {
            if !t.rival && t.near == self.slots[t.slot as usize].dstates.len() {
                continue;
            }
            let sibling = store.fork(t.state);
            self.stats.mapper_forks += 1;
            self.slots[t.slot as usize].owner = sibling;
            self.set_slot(sibling, t.slot);
            let fresh = self.fresh_slot(t.state);
            remove_ascending(&mut self.slots[t.slot as usize].dstates, &t.keeps);
            self.slots[fresh as usize].dstates = std::mem::take(&mut t.keeps);
            receiving.push((t.slot, fresh));
        }
        receiving.sort_unstable();

        // In its case-B dstates the fresh slot takes the stale one's place
        // in the destination column. A column that only such dstates name
        // is edited in place; one that other dstates name as well is
        // copied, once, for all of them.
        if !receiving.is_empty() {
            for &d in &calm {
                let c = self.rows[self.cell(d, dst)];
                let slots = &self.columns[c as usize].slots;
                if slots.iter().any(|s| receiver(&receiving, *s) != *s) {
                    edits.push((c, d));
                }
            }
            edits.sort_unstable();
            for edit in edits.chunk_by(|a, b| a.0 == b.0) {
                let c = edit[0].0;
                let sharers = edit.len() as u32;
                if sharers == self.columns[c as usize].rows {
                    for slot in &mut self.columns[c as usize].slots {
                        *slot = receiver(&receiving, *slot);
                    }
                    continue;
                }
                let copy = self.receiving_copy(c, &receiving, &mut copies);
                self.columns[c as usize].rows -= sharers;
                self.columns[copy as usize].rows += sharers;
                for &(_, d) in edit {
                    let cell = self.cell(d, dst);
                    self.rows[cell] = copy;
                }
            }
        }

        // Phase 4: virtual COW in every sending dstate with direct rivals.
        // The new dstate is a copy of the row: the sender moves over alone
        // (every new dstate of this send shares that column), its targets'
        // copies belong to the receiving originals, and every other column
        // — the bystanders, copied virtually — is shared with the old one.
        let width = self.nodes.len();
        let mut alone = None;
        for &d in &rival {
            let new_d = self.dstates as DState;
            self.dstates += 1;
            let (old, new) = (d as usize * width, new_d as usize * width);
            self.rows.extend_from_within(old..old + width);
            let sender_column = *alone.get_or_insert_with(|| self.new_column(vec![sender_slot]));
            self.rows[new + src] = sender_column;
            let received = self.receiving_copy(self.rows[old + dst], &receiving, &mut copies);
            self.rows[new + dst] = received;
            for axis in 0..width {
                let c = self.rows[new + axis] as usize;
                self.columns[c].rows += 1;
                if axis == src {
                    continue;
                }
                for &slot in &self.columns[c].slots {
                    self.slots[slot as usize].dstates.push(new_d);
                }
                self.stats.virtual_forks += self.columns[c].slots.len() as u64;
            }
            // Every row naming `d`'s sender column is a rival dstate of
            // this send, so the sender leaves that column in place, once.
            let c = self.rows[old + src] as usize;
            let sending = &mut self.columns[c].slots;
            if let Some(at) = sending.iter().position(|slot| *slot == sender_slot) {
                sending.remove(at);
            }
            let own = &mut self.slots[sender_slot as usize].dstates;
            if let Ok(at) = own.binary_search(&d) {
                own.remove(at);
            }
            own.push(new_d);
        }

        let receivers = targets.iter().map(|t| t.state).collect();
        spare_keeps.extend(targets.drain(..).map(|mut t| {
            t.keeps.clear();
            t.keeps
        }));
        rival.clear();
        calm.clear();
        receiving.clear();
        edits.clear();
        copies.clear();
        self.scratch = SendScratch {
            rival,
            calm,
            targets,
            receiving,
            edits,
            copies,
            spare_keeps,
        };
        Delivery { receivers }
    }

    fn group_count(&self) -> usize {
        self.dstates
    }

    fn stats(&self) -> MapperStats {
        self.stats
    }

    fn approx_bytes(&self) -> usize {
        // A membership is a dstate id in its owner's slot plus its share
        // of a column entry, which every dstate naming the column shares;
        // a dstate is one column id per node.
        let memberships: usize = self.slots.iter().map(|s| s.dstates.len()).sum();
        let entries: usize = self.columns.iter().map(|c| c.slots.len()).sum();
        memberships * size_of::<DState>()
            + entries * size_of::<SlotId>()
            + self.rows.len() * size_of::<ColumnId>()
            + self.columns.len() * size_of::<Column>()
            + self.slots.len() * size_of::<Slot>()
            + self.slot_of.len() * size_of::<u64>()
    }

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        Box::new((0..self.dstates as DState).flat_map(move |d| self.scenarios_of(d, None)))
    }

    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        // One enumeration per dstate of the state's super-dstate, with
        // the state's own node axis pinned.
        let dstates = self.super_dstate(state).iter();
        Box::new(dstates.flat_map(move |d| self.scenarios_of(*d, Some(state))))
    }

    fn check_invariants(&self) -> Option<String> {
        let width = self.nodes.len();
        if self.rows.len() != self.dstates * width {
            return Some(format!(
                "{} row cells for {} dstates of {width} nodes",
                self.rows.len(),
                self.dstates
            ));
        }
        // Columns: every dstate covers every node, every row naming a
        // column is counted, and no column lists a slot twice.
        let mut named = vec![0u32; self.columns.len()];
        for (cell, c) in self.rows.iter().enumerate() {
            let g = cell / width;
            let Some(count) = named.get_mut(*c as usize) else {
                return Some(format!("dstate {g} names missing column {c}"));
            };
            *count += 1;
            if self.columns[*c as usize].slots.is_empty() {
                return Some(format!("dstate {g} covers different nodes"));
            }
        }
        for (c, column) in self.columns.iter().enumerate() {
            if column.rows != named[c] || column.rows == 0 {
                return Some(format!(
                    "column {c} counts {} rows, {} name it",
                    column.rows, named[c]
                ));
            }
            if let Some(slot) = (column.slots.iter()).find(|s| **s as usize >= self.slots.len()) {
                return Some(format!("column {c} lists missing slot {slot}"));
            }
            let mut slots = column.slots.clone();
            slots.sort_unstable();
            if let Some(twice) = slots.windows(2).find(|pair| pair[0] == pair[1]) {
                let g = self.rows.iter().position(|r| *r as usize == c).unwrap_or(0) / width;
                return Some(format!(
                    "dstate {g} holds two vstates of state {}",
                    self.owner(twice[0])
                ));
            }
        }
        // Every execution state has one slot and is a member of at least
        // one dstate, listed ascending.
        for (i, slot) in self.slots.iter().enumerate() {
            let s = slot.owner;
            if self.slot_of(s) != Some(i as SlotId) {
                return Some(format!("state {s} does not map to its slot"));
            }
            if slot.dstates.is_empty() {
                return Some(format!("state {s} owns no virtual states"));
            }
            if !slot.dstates.windows(2).all(|pair| pair[0] < pair[1]) {
                return Some(format!("state {s}'s dstates are not ascending"));
            }
        }
        // Every membership a column lists is in its slot's list, all of a
        // slot's on one node, and the slots list no others.
        let mut axis_of: Vec<Option<usize>> = vec![None; self.slots.len()];
        let mut listed = 0;
        for g in 0..self.dstates as DState {
            for (axis, c) in self.row(g).iter().enumerate() {
                for &i in &self.columns[*c as usize].slots {
                    let slot = &self.slots[i as usize];
                    if slot.dstates.binary_search(&g).is_err() {
                        return Some(format!("state {}'s slot misses dstate {g}", slot.owner));
                    }
                    match axis_of[i as usize] {
                        None => axis_of[i as usize] = Some(axis),
                        Some(first) if first != axis => {
                            return Some(format!(
                                "state {} owns vstates on {} and {}",
                                slot.owner, self.nodes[first], self.nodes[axis]
                            ));
                        }
                        Some(_) => {}
                    }
                    listed += 1;
                }
            }
        }
        let memberships: usize = self.slots.iter().map(|s| s.dstates.len()).sum();
        if listed != memberships {
            return Some(format!(
                "{memberships} memberships in the slots, {listed} in the dstates"
            ));
        }
        None
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        // Virtual ids number the memberships dstate by dstate, node by
        // node, in column order.
        let mut vstates = Vec::new();
        for g in 0..self.dstates as DState {
            for (axis, c) in self.row(g).iter().enumerate() {
                for slot in &self.columns[*c as usize].slots {
                    let v = vstates.len() as u64;
                    let owner = self.owner(*slot).0;
                    vstates.push((v, owner, self.nodes[axis].0, u64::from(g)));
                }
            }
        }
        MapperSnapshot::Sds {
            next_v: vstates.len() as u64,
            vstates,
            groups: (0..self.dstates as u64).collect(),
            next_group: self.dstates as u64,
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
        let Ok(dstates) = DState::try_from(next_group) else {
            return Err(format!("{next_group} dstates overflow the dstate ids"));
        };
        // So are state ids, and every state of a run owns a virtual state:
        // an owner at or past the number of virtual states listed cannot
        // be one of `0..` the number of owners. Checked before `slot_of`
        // grows to it.
        let listed = vstates.len() as u64;
        for (vid, owner, _, dstate) in &vstates {
            if *dstate >= next_group {
                return Err(format!("vstate {vid} references missing dstate {dstate}"));
            }
            if *owner >= listed {
                return Err(format!(
                    "state id {owner} is not below the {listed} virtual states listed"
                ));
            }
        }
        let mut restored = Sds {
            dstates: dstates as usize,
            stats,
            ..Sds::default()
        };
        restored.nodes = vstates.iter().map(|(_, _, n, _)| NodeId(*n)).collect();
        restored.nodes.sort_unstable();
        restored.nodes.dedup();
        let width = restored.nodes.len();
        // Every dstate has a member on every node: checked before the rows
        // are allocated for them.
        if u64::from(dstates) * width as u64 > listed {
            return Err("a dstate covers different nodes".to_string());
        }
        // A column is one dstate's members on one node in vid order. Equal
        // columns are shared, as the run that wrote them may have shared
        // them.
        let mut members = vstates;
        members.sort_by_key(|(_, _, node, dstate)| (*dstate, *node));
        const UNSET: ColumnId = ColumnId::MAX;
        restored.rows = vec![UNSET; dstates as usize * width];
        let mut shared: HashMap<Vec<SlotId>, ColumnId> = HashMap::new();
        for column in members.chunk_by(|a, b| (a.3, a.2) == (b.3, b.2)) {
            let (g, node) = (column[0].3 as DState, NodeId(column[0].2));
            let mut slots = Vec::with_capacity(column.len());
            for (_, owner, ..) in column {
                let slot = match restored.slot_of(StateId(*owner)) {
                    Some(slot) => slot,
                    None => restored.fresh_slot(StateId(*owner)),
                };
                restored.slots[slot as usize].dstates.push(g);
                slots.push(slot);
            }
            let c = match shared.get(&slots) {
                Some(c) => *c,
                None => {
                    let c = restored.new_column(slots.clone());
                    shared.insert(slots, c);
                    c
                }
            };
            restored.columns[c as usize].rows += 1;
            let axis = restored.axis(node).expect("a listed node");
            let cell = restored.cell(g, axis);
            restored.rows[cell] = c;
        }
        if let Some(cell) = restored.rows.iter().position(|c| *c == UNSET) {
            return Err(format!("dstate {} covers different nodes", cell / width));
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
        assert_eq!(sds.super_dstate(child), [0]);
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
        // Two dstates; bystanders (nodes 2, 3) are members of both.
        assert_eq!(sds.group_count(), 2);
        assert_eq!(sds.super_dstate(StateId(2)), [0, 1]);
        assert_eq!(sds.super_dstate(StateId(3)), [0, 1]);
        // Receiver is in the new dstate only; the sibling in the old one.
        assert_eq!(sds.super_dstate(StateId(1)), [1]);
        assert_eq!(sds.super_dstate(copy), [0]);
        // The new dstate shares the bystanders' columns with the old one:
        // the send made the sender's column and the receiver's.
        assert_eq!(sds.row(0)[2..], sds.row(1)[2..]);
        assert_eq!(sds.columns.len(), 4 + 2);
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
        // The sender moved to a rival-free dstate, so there is no direct
        // rival — but the new target (state 2) still shares its *other*
        // dstate with the rival (a super-rival, Fig. 7): the target forks
        // once, no dstate is forked, and the case-C membership moves to
        // the sibling.
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
        assert_eq!(sds.super_dstate(StateId(2)), [1]);
        assert_eq!(sds.super_dstate(sibling), [0]);
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
        // 0→1 (conflict): creates dstate D' = {s, t(new), b} and leaves
        // D = {r, t'(old membership reassigned), b}. Send again 0→2: the
        // target is state 2, a member of D' (sending dstate, no direct
        // rival → case B) and of D (no sending membership, node-0
        // occupants are super-rivals → case C). The target must fork; its
        // D membership moves to the sibling; D itself is untouched.
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 3);
        let _rival = branch(&mut sds, &mut store, StateId(0), NodeId(0));
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(sds.group_count(), 2);
        let groups_before = sds.group_count();
        let forks_before = store.forks.len();

        // Node 2's state is a bystander so far: it is a member of BOTH
        // dstates (its super-dstate has size 2), through one column.
        assert_eq!(sds.super_dstate(StateId(2)), [0, 1]);
        assert_eq!(sds.row(0)[2], sds.row(1)[2]);

        let d = sds.map_send(StateId(0), NodeId(0), NodeId(2), &mut store);
        assert_eq!(d.receivers, vec![StateId(2)]);
        // One fork (the target), no new dstate (case B + case C only).
        assert_eq!(store.forks.len(), forks_before + 1);
        assert_eq!(sds.group_count(), groups_before);
        let (_, t_sibling) = *store.forks.last().unwrap();
        // The receiving original keeps the sending dstate; the sibling
        // took over the other one. The shared column was copied for the
        // sending dstate only.
        assert_eq!(sds.super_dstate(StateId(2)), [1]);
        assert_eq!(sds.super_dstate(t_sibling), [0]);
        assert_ne!(sds.row(0)[2], sds.row(1)[2]);
        assert!(sds.check_invariants().is_none());
    }

    /// Dstates 0 and 1 share the sender's column and the target's; the
    /// target (state 1) is also in dstate 2 through another column. With
    /// `extra`, a dstate 3 the sender is not in names the target's shared
    /// column too.
    fn shared_target(extra: bool) -> (Sds, MockStore) {
        let mut memberships = vec![
            (0, 0, 0),
            (1, 1, 0),
            (0, 0, 1),
            (1, 1, 1),
            (2, 0, 2),
            (1, 1, 2),
            (3, 1, 2),
        ];
        if extra {
            memberships.extend([(2, 0, 3), (1, 1, 3)]);
        }
        let sds = import(snapshot_of(&memberships, 3 + u64::from(extra))).expect("consistent");
        let store = MockStore::with_states(&[
            (StateId(0), NodeId(0)),
            (StateId(1), NodeId(1)),
            (StateId(2), NodeId(0)),
            (StateId(3), NodeId(1)),
        ]);
        (sds, store)
    }

    #[test]
    fn a_column_only_its_editors_share_is_edited_in_place() {
        let (mut sds, mut store) = shared_target(false);
        let columns = sds.columns.len();
        let target_column = sds.row(0)[1];
        // Case B in dstates 0 and 1, case C in dstate 2: the target forks.
        let d = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers, [StateId(1)]);
        assert_eq!(store.forks(), [(StateId(1), StateId(4))]);
        assert_eq!(sds.columns.len(), columns, "nothing copied");
        assert_eq!(sds.row(1)[1], target_column);
        assert_eq!(sds.super_dstate(StateId(1)), [0, 1]);
        assert_eq!(sds.super_dstate(StateId(4)), [2]);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn a_column_others_share_is_copied_once_for_all_its_editors() {
        let (mut sds, mut store) = shared_target(true);
        let columns = sds.columns.len();
        let target_column = sds.row(3)[1];
        assert_eq!(sds.row(0)[1], target_column);
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(sds.columns.len(), columns + 1, "one copy");
        assert_eq!(sds.row(0)[1], sds.row(1)[1]);
        assert_ne!(sds.row(0)[1], target_column);
        assert_eq!(sds.row(3)[1], target_column, "dstate 3 is untouched");
        assert_eq!(sds.super_dstate(StateId(4)), [2, 3]);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn multi_dstate_sender_transmits_virtually_in_each() {
        // Make the sender itself a member of two dstates: it must be a
        // bystander of someone else's conflicting send first.
        let mut sds = Sds::new();
        let mut store = boot(&mut sds, 4);
        // Node 1 branches, then node 1's original sends to node 2 →
        // node 0 and node 3 states become two-dstate bystanders.
        branch(&mut sds, &mut store, StateId(1), NodeId(1));
        sds.map_send(StateId(1), NodeId(1), NodeId(2), &mut store);
        assert_eq!(
            sds.super_dstate(StateId(0)).len(),
            2,
            "node 0 is a shared bystander"
        );

        // Now node 0 sends to node 3. It is in two dstates, no direct
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
        assert_eq!(sds.row(0)[1], sds.row(1)[1], "equal columns are shared");
        let mut store = MockStore::with_states(&[
            (StateId(0), NodeId(0)),
            (StateId(1), NodeId(1)),
            (StateId(2), NodeId(0)),
        ]);
        // State 1 has a far membership (next to state 2): it forks.
        let d = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        assert_eq!(d.receivers, vec![StateId(1)]);
        assert_eq!(store.forks(), [(StateId(1), StateId(3))]);
        assert!(sds.check_invariants().is_none());
    }

    #[test]
    fn import_renumbers_vids_canonically() {
        // A writer that minted vids in another order: the same
        // memberships, columns in vid order, exported dstate by dstate.
        let written = snapshot_of(&[(1, 1, 1), (0, 0, 0), (3, 0, 0), (1, 1, 0), (2, 0, 1)], 2);
        let canonical = snapshot_of(&[(0, 0, 0), (3, 0, 0), (1, 1, 0), (2, 0, 1), (1, 1, 1)], 2);
        assert_eq!(
            import(written).expect("consistent").export_snapshot(),
            canonical
        );
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
