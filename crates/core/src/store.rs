//! The engine's state table and event queue — the [`StateStore`] the
//! mappers fork through.
//!
//! Both structures keep the bookkeeping the run loop reads (live count,
//! byte total, one state's pending events) current as they are mutated,
//! so a dispatch costs what it touches: nothing here walks every resident
//! state or every queued event on a per-event path. The walks survive as
//! `*_reference` oracles that tests and debug assertions compare against.
//!
//! **Ids are indexes.** [`Store::allocate_id`] mints state ids densely
//! and never reuses one, and no state ever leaves the table for good, so
//! everything keyed by a state id here is a flat vector indexed by it:
//! the table holds one 24-byte [`SdeState`] handle per id inline (its
//! core sits behind an `Arc` and never moves; growth moves handles), the
//! pending-event index a 4-byte slot per id (naming a pooled list only
//! while the state has events pending) and
//! `IdSet` one bit per id. A lookup is an index, never a hash. Ids may
//! have gaps in memory (tests insert `StateId(100)`); a snapshot may not
//! claim one — [`Engine::resume`](crate::Engine::resume) bounds every id
//! by what the snapshot itself holds before any of these vectors grows.

use crate::engine::NodeEvent;
use crate::mapping::StateStore;
use crate::state::{SdeState, StateId};
use sde_net::{Event, EventQueue, NodeId};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// What one resident state adds to the table's totals.
fn contribution(state: &SdeState) -> (usize, usize) {
    (usize::from(state.is_live()), state.approx_bytes())
}

/// The resident states, with the number of live ones and the sum of
/// their [`SdeState::approx_bytes`] kept current.
///
/// Slot `i` holds the handle of the state with id `i`, inline: a fork's
/// handle shares its parent's core, and the two mutable paths — an
/// [`StateTable::update`] closure, and a state [`StateTable::remove`]
/// hands out until it is inserted back — reach the core through
/// `Arc::make_mut`, so the first write to a shared core clones it once.
/// A slot is `None` for an id that was never inserted or is currently
/// taken out (a handler runs on states it owns).
///
/// Invariant: `(live, bytes)` equals [`StateTable::totals_reference`] —
/// the full rescan — whenever no [`StateTable::update`] closure is
/// running. It holds because a state enters and leaves the totals at the
/// three places it can change: `insert` adds its contribution,
/// `remove` subtracts it, and `update` — the only mutable access —
/// applies the difference between the contribution before and after the
/// closure.
#[derive(Debug, Default)]
pub struct StateTable {
    states: Vec<Option<SdeState>>,
    resident: usize,
    live: usize,
    bytes: usize,
}

impl StateTable {
    fn count(&mut self, state: &SdeState) {
        let (live, bytes) = contribution(state);
        self.resident += 1;
        self.live += live;
        self.bytes += bytes;
    }

    fn uncount(&mut self, state: &SdeState) {
        let (live, bytes) = contribution(state);
        self.resident -= 1;
        self.live -= live;
        self.bytes -= bytes;
    }

    /// Makes `state` resident, returning the state it replaced, if any.
    pub fn insert(&mut self, state: SdeState) -> Option<SdeState> {
        self.count(&state);
        let index = state.id.index();
        if index >= self.states.len() {
            self.states.resize_with(index + 1, || None);
        }
        let replaced = self.states[index].replace(state);
        if let Some(old) = &replaced {
            self.uncount(old);
        }
        replaced
    }

    /// Takes `id` out of the table (a handler runs on states it owns).
    pub fn remove(&mut self, id: &StateId) -> Option<SdeState> {
        let state = self.states.get_mut(id.index())?.take()?;
        self.uncount(&state);
        Some(state)
    }

    /// Mutates the resident state `id` through `change`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not resident — the engine only updates states
    /// it has just looked up or forked.
    pub fn update<R>(&mut self, id: StateId, change: impl FnOnce(&mut SdeState) -> R) -> R {
        let state = self
            .states
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("state {id} not resident"));
        let before = contribution(state);
        let result = change(state);
        let after = contribution(state);
        self.live = self.live - before.0 + after.0;
        self.bytes = self.bytes - before.1 + after.1;
        result
    }

    /// The resident state `id`.
    pub fn get(&self, id: &StateId) -> Option<&SdeState> {
        self.states.get(id.index())?.as_ref()
    }

    /// The resident states, ascending by id.
    pub fn values(&self) -> impl Iterator<Item = &SdeState> {
        self.states.iter().filter_map(Option::as_ref)
    }

    /// Number of resident states.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// `true` before anything booted.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// `(live states, Σ approx_bytes)` over the resident states. O(1).
    pub fn totals(&self) -> (usize, usize) {
        (self.live, self.bytes)
    }

    /// [`StateTable::totals`] recomputed by walking every resident state
    /// (and, inside `approx_bytes`, nothing shorter than before): the
    /// oracle the incremental totals are tested against.
    pub fn totals_reference(&self) -> (usize, usize) {
        self.values().fold((0, 0), |(live, bytes), s| {
            let c = contribution(s);
            (live + c.0, bytes + c.1)
        })
    }
}

impl std::ops::Index<&StateId> for StateTable {
    type Output = SdeState;

    fn index(&self, id: &StateId) -> &SdeState {
        self.get(id)
            .unwrap_or_else(|| panic!("state {id} not resident"))
    }
}

/// A set of state ids, one bit per id, with its size kept.
#[derive(Debug, Default)]
pub(crate) struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Adds `id`; `true` when it was not in the set.
    pub(crate) fn insert(&mut self, id: StateId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.0 % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    pub(crate) fn contains(&self, id: StateId) -> bool {
        let word = self.words.get(id.index() / 64);
        word.is_some_and(|word| word >> (id.0 % 64) & 1 == 1)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        (0u64..).zip(&self.words).flat_map(|(w, word)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 == 1)
                .map(move |bit| StateId(w * 64 + bit))
        })
    }
}

/// One pending event of one state; the payload lives here, once.
#[derive(Debug)]
struct Pending {
    time: u64,
    seq: u64,
    event: NodeEvent,
}

/// The per-state pending lists, pooled.
///
/// A state id's slot is 0 while the state has nothing pending, and
/// otherwise names its list in `lists` (1-based). A list is opened by the
/// first event a state gets and closed by its last pop or a clear, which
/// gives its buffer back and its entry to `free`. So the index costs 4
/// bytes per id ever minted, and one `VecDeque` per state that has events
/// pending at the busiest moment of the run — far fewer: the states
/// waiting on nothing are most of a long run.
#[derive(Debug, Default)]
struct PendingLists {
    slot: Vec<u32>,
    lists: Vec<VecDeque<Pending>>,
    free: Vec<u32>,
}

impl PendingLists {
    fn get(&self, state: StateId) -> Option<&VecDeque<Pending>> {
        let at = self.slot.get(state.index())?.checked_sub(1)?;
        Some(&self.lists[at as usize])
    }

    fn get_mut(&mut self, state: StateId) -> Option<&mut VecDeque<Pending>> {
        let at = self.slot.get(state.index())?.checked_sub(1)?;
        Some(&mut self.lists[at as usize])
    }

    /// `state`'s list, opened empty when it has none.
    fn open(&mut self, state: StateId) -> &mut VecDeque<Pending> {
        let index = state.index();
        if index >= self.slot.len() {
            self.slot.resize(index + 1, 0);
        }
        if self.slot[index] == 0 {
            self.slot[index] = self.free.pop().unwrap_or_else(|| {
                self.lists.push(VecDeque::new());
                u32::try_from(self.lists.len()).expect("fewer than 2^32 lists pending at once")
            });
        }
        &mut self.lists[self.slot[index] as usize - 1]
    }

    /// Closes `state`'s list, handing out what it held.
    fn close(&mut self, state: StateId) -> VecDeque<Pending> {
        let Some(slot) = self.slot.get_mut(state.index()).filter(|at| **at != 0) else {
            return VecDeque::new();
        };
        let at = std::mem::take(slot);
        self.free.push(at);
        std::mem::take(&mut self.lists[at as usize - 1])
    }

    /// The states with a list, ascending.
    fn owners(&self) -> impl Iterator<Item = StateId> + '_ {
        (0u64..)
            .zip(&self.slot)
            .filter(|(_, at)| **at != 0)
            .map(|(id, _)| StateId(id))
    }
}

/// The virtual-time event queue with a per-state index.
///
/// The heap orders `(time, seq)` keys that name only the owning state;
/// each state's events — payloads included — sit in its own list, sorted
/// by `(time, seq)`, i.e. in the order the state will be dispatched them.
/// Forking a state copies its list and clearing a state drops its list,
/// both in O(that state's pending events) — never a scan of the queue.
///
/// `pending` holds one list per state with something pending; a state
/// with nothing pending has no list, and owns nothing there: the last pop
/// and `clear` give its list back.
///
/// Invariants (checked by [`IndexedQueue::check_reference`]): every
/// listed event has exactly one key in `front` or `heap`, and `stale`
/// counts the keys with no listed event. Since the next key in dispatch
/// order is the global minimum, it is live exactly when it names its
/// state's list head — a cleared event's `seq` is never listed again —
/// so a stale key is recognised where it surfaces, by one comparison.
#[derive(Debug, Default)]
pub struct IndexedQueue {
    heap: EventQueue<StateId>,
    /// Keys of the current virtual-time batch, already popped off `heap`
    /// by [`IndexedQueue::batch`]; consumed before the heap. Every later
    /// push carries a larger `seq` and no earlier time, so the order is
    /// the heap's own.
    front: VecDeque<Event<StateId>>,
    pending: PendingLists,
    /// Keys of cleared events still queued; each is skipped when it
    /// surfaces.
    stale: usize,
}

impl IndexedQueue {
    /// `state`'s pending events in dispatch order (empty when it has none).
    fn list(&self, state: StateId) -> impl Iterator<Item = &Pending> {
        self.pending.get(state).into_iter().flatten()
    }

    /// Schedules `event` for `state` at virtual time `time`.
    pub fn push(&mut self, time: u64, (state, event): (StateId, NodeEvent)) -> u64 {
        let seq = self.heap.push(time, state);
        let list = self.pending.open(state);
        if list.is_empty() {
            list.reserve_exact(1);
        }
        // `seq` exceeds every listed one, so the event goes behind
        // everything scheduled no later than `time`.
        let at = list.partition_point(|p| p.time <= time);
        list.insert(at, Pending { time, seq, event });
        seq
    }

    /// Discards stale keys until the next key in dispatch order —
    /// `front`'s head, else the heap's top — is a live one: the head of
    /// its state's list.
    fn skip_stale(&mut self) {
        while self.stale > 0 {
            let Some((seq, state)) = self.next_key() else {
                return;
            };
            if self.heads(state, seq) {
                return;
            }
            if self.front.pop_front().is_none() {
                self.heap.pop();
            }
            self.stale -= 1;
        }
    }

    /// `(seq, state)` of the next key in dispatch order: `front`'s head,
    /// else the heap's top.
    fn next_key(&self) -> Option<(u64, StateId)> {
        match self.front.front() {
            Some(key) => Some((key.seq, key.payload)),
            None => self.heap.peek().map(|key| (key.seq, *key.payload)),
        }
    }

    /// Whether the key `seq` of `state` names the head of its list.
    fn heads(&self, state: StateId, seq: u64) -> bool {
        (self.list(state).next()).is_some_and(|p| p.seq == seq)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Event<(StateId, NodeEvent)>> {
        self.skip_stale();
        let key = self.front.pop_front().or_else(|| self.heap.pop())?;
        let state = key.payload;
        let list = (self.pending.get_mut(state)).expect("a live key has a pending list");
        // The popped key is the global minimum, hence its state's head.
        let head = list.pop_front().expect("a live key has a listed event");
        debug_assert_eq!((head.time, head.seq), (key.time, key.seq));
        if list.is_empty() {
            self.pending.close(state);
        }
        Some(Event {
            time: key.time,
            seq: key.seq,
            payload: (state, head.event),
        })
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.skip_stale();
        match self.front.front() {
            Some(key) => Some(key.time),
            None => self.heap.peek_time(),
        }
    }

    /// The states with an event pending at `time` — which must be
    /// [`IndexedQueue::peek_time`] — each once, in the order their first
    /// such events will be dispatched; [`IndexedQueue::pending_at`] lists
    /// a state's. The events stay queued; only their keys move from the
    /// heap to `front`, which the previous batch's commit has emptied —
    /// stale ones too, skipped where they surface.
    ///
    /// One pass over the batch's keys, no search: `time` is the earliest
    /// pending time, so a state's events at `time` head its list, and the
    /// key that names the list's head is the state's first in the batch.
    pub fn batch(&mut self, time: u64) -> Vec<StateId> {
        debug_assert!(self.front.is_empty(), "the previous batch was committed");
        while self.heap.peek_time() == Some(time) {
            let key = self.heap.pop().expect("peeked key");
            self.front.push_back(key);
        }
        (self.front.iter())
            .filter(|key| self.heads(key.payload, key.seq))
            .map(|key| key.payload)
            .collect()
    }

    /// `state`'s events pending at `time` — the earliest pending time —
    /// in dispatch order.
    pub fn pending_at(&self, state: StateId, time: u64) -> impl Iterator<Item = &NodeEvent> {
        self.list(state)
            .take_while(move |p| p.time == time)
            .map(|p| &p.event)
    }

    /// Number of pending events (stale keys do not count).
    pub fn len(&self) -> usize {
        self.heap.len() + self.front.len() - self.stale
    }

    /// Returns `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next push will be given.
    pub fn next_seq(&self) -> u64 {
        self.heap.next_seq()
    }

    /// Copies every pending event of `from` for `to`, same times, pushed
    /// in the order `from` will be dispatched them — so `to` is dispatched
    /// its copies in that order too.
    ///
    /// `to` is a state just forked off `from`: it has no events yet.
    pub fn duplicate(&mut self, from: StateId, to: StateId) {
        let Some(list) = self.pending.get(from) else {
            return;
        };
        // Fresh `seq`s rise along the list, so the copy is sorted as is.
        let copy: VecDeque<Pending> = list
            .iter()
            .map(|p| Pending {
                time: p.time,
                seq: self.heap.push(p.time, to),
                event: p.event.clone(),
            })
            .collect();
        let replaced = std::mem::replace(self.pending.open(to), copy);
        debug_assert!(replaced.is_empty(), "{to} already had pending events");
    }

    /// Drops every pending event of `state` (a reboot forgets its timers
    /// and in-flight deliveries).
    pub fn clear(&mut self, state: StateId) {
        self.stale += self.pending.close(state).len();
    }

    /// The pending events as `(time, seq, state, event)`, sorted by `seq`
    /// — the snapshot wire form.
    pub fn export(&self) -> Vec<(u64, u64, StateId, NodeEvent)> {
        let mut queue: Vec<_> = self
            .owners()
            .flat_map(|state| {
                self.list(state)
                    .map(move |p| (p.time, p.seq, state, p.event.clone()))
            })
            .collect();
        queue.sort_unstable_by_key(|(_, seq, _, _)| *seq);
        queue
    }

    /// Rebuilds a queue from [`IndexedQueue::export`]ed events without
    /// tracing the pushes (the original run already did).
    ///
    /// The index grows to the largest state id named, so the caller
    /// bounds those first ([`Engine::resume`](crate::Engine::resume)
    /// requires every one to be resident).
    ///
    /// # Errors
    ///
    /// A `seq` at or beyond `next_seq`, or one that occurs twice, cannot
    /// come from an export; the message says which.
    pub fn import(
        next_seq: u64,
        queue: &[(u64, u64, StateId, NodeEvent)],
    ) -> Result<IndexedQueue, &'static str> {
        let mut seen = HashSet::with_capacity(queue.len());
        let mut restored = IndexedQueue::default();
        for (time, seq, state, event) in queue {
            if *seq >= next_seq {
                return Err("queued event seq beyond allocator");
            }
            if !seen.insert(*seq) {
                return Err("duplicate queued event seq");
            }
            restored.pending.open(*state).push_back(Pending {
                time: *time,
                seq: *seq,
                event: event.clone(),
            });
        }
        for list in &mut restored.pending.lists {
            list.make_contiguous()
                .sort_unstable_by_key(|p| (p.time, p.seq));
        }
        let keys = queue.iter().map(|(time, seq, state, _)| Event {
            time: *time,
            seq: *seq,
            payload: *state,
        });
        restored.heap = EventQueue::from_parts(next_seq, keys);
        Ok(restored)
    }

    /// The states that own at least one pending event, ascending.
    pub fn owners(&self) -> impl Iterator<Item = StateId> + '_ {
        self.pending.owners()
    }

    /// Checks the per-state index against a scan of the queued keys:
    /// every listed event must have its key queued, and the keys left
    /// over must be as many as `stale` counts.
    ///
    /// # Errors
    ///
    /// Describes the first difference found.
    pub fn check_reference(&self) -> Result<(), String> {
        let mut scanned: Vec<(StateId, u64, u64)> = (self.front.iter())
            .map(|key| (key.payload, key.time, key.seq))
            .chain(
                self.heap
                    .iter()
                    .map(|key| (*key.payload, key.time, key.seq)),
            )
            .collect();
        scanned.sort_unstable();
        // Both sorted, and `seq`s are unique: one merge pairs every
        // listed event with its key.
        let mut listed = self
            .owners()
            .flat_map(|state| self.list(state).map(move |p| (state, p.time, p.seq)))
            .peekable();
        let mut stale = 0;
        for key in &scanned {
            if listed.peek() == Some(key) {
                listed.next();
            } else {
                stale += 1;
            }
        }
        if let Some(event) = listed.next() {
            return Err(format!(
                "listed event (state, time, seq) {event:?} has no queued key"
            ));
        }
        if stale != self.stale {
            return Err(format!(
                "{} stale keys counted but {stale} queued",
                self.stale
            ));
        }
        Ok(())
    }
}

/// The engine's state table plus event queue.
#[derive(Debug)]
pub struct Store {
    /// The resident states.
    pub states: StateTable,
    /// Their pending events.
    pub events: IndexedQueue,
    /// The next state id to mint; every id below it was minted once, so
    /// it is also the number of states the run ever created.
    pub(crate) next_state: u64,
    /// Trace sink shared with the engine ([`NoopSink`](sde_trace::NoopSink)
    /// unless a recorder was attached); `traced` caches `enabled()`.
    pub(crate) sink: Arc<dyn sde_trace::TraceSink>,
    pub(crate) traced: bool,
    /// The run's always-on counter digest, surfaced through
    /// [`RunReport::trace`](crate::RunReport::trace): [`Store::note_fork`]
    /// counts its forks, the engine the rest.
    pub(crate) trace: sde_trace::TraceSummary,
    /// Children forked since the engine last cleared it; drained into
    /// `MapBranch`/`MapSend` decision events (populated only when traced).
    pub(crate) fork_scratch: Vec<u64>,
}

impl Default for Store {
    fn default() -> Store {
        Store {
            states: StateTable::default(),
            events: IndexedQueue::default(),
            next_state: 0,
            sink: Arc::new(sde_trace::NoopSink),
            traced: false,
            trace: sde_trace::TraceSummary::default(),
            fork_scratch: Vec::new(),
        }
    }
}

impl Store {
    /// Mints the next state id.
    ///
    /// # Panics
    ///
    /// Panics when the run has minted 2^32 ids: a state's shard-lineage
    /// key ([`SdeState::shard_root`]) holds an id in 32 bits.
    pub fn allocate_id(&mut self) -> StateId {
        assert!(self.next_state < u64::from(u32::MAX), "fewer than 2^32 ids");
        let id = StateId(self.next_state);
        self.next_state += 1;
        id
    }

    /// States the run ever created.
    pub(crate) fn total_states(&self) -> usize {
        self.next_state as usize
    }

    /// Count (and, when traced, record) one fork edge.
    pub(crate) fn note_fork(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        reason: sde_trace::ForkReason,
    ) {
        self.trace.forks[reason as usize] += 1;
        if self.traced {
            self.fork_scratch.push(child.0);
            self.sink.record(sde_trace::TraceEvent::Fork {
                parent: parent.0,
                child: child.0,
                node: node.0,
                reason,
            });
        }
    }

    /// Forks `original` into a fresh resident state with a copy of its
    /// pending events, counting the fork under `reason`.
    pub(crate) fn fork_for(&mut self, original: StateId, reason: sde_trace::ForkReason) -> StateId {
        let id = self.allocate_id();
        let copy = self
            .states
            .get(&original)
            .unwrap_or_else(|| panic!("fork of non-resident state {original}"))
            .fork_as(id);
        let node = copy.node;
        self.states.insert(copy);
        self.events.duplicate(original, id);
        self.note_fork(original, id, node, reason);
        id
    }
}

impl StateStore for Store {
    fn fork(&mut self, original: StateId) -> StateId {
        self.fork_for(original, sde_trace::ForkReason::Mapping)
    }

    fn node_of(&self, state: StateId) -> NodeId {
        self.states[&state].node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateCore;
    use sde_net::FailureConfig;
    use sde_vm::{ProgramBuilder, VmState};

    fn boot(store: &mut Store, node: u16) -> StateId {
        let mut pb = ProgramBuilder::new();
        pb.function("on_boot", 0, |f| f.ret(None));
        let id = store.allocate_id();
        store.states.insert(SdeState::boot(
            id,
            NodeId(node),
            VmState::fresh(&pb.build().unwrap()),
            &FailureConfig::new(),
            false,
        ));
        id
    }

    fn timer(e: &NodeEvent) -> u16 {
        match e {
            NodeEvent::Timer(t) => *t,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The grouping `IndexedQueue::batch` replaced: the batch's events in
    /// dispatch order, each appended to its state's group, found by a
    /// scan of the groups so far (first appearance makes a new one).
    fn first_appearance_groups(dispatch_order: &[(StateId, u16)]) -> Vec<(StateId, Vec<u16>)> {
        let mut groups: Vec<(StateId, Vec<u16>)> = Vec::new();
        for (sid, t) in dispatch_order {
            match groups.iter_mut().find(|(g, _)| g == sid) {
                Some((_, timers)) => timers.push(*t),
                None => groups.push((*sid, vec![*t])),
            }
        }
        groups
    }

    /// The batch at `time` as `batch` + `pending_at` group it.
    fn batch_groups(queue: &mut IndexedQueue, time: u64) -> Vec<(StateId, Vec<u16>)> {
        (queue.batch(time).into_iter())
            .map(|sid| (sid, queue.pending_at(sid, time).map(timer).collect()))
            .collect()
    }

    fn timers_of(store: &mut Store, state: StateId) -> Vec<u16> {
        let mut seen = Vec::new();
        while let Some(e) = store.events.pop() {
            if let (owner, NodeEvent::Timer(t)) = e.payload {
                if owner == state {
                    seen.push(t);
                }
            }
        }
        seen
    }

    /// Same-time events reach a fork child in the parent's order. The
    /// parent commit copied them by scanning the heap array, whose order
    /// is not FIFO: the four pushes below leave the array as
    /// `[t0, Timer(2), Timer(1), t100]` (the fourth push sifts up past
    /// `t100`), so that scan handed the child `[2, 1]`.
    #[test]
    fn fork_keeps_same_time_events_fifo() {
        let mut store = Store::default();
        let parent = boot(&mut store, 0);
        let other = boot(&mut store, 1);
        store.events.push(0, (other, NodeEvent::Timer(100)));
        store.events.push(100, (other, NodeEvent::Timer(101)));
        store.events.push(50, (parent, NodeEvent::Timer(1)));
        store.events.push(50, (parent, NodeEvent::Timer(2)));
        let child = store.fork(parent);
        store.events.check_reference().unwrap();
        assert_eq!(timers_of(&mut store, child), vec![1, 2]);
    }

    #[test]
    fn cleared_events_never_surface_and_never_count() {
        let mut store = Store::default();
        let a = boot(&mut store, 0);
        let b = boot(&mut store, 1);
        store.events.push(10, (a, NodeEvent::Timer(1)));
        store.events.push(5, (b, NodeEvent::Timer(2)));
        store.events.push(20, (a, NodeEvent::Timer(3)));
        store.events.clear(a);
        assert_eq!(store.events.len(), 1);
        // A reboot re-arms: the new event is live, the cleared ones stay gone.
        store.events.push(15, (a, NodeEvent::Timer(4)));
        store.events.check_reference().unwrap();
        assert_eq!(store.events.export().len(), 2);
        assert_eq!(store.events.pop().unwrap().seq, 1);
        assert_eq!(
            store.events.peek_time(),
            Some(15),
            "the cleared t=10 key is skipped"
        );
        assert_eq!(timers_of(&mut store, a), vec![4]);
        assert!(store.events.is_empty());
        store.events.check_reference().unwrap();
    }

    #[test]
    fn batch_lists_the_same_time_events_and_leaves_them_queued() {
        let mut store = Store::default();
        let a = boot(&mut store, 0);
        let b = boot(&mut store, 1);
        store.events.push(7, (a, NodeEvent::Timer(1)));
        store.events.push(9, (a, NodeEvent::Timer(9)));
        store.events.push(7, (b, NodeEvent::Timer(2)));
        store.events.push(7, (a, NodeEvent::Timer(3)));
        let batch = batch_groups(&mut store.events, 7);
        assert_eq!(batch, vec![(a, vec![1, 3]), (b, vec![2])]);
        assert_eq!(batch, first_appearance_groups(&[(a, 1), (b, 2), (a, 3)]));
        assert_eq!(store.events.len(), 4);
        store.events.check_reference().unwrap();
        // A same-time push during the batch runs after it; pops keep order.
        store.events.push(7, (b, NodeEvent::Timer(4)));
        let order: Vec<u64> = std::iter::from_fn(|| store.events.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![0, 2, 3, 4, 1]);
    }

    /// 2 000 groups, most states with several events in the batch, some
    /// cleared and re-armed, events of later times in between: the one
    /// pass groups exactly as the quadratic scan did.
    #[test]
    fn batch_groups_as_the_first_appearance_scan_did() {
        const STATES: u64 = 2_000;
        let mut rng = proptest::TestRng::for_case(0x23, 0);
        let mut queue = IndexedQueue::default();
        // `(seq, state, timer)` of the events pending at time 5.
        let mut at_five: Vec<(u64, StateId, u16)> = Vec::new();
        for state in 0..STATES {
            // Every state is in the batch at least once.
            let seq = queue.push(5, (StateId(state), NodeEvent::Timer(state as u16)));
            at_five.push((seq, StateId(state), state as u16));
        }
        for op in 0..6_000u64 {
            let state = StateId(rng.below(STATES));
            let tag = (STATES + op) as u16;
            match rng.below(8) {
                0 => {
                    queue.clear(state);
                    at_five.retain(|e| e.1 != state);
                    let seq = queue.push(5, (state, NodeEvent::Timer(tag)));
                    at_five.push((seq, state, tag));
                }
                1 | 2 => {
                    queue.push(5 + rng.below(9) + 1, (state, NodeEvent::Timer(tag)));
                }
                _ => {
                    let seq = queue.push(5, (state, NodeEvent::Timer(tag)));
                    at_five.push((seq, state, tag));
                }
            }
        }
        at_five.sort_unstable();
        let dispatch_order: Vec<(StateId, u16)> = at_five.iter().map(|e| (e.1, e.2)).collect();
        let expected = first_appearance_groups(&dispatch_order);
        assert_eq!(expected.len(), STATES as usize);
        assert!(expected.iter().any(|(_, timers)| timers.len() > 3));
        assert_eq!(queue.peek_time(), Some(5));
        assert_eq!(batch_groups(&mut queue, 5), expected);
        queue.check_reference().unwrap();
        // Grouping moved nothing: the batch pops in dispatch order.
        for (sid, t) in dispatch_order {
            let e = queue.pop().unwrap();
            assert_eq!((e.time, e.payload.0, timer(&e.payload.1)), (5, sid, t));
        }
        assert_ne!(queue.peek_time(), Some(5));
    }

    #[test]
    fn totals_follow_insert_update_remove() {
        let mut store = Store::default();
        let a = boot(&mut store, 0);
        let b = boot(&mut store, 1);
        assert_eq!(store.states.totals(), store.states.totals_reference());
        assert_eq!(store.states.totals().0, 2);
        store.states.update(a, |s| {
            s.history.record(crate::history::HistoryEvent::Sent {
                id: sde_net::PacketId(0),
                peer: NodeId(1),
            })
        });
        assert_eq!(store.states.totals(), store.states.totals_reference());
        let taken = store.states.remove(&b).unwrap();
        assert_eq!(store.states.totals(), store.states.totals_reference());
        assert_eq!(store.states.totals().0, 1);
        store.states.insert(taken);
        let child = store.fork(a);
        assert!(store.states.get(&child).is_some());
        assert_eq!(store.states.totals(), store.states.totals_reference());
    }

    /// The flat table against the hash map it replaced, op for op: ids
    /// with gaps, replacement, take-out and put-back of the same core,
    /// forks that share their parent's core, and updates that change a
    /// state's contribution — on a core it owns or one it shares. After
    /// every op each resident state's content and the totals are checked
    /// against the model, so a write that reached a sibling shows at once.
    #[test]
    fn state_table_agrees_with_a_hash_map_model() {
        use crate::history::HistoryEvent;
        use std::collections::BTreeMap;
        let mut pb = ProgramBuilder::new();
        pb.function("on_boot", 0, |f| f.ret(None));
        let vm = VmState::fresh(&pb.build().unwrap());
        let fresh = |id: u64, node: u16| {
            SdeState::boot(
                StateId(id),
                NodeId(node),
                vm.clone(),
                &FailureConfig::new(),
                false,
            )
        };
        // What the model remembers of a state: what the ops write.
        let facts = |s: &SdeState| (s.id, s.node, s.history.digest(), s.budgets());
        // Where a state's core lives: equal for states that share one.
        let core = |s: &SdeState| std::ptr::from_ref::<StateCore>(s);

        let mut rng = proptest::TestRng::for_case(0x22, 0);
        let mut table = StateTable::default();
        let mut model = BTreeMap::new();
        let mut out: Vec<SdeState> = Vec::new();
        let (mut forks, mut shared_writes) = (0, 0);
        for op in 0..20_000u64 {
            // Sparse on purpose: most of 0..4096 is never inserted.
            let id = StateId(rng.below(64) * rng.below(64));
            match rng.below(8) {
                0 => {
                    let state = fresh(id.0, rng.below(9) as u16);
                    let replaced = table.insert(state.clone()).map(|old| facts(&old));
                    assert_eq!(replaced, model.insert(id, facts(&state)), "op {op}");
                }
                1 | 2 => {
                    // A fork of a resident state into `id`: one more
                    // handle on the parent's core.
                    let parents: Vec<StateId> = model.keys().copied().collect();
                    if let Some(&parent) =
                        parents.get(rng.below(parents.len().max(1) as u64) as usize)
                    {
                        let child = table[&parent].fork_as(id);
                        assert_eq!(core(&child), core(&table[&parent]), "op {op}");
                        let replaced = table.insert(child).map(|old| facts(&old));
                        assert_eq!(replaced, model.insert(id, facts(&table[&id])), "op {op}");
                        forks += 1;
                    }
                }
                3 => {
                    let taken = table.remove(&id);
                    assert_eq!(taken.as_ref().map(facts), model.remove(&id), "op {op}");
                    out.extend(taken);
                }
                4 => {
                    // The same core goes back where it was.
                    if let Some(state) = out.pop() {
                        let (id, address) = (state.id, core(&state));
                        let replaced = table.insert(state).map(|old| facts(&old));
                        assert_eq!(core(&table[&id]), address, "op {op}");
                        assert_eq!(replaced, model.insert(id, facts(&table[&id])), "op {op}");
                    }
                }
                5 | 6 => {
                    if model.contains_key(&id) {
                        let shared = table
                            .values()
                            .any(|s| s.id != id && core(s) == core(&table[&id]));
                        shared_writes += u32::from(shared);
                        table.update(id, |s| {
                            s.history.record(HistoryEvent::Sent {
                                id: sde_net::PacketId(op),
                                peer: NodeId(0),
                            });
                            s.budgets[0] += 1;
                        });
                        model.insert(id, facts(&table[&id]));
                    }
                }
                _ => assert_eq!(
                    table.get(&id).map(facts),
                    model.get(&id).copied(),
                    "op {op}"
                ),
            }
            assert_eq!(table.totals(), table.totals_reference(), "op {op}");
            assert_eq!(table.len(), model.len(), "op {op}");
            assert_eq!(table.is_empty(), model.is_empty());
            assert!(
                table.values().map(facts).eq(model.values().copied()),
                "op {op}"
            );
        }
        assert!(
            forks > 1_000 && shared_writes > 100,
            "{forks} forks, {shared_writes} shared writes"
        );
    }

    /// A seeded script of every queue operation, with forks and clears,
    /// against a sorted-list model; the index is checked against the scan
    /// of the queued keys after every single operation.
    #[test]
    fn indexed_queue_agrees_with_a_sorted_model_under_forks_and_clears() {
        let mut rng = proptest::TestRng::for_case(0x22, 1);
        let mut queue = IndexedQueue::default();
        // `(time, seq, state, timer)`, kept sorted: dispatch order.
        let mut model: Vec<(u64, u64, StateId, u16)> = Vec::new();
        let mut now = 0;
        let mut next_state = 4u64;
        for op in 0..20_000u64 {
            let state = StateId(rng.below(next_state));
            match rng.below(10) {
                0..=3 => {
                    let (time, tag) = (now + rng.below(40), op as u16);
                    let seq = queue.push(time, (state, NodeEvent::Timer(tag)));
                    model.push((time, seq, state, tag));
                    model.sort_unstable();
                }
                4..=6 => {
                    assert_eq!(queue.peek_time(), model.first().map(|e| e.0), "op {op}");
                    let popped = queue
                        .pop()
                        .map(|e| (e.time, e.seq, e.payload.0, timer(&e.payload.1)));
                    assert_eq!(popped.as_ref(), model.first(), "op {op}");
                    if let Some((time, ..)) = popped {
                        model.remove(0);
                        now = time;
                    }
                }
                7 => {
                    // A fork: the child gets the parent's events, in the
                    // parent's order, under fresh seqs.
                    let child = StateId(next_state);
                    next_state += 1;
                    let first_seq = queue.next_seq();
                    queue.duplicate(state, child);
                    let copies: Vec<_> = (model.iter().filter(|e| e.2 == state))
                        .zip(first_seq..)
                        .map(|(e, seq)| (e.0, seq, child, e.3))
                        .collect();
                    assert_eq!(queue.next_seq(), first_seq + copies.len() as u64);
                    model.extend(copies);
                    model.sort_unstable();
                }
                8 => {
                    queue.clear(state);
                    model.retain(|e| e.2 != state);
                }
                _ => {
                    if let Some(time) = queue.peek_time() {
                        let expected: Vec<(StateId, u16)> = (model.iter())
                            .take_while(|e| e.0 == time)
                            .map(|e| (e.2, e.3))
                            .collect();
                        assert_eq!(
                            batch_groups(&mut queue, time),
                            first_appearance_groups(&expected),
                            "op {op}"
                        );
                        // The sharded loop commits a batch before the next.
                        for e in model.drain(..expected.len()) {
                            assert_eq!(queue.pop().map(|p| p.seq), Some(e.1), "op {op}");
                        }
                        now = time;
                    }
                }
            }
            queue
                .check_reference()
                .unwrap_or_else(|e| panic!("op {op}: {e}"));
            assert_eq!(queue.len(), model.len(), "op {op}");
            let mut owners: Vec<StateId> = model.iter().map(|e| e.2).collect();
            owners.sort_unstable();
            owners.dedup();
            assert!(queue.owners().eq(owners), "op {op}");
        }
        let exported: Vec<_> = (queue.export().into_iter())
            .map(|(time, seq, state, e)| (time, seq, state, timer(&e)))
            .collect();
        model.sort_unstable_by_key(|e| e.1);
        assert_eq!(exported, model);
    }

    #[test]
    fn import_rejects_impossible_seqs() {
        let ev = |seq| (1, seq, StateId(0), NodeEvent::Boot);
        assert!(IndexedQueue::import(2, &[ev(0), ev(1)]).is_ok());
        assert_eq!(
            IndexedQueue::import(2, &[ev(0), ev(2)]).unwrap_err(),
            "queued event seq beyond allocator"
        );
        assert_eq!(
            IndexedQueue::import(2, &[ev(1), ev(1)]).unwrap_err(),
            "duplicate queued event seq"
        );
    }
}
