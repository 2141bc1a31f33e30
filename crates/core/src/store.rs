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
//! the table holds one `Box<SdeState>` per id (a state is boxed once and
//! never moved again; growth moves 8-byte pointers), the pending-event
//! index one `VecDeque` per id (an empty one owns no buffer) and
//! [`IdSet`] one bit per id. A lookup is an index, never a hash. Ids may
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
/// Slot `i` holds the state with id `i`, boxed: `insert` boxes a state
/// once, `remove` hands that box out and `put` takes it back, so a state
/// never moves after it was inserted and growing the table moves only
/// pointers. A slot is `None` for an id that was never inserted or is
/// currently taken out (a handler runs on states it owns).
///
/// Invariant: `(live, bytes)` equals [`StateTable::totals_reference`] —
/// the full rescan — whenever no [`StateTable::update`] closure is
/// running. It holds because a state enters and leaves the totals at the
/// three places it can change: `insert` / `put` add its contribution,
/// `remove` subtracts it, and `update` — the only mutable access —
/// applies the difference between the contribution before and after the
/// closure.
#[derive(Debug, Default)]
pub struct StateTable {
    states: Vec<Option<Box<SdeState>>>,
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
    pub fn insert(&mut self, state: SdeState) -> Option<Box<SdeState>> {
        self.put(Box::new(state))
    }

    /// [`StateTable::insert`] for a state that is already boxed — the one
    /// [`StateTable::remove`] handed out goes back without being copied.
    pub fn put(&mut self, state: Box<SdeState>) -> Option<Box<SdeState>> {
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
    pub fn remove(&mut self, id: &StateId) -> Option<Box<SdeState>> {
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
            .and_then(Option::as_deref_mut)
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
        self.states.get(id.index())?.as_deref()
    }

    /// The resident states, ascending by id.
    pub fn values(&self) -> impl Iterator<Item = &SdeState> {
        self.states.iter().filter_map(Option::as_deref)
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

/// The virtual-time event queue with a per-state index.
///
/// The heap orders `(time, seq)` keys that name only the owning state;
/// each state's events — payloads included — sit in its own list, sorted
/// by `(time, seq)`, i.e. in the order the state will be dispatched them.
/// Forking a state copies its list and clearing a state drops its list,
/// both in O(that state's pending events) — never a scan of the queue.
///
/// `pending` is indexed by state id; a state with nothing pending has an
/// empty list there (or none, past the end), and an empty list owns no
/// buffer: the last pop and `clear` give it back.
///
/// Invariants (checked by [`IndexedQueue::check_reference`]): every
/// listed event has exactly one key in `front` or `heap`; a key with no
/// listed event has its `seq` in `cancelled`; since a popped key is the
/// global minimum, a live key is always the head of its state's list.
#[derive(Debug, Default)]
pub struct IndexedQueue {
    heap: EventQueue<StateId>,
    /// Keys of the current virtual-time batch, already popped off `heap`
    /// by [`IndexedQueue::batch`]; consumed before the heap. Every later
    /// push carries a larger `seq` and no earlier time, so the order is
    /// the heap's own.
    front: VecDeque<Event<StateId>>,
    pending: Vec<VecDeque<Pending>>,
    /// `seq`s of cleared events whose keys are still queued; skipped (and
    /// forgotten) when they surface.
    cancelled: HashSet<u64>,
}

impl IndexedQueue {
    /// `state`'s list, created empty (and every slot below it) on demand.
    fn list_mut(&mut self, state: StateId) -> &mut VecDeque<Pending> {
        let index = state.index();
        if index >= self.pending.len() {
            self.pending.resize_with(index + 1, VecDeque::new);
        }
        &mut self.pending[index]
    }

    /// `state`'s pending events in dispatch order (empty when it has none).
    fn list(&self, state: StateId) -> impl Iterator<Item = &Pending> {
        self.pending.get(state.index()).into_iter().flatten()
    }

    /// Schedules `event` for `state` at virtual time `time`.
    pub fn push(&mut self, time: u64, (state, event): (StateId, NodeEvent)) -> u64 {
        let seq = self.heap.push(time, state);
        let list = self.list_mut(state);
        if list.is_empty() {
            list.reserve_exact(1);
        }
        // `seq` exceeds every listed one, so the event goes behind
        // everything scheduled no later than `time`.
        let at = list.partition_point(|p| p.time <= time);
        list.insert(at, Pending { time, seq, event });
        seq
    }

    /// Discards cancelled keys until the next key in dispatch order —
    /// `front`'s head, else the heap's top — is a live one.
    fn skip_cancelled(&mut self) {
        while !self.cancelled.is_empty() {
            let Some(key) = self.front.front().or(self.heap.peek()) else {
                return;
            };
            let seq = key.seq;
            if !self.cancelled.remove(&seq) {
                return;
            }
            if self.front.pop_front().is_none() {
                self.heap.pop();
            }
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Event<(StateId, NodeEvent)>> {
        self.skip_cancelled();
        let key = self.front.pop_front().or_else(|| self.heap.pop())?;
        let state = key.payload;
        let list = self
            .pending
            .get_mut(state.index())
            .expect("a live key has a pending list");
        // The popped key is the global minimum, hence its state's head.
        let head = list.pop_front().expect("a live key has a listed event");
        debug_assert_eq!((head.time, head.seq), (key.time, key.seq));
        if list.is_empty() {
            *list = VecDeque::new();
        }
        Some(Event {
            time: key.time,
            seq: key.seq,
            payload: (state, head.event),
        })
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.skip_cancelled();
        self.front.front().or(self.heap.peek()).map(|key| key.time)
    }

    /// The states with an event pending at `time` — which must be
    /// [`IndexedQueue::peek_time`] — each once, in the order their first
    /// such events will be dispatched; [`IndexedQueue::pending_at`] lists
    /// a state's. The events stay queued; only their keys move from the
    /// heap to `front`, which the previous batch's commit has emptied.
    ///
    /// One pass over the batch's keys, no search: `time` is the earliest
    /// pending time, so a state's events at `time` head its list, and the
    /// key that names the list's head is the state's first in the batch.
    pub fn batch(&mut self, time: u64) -> Vec<StateId> {
        debug_assert!(self.front.is_empty(), "the previous batch was committed");
        while self.heap.peek().is_some_and(|key| key.time == time) {
            let key = self.heap.pop().expect("peeked key");
            if self.cancelled.is_empty() || !self.cancelled.remove(&key.seq) {
                self.front.push_back(key);
            }
        }
        (self.front.iter())
            .filter(|key| (self.list(key.payload).next()).is_some_and(|p| p.seq == key.seq))
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

    /// Number of pending events (cancelled keys do not count).
    pub fn len(&self) -> usize {
        self.heap.len() + self.front.len() - self.cancelled.len()
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
        let Some(list) = self.pending.get(from.index()).filter(|l| !l.is_empty()) else {
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
        let replaced = std::mem::replace(self.list_mut(to), copy);
        debug_assert!(replaced.is_empty(), "{to} already had pending events");
    }

    /// Drops every pending event of `state` (a reboot forgets its timers
    /// and in-flight deliveries).
    pub fn clear(&mut self, state: StateId) {
        if let Some(list) = self.pending.get_mut(state.index()) {
            self.cancelled
                .extend(std::mem::take(list).iter().map(|p| p.seq));
        }
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
            restored.list_mut(*state).push_back(Pending {
                time: *time,
                seq: *seq,
                event: event.clone(),
            });
        }
        for list in &mut restored.pending {
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
        (0u64..)
            .zip(&self.pending)
            .filter(|(_, list)| !list.is_empty())
            .map(|(id, _)| StateId(id))
    }

    /// Checks the per-state index against a scan of the queued keys: the
    /// keys not cancelled, grouped by state and sorted by `(time, seq)`,
    /// must be exactly the lists.
    ///
    /// # Errors
    ///
    /// Describes the first difference found.
    pub fn check_reference(&self) -> Result<(), String> {
        let mut scanned: Vec<(StateId, u64, u64)> = Vec::new();
        let mut stale = 0;
        for key in self.front.iter().chain(self.heap.iter()) {
            if self.cancelled.contains(&key.seq) {
                stale += 1;
            } else {
                scanned.push((key.payload, key.time, key.seq));
            }
        }
        if stale != self.cancelled.len() {
            return Err(format!(
                "{} cancelled seqs but {stale} cancelled keys queued",
                self.cancelled.len()
            ));
        }
        scanned.sort_unstable();
        let listed: Vec<(StateId, u64, u64)> = self
            .owners()
            .flat_map(|state| self.list(state).map(move |p| (state, p.time, p.seq)))
            .collect();
        if scanned.len() != listed.len() {
            return Err(format!(
                "{} live keys queued, {} events listed",
                scanned.len(),
                listed.len()
            ));
        }
        match scanned
            .iter()
            .zip(&listed)
            .find(|(key, event)| key != event)
        {
            Some((key, event)) => Err(format!(
                "queued key (state, time, seq) {key:?} but listed {event:?}"
            )),
            None => Ok(()),
        }
    }
}

/// The engine's state table plus event queue.
#[derive(Debug)]
pub struct Store {
    /// The resident states.
    pub states: StateTable,
    /// Their pending events.
    pub events: IndexedQueue,
    pub(crate) next_state: u64,
    pub(crate) total_states: usize,
    /// Trace sink shared with the engine ([`NoopSink`](sde_trace::NoopSink)
    /// unless a recorder was attached); `traced` caches `enabled()`.
    pub(crate) sink: Arc<dyn sde_trace::TraceSink>,
    pub(crate) traced: bool,
    /// Attribution for the next [`StateStore::fork`] call. Mapper-driven
    /// forks are the default; a fault decision sets its own reason around
    /// the engine's `fork_fault` store fork.
    pub(crate) fork_reason: sde_trace::ForkReason,
    /// Fork counts indexed by [`sde_trace::ForkReason::ALL`] — always on,
    /// they feed [`sde_trace::TraceSummary`].
    pub(crate) forks: [u64; 10],
    /// Children forked since the engine last cleared it; drained into
    /// `MapBranch`/`MapSend` decision events (populated only when traced).
    pub(crate) fork_scratch: Vec<u64>,
}

fn reason_index(reason: sde_trace::ForkReason) -> usize {
    use sde_trace::ForkReason::*;
    match reason {
        Branch => 0,
        Mapping => 1,
        Drop => 2,
        Duplicate => 3,
        Reboot => 4,
        Latency => 5,
        Corrupt => 6,
        Crash => 7,
        Partition => 8,
        Heal => 9,
    }
}

impl Default for Store {
    fn default() -> Store {
        Store {
            states: StateTable::default(),
            events: IndexedQueue::default(),
            next_state: 0,
            total_states: 0,
            sink: Arc::new(sde_trace::NoopSink),
            traced: false,
            fork_reason: sde_trace::ForkReason::Mapping,
            forks: [0; 10],
            fork_scratch: Vec::new(),
        }
    }
}

impl Store {
    /// Mints the next state id.
    pub fn allocate_id(&mut self) -> StateId {
        let id = StateId(self.next_state);
        self.next_state += 1;
        self.total_states += 1;
        id
    }

    /// Count (and, when traced, record) one fork edge.
    pub(crate) fn note_fork(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        reason: sde_trace::ForkReason,
    ) {
        self.forks[reason_index(reason)] += 1;
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
}

impl StateStore for Store {
    fn fork(&mut self, original: StateId) -> StateId {
        let id = self.allocate_id();
        let copy = self
            .states
            .get(&original)
            .unwrap_or_else(|| panic!("fork of non-resident state {original}"))
            .fork_as(id);
        let node = copy.node;
        self.states.insert(copy);
        self.events.duplicate(original, id);
        self.note_fork(original, id, node, self.fork_reason);
        id
    }

    fn node_of(&self, state: StateId) -> NodeId {
        self.states[&state].node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sde_net::{FailureConfig, FaultPlan};
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
            &FaultPlan::new(),
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
        store.states.put(taken);
        let child = store.fork(a);
        assert!(store.states.get(&child).is_some());
        assert_eq!(store.states.totals(), store.states.totals_reference());
    }

    /// The flat table against the hash map it replaced, op for op: ids
    /// with gaps, replacement, take-out and put-back of the same box,
    /// updates that change a state's contribution.
    #[test]
    fn state_table_agrees_with_a_hash_map_model() {
        use std::collections::HashMap;
        let mut pb = ProgramBuilder::new();
        pb.function("on_boot", 0, |f| f.ret(None));
        let vm = VmState::fresh(&pb.build().unwrap());
        let fresh = |id: u64, node: u16| {
            SdeState::boot(
                StateId(id),
                NodeId(node),
                vm.clone(),
                &FailureConfig::new(),
                &FaultPlan::new(),
                false,
            )
        };
        // What the model remembers of a state: enough to tell two apart.
        let facts = |s: &SdeState| (s.id, s.node, s.history.len());

        let mut rng = proptest::TestRng::for_case(0x22, 0);
        let mut table = StateTable::default();
        let mut model: HashMap<StateId, (StateId, NodeId, u32)> = HashMap::new();
        let mut out: Vec<Box<SdeState>> = Vec::new();
        for op in 0..20_000u64 {
            // Sparse on purpose: most of 0..4096 is never inserted.
            let id = StateId(rng.below(64) * rng.below(64));
            match rng.below(6) {
                0 | 1 => {
                    let state = fresh(id.0, rng.below(9) as u16);
                    let replaced = table.insert(state.clone()).map(|old| facts(&old));
                    assert_eq!(replaced, model.insert(id, facts(&state)), "op {op}");
                }
                2 => {
                    let taken = table.remove(&id);
                    assert_eq!(taken.as_deref().map(facts), model.remove(&id), "op {op}");
                    out.extend(taken);
                }
                3 => {
                    // The same box goes back where it was.
                    if let Some(state) = out.pop() {
                        let (id, address) = (state.id, std::ptr::from_ref(&*state));
                        let replaced = table.put(state).map(|old| facts(&old));
                        assert!(std::ptr::eq(&table[&id], address), "op {op}");
                        assert_eq!(replaced, model.insert(id, facts(&table[&id])), "op {op}");
                    }
                }
                4 => {
                    if model.contains_key(&id) {
                        table.update(id, |s| {
                            s.history.record(crate::history::HistoryEvent::Sent {
                                id: sde_net::PacketId(op),
                                peer: NodeId(0),
                            })
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
            if op % 97 == 0 {
                let ids: Vec<StateId> = table.values().map(|s| s.id).collect();
                assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "op {op}");
                assert_eq!(ids.len(), model.len());
                assert!(table.values().all(|s| model[&s.id] == facts(s)), "op {op}");
            }
        }
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
