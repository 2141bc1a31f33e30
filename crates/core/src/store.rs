//! The engine's state table and event queue — the [`StateStore`] the
//! mappers fork through.
//!
//! Both structures keep the bookkeeping the run loop reads (live count,
//! byte total, one state's pending events) current as they are mutated,
//! so a dispatch costs what it touches: nothing here walks every resident
//! state or every queued event on a per-event path. The walks survive as
//! `*_reference` oracles that tests and debug assertions compare against.

use crate::engine::NodeEvent;
use crate::mapping::StateStore;
use crate::state::{SdeState, StateId};
use sde_net::{Event, EventQueue, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// What one resident state adds to the table's totals.
fn contribution(state: &SdeState) -> (usize, usize) {
    (usize::from(state.is_live()), state.approx_bytes())
}

/// The resident states, with the number of live ones and the sum of
/// their [`SdeState::approx_bytes`] kept current.
///
/// Invariant: `(live, bytes)` equals [`StateTable::totals_reference`] —
/// the full rescan — whenever no [`StateTable::update`] closure is
/// running. It holds because a state enters and leaves the totals at the
/// three places it can change: `insert` adds its contribution, `remove`
/// subtracts it, and `update` — the only mutable access — applies the
/// difference between the contribution before and after the closure.
#[derive(Debug, Default)]
pub struct StateTable {
    states: HashMap<StateId, SdeState>,
    live: usize,
    bytes: usize,
}

impl StateTable {
    fn count(&mut self, state: &SdeState) {
        let (live, bytes) = contribution(state);
        self.live += live;
        self.bytes += bytes;
    }

    fn uncount(&mut self, state: &SdeState) {
        let (live, bytes) = contribution(state);
        self.live -= live;
        self.bytes -= bytes;
    }

    /// Makes `state` resident, returning the state it replaced, if any.
    pub fn insert(&mut self, state: SdeState) -> Option<SdeState> {
        self.count(&state);
        let replaced = self.states.insert(state.id, state);
        if let Some(old) = &replaced {
            self.uncount(old);
        }
        replaced
    }

    /// Takes `id` out of the table (a handler runs on states it owns).
    pub fn remove(&mut self, id: &StateId) -> Option<SdeState> {
        let state = self.states.remove(id)?;
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
            .get_mut(&id)
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
        self.states.get(id)
    }

    /// The resident states, in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &SdeState> {
        self.states.values()
    }

    /// `true` before anything booted.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// `(live states, Σ approx_bytes)` over the resident states. O(1).
    pub fn totals(&self) -> (usize, usize) {
        (self.live, self.bytes)
    }

    /// [`StateTable::totals`] recomputed by walking every resident state
    /// (and, inside `approx_bytes`, nothing shorter than before): the
    /// oracle the incremental totals are tested against.
    pub fn totals_reference(&self) -> (usize, usize) {
        self.states.values().fold((0, 0), |(live, bytes), s| {
            let c = contribution(s);
            (live + c.0, bytes + c.1)
        })
    }
}

impl std::ops::Index<&StateId> for StateTable {
    type Output = SdeState;

    fn index(&self, id: &StateId) -> &SdeState {
        self.states
            .get(id)
            .unwrap_or_else(|| panic!("state {id} not resident"))
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
    pending: HashMap<StateId, VecDeque<Pending>>,
    /// `seq`s of cleared events whose keys are still queued; skipped (and
    /// forgotten) when they surface.
    cancelled: HashSet<u64>,
}

impl IndexedQueue {
    /// Schedules `event` for `state` at virtual time `time`.
    pub fn push(&mut self, time: u64, (state, event): (StateId, NodeEvent)) -> u64 {
        let seq = self.heap.push(time, state);
        let list = self
            .pending
            .entry(state)
            .or_insert_with(|| VecDeque::with_capacity(1));
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
            .get_mut(&state)
            .expect("a live key has a pending list");
        // The popped key is the global minimum, hence its state's head.
        let head = list.pop_front().expect("pending lists are never empty");
        debug_assert_eq!((head.time, head.seq), (key.time, key.seq));
        if list.is_empty() {
            self.pending.remove(&state);
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

    /// Every pending event scheduled at `time` — which must be
    /// [`IndexedQueue::peek_time`] — in dispatch order. The events stay
    /// queued; only their keys move from the heap to `front`, which the
    /// previous batch's commit has emptied.
    pub fn batch(&mut self, time: u64) -> Vec<(StateId, NodeEvent)> {
        debug_assert!(self.front.is_empty(), "the previous batch was committed");
        while self.heap.peek().is_some_and(|key| key.time == time) {
            let key = self.heap.pop().expect("peeked key");
            if self.cancelled.is_empty() || !self.cancelled.remove(&key.seq) {
                self.front.push_back(key);
            }
        }
        self.front
            .iter()
            .map(|key| {
                let event = self.pending[&key.payload]
                    .iter()
                    .find(|p| p.seq == key.seq)
                    .expect("a live key has a listed event");
                (key.payload, event.event.clone())
            })
            .collect()
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
        let Some(list) = self.pending.get(&from) else {
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
        let replaced = self.pending.insert(to, copy);
        debug_assert!(replaced.is_none(), "{to} already had pending events");
    }

    /// Drops every pending event of `state` (a reboot forgets its timers
    /// and in-flight deliveries).
    pub fn clear(&mut self, state: StateId) {
        if let Some(list) = self.pending.remove(&state) {
            self.cancelled.extend(list.iter().map(|p| p.seq));
        }
    }

    /// The pending events as `(time, seq, state, event)`, sorted by `seq`
    /// — the snapshot wire form.
    pub fn export(&self) -> Vec<(u64, u64, StateId, NodeEvent)> {
        let mut queue: Vec<_> = self
            .pending
            .iter()
            .flat_map(|(state, list)| {
                list.iter()
                    .map(|p| (p.time, p.seq, *state, p.event.clone()))
            })
            .collect();
        queue.sort_unstable_by_key(|(_, seq, _, _)| *seq);
        queue
    }

    /// Rebuilds a queue from [`IndexedQueue::export`]ed events without
    /// tracing the pushes (the original run already did).
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
        let mut pending: HashMap<StateId, VecDeque<Pending>> = HashMap::new();
        for (time, seq, state, event) in queue {
            if *seq >= next_seq {
                return Err("queued event seq beyond allocator");
            }
            if !seen.insert(*seq) {
                return Err("duplicate queued event seq");
            }
            pending.entry(*state).or_default().push_back(Pending {
                time: *time,
                seq: *seq,
                event: event.clone(),
            });
        }
        for list in pending.values_mut() {
            list.make_contiguous()
                .sort_unstable_by_key(|p| (p.time, p.seq));
        }
        let keys = queue.iter().map(|(time, seq, state, _)| Event {
            time: *time,
            seq: *seq,
            payload: *state,
        });
        Ok(IndexedQueue {
            heap: EventQueue::from_parts(next_seq, keys),
            front: VecDeque::new(),
            pending,
            cancelled: HashSet::new(),
        })
    }

    /// The states that own at least one pending event.
    pub fn owners(&self) -> impl Iterator<Item = StateId> + '_ {
        self.pending.keys().copied()
    }

    /// Checks the per-state index against a scan of the queued keys: the
    /// keys not cancelled, grouped by state and sorted by `(time, seq)`,
    /// must be exactly the lists.
    ///
    /// # Errors
    ///
    /// Describes the first difference found.
    pub fn check_reference(&self) -> Result<(), String> {
        let mut scanned: HashMap<StateId, Vec<(u64, u64)>> = HashMap::new();
        let mut stale = 0;
        for key in self.front.iter().chain(self.heap.iter()) {
            if self.cancelled.contains(&key.seq) {
                stale += 1;
            } else {
                scanned
                    .entry(key.payload)
                    .or_default()
                    .push((key.time, key.seq));
            }
        }
        if stale != self.cancelled.len() {
            return Err(format!(
                "{} cancelled seqs but {stale} cancelled keys queued",
                self.cancelled.len()
            ));
        }
        if scanned.len() != self.pending.len() {
            return Err(format!(
                "{} states own queued keys, {} own lists",
                scanned.len(),
                self.pending.len()
            ));
        }
        for (state, mut keys) in scanned {
            keys.sort_unstable();
            let listed: Vec<(u64, u64)> = self
                .pending
                .get(&state)
                .map(|list| list.iter().map(|p| (p.time, p.seq)).collect())
                .unwrap_or_default();
            if keys != listed {
                return Err(format!(
                    "{state}: queued keys {keys:?} but listed {listed:?}"
                ));
            }
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
    pub(crate) next_state: u64,
    pub(crate) total_states: usize,
    /// Trace sink shared with the engine ([`NoopSink`](sde_trace::NoopSink)
    /// unless a recorder was attached); `traced` caches `enabled()`.
    pub(crate) sink: Arc<dyn sde_trace::TraceSink>,
    pub(crate) traced: bool,
    /// Attribution for the next [`StateStore::fork`] call. Mapper-driven
    /// forks are the default; the failure models set their own reason
    /// around `fork_local`'s store fork.
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
        let batch: Vec<(StateId, u16)> = store
            .events
            .batch(7)
            .into_iter()
            .map(|(s, e)| match e {
                NodeEvent::Timer(t) => (s, t),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(batch, vec![(a, 1), (b, 2), (a, 3)]);
        assert_eq!(store.events.len(), 4);
        store.events.check_reference().unwrap();
        // A same-time push during the batch runs after it; pops keep order.
        store.events.push(7, (b, NodeEvent::Timer(4)));
        let order: Vec<u64> = std::iter::from_fn(|| store.events.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![0, 2, 3, 4, 1]);
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
