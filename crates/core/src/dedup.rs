//! Online duplicate-dispatch detection and execution pruning (DESIGN.md
//! §10).
//!
//! The paper observes (§III-A) that state mapping floods the engine with
//! *duplicate* states — configurations whose "heap, stack, program
//! counter, path constraints, and communication history" coincide. The
//! engine cannot soundly *terminate* a duplicate (its pending events and
//! future incoming traffic may diverge from the survivor's — see the
//! probe data in DESIGN.md §10), but it can prune the duplicate's
//! *execution*: a dispatch of a configuration the engine has already
//! stepped — same node, same VM configuration, same failure budgets,
//! same event payload, same virtual time — performs, deterministically,
//! the same instruction sequence, the same solver queries and the same
//! engine-level effects. This module memoizes that effect sequence so
//! the second and every later congruent dispatch replays it in O(effects)
//! instead of re-executing the VM and re-querying the solver.
//!
//! Keys are the incremental [`VmState::config_digest`] (O(1) amortized,
//! maintained at every heap store and path push); a digest hit is only a
//! *candidate* — the entry is confirmed with an exact structural
//! comparison ([`VmState::dedup_eq`] plus budgets, virtual time and
//! event congruence) before anything is pruned, so hash collisions can
//! never silently merge distinct states.

use crate::engine::{Fault, NodeEvent};
use crate::state::{SdeState, StateId};
use crate::stats::BugFound;
use sde_net::NodeId;
use sde_symbolic::Value;
use sde_vm::{BugReport, VmState};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// `(drop, dup, reboot, part, lat, cor, crash, partition_until)` —
/// every failure/fault budget plus the active-partition deadline at
/// dispatch entry (the order [`crate::state::SdeState::budgets`]
/// returns). The deadline is part of the key: two states with equal VM
/// configurations but different heal times behave differently at the
/// next cut-crossing delivery.
pub(crate) type Budgets = (u32, u32, u32, u32, u32, u32, u32, u64);

/// One engine-level side effect of a recorded dispatch. States touched
/// by the dispatch (the *family*: the dispatched state plus everything
/// forked from it along the way) are referred to by dense *variant*
/// indices — variant 0 is the dispatched state, and each fork op appends
/// the next variant — so the log is position-independent and can be
/// replayed under fresh [`StateId`]s.
///
/// Mapper-driven forks are deliberately *not* logged: replay re-issues
/// the `on_branch`/`map_send` calls against the live mapper, which
/// repeats them with current bookkeeping (receiver sets and bystander
/// forks may legitimately differ from record time; the *trigger*
/// sequence is what congruence guarantees).
#[derive(Debug, Clone)]
pub(crate) enum LogOp {
    /// A fork of family variant `parent` on a `fault` decision; appends
    /// a new variant.
    FailureFork { parent: usize, fault: Fault },
    /// A VM branch fork of family variant `parent`; appends a new
    /// variant.
    BranchFork { parent: usize },
    /// Variant `sender` transmitted `payload` to `dest` (packet id is
    /// minted fresh at replay time — ids are global, not configuration).
    Send {
        sender: usize,
        dest: NodeId,
        payload: Vec<Value>,
    },
    /// Variant `state` armed timer `timer` to fire `delay` ms from the
    /// dispatch time.
    Timer {
        state: usize,
        delay: u64,
        timer: u16,
    },
    /// Variant `state` rebooted: its pending events were cleared.
    ClearEvents { state: usize },
    /// Variant `state` dropped the delivered packet (failure model).
    PacketDropped { state: usize },
    /// Variant `state` silently lost the delivered packet to an active
    /// partition cut (fault plan; no fork, no handler). `until` is the
    /// cut's heal deadline, re-emitted in the replayed trace event.
    PartitionDrop { state: usize, until: u64 },
    /// Variant `state` took the delayed-delivery branch (fault plan):
    /// the dispatched packet is re-enqueued to it `delay` ms from the
    /// dispatch time instead of being processed now.
    DeferDeliver { state: usize, delay: u64 },
    /// Variant `state` consumed one delivery of the dispatched packet.
    PacketDelivered { state: usize, duplicate: bool },
}

/// A memoized dispatch: the exact pre-state for confirmation, the effect
/// log, and the final configuration of every family variant.
#[derive(Debug)]
pub(crate) struct MemoEntry {
    pub(crate) node: NodeId,
    pub(crate) now: u64,
    pub(crate) budgets: Budgets,
    /// The dispatched state's VM at dispatch entry — the confirmation
    /// ground truth a digest-equal candidate is compared against.
    pub(crate) pre_vm: VmState,
    /// The dispatched event (packet id ignored for congruence).
    pub(crate) event: NodeEvent,
    /// Engine-level effects, in execution order.
    pub(crate) ops: Vec<LogOp>,
    /// Final `(vm, budgets)` per family variant, captured at dispatch
    /// end. Replay overwrites each materialized variant with these.
    pub(crate) finals: Vec<(VmState, Budgets)>,
    /// Bugs found during the dispatch, per variant, in discovery order.
    pub(crate) bugs: Vec<(usize, BugReport)>,
    /// VM instructions the recorded execution spent (the savings a
    /// replay banks).
    pub(crate) instructions: u64,
    /// The state whose execution was recorded (trace lineage edge for
    /// [`sde_trace::TraceEvent::StatePruned`]).
    pub(crate) survivor: StateId,
}

impl MemoEntry {
    /// Exact confirmation: is a dispatch of `vm` on `node` at `now` with
    /// `budgets` under `event` congruent to the recorded one? Digest
    /// equality got the candidate here; this comparison is structural
    /// and collision-proof.
    pub(crate) fn congruent(
        &self,
        node: NodeId,
        now: u64,
        budgets: Budgets,
        vm: &VmState,
        event: &NodeEvent,
    ) -> bool {
        self.node == node
            && self.now == now
            && self.budgets == budgets
            && events_congruent(&self.event, event)
            && self.pre_vm.dedup_eq(vm)
    }
}

/// Event congruence: same trigger and same *content*. Packet ids are
/// excluded — they are global mint order, not configuration, and two
/// lineages deliver the same logical packet under different ids.
pub(crate) fn events_congruent(a: &NodeEvent, b: &NodeEvent) -> bool {
    match (a, b) {
        (NodeEvent::Boot, NodeEvent::Boot) => true,
        (NodeEvent::Timer(x), NodeEvent::Timer(y)) => x == y,
        (NodeEvent::Deliver(p), NodeEvent::Deliver(q)) => {
            p.src == q.src && p.dest == q.dest && p.payload == q.payload
        }
        _ => false,
    }
}

/// The memo key of dispatching `event` to `state` at `now`: node,
/// incremental configuration digest, budgets, virtual time, and the
/// event's content shape (packet id excluded).
pub(crate) fn memo_key(state: &SdeState, now: u64, event: &NodeEvent) -> u64 {
    let mut h = DefaultHasher::new();
    state.node.0.hash(&mut h);
    state.vm.config_digest().hash(&mut h);
    state.budgets().hash(&mut h);
    now.hash(&mut h);
    match event {
        NodeEvent::Boot => 0u8.hash(&mut h),
        NodeEvent::Timer(t) => {
            1u8.hash(&mut h);
            t.hash(&mut h);
        }
        NodeEvent::Deliver(p) => {
            2u8.hash(&mut h);
            p.src.0.hash(&mut h);
            p.dest.0.hash(&mut h);
            p.payload.len().hash(&mut h);
            for e in &p.payload {
                e.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// The engine's duplicate-dispatch index: memo entries keyed by
/// [`memo_key`]. Collisions chain (each bucket is scanned with
/// [`MemoEntry::congruent`]); the index is never serialized — a resumed
/// engine rebuilds it by re-recording (DESIGN.md §10).
#[derive(Debug, Default)]
pub(crate) struct DigestIndex {
    entries: HashMap<u64, Vec<Arc<MemoEntry>>>,
}

impl DigestIndex {
    /// All entries recorded under `key` (hash-level candidates).
    pub(crate) fn lookup(&self, key: u64) -> Option<&[Arc<MemoEntry>]> {
        self.entries.get(&key).map(Vec::as_slice)
    }

    /// Records an entry under `key`.
    pub(crate) fn insert(&mut self, key: u64, entry: MemoEntry) {
        self.insert_arc(key, Arc::new(entry));
    }

    /// Records an already-shared entry under `key` — the sharded merge
    /// path adopts worker-recorded entries without cloning them.
    pub(crate) fn insert_arc(&mut self, key: u64, entry: Arc<MemoEntry>) {
        self.entries.entry(key).or_default().push(entry);
    }
}

/// The in-flight recording of one dispatch being executed for the first
/// time. Held by the host executing the dispatch — the engine under
/// dedup, a shard worker always — from [`DispatchRecorder::begin`] to
/// [`DispatchRecorder::seal`]; the dispatch core appends an op for every
/// effect while it is open.
#[derive(Debug)]
pub(crate) struct DispatchRecorder {
    pub(crate) key: u64,
    node: NodeId,
    now: u64,
    budgets: Budgets,
    pre_vm: VmState,
    event: NodeEvent,
    ops: Vec<LogOp>,
    /// Family members in variant order (`family[0]` = dispatched state).
    family: Vec<StateId>,
    variant_of: HashMap<StateId, usize>,
    /// The host's bug-list length at dispatch entry — the diff base.
    bugs_start: usize,
    /// The host's instruction count at dispatch entry.
    instr_start: u64,
}

impl DispatchRecorder {
    /// Opens the recording of dispatching `event` to the idle `state`
    /// under memo key `key`; `bugs_start` and `instr_start` are the
    /// host's bug-list length and instruction count at this point.
    pub(crate) fn begin(
        key: u64,
        state: &SdeState,
        now: u64,
        event: NodeEvent,
        bugs_start: usize,
        instr_start: u64,
    ) -> DispatchRecorder {
        DispatchRecorder {
            key,
            node: state.node,
            now,
            budgets: state.budgets(),
            pre_vm: state.vm.clone(),
            event,
            ops: Vec::new(),
            family: vec![state.id],
            variant_of: HashMap::from([(state.id, 0)]),
            bugs_start,
            instr_start,
        }
    }

    /// Seals the recording into a [`MemoEntry`] once the dispatch is over:
    /// the final `(vm, budgets)` of every family member (looked up through
    /// `state`), the bugs the host's list gained since
    /// [`DispatchRecorder::begin`], and the instructions its count gained.
    pub(crate) fn seal<'s>(
        self,
        state: impl Fn(StateId) -> &'s SdeState,
        bugs: &[BugFound],
        instructions: u64,
    ) -> MemoEntry {
        let finals = (self.family.iter())
            .map(|id| {
                let s = state(*id);
                (s.vm.clone(), s.budgets())
            })
            .collect();
        let bugs = bugs[self.bugs_start..]
            .iter()
            .map(|b| (self.variant(b.state), b.report.clone()))
            .collect();
        MemoEntry {
            node: self.node,
            now: self.now,
            budgets: self.budgets,
            pre_vm: self.pre_vm,
            event: self.event,
            ops: self.ops,
            finals,
            bugs,
            instructions: instructions - self.instr_start,
            survivor: self.family[0],
        }
    }

    /// The variant index of a family member. Every state the execution
    /// hooks touch during a recorded dispatch descends from the
    /// dispatched state, so membership is an invariant, not a filter.
    pub(crate) fn variant(&self, state: StateId) -> usize {
        *self
            .variant_of
            .get(&state)
            .expect("recorded op on a state outside the dispatch family")
    }

    /// Registers a fork child as the next family variant.
    fn adopt(&mut self, child: StateId) {
        let v = self.family.len();
        self.family.push(child);
        self.variant_of.insert(child, v);
    }

    pub(crate) fn note_failure_fork(&mut self, parent: StateId, child: StateId, fault: Fault) {
        let parent = self.variant(parent);
        self.ops.push(LogOp::FailureFork { parent, fault });
        self.adopt(child);
    }

    pub(crate) fn note_branch_fork(&mut self, parent: StateId, child: StateId) {
        let parent = self.variant(parent);
        self.ops.push(LogOp::BranchFork { parent });
        self.adopt(child);
    }

    pub(crate) fn note_send(&mut self, sender: StateId, dest: NodeId, payload: &[Value]) {
        let sender = self.variant(sender);
        self.ops.push(LogOp::Send {
            sender,
            dest,
            payload: payload.to_vec(),
        });
    }

    pub(crate) fn note_timer(&mut self, state: StateId, delay: u64, timer: u16) {
        let state = self.variant(state);
        self.ops.push(LogOp::Timer {
            state,
            delay,
            timer,
        });
    }

    pub(crate) fn note_clear_events(&mut self, state: StateId) {
        let state = self.variant(state);
        self.ops.push(LogOp::ClearEvents { state });
    }

    pub(crate) fn note_packet_dropped(&mut self, state: StateId) {
        let state = self.variant(state);
        self.ops.push(LogOp::PacketDropped { state });
    }

    pub(crate) fn note_partition_drop(&mut self, state: StateId, until: u64) {
        let state = self.variant(state);
        self.ops.push(LogOp::PartitionDrop { state, until });
    }

    pub(crate) fn note_defer_deliver(&mut self, state: StateId, delay: u64) {
        let state = self.variant(state);
        self.ops.push(LogOp::DeferDeliver { state, delay });
    }

    pub(crate) fn note_packet_delivered(&mut self, state: StateId, duplicate: bool) {
        let state = self.variant(state);
        self.ops.push(LogOp::PacketDelivered { state, duplicate });
    }
}
