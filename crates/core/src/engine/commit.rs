//! The commit host: the engine itself, where a dispatch's effects become
//! the run — store, mapper, event queue, counters and trace.

use super::faults::{Fault, Verdict};
use super::host::{execute, Buffers, Host};
use super::{Engine, NodeEvent};
use crate::dedup::{memo_key, DispatchRecorder};
use crate::history::HistoryEvent;
use crate::scenario::Scenario;
use crate::state::{SdeState, StateId};
use crate::stats::BugFound;
use sde_net::{NodeId, Packet, PacketId};
use sde_symbolic::Value;
use sde_trace::{DispatchKind, ForkReason, TraceEvent};
use sde_vm::VmCtx;

impl Host for Engine {
    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn resident(&self, id: StateId) -> &SdeState {
        &self.store.states[&id]
    }

    fn update<R>(&mut self, id: StateId, change: impl FnOnce(&mut SdeState) -> R) -> R {
        self.store.states.update(id, change)
    }

    fn take(&mut self, id: StateId) -> Option<Box<SdeState>> {
        self.store.states.remove(&id)
    }

    fn put(&mut self, state: Box<SdeState>) {
        self.store.states.put(state);
    }

    fn allocate_id(&mut self) -> StateId {
        self.store.allocate_id()
    }

    fn recorder(&mut self) -> Option<&mut DispatchRecorder> {
        self.recorder.as_mut()
    }

    fn buffers(&mut self) -> &mut Buffers {
        &mut self.buffers
    }

    fn ctx(&mut self, node: NodeId) -> VmCtx<'_> {
        VmCtx {
            solver: &self.solver,
            symbols: &mut self.symbols,
            now: self.now,
            node_id: node.0,
            preset: self.preset.as_ref(),
        }
    }

    fn tick(&mut self) -> bool {
        self.instructions += 1;
        true
    }

    fn executed(&mut self, state: StateId) {
        self.executed.insert(state);
    }

    fn no_handler(&mut self, node: NodeId, handler: &str, arity: usize) {
        panic!("node {node} program has no handler `{handler}` with arity {arity}");
    }

    fn forked(&mut self, parent: StateId, child: StateId, node: NodeId) {
        self.store.events.duplicate(parent, child);
        self.store
            .note_fork(parent, child, node, ForkReason::Branch);
    }

    fn map_branch(&mut self, parent: StateId, child: StateId, node: NodeId) {
        self.store.fork_scratch.clear();
        self.mapper.on_branch(parent, child, node, &mut self.store);
        if self.traced {
            let forked = std::mem::take(&mut self.store.fork_scratch);
            self.sink.record(TraceEvent::MapBranch {
                parent: parent.0,
                child: child.0,
                node: node.0,
                forked,
            });
        }
    }

    /// One transmission: mint a packet id, run the state mapping, update
    /// the sender's history and schedule a delivery per receiver.
    fn send(&mut self, sender: &mut SdeState, dest: NodeId, payload: Vec<Value>) {
        let (id, receivers) = self.map_transmission(sender.id, sender.node, dest);
        sender.history.record(HistoryEvent::Sent { id, peer: dest });
        let packet = Packet {
            id,
            src: sender.node,
            dest,
            payload,
        };
        self.schedule_deliveries(receivers, &packet);
    }

    fn schedule(&mut self, state: StateId, delay: u64, event: NodeEvent) {
        self.store.events.push(self.now + delay, (state, event));
    }

    fn clear_events(&mut self, state: StateId) {
        self.store.events.clear(state);
    }

    /// Appends the bug to the run's list; dedup-replayed copies bypass
    /// this and its trace event (the `StatePruned` event stands in for
    /// the whole replayed dispatch).
    fn bug(&mut self, bug: BugFound) {
        if self.traced {
            self.sink.record(TraceEvent::BugFound {
                state: bug.state.0,
                node: bug.node.0,
                time: self.now,
                kind: bug.report.kind.to_string(),
            });
        }
        self.bugs.push(bug);
    }

    fn decide(&mut self, state: StateId, fault: Fault) -> Verdict {
        self.decide_fault(state, fault)
    }

    fn corruption_byte(&mut self, state: StateId) -> Option<Value> {
        self.corruption_input(state)
    }

    fn delivered(&mut self, state: StateId, node: NodeId, packet: PacketId, duplicate: bool) {
        self.trace.packets_delivered += 1;
        if self.traced {
            self.sink.record(TraceEvent::Deliver {
                state: state.0,
                node: node.0,
                packet: packet.0,
                duplicate,
            });
        }
    }

    fn dropped(&mut self, state: StateId, node: NodeId, packet: PacketId) {
        self.trace.packets_dropped += 1;
        if self.traced {
            self.sink.record(TraceEvent::Drop {
                state: state.0,
                node: node.0,
                packet: packet.0,
            });
        }
    }

    fn partition_dropped(&mut self, state: StateId, node: NodeId, packet: PacketId, until: u64) {
        self.trace.packets_dropped += 1;
        if self.traced {
            self.sink.record(TraceEvent::PartitionDrop {
                state: state.0,
                node: node.0,
                packet: packet.0,
                until,
            });
        }
    }
}

impl Engine {
    /// Dispatches the event `kind` popped for `state_id`, resolving it in
    /// tier order: a confirmed dedup replay (DESIGN.md §10), a confirmed
    /// shard recording of the batch being committed (§13), or execution
    /// through the dispatch core — recorded when dedup is on.
    pub(super) fn dispatch(&mut self, state_id: StateId, kind: NodeEvent) {
        // Terminated or mid-handler states silently drop events.
        let Some(state) = self.store.states.get(&state_id).filter(|s| s.is_idle()) else {
            return;
        };
        let node = state.node;
        let (dispatch_kind, count) = match kind {
            NodeEvent::Boot => (DispatchKind::Boot, &mut self.trace.dispatch_boot),
            NodeEvent::Timer(_) => (DispatchKind::Timer, &mut self.trace.dispatch_timer),
            NodeEvent::Deliver(_) => (DispatchKind::Deliver, &mut self.trace.dispatch_deliver),
        };
        *count += 1;
        if self.traced {
            self.sink.record(TraceEvent::Dispatch {
                state: state_id.0,
                node: node.0,
                kind: dispatch_kind,
                time: self.now,
            });
        }
        if self.preset.is_none() && (self.dedup || self.shard_entries.is_some()) {
            let state = &self.store.states[&state_id];
            let key = memo_key(state, self.now, &kind);
            if self.dedup && self.try_replay(key, state_id, &kind) {
                return;
            }
            if self.try_shard_apply(key, state_id, &kind) {
                return;
            }
            if self.shard_entries.is_some() {
                self.shard_fallback += 1;
            }
            if self.dedup {
                debug_assert!(self.recorder.is_none(), "dispatch is not reentrant");
                let state = &self.store.states[&state_id];
                self.recorder = Some(DispatchRecorder::begin(
                    key,
                    state,
                    self.now,
                    kind.clone(),
                    self.bugs.len(),
                    self.instructions,
                ));
            }
        }
        execute(self, state_id, kind);
        self.finish_record();
    }

    /// Mints the packet id of `sender`'s transmission to `dest` and maps
    /// it; returns the id and the receivers. Shared by a handler's send
    /// and the [`LogOp::Send`](crate::dedup::LogOp) replay arm.
    pub(super) fn map_transmission(
        &mut self,
        sender: StateId,
        node: NodeId,
        dest: NodeId,
    ) -> (PacketId, Vec<StateId>) {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        self.packets_sent += 1;
        if self.traced {
            self.sink.record(TraceEvent::Send {
                state: sender.0,
                node: node.0,
                dest: dest.0,
                packet: id.0,
            });
        }
        self.store.fork_scratch.clear();
        let delivery = self.mapper.map_send(sender, node, dest, &mut self.store);
        if self.traced {
            let forked = std::mem::take(&mut self.store.fork_scratch);
            self.sink.record(TraceEvent::MapSend {
                state: sender.0,
                node: node.0,
                dest: dest.0,
                packet: id.0,
                targets: delivery.receivers.iter().map(|r| r.0).collect(),
                forked,
                groups: self.mapper.group_count() as u64,
            });
        }
        (id, delivery.receivers)
    }

    /// Schedules one delivery event per mapped receiver — the tail of
    /// every transmission. The symbolic-latency decision is NOT made
    /// here: receiver-side forks at transmission time are incompatible
    /// with eager mappers (COB would have to copy the sender mid-handler,
    /// while it is off the store being executed), so latency forks at
    /// *delivery* time, where every state is resident.
    pub(super) fn schedule_deliveries(&mut self, receivers: Vec<StateId>, packet: &Packet) {
        let base = self.now + self.scenario.link_latency_ms;
        for sid in receivers {
            self.store.states.update(sid, |r| {
                r.history.record(HistoryEvent::Received {
                    id: packet.id,
                    peer: packet.src,
                })
            });
            self.store
                .events
                .push(base, (sid, NodeEvent::Deliver(packet.clone())));
        }
    }
}
