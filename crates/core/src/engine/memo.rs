//! Recorded dispatches on the commit side: dedup's memo index
//! (DESIGN.md §10) and the shard recordings of the batch being committed
//! (§13), both applied through [`Engine::apply_entry`].

use super::host::Host;
use super::{Engine, NodeEvent};
use crate::dedup::{LogOp, MemoEntry};
use crate::history::HistoryEvent;
use crate::state::StateId;
use crate::stats::BugFound;
use sde_net::Packet;
use std::sync::Arc;

impl Engine {
    /// Looks `key` up in the memo index and, when an entry passes the
    /// exact structural confirmation, replays its recorded effects
    /// instead of executing the dispatch. Returns `true` when replayed.
    pub(super) fn try_replay(&mut self, key: u64, state_id: StateId, kind: &NodeEvent) -> bool {
        let entry = {
            let s = &self.store.states[&state_id];
            let budgets = s.budgets();
            let Some(candidates) = self.dedup_index.lookup(key) else {
                return false;
            };
            self.dedup_stats.candidates += 1;
            let confirmed = candidates
                .iter()
                .find(|e| e.congruent(s.node, self.now, budgets, &s.vm, kind))
                .cloned();
            match confirmed {
                Some(e) => e,
                None => {
                    // A digest collision: two structurally different
                    // configurations under one key. Execute normally —
                    // correctness never rides on the hash.
                    self.dedup_stats.collisions += 1;
                    return false;
                }
            }
        };
        self.dedup_stats.confirmed += 1;
        // The VM never steps and the solver is never queried; the result
        // is exactly what executing the dispatch would have produced,
        // modulo SymId numbering inside shared expressions (DESIGN.md §10
        // gives the argument).
        let family = self.apply_entry(state_id, &entry, kind);
        self.dedup_stats.pruned_states += family.len() as u64;
        self.dedup_stats.saved_instructions = self
            .dedup_stats
            .saved_instructions
            .saturating_add(entry.instructions);
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::StatePruned {
                state: state_id.0,
                node: entry.node.0,
                survivor: entry.survivor.0,
                time: self.now,
            });
        }
        true
    }

    /// Sharded-merge tier ([`Engine::run_until_sharded`]): when the
    /// batch's worker recordings hold an entry congruent with this
    /// dispatch, apply it — the worker already executed the dispatch
    /// authoritatively — instead of executing. Returns `true` on apply.
    pub(super) fn try_shard_apply(
        &mut self,
        key: u64,
        state_id: StateId,
        kind: &NodeEvent,
    ) -> bool {
        let found = {
            let Some(map) = self.shard_entries.as_ref() else {
                return false;
            };
            let Some(candidates) = map.get(&key) else {
                return false;
            };
            let s = &self.store.states[&state_id];
            let budgets = s.budgets();
            // Confirmation-on-owner: the key lookup is advisory, the exact
            // structural comparison decides. A collision means serial
            // fallback, never a wrong merge.
            candidates
                .iter()
                .find(|c| c.entry.congruent(s.node, self.now, budgets, &s.vm, kind))
                .cloned()
        };
        let Some(hit) = found else {
            return false;
        };
        let family = self.apply_entry(state_id, &hit.entry, kind);
        // Bank the worker's execution as if the merge thread had run it:
        // instruction count and executed-state marks transfer, so
        // `states_executed` and the instruction totals match the serial
        // run.
        self.instructions = self.instructions.saturating_add(hit.entry.instructions);
        for v in &hit.executed {
            self.executed.insert(family[*v as usize]);
        }
        if self.dedup {
            // Feed the same memo index the serial run would have
            // populated at this dispatch, so later congruent dispatches
            // prune through the ordinary dedup tier.
            self.dedup_index.insert_arc(key, Arc::clone(&hit.entry));
        }
        self.shard_applied += 1;
        true
    }

    /// Seals the open dedup recording, if any, into the memo index.
    pub(super) fn finish_record(&mut self) {
        let Some(rec) = self.recorder.take() else {
            return;
        };
        let key = rec.key;
        let entry = rec.seal(|id| &self.store.states[&id], &self.bugs, self.instructions);
        self.dedup_index.insert(key, entry);
    }

    /// Applies a recorded dispatch to `root`: reproduces every recorded
    /// engine-level effect — forks (with live mapper registration),
    /// transmissions (fresh packet ids, real receiver mapping), timers,
    /// event clearing, delivery bookkeeping — then overwrites each family
    /// member with its recorded final configuration and re-reports the
    /// recorded bugs. Returns the family in variant order.
    fn apply_entry(&mut self, root: StateId, entry: &MemoEntry, kind: &NodeEvent) -> Vec<StateId> {
        let node = entry.node;
        let packet = || match kind {
            NodeEvent::Deliver(packet) => packet,
            _ => unreachable!("a delivery op is recorded only for a Deliver dispatch"),
        };
        let mut family: Vec<StateId> = Vec::with_capacity(entry.finals.len());
        family.push(root);
        for op in &entry.ops {
            match op {
                LogOp::FailureFork { parent, fault } => {
                    let child = self.fork_fault(family[*parent], *fault);
                    family.push(child);
                }
                LogOp::BranchFork { parent } => {
                    let parent = family[*parent];
                    let child = self.store.allocate_id();
                    let sibling = self.store.states[&parent].fork_as(child);
                    self.store.states.insert(sibling);
                    self.forked(parent, child, node);
                    self.map_branch(parent, child, node);
                    family.push(child);
                }
                LogOp::Send {
                    sender,
                    dest,
                    payload,
                } => {
                    let sender = family[*sender];
                    let (id, receivers) = self.map_transmission(sender, node, *dest);
                    self.store.states.update(sender, |s| {
                        s.history.record(HistoryEvent::Sent { id, peer: *dest })
                    });
                    let packet = Packet {
                        id,
                        src: node,
                        dest: *dest,
                        payload: payload.clone(),
                    };
                    self.schedule_deliveries(receivers, &packet);
                }
                LogOp::Timer {
                    state,
                    delay,
                    timer,
                } => self.schedule(family[*state], *delay, NodeEvent::Timer(*timer)),
                LogOp::ClearEvents { state } => self.clear_events(family[*state]),
                LogOp::PacketDropped { state } => self.dropped(family[*state], node, packet().id),
                LogOp::PartitionDrop { state, until } => {
                    self.partition_dropped(family[*state], node, packet().id, *until);
                }
                LogOp::DeferDeliver { state, delay } => {
                    let event = NodeEvent::Deliver(packet().clone());
                    self.schedule(family[*state], *delay, event);
                }
                LogOp::PacketDelivered { state, duplicate } => {
                    self.delivered(family[*state], node, packet().id, *duplicate);
                }
            }
        }
        debug_assert_eq!(family.len(), entry.finals.len(), "op log vs finals");
        for (id, (vm, budgets)) in family.iter().zip(&entry.finals) {
            self.store.states.update(*id, |s| {
                s.vm = vm.clone();
                (
                    s.drop_budget,
                    s.dup_budget,
                    s.reboot_budget,
                    s.part_budget,
                    s.lat_budget,
                    s.cor_budget,
                    s.crash_budget,
                    s.partition_until,
                ) = *budgets;
            });
        }
        for (variant, report) in &entry.bugs {
            self.bugs.push(BugFound {
                node,
                state: family[*variant],
                report: report.clone(),
            });
        }
        family
    }
}
