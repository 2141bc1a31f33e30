//! The dispatch core: executing one event of one state, written once.
//!
//! [`execute`] runs a dispatched event — a handler, or a delivery with its
//! fault decisions — against a [`Host`], the sink of every effect the
//! execution has. Two hosts implement it, statically dispatched:
//!
//! - the **commit host**, [`Engine`](super::Engine) itself: effects mutate
//!   the store, the mapper, the event queue and the trace;
//! - the **record host**, a shard worker (`super::shard`): effects land on
//!   local clones, and the host stops the dispatch at the first fault
//!   decision, which would mint a symbol, and at its instruction cap.
//!
//! Recording belongs to the core: every effect is noted into the host's
//! open [`DispatchRecorder`] here, once, before the host applies it. The
//! commit host has one open while dedup records a dispatch, the record
//! host always.

use super::faults::{flip_byte, Fault, Verdict};
use super::NodeEvent;
use crate::dedup::DispatchRecorder;
use crate::scenario::Scenario;
use crate::state::{SdeState, StateId};
use crate::stats::BugFound;
use sde_net::{NodeId, Packet, PacketId};
use sde_os::handlers;
use sde_symbolic::{Value, Width};
use sde_vm::{step, FrameBuffer, Program, Status, StepResult, Syscall, VmCtx, VmState};
use std::sync::Arc;

/// Per-event buffers that outlive the event: `on_recv`'s arguments, the
/// handler's stack of states still to run, and the frame the last
/// finished handler left. Each is taken for one use and put back, so a
/// dispatch allocates none of them once they have grown — and no state
/// keeps a frame between its handlers.
#[derive(Debug, Default)]
pub(super) struct Buffers {
    recv_args: Vec<Value>,
    running: Vec<SdeState>,
    frame: FrameBuffer,
}

/// Where the effects of an executing dispatch go. States are addressed
/// by id; the one a handler is running is out of the host (`take` …
/// `put`) for the handler's duration.
pub(super) trait Host {
    /// The run's programs, topology and failure config.
    fn scenario(&self) -> &Scenario;
    /// The dispatch's virtual time.
    fn now(&self) -> u64;
    /// A state that is in the host.
    fn resident(&self, id: StateId) -> &SdeState;
    /// Mutates a state that is in the host.
    fn update<R>(&mut self, id: StateId, change: impl FnOnce(&mut SdeState) -> R) -> R;
    /// Takes `id` out to run a handler on it.
    fn take(&mut self, id: StateId) -> Option<SdeState>;
    /// Puts a state (back) in.
    fn put(&mut self, state: SdeState);
    /// Mints the id of a branch fork.
    fn allocate_id(&mut self) -> StateId;
    /// The open recording, if any.
    fn recorder(&mut self) -> Option<&mut DispatchRecorder>;
    fn buffers(&mut self) -> &mut Buffers;
    /// The context a state of `node` steps in.
    fn ctx(&mut self, node: NodeId) -> VmCtx<'_>;
    /// Counts one VM step; `false` ends the dispatch where it stands.
    fn tick(&mut self) -> bool;
    /// `state` entered handler execution.
    fn executed(&mut self, state: StateId);
    /// `node`'s program has no `handler` taking `arity` arguments.
    fn no_handler(&mut self, node: NodeId, handler: &str, arity: usize);
    /// `child` was forked off `parent` by a branch: it gets copies of
    /// `parent`'s pending events.
    fn forked(&mut self, parent: StateId, child: StateId, node: NodeId);
    /// The branch fork `child` is in the host; the mapper learns of it.
    fn map_branch(&mut self, _parent: StateId, _child: StateId, _node: NodeId) {}
    /// `sender` transmits `payload` to its neighbour `dest`.
    fn send(&mut self, sender: &mut SdeState, dest: NodeId, payload: Vec<Value>);
    /// Queues `event` for `state`, `delay` ms from now.
    fn schedule(&mut self, state: StateId, delay: u64, event: NodeEvent);
    /// Drops `state`'s pending events (it restarted).
    fn clear_events(&mut self, state: StateId);
    /// A bug was found.
    fn bug(&mut self, bug: BugFound);
    /// Decides `fault` for the receiving `state` (see [`Verdict`]).
    fn decide(&mut self, state: StateId, fault: Fault) -> Verdict;
    /// The byte a corruption flips into the payload of `state`'s
    /// delivery; `None` ends the delivery.
    fn corruption_byte(&mut self, state: StateId) -> Option<Value>;
    /// The handler running on `state` ended; `state` goes back in next.
    fn handler_ended(&mut self, _state: &mut SdeState) {}
    /// `state` consumed one delivery of `packet`.
    fn delivered(&mut self, _state: StateId, _node: NodeId, _packet: PacketId, _duplicate: bool) {}
    /// `state` dropped `packet` (the drop model).
    fn dropped(&mut self, _state: StateId, _node: NodeId, _packet: PacketId) {}
    /// `state` lost `packet` to a partition cut active until `until`.
    fn partition_dropped(
        &mut self,
        _state: StateId,
        _node: NodeId,
        _packet: PacketId,
        _until: u64,
    ) {
    }
}

/// Appends an op to the open recording, if there is one.
fn note<H: Host>(h: &mut H, op: impl FnOnce(&mut DispatchRecorder)) {
    if let Some(rec) = h.recorder() {
        op(rec);
    }
}

/// Executes `event` on the idle state `state`.
pub(super) fn execute<H: Host>(h: &mut H, state: StateId, event: NodeEvent) {
    match event {
        NodeEvent::Boot => run_handler(h, state, handlers::ON_BOOT, &[]),
        NodeEvent::Timer(t) => {
            let args = [Value::const_(u64::from(t), Width::W16)];
            run_handler(h, state, handlers::ON_TIMER, &args);
        }
        NodeEvent::Deliver(packet) => deliver(h, state, &packet),
    }
}

/// Runs one handler on `state` to completion, including every state
/// forked along the way, the latest fork first; a send is mapped
/// mid-flight.
fn run_handler<H: Host>(h: &mut H, state: StateId, handler: &str, args: &[Value]) {
    let Some(mut first) = h.take(state) else {
        return;
    };
    if !first.is_idle() {
        h.put(first);
        return;
    }
    let node = first.node;
    let program = Arc::clone(h.scenario().program(node));
    if !first
        .vm
        .prepare_from(&mut h.buffers().frame, &program, handler, args)
    {
        h.no_handler(node, handler, args.len());
        return;
    }

    let mut running = std::mem::take(&mut h.buffers().running);
    running.push(first);
    'states: while let Some(mut st) = running.pop() {
        h.executed(st.id);
        loop {
            let Some(effect) = step_to_effect(h, &program, &mut st.vm, node) else {
                // The dispatch ends here; the stack goes with it.
                running.clear();
                break 'states;
            };
            match effect {
                StepResult::Continue => unreachable!("step_to_effect returns effects only"),
                StepResult::Forked(sibling_vm) => {
                    let id = h.allocate_id();
                    let sibling = st.fork_with_vm(id, sibling_vm);
                    h.forked(st.id, id, node);
                    note(h, |rec| rec.note_branch_fork(st.id, id));
                    let bugged = match sibling.vm.status() {
                        Status::Bugged(report) => {
                            let report = (**report).clone();
                            h.bug(BugFound {
                                node,
                                state: id,
                                report,
                            });
                            true
                        }
                        _ => false,
                    };
                    h.put(sibling);
                    h.map_branch(st.id, id, node);
                    if !bugged {
                        running.push(h.take(id).expect("sibling just put"));
                    }
                }
                StepResult::Syscall(Syscall::Send { dest, payload }) => {
                    let dest = NodeId(dest);
                    assert!(
                        h.scenario().topology.are_neighbors(node, dest),
                        "{node} sent to non-neighbor {dest}"
                    );
                    note(h, |rec| rec.note_send(st.id, dest, &payload));
                    h.send(&mut st, dest, payload);
                }
                StepResult::Syscall(Syscall::SetTimer { delay, timer }) => {
                    note(h, |rec| rec.note_timer(st.id, delay, timer));
                    h.schedule(st.id, delay, NodeEvent::Timer(timer));
                }
                StepResult::HandlerDone(_) | StepResult::Halted | StepResult::Infeasible => {
                    end_handler(h, st);
                    break;
                }
                StepResult::Bug(report) => {
                    h.bug(BugFound {
                        node,
                        state: st.id,
                        report,
                    });
                    end_handler(h, st);
                    break;
                }
            }
        }
    }
    h.buffers().running = running;
}

/// The handler running on `st` ended: the frame it left goes back to the
/// host's buffer — `st` owns its core here, it just stepped — and `st`
/// back into the host.
fn end_handler<H: Host>(h: &mut H, mut st: SdeState) {
    st.vm.release_frame(&mut h.buffers().frame);
    h.handler_ended(&mut st);
    h.put(st);
}

/// Steps `vm` until a step has an effect for the host — a fork, a
/// syscall, the handler's end — or the host ends the dispatch (`None`).
/// The caller reaches the state's core once for the whole run of plain
/// steps, not once a step.
fn step_to_effect<H: Host>(
    h: &mut H,
    program: &Program,
    vm: &mut VmState,
    node: NodeId,
) -> Option<StepResult> {
    loop {
        if !h.tick() {
            return None;
        }
        match step(program, vm, &mut h.ctx(node)) {
            StepResult::Continue => {}
            effect => return Some(effect),
        }
    }
}

/// Packet delivery (DESIGN.md §11). A delivery across a cut the receiving
/// lineage holds active is lost silently. Otherwise every fault model
/// armed for it is decided in [`Fault::ORDER`], and what the decision
/// took runs that model's effect: a forked child, while the receiving
/// state goes on to the next model, or — replaying — the receiving state
/// itself, which ends the delivery. The state still holding the packet at
/// the end runs `on_recv`.
fn deliver<H: Host>(h: &mut H, receiver: StateId, packet: &Packet) {
    let (node, until) = {
        let s = h.resident(receiver);
        (s.node, s.partition_until)
    };
    let crosses_cut = h.scenario().failures.cut_contains(packet.src, node);
    if h.now() < until && crosses_cut {
        // The edge does not exist until the heal deadline: no decision,
        // no handler.
        partition_drop(h, receiver, node, packet.id, until);
        return;
    }
    for fault in Fault::ORDER {
        if !fault.armed(h.resident(receiver), crosses_cut, packet) {
            continue;
        }
        let taker = match h.decide(receiver, fault) {
            Verdict::Skip => continue,
            Verdict::Stop => return,
            Verdict::Take(taker) => taker,
        };
        match fault {
            Fault::Partition => partition(h, receiver, taker, node, packet.id),
            Fault::Latency => {
                // Delayed, not lost: the packet comes back around later,
                // reordered against everything else queued.
                let extra = h.scenario().failures.latency_extra_ms();
                note(h, |rec| rec.note_defer_deliver(taker, extra));
                h.schedule(taker, extra, NodeEvent::Deliver(packet.clone()));
            }
            Fault::Drop => {
                note(h, |rec| rec.note_packet_dropped(taker));
                h.dropped(taker, node, packet.id);
            }
            // Received twice, now, and decided no further.
            Fault::Duplicate => run_recv(h, taker, packet, 2),
            Fault::Reboot => restart(h, taker, VmState::rebooted),
            Fault::Crash => {
                let failures = &h.scenario().failures;
                let (base, size) = (failures.persist_base(), failures.persist_size());
                restart(h, taker, |vm| vm.crash_rebooted(base, size));
            }
            Fault::Corrupt => {
                let Some(byte) = h.corruption_byte(taker) else {
                    return;
                };
                let mut corrupted = packet.clone();
                corrupted.payload[0] = flip_byte(&packet.payload[0], byte);
                run_recv(h, taker, &corrupted, 1);
            }
            Fault::Heal => unreachable!("heal is decided on a partitioned branch"),
        }
        if taker == receiver {
            return;
        }
    }
    run_recv(h, receiver, packet, 1);
}

/// The partition arm: `taker` loses this delivery and every cut-crossing
/// one until its heal deadline. With two heal candidates the deadline is
/// a nested [`Fault::Heal`] decision on `taker`. A forked branch is cut
/// at once, before that decision forks it again; the receiving state
/// itself, replaying, is cut once, at the deadline its preset chose.
fn partition<H: Host>(
    h: &mut H,
    receiver: StateId,
    taker: StateId,
    node: NodeId,
    packet: PacketId,
) {
    let now = h.now();
    let heal = h.scenario().failures.heal_choices();
    let (early, late) = (now + heal[0], heal.get(1).map(|d| now + d));
    let forked = taker != receiver;
    if forked {
        cut(h, taker, node, packet, early);
    }
    let until = match late {
        None => early,
        Some(late) => match h.decide(taker, Fault::Heal) {
            Verdict::Skip => early,
            Verdict::Stop => return,
            Verdict::Take(healer) if healer == taker => late,
            Verdict::Take(healer) => {
                cut(h, healer, node, packet, late);
                early
            }
        },
    };
    if !forked {
        cut(h, taker, node, packet, until);
    }
}

/// Holds `state`'s cut active until `until`; this delivery is its first
/// loss.
fn cut<H: Host>(h: &mut H, state: StateId, node: NodeId, packet: PacketId, until: u64) {
    h.update(state, |s| s.partition_until = until);
    partition_drop(h, state, node, packet, until);
}

fn partition_drop<H: Host>(h: &mut H, state: StateId, node: NodeId, packet: PacketId, until: u64) {
    note(h, |rec| rec.note_partition_drop(state, until));
    h.partition_dropped(state, node, packet, until);
}

/// The reboot and crash arms: `state` restarts as `restarted` makes it,
/// forgets its pending events, misses the packet and runs `on_boot`.
fn restart<H: Host>(h: &mut H, state: StateId, restarted: impl FnOnce(&VmState) -> VmState) {
    h.update(state, |s| s.vm = restarted(&s.vm));
    h.clear_events(state);
    note(h, |rec| rec.note_clear_events(state));
    run_handler(h, state, handlers::ON_BOOT, &[]);
}

/// Runs `on_recv` on `state` `times` times in a row. Each handler
/// invocation is one delivery (a duplicated packet counts twice).
fn run_recv<H: Host>(h: &mut H, state: StateId, packet: &Packet, times: u32) {
    let node = h.resident(state).node;
    let duplicate = times > 1;
    let mut args = std::mem::take(&mut h.buffers().recv_args);
    args.push(Value::const_(u64::from(packet.src.0), Width::W16));
    args.extend(packet.payload.iter().cloned());
    for _ in 0..times {
        note(h, |rec| rec.note_packet_delivered(state, duplicate));
        h.delivered(state, node, packet.id, duplicate);
        run_handler(h, state, handlers::ON_RECV, &args);
    }
    args.clear();
    h.buffers().recv_args = args;
}
