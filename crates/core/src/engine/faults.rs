//! The fault-decision table (DESIGN.md §11) and the commit host's way of
//! deciding one.

use super::host::Host;
use super::Engine;
use crate::mapping::StateStore;
use crate::state::{SdeState, StateId};
use crate::stats::BugFound;
use sde_net::Packet;
use sde_symbolic::{BinOp, CastOp, Expr, Value, Width};
use sde_trace::ForkReason;
use sde_vm::{BugKind, BugReport, FuncId, Loc};
use std::sync::Arc;

/// A failure or fault model decided at a delivery. The discriminant is
/// the model's number in the synthetic branch locations
/// [`record_external_branch`](sde_vm::VmState::record_external_branch)
/// folds into path digests (`0xffff_0000 | n`), so it is part of every
/// path digest and must not change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    Drop = 1,
    Duplicate = 2,
    Reboot = 3,
    Latency = 4,
    Corrupt = 5,
    Crash = 6,
    Partition = 7,
    /// The heal deadline of a partitioned branch, decided on it right
    /// after [`Fault::Partition`] when the plan has two candidates.
    Heal = 8,
}

/// What deciding a fault for the receiving state came to.
pub(super) enum Verdict {
    /// The fault branch is not taken; the delivery goes on.
    Skip,
    /// The state named takes the fault branch: a forked child — the
    /// receiving state goes on, constrained to the other side — or the
    /// receiving state itself, replaying, which ends the delivery there.
    Take(StateId),
    /// The delivery ends: a strict preset has no value for the decision
    /// (the state is now bugged), or the host would have to mint it.
    Stop,
}

impl Fault {
    /// The order the models are decided in at a delivery. It is part of
    /// the semantics: symbols are minted in it, so dedup replay and the
    /// sharded merge reproduce it exactly.
    pub(super) const ORDER: [Fault; 7] = [
        Fault::Partition,
        Fault::Latency,
        Fault::Drop,
        Fault::Duplicate,
        Fault::Reboot,
        Fault::Crash,
        Fault::Corrupt,
    ];

    /// The input name the decision is keyed by, with the node and the
    /// per-lineage occurrence.
    fn input(self) -> &'static str {
        match self {
            Fault::Drop => "drop",
            Fault::Duplicate => "dup",
            Fault::Reboot => "reboot",
            Fault::Latency => "lat",
            Fault::Corrupt => "cor",
            Fault::Crash => "crash",
            Fault::Partition => "part",
            Fault::Heal => "heal",
        }
    }

    /// The trace's attribution of a fork on this decision.
    pub(crate) fn reason(self) -> ForkReason {
        match self {
            Fault::Drop => ForkReason::Drop,
            Fault::Duplicate => ForkReason::Duplicate,
            Fault::Reboot => ForkReason::Reboot,
            Fault::Latency => ForkReason::Latency,
            Fault::Corrupt => ForkReason::Corrupt,
            Fault::Crash => ForkReason::Crash,
            Fault::Partition => ForkReason::Partition,
            Fault::Heal => ForkReason::Heal,
        }
    }

    /// The state's remaining budget for this model (a heal choice has
    /// none: the partition spent it).
    fn budget(self, s: &mut SdeState) -> Option<&mut u32> {
        match self {
            Fault::Drop => Some(&mut s.drop_budget),
            Fault::Duplicate => Some(&mut s.dup_budget),
            Fault::Reboot => Some(&mut s.reboot_budget),
            Fault::Latency => Some(&mut s.lat_budget),
            Fault::Corrupt => Some(&mut s.cor_budget),
            Fault::Crash => Some(&mut s.crash_budget),
            Fault::Partition => Some(&mut s.part_budget),
            Fault::Heal => None,
        }
    }

    /// Whether the model is decided for `packet`'s delivery to `s`: it has
    /// budget left, a partition only on a cut-crossing delivery, and a
    /// corruption only with a first payload word of at least a byte.
    pub(super) fn armed(self, s: &SdeState, crosses_cut: bool, packet: &Packet) -> bool {
        match self {
            Fault::Partition => s.part_budget > 0 && crosses_cut,
            Fault::Latency => s.lat_budget > 0,
            Fault::Drop => s.drop_budget > 0,
            Fault::Duplicate => s.dup_budget > 0,
            Fault::Reboot => s.reboot_budget > 0,
            Fault::Crash => s.crash_budget > 0,
            Fault::Corrupt => {
                s.cor_budget > 0
                    && packet
                        .payload
                        .first()
                        .is_some_and(|w| w.width().bits() >= 8)
            }
            Fault::Heal => false,
        }
    }
}

/// The corruption model's payload edit: `word` XOR-flipped by an 8-bit
/// `byte` (zero-extended to the word's width).
pub(super) fn flip_byte(word: &Value, byte: Value) -> Value {
    word.clone()
        .binop(BinOp::Xor, byte.cast(CastOp::Zext, word.width()))
}

impl Engine {
    /// The commit host's decision: spends `state`'s budget for `fault`,
    /// mints its boolean, then forks a child that takes the branch or,
    /// under a preset, reads whether `state` takes it. The branch is folded
    /// into the path digest of every state it leaves.
    pub(super) fn decide_fault(&mut self, state: StateId, fault: Fault) -> Verdict {
        let node = self.store.states[&state].node;
        let occurrence = self.store.states.update(state, |s| {
            if let Some(budget) = fault.budget(s) {
                *budget -= 1;
            }
            s.vm.next_input_occurrence(fault.input())
        });
        let var = self
            .symbols
            .fresh_keyed(fault.input(), Width::BOOL, node.0, occurrence);
        let code = fault as u32;
        if self.preset.is_some() {
            let Some(value) =
                self.preset_input(state, fault, fault.input(), occurrence, Width::BOOL)
            else {
                return Verdict::Stop;
            };
            let taken = value == 1;
            self.store.states.update(state, |s| {
                s.vm.record_external_branch(code, occurrence, taken)
            });
            return if taken {
                Verdict::Take(state)
            } else {
                Verdict::Skip
            };
        }
        let child = self.fork_fault(state, fault);
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_failure_fork(state, child, fault);
        }
        let taken = Expr::sym(var);
        self.store.states.update(child, |c| {
            c.vm.constrain(taken.clone());
            c.vm.record_external_branch(code, occurrence, true);
        });
        self.store.states.update(state, |s| {
            s.vm.record_external_branch(code, occurrence, false);
            s.vm.constrain(Expr::not(taken));
        });
        Verdict::Take(child)
    }

    /// The corruption byte `corb` of a delivery to `state`: a fresh
    /// unconstrained symbol, or the preset's value.
    pub(super) fn corruption_input(&mut self, state: StateId) -> Option<Value> {
        let node = self.store.states[&state].node;
        let occurrence = self
            .store
            .states
            .update(state, |s| s.vm.next_input_occurrence("corb"));
        let var = self
            .symbols
            .fresh_keyed("corb", Width::W8, node.0, occurrence);
        if self.preset.is_none() {
            return Some(Expr::sym(var).into());
        }
        let byte = self.preset_input(state, Fault::Corrupt, "corb", occurrence, Width::W8)?;
        Some(Value::const_(byte, Width::W8))
    }

    /// The preset's value for the engine-minted input `name` of `state`.
    /// A strict preset without one is a [`BugKind::UnkeyedInput`] at
    /// `fault`'s synthetic location: the state is bugged and `None`
    /// returned.
    fn preset_input(
        &mut self,
        state: StateId,
        fault: Fault,
        name: &str,
        occurrence: u32,
        width: Width,
    ) -> Option<u64> {
        let node = self.store.states[&state].node;
        let preset = self.preset.as_ref().expect("replay mode");
        let resolved = preset.resolve(node.0, name, occurrence, width);
        if resolved.is_some() || !preset.is_strict() {
            return Some(resolved.unwrap_or(0));
        }
        let what = if width == Width::BOOL {
            "failure decision"
        } else {
            "fault input"
        };
        let report = BugReport {
            kind: BugKind::UnkeyedInput,
            message: Arc::from(format!(
                "strict replay has no value for {what} `{name}` (occurrence {occurrence}) on node {node}"
            )),
            loc: Loc {
                func: FuncId(0xffff_0000 | fault as u32),
                index: occurrence,
            },
            model: None,
        };
        self.bug(BugFound {
            node,
            state,
            report: report.clone(),
        });
        self.store.states.update(state, |s| s.vm.set_bugged(report));
        None
    }

    /// Forks `parent` on a `fault` decision (the child is attributed to
    /// the fault, mapper forks after it to the mapping) and registers the
    /// branch with the mapper.
    pub(super) fn fork_fault(&mut self, parent: StateId, fault: Fault) -> StateId {
        self.store.fork_reason = fault.reason();
        let child = self.store.fork(parent);
        self.store.fork_reason = ForkReason::Mapping;
        let node = self.store.states[&parent].node;
        self.map_branch(parent, child, node);
        child
    }
}
