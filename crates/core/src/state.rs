//! Distributed execution states: a VM state plus its network identity.

use crate::history::CommHistory;
use sde_net::{FailureConfig, FailureKind, FaultPlan, NodeId};
use sde_vm::{Status, VmState};
use std::fmt;

/// Globally unique identifier of one execution state within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u64);

impl StateId {
    /// The id as an index into the tables keyed by state id (ids are
    /// minted densely, so those tables are flat vectors). An id read from
    /// a snapshot is bounded by the importer before it is used as one.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One execution state of the distributed system: a node id (`node(s)` in
/// the paper), the underlying VM state, the communication history, and
/// the per-state failure budgets.
#[derive(Debug, Clone)]
pub struct SdeState {
    /// Unique identity.
    pub id: StateId,
    /// The node this state belongs to.
    pub node: NodeId,
    /// The symbolic VM state (memory, frames, path condition).
    pub vm: VmState,
    /// Packets sent/received by this state.
    pub history: CommHistory,
    /// Remaining symbolic-drop opportunities.
    pub drop_budget: u32,
    /// Remaining symbolic-duplication opportunities.
    pub dup_budget: u32,
    /// Remaining symbolic-reboot opportunities.
    pub reboot_budget: u32,
    /// Remaining symbolic-partition opportunities (fault plan).
    pub part_budget: u32,
    /// Remaining symbolic-latency opportunities (fault plan).
    pub lat_budget: u32,
    /// Remaining symbolic-corruption opportunities (fault plan).
    pub cor_budget: u32,
    /// Remaining symbolic crash-recovery opportunities (fault plan).
    pub crash_budget: u32,
    /// Virtual time (ms) until which this lineage's partition cut is
    /// active; 0 when no partition is active.
    pub partition_until: u64,
    /// `true` for boot-time states — the anchors of the shard lineage.
    pub root: bool,
    /// The subtree this state belongs to for sharded exploration: boot
    /// states own themselves, each direct child of a boot state starts a
    /// fresh subtree, and deeper forks inherit their parent's. Purely a
    /// scheduling hint for [`Engine::run_sharded`]
    /// (crate::Engine::run_sharded) — it never influences execution
    /// results.
    pub shard_root: u64,
}

impl SdeState {
    /// Creates the boot-time state of `node`.
    pub fn boot(
        id: StateId,
        node: NodeId,
        vm: VmState,
        failures: &FailureConfig,
        faults: &FaultPlan,
        track_history: bool,
    ) -> SdeState {
        SdeState {
            id,
            node,
            vm,
            history: CommHistory::new(track_history),
            drop_budget: failures.budget(node, FailureKind::PacketDrop),
            dup_budget: failures.budget(node, FailureKind::PacketDuplicate),
            reboot_budget: failures.budget(node, FailureKind::NodeReboot),
            part_budget: faults.partition_budget(node),
            lat_budget: faults.latency_budget(node),
            cor_budget: faults.corrupt_budget(node),
            crash_budget: faults.crash_budget(node),
            partition_until: 0,
            root: true,
            shard_root: id.0,
        }
    }

    /// All failure/fault budgets plus the partition deadline, in the
    /// fixed order the dedup memo key hashes them:
    /// `(drop, dup, reboot, part, lat, cor, crash, partition_until)`.
    pub fn budgets(&self) -> (u32, u32, u32, u32, u32, u32, u32, u64) {
        (
            self.drop_budget,
            self.dup_budget,
            self.reboot_budget,
            self.part_budget,
            self.lat_budget,
            self.cor_budget,
            self.crash_budget,
            self.partition_until,
        )
    }

    /// An exact copy under a fresh identity.
    ///
    /// O(1) regardless of how much the state has communicated: the
    /// history's log (when tracked) is shared structurally, and with
    /// tracking off the history is three plain words — nothing is
    /// deep-cloned either way (asserted by the fork-cost tests).
    pub fn fork_as(&self, id: StateId) -> SdeState {
        SdeState {
            id,
            root: false,
            shard_root: self.child_shard_root(id),
            ..self.clone()
        }
    }

    /// The shard-lineage key a fork child receives: direct children of a
    /// boot state open their own subtree (so the frontier fans out into
    /// more than `|nodes|` shards), deeper forks stay in their parent's.
    fn child_shard_root(&self, child: StateId) -> u64 {
        if self.root {
            child.0
        } else {
            self.shard_root
        }
    }

    /// [`SdeState::fork_as`] with the copy's VM state supplied by the
    /// caller. The engine's branch forks already hold the sibling's VM
    /// (produced by the interpreter), so cloning the parent's mid-handler
    /// frames just to overwrite them would be pure waste — this skips it.
    pub fn fork_with_vm(&self, id: StateId, vm: VmState) -> SdeState {
        SdeState {
            id,
            node: self.node,
            vm,
            history: self.history.clone(),
            drop_budget: self.drop_budget,
            dup_budget: self.dup_budget,
            reboot_budget: self.reboot_budget,
            part_budget: self.part_budget,
            lat_budget: self.lat_budget,
            cor_budget: self.cor_budget,
            crash_budget: self.crash_budget,
            partition_until: self.partition_until,
            root: false,
            shard_root: self.child_shard_root(id),
        }
    }

    /// Returns `true` while the state can still execute handlers.
    pub fn is_live(&self) -> bool {
        self.vm.status().is_live()
    }

    /// Returns `true` when the state is between handlers and can accept an
    /// event.
    pub fn is_idle(&self) -> bool {
        *self.vm.status() == Status::Idle
    }

    /// Configuration digest *including* the communication history — the
    /// paper's duplicate criterion covers "heap, stack, program counter,
    /// path constraints, and the communication history" (§III-A).
    ///
    /// The three components are folded with an fxhash-style ordered
    /// combine (`rotate ⊕ value, × odd constant`) rather than plain XOR of
    /// rotations: XOR would let a vm-digest difference cancel against a
    /// history-digest difference, making two genuinely different states
    /// collide by construction rather than by hash accident.
    pub fn config_digest(&self) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95; // fxhash's 64-bit multiplier
        let mix = |h: u64, v: u64| (h.rotate_left(5) ^ v).wrapping_mul(K);
        let mut d = mix(0, self.vm.config_digest());
        d = mix(d, self.history.digest());
        d = mix(d, u64::from(self.node.0));
        d
    }

    /// Deterministic approximation of this state's memory footprint.
    pub fn approx_bytes(&self) -> usize {
        self.vm.approx_bytes() + 48 + self.history.len() as usize * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryEvent;
    use sde_net::PacketId;
    use sde_vm::ProgramBuilder;

    fn vm() -> VmState {
        let mut pb = ProgramBuilder::new();
        pb.function("on_boot", 0, |f| f.ret(None));
        VmState::fresh(&pb.build().unwrap())
    }

    #[test]
    fn boot_budgets_come_from_config() {
        let failures = FailureConfig::new().with_drops([NodeId(3)], 2);
        let s = SdeState::boot(
            StateId(0),
            NodeId(3),
            vm(),
            &failures,
            &FaultPlan::new(),
            false,
        );
        assert_eq!(s.drop_budget, 2);
        assert_eq!(s.dup_budget, 0);
        let t = SdeState::boot(
            StateId(1),
            NodeId(4),
            vm(),
            &failures,
            &FaultPlan::new(),
            false,
        );
        assert_eq!(t.drop_budget, 0);
    }

    #[test]
    fn fork_changes_only_identity() {
        let failures = FailureConfig::new();
        let s = SdeState::boot(
            StateId(0),
            NodeId(1),
            vm(),
            &failures,
            &FaultPlan::new(),
            false,
        );
        let t = s.fork_as(StateId(9));
        assert_eq!(t.id, StateId(9));
        assert_eq!(t.node, s.node);
        assert_eq!(t.config_digest(), s.config_digest());
    }

    #[test]
    fn history_differentiates_duplicates() {
        let failures = FailureConfig::new();
        let a = SdeState::boot(
            StateId(0),
            NodeId(1),
            vm(),
            &failures,
            &FaultPlan::new(),
            false,
        );
        let mut b = a.fork_as(StateId(1));
        assert_eq!(a.config_digest(), b.config_digest());
        b.history.record(HistoryEvent::Sent {
            id: PacketId(1),
            peer: NodeId(2),
        });
        assert_ne!(a.config_digest(), b.config_digest());
    }

    #[test]
    fn fork_shares_history_storage() {
        let failures = FailureConfig::new();
        // Tracked: a long log is shared structurally, never copied.
        let mut s = SdeState::boot(
            StateId(0),
            NodeId(1),
            vm(),
            &failures,
            &FaultPlan::new(),
            true,
        );
        for i in 0..10_000 {
            s.history.record(HistoryEvent::Sent {
                id: PacketId(i),
                peer: NodeId(2),
            });
        }
        let t = s.fork_as(StateId(1));
        assert!(t.history.shares_log_storage(&s.history));
        // Untracked: there is no log at all — the clone is three words.
        let mut u = SdeState::boot(
            StateId(2),
            NodeId(1),
            vm(),
            &failures,
            &FaultPlan::new(),
            false,
        );
        for i in 0..10_000 {
            u.history.record(HistoryEvent::Sent {
                id: PacketId(i),
                peer: NodeId(2),
            });
        }
        let v = u.fork_as(StateId(3));
        assert!(v.history.log().is_none());
        assert!(v.history.shares_log_storage(&u.history));
        assert_eq!(v.history, u.history);
    }

    #[test]
    fn same_vm_on_different_nodes_is_not_a_duplicate() {
        let failures = FailureConfig::new();
        let a = SdeState::boot(
            StateId(0),
            NodeId(1),
            vm(),
            &failures,
            &FaultPlan::new(),
            false,
        );
        let b = SdeState::boot(
            StateId(1),
            NodeId(2),
            vm(),
            &failures,
            &FaultPlan::new(),
            false,
        );
        assert_ne!(a.config_digest(), b.config_digest());
    }
}
