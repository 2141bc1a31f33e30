//! Distributed execution states: a VM state plus its network identity.

use crate::history::CommHistory;
use sde_net::{FailureConfig, NodeId};
use sde_vm::{Status, VmState};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

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
///
/// A state is a 24-byte handle: its identity inline, its body — a
/// [`StateCore`] — behind an `Arc` shared copy-on-write, as KLEE shares a
/// forked state's memory. [`SdeState::fork_as`] copies the handle and
/// shares the parent's core; reading goes through `Deref`, and the first
/// write through `DerefMut` to a core another state still shares clones
/// it once (`Arc::make_mut`), so a copy the run never writes again — a
/// COB bystander, a COW copy — costs its handle only.
#[derive(Debug, Clone)]
pub struct SdeState {
    /// Unique identity.
    pub id: StateId,
    /// The subtree this state belongs to for sharded exploration: boot
    /// states own themselves, each direct child of a boot state starts a
    /// fresh subtree, and deeper forks inherit their parent's. Purely a
    /// scheduling hint for [`Engine::run_sharded`]
    /// (crate::Engine::run_sharded) — it never influences execution
    /// results. It is the id of the subtree's first state: a run mints
    /// fewer than 2^32 ids ([`Store::allocate_id`](crate::store::Store::allocate_id)).
    pub shard_root: u32,
    /// The node this state belongs to.
    pub node: NodeId,
    /// `true` for boot-time states — the anchors of the shard lineage.
    pub root: bool,
    pub(crate) core: Arc<StateCore>,
}

/// What a state holds besides its identity, shared copy-on-write between
/// the states that were forked from one another and not written since.
#[derive(Debug, Clone)]
pub struct StateCore {
    /// The symbolic VM state (memory, frames, path condition).
    pub vm: VmState,
    /// Packets sent/received by this state.
    pub history: CommHistory,
    /// Remaining symbolic decisions, indexed by
    /// [`FailureKind`](sde_net::FailureKind).
    pub budgets: [u32; 7],
    /// Virtual time (ms) until which this lineage's partition cut is
    /// active; 0 when no partition is active.
    pub partition_until: u64,
}

/// `id` as a shard-lineage key. The run's ids are fewer than 2^32; a
/// shard worker's local fork ids lie above them and truncate, but no
/// job is made of a worker's fork: the merge mints the real forks.
fn lineage_key(id: StateId) -> u32 {
    id.0 as u32
}

impl Deref for SdeState {
    type Target = StateCore;

    fn deref(&self) -> &StateCore {
        &self.core
    }
}

impl DerefMut for SdeState {
    /// The state's own core: cloned first if another state shares it.
    fn deref_mut(&mut self) -> &mut StateCore {
        Arc::make_mut(&mut self.core)
    }
}

impl SdeState {
    /// A state from its parts (the snapshot decoder's constructor).
    pub(crate) fn new(
        id: StateId,
        node: NodeId,
        root: bool,
        shard_root: u32,
        core: StateCore,
    ) -> SdeState {
        SdeState {
            id,
            shard_root,
            node,
            root,
            core: Arc::new(core),
        }
    }

    /// Creates the boot-time state of `node`.
    pub fn boot(
        id: StateId,
        node: NodeId,
        vm: VmState,
        failures: &FailureConfig,
        track_history: bool,
    ) -> SdeState {
        let core = StateCore {
            vm,
            history: CommHistory::new(track_history),
            budgets: failures.budgets(node),
            partition_until: 0,
        };
        SdeState::new(id, node, true, lineage_key(id), core)
    }

    /// The remaining budgets plus the partition deadline: what the dedup
    /// memo key hashes and a recorded dispatch restores.
    pub fn budgets(&self) -> ([u32; 7], u64) {
        (self.budgets, self.partition_until)
    }

    /// An exact copy under a fresh identity.
    ///
    /// One reference count: the copy shares `self`'s core until one of
    /// the two is written (asserted by the fork-cost tests).
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
    fn child_shard_root(&self, child: StateId) -> u32 {
        if self.root {
            lineage_key(child)
        } else {
            self.shard_root
        }
    }

    /// [`SdeState::fork_as`] with the copy's VM state supplied by the
    /// caller. The engine's branch forks already hold the sibling's VM
    /// (produced by the interpreter), so cloning the parent's mid-handler
    /// frames just to overwrite them would be pure waste — this skips it.
    pub fn fork_with_vm(&self, id: StateId, vm: VmState) -> SdeState {
        let core = StateCore {
            vm,
            history: self.history.clone(),
            budgets: self.budgets,
            partition_until: self.partition_until,
        };
        SdeState::new(id, self.node, false, self.child_shard_root(id), core)
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

    /// Deterministic approximation of this state's memory footprint: the
    /// VM state's model plus 48 bytes of network identity and budgets and
    /// 8 per communication event.
    ///
    /// Like [`VmState::approx_bytes`] this is the paper-substitute RAM
    /// model (DESIGN.md §1), not the struct's size: the constants are
    /// frozen because `peak_bytes` is in the equivalence key. Real bytes
    /// are the process's peak RSS.
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
        let s = SdeState::boot(StateId(0), NodeId(3), vm(), &failures, false);
        assert_eq!(s.budgets, [2, 0, 0, 0, 0, 0, 0]);
        let t = SdeState::boot(StateId(1), NodeId(4), vm(), &failures, false);
        assert_eq!(t.budgets, [0; 7]);
    }

    #[test]
    fn fork_changes_only_identity() {
        let failures = FailureConfig::new();
        let s = SdeState::boot(StateId(0), NodeId(1), vm(), &failures, false);
        let t = s.fork_as(StateId(9));
        assert_eq!(t.id, StateId(9));
        assert_eq!(t.node, s.node);
        assert_eq!(t.config_digest(), s.config_digest());
    }

    #[test]
    fn history_differentiates_duplicates() {
        let failures = FailureConfig::new();
        let a = SdeState::boot(StateId(0), NodeId(1), vm(), &failures, false);
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
        let mut s = SdeState::boot(StateId(0), NodeId(1), vm(), &failures, true);
        for i in 0..10_000 {
            s.history.record(HistoryEvent::Sent {
                id: PacketId(i),
                peer: NodeId(2),
            });
        }
        let t = s.fork_as(StateId(1));
        assert!(t.history.shares_log_storage(&s.history));
        // Untracked: there is no log at all — the clone is three words.
        let mut u = SdeState::boot(StateId(2), NodeId(1), vm(), &failures, false);
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
        let a = SdeState::boot(StateId(0), NodeId(1), vm(), &failures, false);
        let b = SdeState::boot(StateId(1), NodeId(2), vm(), &failures, false);
        assert_ne!(a.config_digest(), b.config_digest());
    }
}
