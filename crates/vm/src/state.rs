//! Execution states.

use crate::bug::BugReport;
use crate::isa::{FuncId, Loc, Reg};
use crate::program::Program;
use sde_pds::{PList, PMap};
use sde_symbolic::{CodecError, ExprRef, PathCondition, SnapReader, SnapWriter, Value, Width};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Default size of a node's byte-addressed global memory.
pub(crate) const DEFAULT_MEMORY_SIZE: u32 = 64 * 1024;

/// Lifecycle of an execution state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Between handler invocations; ready for the next event.
    Idle,
    /// Currently executing a handler.
    Running,
    /// The program executed `Halt`; no further handlers run.
    Halted,
    /// The path condition became unsatisfiable (failed `Assume`).
    Infeasible,
    /// A bug was detected on this path.
    Bugged(BugReport),
}

impl Status {
    /// Returns `true` when the state can still make progress.
    pub fn is_live(&self) -> bool {
        matches!(self, Status::Idle | Status::Running)
    }
}

/// One call frame.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub func: FuncId,
    pub pc: u32,
    pub regs: Vec<Option<Value>>,
    /// Register in the *caller's* frame receiving our return value.
    pub ret_dst: Option<Reg>,
}

/// One symbolic execution state of a single node program.
///
/// Cloning is cheap: global memory is a persistent map of [`Value`] bytes
/// and the path condition a persistent list, so a clone copies two
/// pointers and shares everything behind them; registers are [`Value`]s —
/// constants inline, terms one `Arc` bump each — and there are none
/// between handlers. This is the property the whole SDE construction
/// leans on — COB forks `k − 1` states per local branch and still has to
/// be affordable enough to serve as the correctness baseline. Writes
/// after a clone copy only the map nodes the clone can still see
/// ([`PMap::insert_mut`]); a state nobody shares is written in place.
#[derive(Debug, Clone)]
pub struct VmState {
    pub(crate) frames: Vec<Frame>,
    pub(crate) heap: PMap<u32, Value>,
    pub(crate) memory_size: u32,
    pub(crate) path: PathCondition,
    pub(crate) status: Status,
    pub(crate) branch_trace: PList<(Loc, bool)>,
    pub(crate) path_digest: u64,
    pub(crate) instret: u64,
    /// Per-lineage count of symbolic inputs minted per name — the
    /// occurrence half of the run-independent replay key.
    pub(crate) input_counts: PMap<String, u32>,
    /// Commutative multiset sum of per-entry hashes of `heap`, maintained
    /// on every store so [`VmState::config_digest`] never rescans memory.
    pub(crate) heap_acc: u64,
    /// Commutative multiset sum of per-constraint hashes of `path`,
    /// maintained on every added constraint (same scheme as `heap_acc`).
    pub(crate) path_acc: u64,
}

impl VmState {
    /// A pristine state for `program`: empty memory, true path condition,
    /// no handler scheduled. (The program handle is only used for
    /// validation today; states are program-agnostic containers.)
    pub fn fresh(_program: &Program) -> VmState {
        VmState {
            frames: Vec::new(),
            heap: PMap::new(),
            memory_size: DEFAULT_MEMORY_SIZE,
            path: PathCondition::new(),
            status: Status::Idle,
            branch_trace: PList::new(),
            path_digest: 0xcbf2_9ce4_8422_2325, // FNV offset basis
            instret: 0,
            input_counts: PMap::new(),
            heap_acc: 0,
            path_acc: 0,
        }
    }

    /// Like [`VmState::fresh`] with an explicit memory size in bytes.
    pub fn fresh_with_memory(program: &Program, memory_size: u32) -> VmState {
        VmState {
            memory_size,
            ..VmState::fresh(program)
        }
    }

    /// Sets this state up to run the named handler with the given
    /// arguments.
    ///
    /// Memory, path condition and branch trace persist; the call stack is
    /// replaced by a single frame for the handler.
    ///
    /// Returns `false`, leaving the state untouched, when the handler does
    /// not exist in `program`, when the argument count does not match the
    /// handler's parameter count, or when the state is not
    /// [`Status::Idle`].
    pub fn prepare(&mut self, program: &Program, handler: &str, args: &[Value]) -> bool {
        if self.status != Status::Idle {
            return false;
        }
        let Some(func_id) = program.function_id(handler) else {
            return false;
        };
        let func = program.function(func_id);
        if usize::from(func.param_count()) != args.len() {
            return false;
        }
        let mut regs: Vec<Option<Value>> = vec![None; usize::from(func.reg_count())];
        for (slot, a) in regs.iter_mut().zip(args) {
            *slot = Some(a.clone());
        }
        self.frames.clear();
        // Most handlers never call: one frame, not `Vec`'s first-push
        // four, is what an executed state keeps until its next event.
        self.frames.reserve_exact(1);
        self.frames.push(Frame {
            func: func_id,
            pc: 0,
            regs,
            ret_dst: None,
        });
        self.status = Status::Running;
        true
    }

    /// Returns a copy of this state set up to run the named handler:
    /// [`VmState::prepare`] on a clone, `None` where it refuses.
    pub fn prepared(&self, program: &Program, handler: &str, args: &[Value]) -> Option<VmState> {
        let mut next = self.clone();
        next.prepare(program, handler, args).then_some(next)
    }

    /// The current lifecycle status.
    pub fn status(&self) -> &Status {
        &self.status
    }

    /// Bumps and returns this lineage's occurrence counter for inputs
    /// named `name` — the occurrence half of a fresh input's replay key.
    /// Used by the interpreter (`MakeSymbolic`) and by environment-level
    /// failure models minting inputs on a state's behalf.
    pub fn next_input_occurrence(&mut self, name: &str) -> u32 {
        let name = name.to_string();
        let n = self.input_counts.get(&name).copied().unwrap_or(0);
        self.input_counts.insert_mut(name, n + 1);
        n
    }

    /// Adds a constraint to the path condition (used by environment-level
    /// failure models, which fork states outside of program branches).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `cond` has width 1.
    pub fn constrain(&mut self, cond: ExprRef) {
        self.path_push(cond);
    }

    /// Stores one byte of global memory through the digest accumulator:
    /// the per-entry hash of a replaced cell is subtracted and the new
    /// cell's added, so `heap_acc` always equals the full multiset sum
    /// without a rescan. Every heap write must go through here.
    ///
    /// Re-storing what the cell already holds ([`Value::is_same`]) changes
    /// nothing: the accumulator would subtract and add one hash, and the
    /// map would copy the path to the cell wherever a clone shares it. So
    /// it returns before either, keeping the old value and its pointer.
    pub(crate) fn heap_store(&mut self, addr: u32, value: Value) {
        if self.heap.get(&addr).is_some_and(|old| old.is_same(&value)) {
            return;
        }
        self.heap_acc = self.heap_acc.wrapping_add(heap_entry_hash(addr, &value));
        if let Some(old) = self.heap.insert_mut(addr, value) {
            self.heap_acc = self.heap_acc.wrapping_sub(heap_entry_hash(addr, &old));
        }
    }

    /// Extends the path condition through the digest accumulator. The
    /// constraint is simplified by [`PathCondition::with`] and may not be
    /// stored at all (`true`) or only flip the trivially-false marker
    /// (`false`); the accumulator folds exactly what was stored. Every
    /// path extension must go through here.
    pub(crate) fn path_push(&mut self, cond: ExprRef) {
        let next = self.path.with(cond);
        if next.len() > self.path.len() {
            let stored = next.iter().next().expect("constraint just added");
            self.path_acc = self.path_acc.wrapping_add(constraint_hash(stored));
        }
        self.path = next;
    }

    /// Marks the state bugged from outside the interpreter — the engine's
    /// failure-model decisions (drop/dup/reboot) resolve replay inputs
    /// themselves, and a strict-preset miss there is reported exactly
    /// like an interpreter-detected bug.
    pub fn set_bugged(&mut self, report: crate::BugReport) {
        self.status = Status::Bugged(report);
    }

    /// Returns this state as it looks immediately after a node reboot:
    /// volatile memory cleared, call stack empty, ready for `on_boot`.
    /// Path condition, branch trace and instruction count persist — the
    /// constraints on symbolic inputs remain valid across the reboot.
    #[must_use]
    pub fn rebooted(&self) -> VmState {
        VmState {
            frames: Vec::new(),
            heap: sde_pds::PMap::new(),
            heap_acc: 0,
            status: Status::Idle,
            ..self.clone()
        }
    }

    /// Returns this state as it looks after a *crash with recovery*: like
    /// [`VmState::rebooted`], except heap cells inside the persistence
    /// window `[persist_base, persist_base + persist_size)` survive —
    /// they model a small non-volatile store (flash/EEPROM) that a real
    /// node would reload on boot. The incremental heap accumulator is
    /// rebuilt from the surviving cells so duplicate detection stays
    /// exact across the crash.
    #[must_use]
    pub fn crash_rebooted(&self, persist_base: u32, persist_size: u32) -> VmState {
        let end = persist_base.saturating_add(persist_size);
        let mut heap = sde_pds::PMap::new();
        let mut heap_acc: u64 = 0;
        for (addr, value) in self.heap.iter() {
            if *addr >= persist_base && *addr < end {
                heap_acc = heap_acc.wrapping_add(heap_entry_hash(*addr, value));
                heap.insert_mut(*addr, value.clone());
            }
        }
        VmState {
            frames: Vec::new(),
            heap,
            heap_acc,
            status: Status::Idle,
            ..self.clone()
        }
    }

    /// The path condition accumulated so far.
    pub fn path_condition(&self) -> &PathCondition {
        &self.path
    }

    /// Number of instructions this state has executed (`#(s)` in the
    /// paper's complexity analysis).
    pub fn instructions_executed(&self) -> u64 {
        self.instret
    }

    /// A digest of all branch decisions taken, identifying the explored
    /// path. Two states with equal digests took the same branches.
    pub fn path_digest(&self) -> u64 {
        self.path_digest
    }

    /// The branch decisions taken, most recent first.
    pub fn branch_trace(&self) -> impl Iterator<Item = &(Loc, bool)> {
        self.branch_trace.iter()
    }

    /// Reads a byte of global memory (unwritten bytes read as zero).
    pub fn memory_byte(&self, addr: u32) -> Value {
        self.heap
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| Value::const_(0, Width::W8))
    }

    /// Number of explicitly written memory bytes.
    pub fn memory_footprint(&self) -> usize {
        self.heap.len()
    }

    /// Deterministic approximation of this state's memory usage in bytes,
    /// used for the paper's RAM-over-time curves (substituting for RSS
    /// measurements; see DESIGN.md).
    pub fn approx_bytes(&self) -> usize {
        const BASE: usize = 256; // struct + bookkeeping overhead
        const PER_HEAP_CELL: usize = 48; // map node amortized + value
        const PER_PC_NODE: usize = 40; // expression node
        const PER_FRAME: usize = 64;
        const PER_REG: usize = 16;
        let frame_bytes: usize = self
            .frames
            .iter()
            .map(|f| PER_FRAME + f.regs.len() * PER_REG)
            .sum();
        BASE + self.heap.len() * PER_HEAP_CELL
            + self.path.node_count() * PER_PC_NODE
            + frame_bytes
            + self.branch_trace.len() * 24
    }

    /// An order-insensitive digest of the state's *configuration*: memory
    /// contents, call frames, status, and path constraints. Two states
    /// with equal configuration digests are duplicates in the paper's
    /// sense (§III-D) — modulo hashing, which the tests cross-check with
    /// [`VmState::config_eq`].
    ///
    /// The heap and path-condition components are read from accumulators
    /// maintained incrementally at every mutation
    /// ([`VmState::heap_store`] / [`VmState::path_push`]), so this is
    /// O(frames) — and frames are empty between handlers, where the
    /// engine's duplicate detection runs. The from-scratch rescan lives
    /// in [`VmState::config_digest_reference`]; the two agree on every
    /// state by construction (property-tested).
    pub fn config_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.heap_acc.hash(&mut h);
        self.path_acc.hash(&mut h);
        // Frames: ordered.
        for f in &self.frames {
            f.func.hash(&mut h);
            f.pc.hash(&mut h);
            f.ret_dst.hash(&mut h);
            for r in &f.regs {
                r.hash(&mut h);
            }
        }
        std::mem::discriminant(&self.status).hash(&mut h);
        self.path_digest.hash(&mut h);
        h.finish()
    }

    /// [`VmState::config_digest`] recomputed by rescanning the full heap
    /// and path condition instead of reading the incremental accumulators.
    /// Kept as the ground truth for digest-coherence tests and as the
    /// baseline of the `digest/` criterion benchmark.
    pub fn config_digest_reference(&self) -> u64 {
        let mut h = DefaultHasher::new();
        // Heap: multiset sum of per-entry hashes (iteration order is
        // unspecified, so the combine must be commutative — but unlike
        // XOR, addition keeps repeated or pairwise-equal entries from
        // cancelling to zero).
        let mut heap_acc: u64 = 0;
        for (k, v) in self.heap.iter() {
            heap_acc = heap_acc.wrapping_add(heap_entry_hash(*k, v));
        }
        heap_acc.hash(&mut h);
        // Path constraints: the same order-insensitive multiset combine.
        let mut pc_acc: u64 = 0;
        for c in self.path.iter() {
            pc_acc = pc_acc.wrapping_add(constraint_hash(c));
        }
        pc_acc.hash(&mut h);
        // Frames: ordered.
        for f in &self.frames {
            f.func.hash(&mut h);
            f.pc.hash(&mut h);
            f.ret_dst.hash(&mut h);
            for r in &f.regs {
                r.hash(&mut h);
            }
        }
        std::mem::discriminant(&self.status).hash(&mut h);
        self.path_digest.hash(&mut h);
        h.finish()
    }

    /// Exact configuration equality (the ground truth behind
    /// [`VmState::config_digest`]): status, call frames, memory and the
    /// path constraints as a multiset.
    ///
    /// This is the confirmation the engine runs on every digest hit — the
    /// duplicate-dispatch index and the sharded merge — so it reads only
    /// what the two states do not share: a heap or path condition cloned
    /// from the other compares by pointer ([`PMap`] root, [`PList`]
    /// cell), unshared memory cell by cell down both tries at once, and
    /// constraints as [`ExprRef`] values, in order first and as a
    /// permutation only when the orders differ. No string is built.
    ///
    /// Terms compare by structure, symbol ids included, so equal states
    /// have equal digests. The rendering-based
    /// [`VmState::config_eq_reference`] is coarser in one case only: two
    /// replay-keyed variables of one name, node and occurrence print
    /// alike whatever their ids.
    pub fn config_eq(&self, other: &VmState) -> bool {
        self.status == other.status
            && self.path_digest == other.path_digest
            && self.frames.len() == other.frames.len()
            && self.frames.iter().zip(&other.frames).all(|(a, b)| {
                a.func == b.func && a.pc == b.pc && a.ret_dst == b.ret_dst && a.regs == b.regs
            })
            && self.heap == other.heap
            && self.path.same_constraints(&other.path)
    }

    /// [`VmState::config_eq`] as it was first written — one hashed lookup
    /// per memory cell, path conditions compared as sorted renderings.
    /// Kept as the oracle the structural comparison is property-tested
    /// against.
    pub fn config_eq_reference(&self, other: &VmState) -> bool {
        if self.status != other.status
            || self.path_digest != other.path_digest
            || self.frames.len() != other.frames.len()
            || self.heap.len() != other.heap.len()
        {
            return false;
        }
        for (a, b) in self.frames.iter().zip(&other.frames) {
            if a.func != b.func || a.pc != b.pc || a.ret_dst != b.ret_dst || a.regs != b.regs {
                return false;
            }
        }
        for (k, v) in self.heap.iter() {
            if other.heap.get(k) != Some(v) {
                return false;
            }
        }
        // Path conditions as constraint sets.
        let mut mine: Vec<String> = self.path.iter().map(|c| c.to_string()).collect();
        let mut theirs: Vec<String> = other.path.iter().map(|c| c.to_string()).collect();
        mine.sort();
        theirs.sort();
        mine == theirs
    }

    /// [`VmState::config_eq`] strengthened with every field a *future*
    /// execution can observe: branch trace, replay-key occurrence
    /// counters and memory size. This is the confirmation the engine's
    /// duplicate-dispatch index runs after a digest hit — a hash
    /// collision must never let two states that could diverge later be
    /// treated as congruent.
    pub fn dedup_eq(&self, other: &VmState) -> bool {
        self.memory_size == other.memory_size
            && self.config_eq(other)
            && self.branch_trace == other.branch_trace
            && self.input_counts == other.input_counts
    }

    /// [`VmState::dedup_eq`] over [`VmState::config_eq_reference`], the
    /// occurrence counters compared as sorted lists: the test oracle.
    pub fn dedup_eq_reference(&self, other: &VmState) -> bool {
        if !self.config_eq_reference(other) || self.memory_size != other.memory_size {
            return false;
        }
        if self.branch_trace.len() != other.branch_trace.len()
            || !self.branch_trace.iter().eq(other.branch_trace.iter())
        {
            return false;
        }
        let mut mine: Vec<(&String, u32)> =
            self.input_counts.iter().map(|(k, v)| (k, *v)).collect();
        let mut theirs: Vec<(&String, u32)> =
            other.input_counts.iter().map(|(k, v)| (k, *v)).collect();
        mine.sort();
        theirs.sort();
        mine == theirs
    }

    /// Serializes this state's complete configuration into `w` (snapshot
    /// encode). [`VmState::read_snapshot`] is the exact inverse: a decoded
    /// state is `config_eq` to the original and re-encodes to the same
    /// bytes.
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        w.varint(self.frames.len() as u64);
        for f in &self.frames {
            w.varint(u64::from(f.func.0));
            w.varint(u64::from(f.pc));
            w.varint(f.regs.len() as u64);
            for r in &f.regs {
                match r {
                    Some(v) => {
                        w.bool(true);
                        w.value(v);
                    }
                    None => w.bool(false),
                }
            }
            match f.ret_dst {
                Some(Reg(r)) => {
                    w.bool(true);
                    w.varint(u64::from(r));
                }
                None => w.bool(false),
            }
        }
        // Heap entries sorted by address: the persistent map's iteration
        // order is not specified, the encoding must be deterministic.
        let mut heap: Vec<(u32, &Value)> = self.heap.iter().map(|(k, v)| (*k, v)).collect();
        heap.sort_by_key(|(k, _)| *k);
        w.varint(heap.len() as u64);
        for (addr, value) in heap {
            w.varint(u64::from(addr));
            w.value(value);
        }
        w.varint(u64::from(self.memory_size));
        // Path condition, most recent constraint first (iteration order).
        w.varint(self.path.len() as u64);
        for c in self.path.iter() {
            w.expr(c);
        }
        w.bool(self.path.is_trivially_false());
        match &self.status {
            Status::Idle => w.u8(0),
            Status::Running => w.u8(1),
            Status::Halted => w.u8(2),
            Status::Infeasible => w.u8(3),
            Status::Bugged(bug) => {
                w.u8(4);
                bug.write_snapshot(w);
            }
        }
        // Branch trace, most recent decision first (iteration order).
        w.varint(self.branch_trace.len() as u64);
        for (loc, taken) in self.branch_trace.iter() {
            w.varint(u64::from(loc.func.0));
            w.varint(u64::from(loc.index));
            w.bool(*taken);
        }
        w.varint(self.path_digest);
        w.varint(self.instret);
        let mut counts: Vec<(&String, u32)> =
            self.input_counts.iter().map(|(k, v)| (k, *v)).collect();
        counts.sort();
        w.varint(counts.len() as u64);
        for (name, n) in counts {
            w.str(name);
            w.varint(u64::from(n));
        }
    }

    /// Decodes a state written by [`VmState::write_snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input; never
    /// panics.
    pub fn read_snapshot(r: &mut SnapReader<'_>) -> Result<VmState, CodecError> {
        let nframes = checked_len(r, "frame count")?;
        let mut frames = Vec::with_capacity(nframes);
        for _ in 0..nframes {
            let func = FuncId(
                u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("function id"))?,
            );
            let pc = u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("frame pc"))?;
            let nregs = checked_len(r, "register count")?;
            let mut regs = Vec::with_capacity(nregs);
            for _ in 0..nregs {
                regs.push(if r.bool()? { Some(r.value()?) } else { None });
            }
            let ret_dst = if r.bool()? {
                Some(Reg(u16::try_from(r.varint()?)
                    .map_err(|_| CodecError::Malformed("return register"))?))
            } else {
                None
            };
            frames.push(Frame {
                func,
                pc,
                regs,
                ret_dst,
            });
        }
        let nheap = checked_len(r, "heap entry count")?;
        let mut heap = PMap::new();
        for _ in 0..nheap {
            let addr =
                u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("heap address"))?;
            heap.insert_mut(addr, r.value()?);
        }
        let memory_size =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("memory size"))?;
        let npc = checked_len(r, "constraint count")?;
        let mut constraints = Vec::with_capacity(npc);
        for _ in 0..npc {
            constraints.push(r.expr()?);
        }
        let trivially_false = r.bool()?;
        let path = PathCondition::from_parts(constraints, trivially_false);
        let status = match r.u8()? {
            0 => Status::Idle,
            1 => Status::Running,
            2 => Status::Halted,
            3 => Status::Infeasible,
            4 => Status::Bugged(BugReport::read_snapshot(r)?),
            _ => return Err(CodecError::Malformed("status tag")),
        };
        let nbranches = checked_len(r, "branch trace count")?;
        let mut branches = Vec::with_capacity(nbranches);
        for _ in 0..nbranches {
            let func = FuncId(
                u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("branch function"))?,
            );
            let index =
                u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("branch index"))?;
            branches.push((Loc { func, index }, r.bool()?));
        }
        // `iter` yields most recent first; rebuild by prepending oldest up.
        let mut branch_trace = PList::new();
        for entry in branches.into_iter().rev() {
            branch_trace = branch_trace.prepend(entry);
        }
        let path_digest = r.varint()?;
        let instret = r.varint()?;
        let ncounts = checked_len(r, "input count entries")?;
        let mut input_counts = PMap::new();
        for _ in 0..ncounts {
            let name = r.str()?;
            let n = u32::try_from(r.varint()?)
                .map_err(|_| CodecError::Malformed("input occurrence count"))?;
            input_counts.insert_mut(name, n);
        }
        // The digest accumulators are derived data: recompute them once at
        // decode time (the snapshot format stays unchanged).
        let mut heap_acc: u64 = 0;
        for (k, v) in heap.iter() {
            heap_acc = heap_acc.wrapping_add(heap_entry_hash(*k, v));
        }
        let mut path_acc: u64 = 0;
        for c in path.iter() {
            path_acc = path_acc.wrapping_add(constraint_hash(c));
        }
        Ok(VmState {
            frames,
            heap,
            memory_size,
            path,
            status,
            branch_trace,
            path_digest,
            instret,
            input_counts,
            heap_acc,
            path_acc,
        })
    }
}

/// Hash of one heap cell for the commutative multiset fold. [`Value`]
/// hashes as the term it stands for, so a constant cell contributes what
/// its `Const` node would.
fn heap_entry_hash(addr: u32, value: &Value) -> u64 {
    let mut eh = DefaultHasher::new();
    addr.hash(&mut eh);
    value.hash(&mut eh);
    mix64(eh.finish())
}

/// Hash of one stored path constraint for the commutative multiset fold.
fn constraint_hash(c: &ExprRef) -> u64 {
    let mut ch = DefaultHasher::new();
    c.hash(&mut ch);
    mix64(ch.finish())
}

/// Reads a length prefix that cannot plausibly exceed the remaining
/// input (every element costs at least one byte), rejecting absurd
/// counts before any allocation.
fn checked_len(r: &mut SnapReader<'_>, what: &'static str) -> Result<usize, CodecError> {
    let n = r.varint()?;
    if n > r.remaining() as u64 {
        return Err(CodecError::Malformed(what));
    }
    Ok(n as usize)
}

/// Finalizing mixer (splitmix64 tail) applied to each entry hash before
/// the commutative fold in [`VmState::config_digest`], so that structured
/// near-collisions in `DefaultHasher` outputs don't survive the sum.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bug::BugKind;
    use crate::program::ProgramBuilder;
    use sde_symbolic::Expr;
    use std::sync::Arc;

    fn empty_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.function("noop", 0, |f| f.ret(None));
        pb.build().unwrap()
    }

    #[test]
    fn fresh_state_is_idle_and_empty() {
        let p = empty_program();
        let s = VmState::fresh(&p);
        assert_eq!(*s.status(), Status::Idle);
        assert_eq!(s.memory_footprint(), 0);
        assert_eq!(s.instructions_executed(), 0);
        assert!(s.path_condition().is_empty());
        assert_eq!(s.memory_byte(100).as_const(), Some(0));
    }

    #[test]
    fn config_digest_stable_under_clone() {
        let p = empty_program();
        let s = VmState::fresh(&p);
        let t = s.clone();
        assert_eq!(s.config_digest(), t.config_digest());
        assert!(s.config_eq(&t));
    }

    #[test]
    fn snapshot_roundtrip_preserves_configuration() {
        let p = empty_program();
        let mut s = VmState::fresh(&p);
        let mut t = sde_symbolic::SymbolTable::new();
        let xv = t.fresh_keyed("x", Width::W8, 2, 0);
        let x = Expr::sym(xv.clone());
        s.heap_store(7, x.clone().into());
        s.heap_store(3, Value::const_(9, Width::W8));
        s.constrain(Expr::ult(x.clone(), Expr::const_(5, Width::W8)));
        s.constrain(Expr::ne(x.clone(), Expr::const_(0, Width::W8)));
        s.branch_trace = s.branch_trace.prepend((
            Loc {
                func: FuncId(0),
                index: 2,
            },
            true,
        ));
        s.path_digest = 0xdead_beef;
        s.instret = 42;
        s.input_counts = s.input_counts.insert("x".to_string(), 1);
        s.frames = vec![Frame {
            func: FuncId(0),
            pc: 1,
            regs: vec![Some(x.clone().into()), None],
            ret_dst: Some(Reg(3)),
        }];
        s.status = Status::Bugged(BugReport {
            kind: BugKind::OutOfBounds { addr: 0x1_0000 },
            message: Arc::from("store"),
            loc: Loc {
                func: FuncId(0),
                index: 2,
            },
            model: Some([(xv.id(), 3)].into_iter().collect()),
        });

        let mut w = SnapWriter::new();
        s.write_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let s2 = VmState::read_snapshot(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(s.config_eq(&s2));
        assert_eq!(s.config_digest(), s2.config_digest());
        assert_eq!(s2.instret, 42);
        assert_eq!(s2.path_digest, 0xdead_beef);
        assert_eq!(s2.input_counts.get(&"x".to_string()), Some(&1));
        assert_eq!(s2.branch_trace.len(), 1);
        assert_eq!(s2.memory_size, s.memory_size);

        // Re-encode is byte-identical (the fixed-point property the
        // engine-level snapshot tests rely on).
        let mut w2 = SnapWriter::new();
        s2.write_snapshot(&mut w2);
        assert_eq!(w2.finish(), bytes);

        // Truncation never panics.
        for n in 0..bytes.len() {
            if let Ok(mut r) = SnapReader::new(&bytes[..n]) {
                let _ = VmState::read_snapshot(&mut r);
            }
        }
    }

    /// A digest collision as the confirmation path would meet one: equal
    /// `config_digest`, different memory. Both comparisons must refuse.
    #[test]
    fn equal_digests_with_different_heaps_are_not_equal() {
        let p = empty_program();
        let mut s = VmState::fresh(&p);
        for addr in 0..40 {
            s.heap_store(addr, Value::const_(u64::from(addr), Width::W8));
        }
        let mut t = s.clone();
        t.heap_store(17, Value::const_(99, Width::W8));
        assert_ne!(s.config_digest(), t.config_digest());
        t.heap_acc = s.heap_acc;
        assert_eq!(s.config_digest(), t.config_digest(), "collision forged");
        for (a, b) in [(&s, &t), (&t, &s)] {
            assert!(!a.config_eq(b) && !a.config_eq_reference(b));
            assert!(!a.dedup_eq(b) && !a.dedup_eq_reference(b));
        }
        // Writing the old byte back makes them equal again, on a heap
        // that now shares all but one spine with the original's.
        t.heap_store(17, Value::const_(17, Width::W8));
        t.heap_acc = s.heap_acc;
        assert!(s.config_eq(&t) && s.config_eq_reference(&t) && s.dedup_eq(&t));
    }

    #[test]
    fn approx_bytes_grows_with_memory() {
        let p = empty_program();
        let mut s = VmState::fresh(&p);
        let before = s.approx_bytes();
        s.heap_store(0, Value::const_(1, Width::W8));
        s.heap_store(1, Value::const_(2, Width::W8));
        assert!(s.approx_bytes() > before);
    }

    #[test]
    fn incremental_digest_matches_reference() {
        let p = empty_program();
        let mut s = VmState::fresh(&p);
        let mut t = sde_symbolic::SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        assert_eq!(s.config_digest(), s.config_digest_reference());
        s.heap_store(10, x.clone().into());
        assert_eq!(s.config_digest(), s.config_digest_reference());
        // Overwriting a cell must subtract the replaced entry.
        s.heap_store(10, Value::const_(5, Width::W8));
        assert_eq!(s.config_digest(), s.config_digest_reference());
        s.constrain(Expr::ult(x.clone(), Expr::const_(9, Width::W8)));
        assert_eq!(s.config_digest(), s.config_digest_reference());
        // A constraint simplifying to `true` is not stored and must not
        // disturb the accumulator.
        s.constrain(Expr::eq(x.clone(), x.clone()));
        assert_eq!(s.config_digest(), s.config_digest_reference());
        // One simplifying to `false` only flips the trivially-false flag.
        s.constrain(Expr::ne(x.clone(), x.clone()));
        assert_eq!(s.config_digest(), s.config_digest_reference());
        // Reboot clears memory (and its accumulator) but keeps the path.
        let r = s.rebooted();
        assert_eq!(r.config_digest(), r.config_digest_reference());
        assert_eq!(r.heap_acc, 0);
    }
}
