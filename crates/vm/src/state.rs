//! Execution states.

use crate::bug::BugReport;
use crate::isa::{FuncId, Loc, Reg};
use crate::program::Program;
use sde_pds::{PList, PMap};
use sde_symbolic::{CodecError, ExprRef, PathCondition, SnapReader, SnapWriter, Value, Width};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Default size of a node's byte-addressed global memory.
pub(crate) const DEFAULT_MEMORY_SIZE: u32 = 64 * 1024;

/// Deepest call stack a state may hold: a `Call` beyond it is a bug, and
/// a snapshot claiming more frames is malformed.
pub(crate) const MAX_CALL_DEPTH: usize = 128;

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
    /// A bug was detected on this path. Boxed: almost no state is bugged,
    /// and every state carries a `Status`.
    Bugged(Box<BugReport>),
}

impl Status {
    /// Returns `true` when the state can still make progress.
    pub fn is_live(&self) -> bool {
        matches!(self, Status::Idle | Status::Running)
    }
}

/// One call frame, linked to its caller's.
#[derive(Clone)]
pub(crate) struct Frame {
    pub func: FuncId,
    pub pc: u32,
    /// One slot per register of the function. A handler frame's vector
    /// keeps the capacity of the largest handler it ran.
    pub regs: Vec<Option<Value>>,
    /// Register in the *caller's* frame receiving our return value.
    pub ret_dst: Option<Reg>,
    /// Live frames from this one down to the handler's (1 for the
    /// handler's own); 0 marks the frame a finished handler leaves.
    depth: u16,
    caller: Option<Box<Frame>>,
}

impl Frame {
    /// Marks this handler frame as left behind: no longer live, its
    /// registers dropped but their capacity kept.
    fn leave(&mut self) {
        self.depth = 0;
        self.regs.clear();
    }

    /// Feeds the frame's configuration to a digest.
    fn hash_into(&self, h: &mut impl Hasher) {
        self.func.hash(h);
        self.pc.hash(h);
        self.ret_dst.hash(h);
        for r in &self.regs {
            r.hash(h);
        }
    }

    /// Equal configuration: the frames' links are not compared.
    fn same(&self, other: &Frame) -> bool {
        self.func == other.func
            && self.pc == other.pc
            && self.ret_dst == other.ret_dst
            && self.regs == other.regs
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("func", &self.func)
            .field("pc", &self.pc)
            .field("regs", &self.regs)
            .field("ret_dst", &self.ret_dst)
            .finish()
    }
}

/// The call stack in one pointer: the running frame, linked to its
/// callers'.
///
/// A handler's return leaves its frame box behind (depth 0, registers
/// cleared but kept) until [`VmState::release_frame`] hands it to the
/// dispatcher's [`FrameBuffer`], or the state's next
/// [`VmState::prepare`] reuses it. That box is capacity, not content: it
/// is not cloned, compared, hashed or encoded.
#[derive(Default)]
pub(crate) struct Frames(Option<Box<Frame>>);

impl Frames {
    /// The running frame.
    pub(crate) fn top(&self) -> Option<&Frame> {
        self.0.as_deref().filter(|f| f.depth > 0)
    }

    /// The running frame, mutably.
    pub(crate) fn top_mut(&mut self) -> Option<&mut Frame> {
        self.0.as_deref_mut().filter(|f| f.depth > 0)
    }

    /// Number of live frames.
    pub(crate) fn len(&self) -> usize {
        self.top().map_or(0, |f| usize::from(f.depth))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `func` with `regs`: the new frame runs from its first
    /// instruction, linked to the running one.
    pub(crate) fn push(&mut self, func: FuncId, regs: Vec<Option<Value>>, ret_dst: Option<Reg>) {
        let caller = self.0.take().filter(|f| f.depth > 0);
        let depth = 1 + caller.as_ref().map_or(0, |c| c.depth);
        self.0 = Some(Box::new(Frame {
            func,
            pc: 0,
            regs,
            ret_dst,
            depth,
            caller,
        }));
    }

    /// Starts a handler on an empty stack: `func` runs from its first
    /// instruction with `regs` registers, the first ones holding `args`,
    /// in the box and the register vector of the frame a handler left —
    /// this state's, else `spare`.
    pub(crate) fn start(
        &mut self,
        spare: &mut Option<Box<Frame>>,
        func: FuncId,
        regs: usize,
        args: &[Value],
    ) {
        debug_assert!(self.is_empty(), "a handler starts on an empty stack");
        let mut frame = self.0.take().or_else(|| spare.take()).unwrap_or_else(|| {
            Box::new(Frame {
                func,
                pc: 0,
                regs: Vec::new(),
                ret_dst: None,
                depth: 0,
                caller: None,
            })
        });
        frame.regs.clear();
        frame.regs.resize(regs, None);
        for (slot, a) in frame.regs.iter_mut().zip(args) {
            *slot = Some(a.clone());
        }
        (frame.func, frame.pc, frame.ret_dst, frame.depth) = (func, 0, None, 1);
        self.0 = Some(frame);
    }

    /// Pops the running frame, returning the register its caller takes
    /// the result in. The handler's frame stays behind, cleared.
    pub(crate) fn pop(&mut self) -> Option<Option<Reg>> {
        let top = self.0.as_deref_mut().filter(|f| f.depth > 0)?;
        let ret_dst = top.ret_dst;
        if top.depth == 1 {
            top.leave();
        } else {
            let caller = top.caller.take();
            self.0 = caller;
        }
        Some(ret_dst)
    }

    /// Pops every frame, leaving the handler's behind, cleared.
    pub(crate) fn clear(&mut self) {
        let Some(mut bottom) = self.0.take() else {
            return;
        };
        while let Some(caller) = bottom.caller.take() {
            bottom = caller;
        }
        bottom.leave();
        self.0 = Some(bottom);
    }

    /// The frame a finished handler left behind, if the stack holds one.
    fn take_left(&mut self) -> Option<Box<Frame>> {
        self.0.take_if(|f| f.depth == 0)
    }

    /// The live frames, running frame first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Frame> {
        std::iter::successors(self.top(), |f| f.caller.as_deref())
    }

    /// Visits the live frames handler first — the order digests and the
    /// snapshot use. Recursion depth is bounded by [`MAX_CALL_DEPTH`].
    pub(crate) fn for_each_from_bottom(&self, mut visit: impl FnMut(&Frame)) {
        fn walk(frame: &Frame, visit: &mut impl FnMut(&Frame)) {
            if let Some(caller) = frame.caller.as_deref() {
                walk(caller, visit);
            }
            visit(frame);
        }
        if let Some(top) = self.top() {
            walk(top, &mut visit);
        }
    }
}

/// The frame box a finished handler left, kept by whoever dispatches
/// handlers: [`VmState::release_frame`] puts it here when a handler
/// ends, and [`VmState::prepare_from`] takes it for the next, so a
/// dispatch allocates no frame, and no registers once the box has held
/// the largest handler's. It keeps one box; an idle state keeps none.
#[derive(Debug, Default)]
pub struct FrameBuffer(Option<Box<Frame>>);

impl Clone for Frames {
    /// Copies the live frames; a left frame stays with its owner, so
    /// cloning a state between handlers allocates nothing.
    fn clone(&self) -> Frames {
        Frames(self.top().map(|f| Box::new(f.clone())))
    }
}

impl std::fmt::Debug for Frames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut list = f.debug_list();
        self.for_each_from_bottom(|frame| {
            list.entry(frame);
        });
        list.finish()
    }
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
    pub(crate) frames: Frames,
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
            frames: Frames::default(),
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
        self.prepare_from(&mut FrameBuffer::default(), program, handler, args)
    }

    /// [`VmState::prepare`], running the handler in the frame `buffer`
    /// keeps when this state left none of its own.
    pub fn prepare_from(
        &mut self,
        buffer: &mut FrameBuffer,
        program: &Program,
        handler: &str,
        args: &[Value],
    ) -> bool {
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
        self.frames.clear();
        let regs = usize::from(func.reg_count());
        self.frames.start(&mut buffer.0, func_id, regs, args);
        self.status = Status::Running;
        true
    }

    /// Hands the frame a finished handler left behind to `buffer`, so
    /// the state keeps only its content; `buffer` keeps one frame. A
    /// state whose handler did not return or halt has none to hand.
    pub fn release_frame(&mut self, buffer: &mut FrameBuffer) {
        if let Some(frame) = self.frames.take_left() {
            buffer.0.get_or_insert(frame);
        }
    }

    /// Whether this state holds the frame of a finished handler, which
    /// [`VmState::release_frame`] hands back.
    #[doc(hidden)]
    pub fn holds_left_frame(&self) -> bool {
        self.frames.0.as_ref().is_some_and(|f| f.depth == 0)
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
        self.status = Status::Bugged(Box::new(report));
    }

    /// Returns this state as it looks immediately after a node reboot:
    /// volatile memory cleared, call stack empty, ready for `on_boot`.
    /// Path condition, branch trace and instruction count persist — the
    /// constraints on symbolic inputs remain valid across the reboot.
    #[must_use]
    pub fn rebooted(&self) -> VmState {
        VmState {
            frames: Frames::default(),
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
            frames: Frames::default(),
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
    /// measurements; see DESIGN.md §1, "Substitutions").
    ///
    /// The constants are a *model*, not a measurement of this layout:
    /// they were set when a state was laid out differently and are frozen
    /// since, because the run's peak of their sum (`peak_bytes`) is part
    /// of `RunReport::equivalence_key` — changing one would move every
    /// recorded key. What a state really costs is read from the process
    /// (`rss_peak_mb` in the benchmark, `VmHWM` in `table1`).
    pub fn approx_bytes(&self) -> usize {
        const BASE: usize = 256; // per state, whatever its fields hold
        const PER_HEAP_CELL: usize = 48; // per written memory byte
        const PER_PC_NODE: usize = 40; // per path-condition term node
        const PER_FRAME: usize = 64; // per live call frame
        const PER_REG: usize = 16; // per register of a live frame
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
    /// (`VmState::heap_store` / `VmState::path_push`), so this is
    /// O(frames) — and frames are empty between handlers, where the
    /// engine's duplicate detection runs. The from-scratch rescan lives
    /// in [`VmState::config_digest_reference`]; the two agree on every
    /// state by construction (property-tested).
    pub fn config_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.heap_acc.hash(&mut h);
        self.path_acc.hash(&mut h);
        // Frames: ordered.
        self.frames.for_each_from_bottom(|f| f.hash_into(&mut h));
        std::mem::discriminant(&self.status).hash(&mut h);
        self.path_digest.hash(&mut h);
        h.finish()
    }

    /// [`VmState::config_digest`] recomputed by rescanning the full heap
    /// and path condition instead of reading the incremental accumulators.
    /// The ground truth the digest-coherence tests compare the incremental
    /// accumulators against: a bug in an accumulator update shows as a
    /// mismatch here, not as a silently missed duplicate.
    pub fn config_digest_reference(&self) -> u64 {
        let mut h = DefaultHasher::new();
        heap_digest(&self.heap).hash(&mut h);
        // Path constraints: the same order-insensitive multiset combine.
        let mut pc_acc: u64 = 0;
        for c in self.path.iter() {
            pc_acc = pc_acc.wrapping_add(constraint_hash(c));
        }
        pc_acc.hash(&mut h);
        // Frames: ordered.
        self.frames.for_each_from_bottom(|f| f.hash_into(&mut h));
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
            && self
                .frames
                .iter()
                .zip(other.frames.iter())
                .all(|(a, b)| a.same(b))
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
        if !self
            .frames
            .iter()
            .zip(other.frames.iter())
            .all(|(a, b)| a.same(b))
        {
            return false;
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
        self.frames.for_each_from_bottom(|f| {
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
        });
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
        let nframes = r.checked_len("frame count")?;
        if nframes > MAX_CALL_DEPTH {
            return Err(CodecError::Malformed("frame count"));
        }
        let mut frames = Frames::default();
        for _ in 0..nframes {
            let func = FuncId(r.ranged("function id")?);
            let pc = r.ranged("frame pc")?;
            let nregs = r.checked_len("register count")?;
            let mut regs = Vec::with_capacity(nregs);
            for _ in 0..nregs {
                regs.push(if r.bool()? { Some(r.value()?) } else { None });
            }
            let ret_dst = if r.bool()? {
                Some(Reg(r.ranged("return register")?))
            } else {
                None
            };
            frames.push(func, regs, ret_dst);
            frames.top_mut().expect("frame just pushed").pc = pc;
        }
        let nheap = r.checked_len("heap entry count")?;
        let mut heap = PMap::new();
        for _ in 0..nheap {
            let addr = r.ranged("heap address")?;
            heap.insert_mut(addr, r.value()?);
        }
        let memory_size = r.ranged("memory size")?;
        let npc = r.checked_len("constraint count")?;
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
            4 => Status::Bugged(Box::new(BugReport::read_snapshot(r)?)),
            _ => return Err(CodecError::Malformed("status tag")),
        };
        let nbranches = r.checked_len("branch trace count")?;
        let mut branches = Vec::with_capacity(nbranches);
        for _ in 0..nbranches {
            let func = FuncId(r.ranged("branch function")?);
            let index = r.ranged("branch index")?;
            branches.push((Loc { func, index }, r.bool()?));
        }
        // `iter` yields most recent first; rebuild by prepending oldest up.
        let mut branch_trace = PList::new();
        for entry in branches.into_iter().rev() {
            branch_trace = branch_trace.prepend(entry);
        }
        let path_digest = r.varint()?;
        let instret = r.varint()?;
        let ncounts = r.checked_len("input count entries")?;
        let mut input_counts = PMap::new();
        for _ in 0..ncounts {
            let name = r.str()?;
            let n = r.ranged("input occurrence count")?;
            input_counts.insert_mut(name, n);
        }
        // The digest accumulators are derived data: recompute them once at
        // decode time (the snapshot format stays unchanged).
        let heap_acc = heap_digest(&heap);
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

/// One heap storage per distinct memory image.
///
/// States that run the same handler from the same pre-state — COB's and
/// COW's duplicates, the copies a mapper forks — build equal heaps apart,
/// each its own trie. The engine hands every state whose handler ended to
/// [`HeapPool::intern`]: a heap equal to one the pool holds is replaced by
/// the pooled storage, and a new image joins the pool. Pooling changes
/// which storage a state points at, never what it holds, so no digest,
/// comparison, snapshot field or [`VmState::approx_bytes`] figure moves.
/// What it costs is the path copy a shared heap pays on its next store.
///
/// The pool is keyed by the state's heap accumulator, which every store
/// keeps up to date and which is already mixed, so a lookup hashes
/// nothing. A key hit is confirmed by structural [`PMap`] equality, cheap
/// where the two tries share structure, and an image of other content
/// under the same key is left as it is. When the pool has doubled since
/// its last sweep it first drops the images no state holds any more
/// ([`PMap::is_unique`]), so it holds at most about twice the images
/// that are still live.
#[derive(Debug, Default)]
pub struct HeapPool {
    images: HashMap<u64, PMap<u32, Value>, BuildHasherDefault<KeyIsHash>>,
    /// The size at which the next new image sweeps first.
    sweep_at: usize,
}

/// Below this many images the pool does not sweep.
const POOL_MIN_SWEEP: usize = 1024;

impl HeapPool {
    /// An empty pool.
    pub fn new() -> HeapPool {
        HeapPool::default()
    }

    /// Gives `vm` the pooled storage of its memory image, or pools its
    /// own. An empty heap has no storage to share and is left out.
    pub fn intern(&mut self, vm: &mut VmState) {
        if self.offer(vm) {
            vm.heap = self.images[&vm.heap_acc].clone();
            debug_assert_eq!(
                heap_digest(&vm.heap),
                vm.heap_acc,
                "an adopted heap rescans to the state's accumulator"
            );
        }
    }

    /// Pools `vm`'s memory image when it is new, and returns whether the
    /// pool holds it in storage other than `vm`'s — whether
    /// [`HeapPool::intern`] would change `vm`. A caller that reaches `vm`
    /// through a copy-on-write handle asks first, so that a state the
    /// pool leaves alone is not copied.
    pub fn offer(&mut self, vm: &VmState) -> bool {
        if vm.heap.is_empty() {
            return false;
        }
        if let Some(pooled) = self.images.get(&vm.heap_acc) {
            return !pooled.ptr_eq(&vm.heap) && *pooled == vm.heap;
        }
        if self.images.len() >= self.sweep_at {
            self.images.retain(|_, heap| !heap.is_unique());
            self.sweep_at = POOL_MIN_SWEEP.max(2 * self.images.len());
        }
        self.images.insert(vm.heap_acc, vm.heap.clone());
        false
    }
}

/// A hasher for keys that are mixed hashes already — the heap pool's
/// accumulators (sums of mixed entry hashes), a run's configuration
/// digests — so a `u64` key is its own hash.
#[derive(Debug, Default)]
pub struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The heap's component of [`VmState::config_digest`], rescanned: the
/// multiset sum of per-entry hashes. Iteration order is unspecified, so
/// the combine must be commutative — but unlike XOR, addition keeps
/// repeated or pairwise-equal entries from cancelling to zero.
fn heap_digest(heap: &PMap<u32, Value>) -> u64 {
    heap.iter()
        .fold(0, |acc, (k, v)| acc.wrapping_add(heap_entry_hash(*k, v)))
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
        s.frames
            .push(FuncId(0), vec![Some(x.clone().into()), None], None);
        s.frames.push(FuncId(1), vec![None], Some(Reg(3)));
        s.frames.top_mut().unwrap().pc = 1;
        s.status = Status::Bugged(Box::new(BugReport {
            kind: BugKind::OutOfBounds { addr: 0x1_0000 },
            message: Arc::from("store"),
            loc: Loc {
                func: FuncId(0),
                index: 2,
            },
            model: Some([(xv.id(), 3)].into_iter().collect()),
        }));

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

    #[test]
    fn a_finished_handler_leaves_its_frame_to_the_buffer_and_clones_copy_live_ones() {
        let mut frames = Frames::default();
        frames.push(
            FuncId(0),
            vec![Some(Value::const_(7, Width::W8)), None],
            None,
        );
        frames.push(FuncId(1), vec![None], Some(Reg(1)));
        assert_eq!(frames.len(), 2);
        assert_eq!(frames.top().map(|f| f.func), Some(FuncId(1)));
        assert_eq!(frames.clone().iter().count(), 2);
        let mut order = Vec::new();
        frames.for_each_from_bottom(|f| order.push(f.func));
        assert_eq!(order, [FuncId(0), FuncId(1)]);
        assert_eq!(frames.pop(), Some(Some(Reg(1))));
        assert_eq!(frames.pop(), Some(None));
        assert!(frames.is_empty() && frames.top().is_none() && frames.pop().is_none());
        let left = frames
            .0
            .as_deref()
            .expect("the handler's frame is left behind");
        assert!(
            left.regs.is_empty() && left.regs.capacity() >= 2,
            "cleared, its register capacity kept"
        );
        assert!(frames.clone().0.is_none(), "a clone does not copy it");

        // The buffer takes it, and the next handler runs in it and in its
        // registers.
        let mut buffer = Some(frames.take_left().expect("left frame"));
        assert!(frames.0.is_none());
        let (frame, regs): (*const Frame, *const Option<Value>) = {
            let f = buffer.as_deref().unwrap();
            (f, f.regs.as_ptr())
        };
        let arg = Value::const_(3, Width::W8);
        frames.start(&mut buffer, FuncId(2), 2, std::slice::from_ref(&arg));
        assert!(buffer.is_none());
        let top = frames.top().unwrap();
        assert!(std::ptr::eq(frame, top) && std::ptr::eq(regs, top.regs.as_ptr()));
        assert_eq!((top.func, top.pc, frames.len()), (FuncId(2), 0, 1));
        assert_eq!(*top.regs, [Some(arg), None]);

        // A call below it, then a halt: the handler's frame is left.
        frames.push(FuncId(3), Vec::new(), None);
        frames.clear();
        assert!(frames.is_empty() && frames.0.as_ref().is_some_and(|f| f.func == FuncId(2)));
        let mut empty = None;
        frames.start(&mut empty, FuncId(4), 1, &[]);
        assert!(
            std::ptr::eq(frame, frames.top().unwrap()),
            "its own left frame"
        );
        assert_eq!(
            frames.top().unwrap().regs.len(),
            1,
            "as many registers as the handler has"
        );
        assert!(
            std::ptr::eq(regs, frames.top().unwrap().regs.as_ptr()),
            "in the same register vector"
        );
    }

    #[test]
    fn a_snapshot_deeper_than_the_call_limit_is_malformed() {
        let p = empty_program();
        let mut s = VmState::fresh(&p);
        for _ in 0..=MAX_CALL_DEPTH {
            s.frames.push(FuncId(0), Vec::new(), None);
        }
        let mut w = SnapWriter::new();
        s.write_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(
            VmState::read_snapshot(&mut r),
            Err(CodecError::Malformed("frame count"))
        ));
        s.frames.pop();
        let mut w = SnapWriter::new();
        s.write_snapshot(&mut w);
        let bytes = w.finish();
        let decoded = VmState::read_snapshot(&mut SnapReader::new(&bytes).unwrap()).unwrap();
        assert_eq!(decoded.frames.len(), MAX_CALL_DEPTH);
        assert!(decoded.config_eq(&s));
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

    /// A state whose heap holds `cells` bytes, `byte(addr)` at each
    /// address, stored one by one into a trie of its own.
    fn heap_of(cells: u32, byte: impl Fn(u32) -> u64) -> VmState {
        let mut s = VmState::fresh(&empty_program());
        for addr in 0..cells {
            s.heap_store(addr, Value::const_(byte(addr), Width::W8));
        }
        s
    }

    #[test]
    fn equal_heaps_built_apart_end_in_one_storage() {
        let mut pool = HeapPool::new();
        let (mut a, mut b) = (heap_of(40, u64::from), heap_of(40, u64::from));
        assert!(!a.heap.ptr_eq(&b.heap) && a.heap == b.heap);
        pool.intern(&mut a);
        pool.intern(&mut b);
        assert!(a.heap.ptr_eq(&b.heap), "the second adopts the first's");
        assert_eq!(pool.images.len(), 1);
        assert!(a.config_eq(&b) && a.dedup_eq(&b));
        // Interning a state that already holds the image changes nothing.
        pool.intern(&mut a);
        assert!(a.heap.ptr_eq(&b.heap) && pool.images.len() == 1);
    }

    /// The forged collision of `equal_digests_with_different_heaps_are_not_equal`:
    /// one key, two contents. The pool never hands either the other's.
    #[test]
    fn a_forged_key_collision_is_never_shared() {
        let mut pool = HeapPool::new();
        let mut s = heap_of(40, u64::from);
        let mut t = s.clone();
        t.heap_store(17, Value::const_(99, Width::W8));
        t.heap_acc = s.heap_acc;
        pool.intern(&mut s);
        let t_heap = t.heap.clone();
        pool.intern(&mut t);
        assert!(t.heap.ptr_eq(&t_heap), "t keeps its own storage");
        assert_eq!(t.memory_byte(17).as_const(), Some(99));
        assert_eq!(s.memory_byte(17).as_const(), Some(17));
        assert!(!s.config_eq(&t));
    }

    #[test]
    fn an_empty_heap_is_not_pooled() {
        let mut pool = HeapPool::new();
        let mut s = VmState::fresh(&empty_program());
        pool.intern(&mut s);
        assert!(pool.images.is_empty());
        assert_eq!(s.config_digest(), s.config_digest_reference());
    }

    #[test]
    fn the_sweep_bounds_the_pool_by_the_live_images() {
        let mut pool = HeapPool::new();
        // 100 three-byte images stay held; 10 000 four-byte ones (the
        // bytes of `i`) are dropped once pooled.
        let mut live: Vec<VmState> = (0..100).map(|i| heap_of(3, |a| u64::from(a) + i)).collect();
        for s in &mut live {
            pool.intern(s);
        }
        let mut most = 0;
        for i in 0..10_000u64 {
            let mut gone = heap_of(4, |a| (i >> (8 * a)) & 0xff);
            pool.intern(&mut gone);
            most = most.max(pool.images.len());
        }
        // With few images live, every sweep brings the pool back under
        // the floor: it fills up to it and never past.
        assert_eq!(most, POOL_MIN_SWEEP, "the pool reached {most} images");
        // Every held image survives every sweep: a copy still finds it.
        for (i, s) in live.iter().enumerate() {
            let mut copy = heap_of(3, |a| u64::from(a) + i as u64);
            pool.intern(&mut copy);
            assert!(copy.heap.ptr_eq(&s.heap), "image {i} was swept while held");
        }
    }

    #[test]
    fn an_adopted_heap_keeps_the_digest() {
        let mut pool = HeapPool::new();
        let mut t = sde_symbolic::SymbolTable::new();
        let x: Value = Expr::sym(t.fresh("x", Width::W8)).into();
        let build = || {
            let mut s = heap_of(20, |a| u64::from(a) * 3);
            s.heap_store(7, x.clone());
            s
        };
        let (mut a, mut b) = (build(), build());
        let digest = b.config_digest();
        pool.intern(&mut a);
        pool.intern(&mut b);
        assert!(a.heap.ptr_eq(&b.heap));
        assert_eq!(b.config_digest(), digest);
        assert_eq!(b.config_digest(), b.config_digest_reference());
        // The shared storage is written copy-on-write: the sibling keeps
        // the pooled image.
        b.heap_store(7, Value::const_(1, Width::W8));
        assert_eq!(b.config_digest(), b.config_digest_reference());
        assert!(!a.heap.ptr_eq(&b.heap));
        assert_eq!(a.config_digest(), digest);
        assert_eq!(a.config_digest(), a.config_digest_reference());
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
