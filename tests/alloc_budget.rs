//! Allocations of the concrete interpreter path, counted.
//!
//! A concrete instruction computes on inline [`Value`] constants and a
//! store into a state nobody shares edits the heap map in place, so
//! neither may touch the allocator. These tests count calls into a
//! wrapping `#[global_allocator]` (per thread, so the harness's other
//! test threads do not disturb the reading).
//!
//! At the commit before `Value` existed every result, immediate and
//! memory byte was a fresh `Arc<Expr>` and every byte store a path copy,
//! so the same programs allocated linearly — measured there with this
//! file's counter (`prepared` and `Expr::const_` arguments in place of
//! `prepare` and `Value::const_`):
//!
//! * the counting loop: 2 009 allocations at 1 000 iterations, 20 008 at
//!   10 000 — the compare and the sum of every iteration; 4 and 4 here;
//! * the store/load round trip: 1 940 over the first pass, then 315 482
//!   over the remaining 9 936 iterations (≈ 32 each) where this commit
//!   makes none; the first pass after a clone 2 028, 216 here.

use sde::prelude::*;
use sde::symbolic::{BinOp, CastOp, Value};
use sde::vm::{run_to_completion, step, Status, StepResult, VmCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. `const`
    /// initialised and without a destructor, so reading it from inside
    /// the allocator neither allocates nor outlives the thread's TLS.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has been handed (a reallocation hands out the new
    /// block).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has handed back (a reallocation hands back the
    /// old block).
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a few
// thread-local counter bumps that cannot allocate, unwind or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        ALLOCATED_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        ALLOCATED_BYTES.with(|n| n.set(n.get() + new_size as u64));
        FREED_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn freed_bytes() -> u64 {
    FREED_BYTES.with(Cell::get)
}

/// Bytes allocated and not handed back since the thread started.
fn retained_bytes() -> i64 {
    ALLOCATED_BYTES.with(Cell::get) as i64 - freed_bytes() as i64
}

/// The concrete counting loop of `crates/bench/benches/vm.rs`.
fn loop_program(iterations: u64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, move |f| {
        let i = f.reg();
        f.const_(i, 0, Width::W64);
        let limit = f.imm(iterations, Width::W64);
        let one = f.imm(1, Width::W64);
        let (top, out) = (f.label(), f.label());
        f.place(top);
        let done = f.reg();
        f.bin(BinOp::Ule, done, limit, i);
        let body = f.label();
        f.br(done, out, body);
        f.place(body);
        f.bin(BinOp::Add, i, i, one);
        f.jmp(top);
        f.place(out);
        f.ret(None);
    });
    pb.build().unwrap()
}

/// Allocations of one complete run of `main`: frame, worklist and outcome
/// vectors included, program construction excluded.
fn allocations_of_loop(iterations: u64) -> u64 {
    let program = loop_program(iterations);
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    let state = VmState::fresh(&program);
    let before = allocations();
    let out = run_to_completion(
        &program,
        state.prepared(&program, "main", &[]).unwrap(),
        &mut ctx,
    );
    let spent = allocations() - before;
    assert_eq!(
        out.finished[0].0.instructions_executed(),
        4 * iterations + 6
    );
    spent
}

#[test]
fn concrete_loop_allocations_do_not_grow_with_iterations() {
    let short = allocations_of_loop(1_000);
    let long = allocations_of_loop(10_000);
    assert!(
        short.abs_diff(long) < 16,
        "1 000 iterations allocate {short} times, 10 000 allocate {long} times"
    );
}

const SLOTS: u64 = 64;
const BASE: u64 = 0x400;

/// `main(salt)`: `iterations` times, store the 16-bit `i + salt` at one of
/// 64 fixed addresses (`i mod 64`), load it back and assert it.
fn round_trip_program(iterations: u64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 1, move |f| {
        let salt = f.param(0);
        let i = f.reg();
        f.const_(i, 0, Width::W32);
        let limit = f.imm(iterations, Width::W32);
        let one = f.imm(1, Width::W32);
        let mask = f.imm(SLOTS - 1, Width::W32);
        let base = f.imm(BASE, Width::W32);
        let (top, body, out) = (f.label(), f.label(), f.label());
        f.place(top);
        let done = f.reg();
        f.bin(BinOp::Ule, done, limit, i);
        f.br(done, out, body);
        f.place(body);
        let addr = f.reg();
        f.bin(BinOp::And, addr, i, mask);
        f.bin(BinOp::Shl, addr, addr, one);
        f.bin(BinOp::Add, addr, addr, base);
        let v = f.reg();
        f.cast(CastOp::Trunc, Width::W16, v, i);
        f.bin(BinOp::Add, v, v, salt);
        f.store(addr, v);
        let back = f.reg();
        f.load(back, addr, Width::W16);
        let ok = f.reg();
        f.bin(BinOp::Eq, ok, back, v);
        f.assert(ok, "memory returns what was stored");
        f.bin(BinOp::Add, i, i, one);
        f.jmp(top);
        f.place(out);
        f.ret(None);
    });
    pb.build().unwrap()
}

/// Steps `state` until `until` holds (or the handler returns); returns the
/// allocations that took.
fn step_until(
    program: &Program,
    state: &mut VmState,
    ctx: &mut VmCtx<'_>,
    mut until: impl FnMut(&VmState) -> bool,
) -> u64 {
    let before = allocations();
    while !until(state) {
        match step(program, state, ctx) {
            StepResult::Continue => {}
            StepResult::HandlerDone(None) => break,
            other => panic!("a concrete handler only continues or returns: {other:?}"),
        }
    }
    allocations() - before
}

/// The low byte of slot `slot`'s cell.
fn low_byte(state: &VmState, slot: u64) -> u64 {
    state
        .memory_byte((BASE + 2 * slot) as u32)
        .as_const()
        .expect("concrete memory")
}

#[test]
fn concrete_round_trips_allocate_only_while_the_map_grows_or_is_shared() {
    const ITERATIONS: u64 = 10_000;
    let program = round_trip_program(ITERATIONS);
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    let to_the_end = |_: &VmState| false;
    let populated = |s: &VmState| s.memory_footprint() == 2 * SLOTS as usize;

    // An unshared state: the first pass over the addresses grows the map,
    // every later write replaces a cell in place.
    let mut state = VmState::fresh(&program);
    assert!(state.prepare(&program, "main", &[Value::const_(0, Width::W16)]));
    let first_pass = step_until(&program, &mut state, &mut ctx, populated);
    assert!(first_pass > 0, "new cells are new map nodes");
    let rest = step_until(&program, &mut state, &mut ctx, to_the_end);
    assert_eq!(*state.status(), Status::Idle, "ran to the end");
    assert_eq!(rest, 0, "a populated, unshared heap is written in place");
    // Slot 5 was last written at i = 9 989 (9 989 mod 64 = 5).
    assert_eq!(low_byte(&state, 5), 9_989 & 0xff);

    // A clone shares every node: the first write down each path copies
    // it, once, and the clone keeps reading the old bytes.
    let clone = state.clone();
    assert!(state.prepare(&program, "main", &[Value::const_(7, Width::W16)]));
    // Slot 63 held 9 983's low byte (0xff); the new pass reaches it last.
    let copied = step_until(&program, &mut state, &mut ctx, |s| {
        low_byte(s, SLOTS - 1) == (SLOTS - 1 + 7) & 0xff
    });
    assert!(
        copied >= SLOTS,
        "every leaf a clone shares is copied before it is written ({copied})"
    );
    let rest = step_until(&program, &mut state, &mut ctx, to_the_end);
    assert_eq!(rest, 0, "once copied, the paths are this state's own");
    assert_eq!(low_byte(&state, 5), (9_989 + 7) & 0xff);
    assert_eq!(low_byte(&clone, 5), 9_989 & 0xff, "the clone is unchanged");
    assert_eq!(clone.memory_footprint(), 2 * SLOTS as usize);
}

/// `main(v)`: store the 16-bit `v` at `BASE`.
fn store_program() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 1, |f| {
        let v = f.param(0);
        let base = f.imm(BASE, Width::W32);
        f.store(base, v);
        f.ret(None);
    });
    pb.build().unwrap()
}

/// Storing the bytes two cells already hold, on a heap a clone shares,
/// neither copies the path to them nor moves the digest, and the clone
/// keeps sharing the heap. Before `heap_store` skipped such bytes, the
/// handler copied both paths: 4 allocations, after which the heap was no
/// longer shared.
#[test]
fn re_storing_what_a_shared_cell_holds_allocates_nothing() {
    let program = store_program();
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    let to_the_end = |_: &VmState| false;
    let v = Value::const_(0x1234, Width::W16);

    let mut state = VmState::fresh(&program);
    assert!(state.prepare(&program, "main", std::slice::from_ref(&v)));
    step_until(&program, &mut state, &mut ctx, to_the_end);
    let digest = state.config_digest();
    let clone = state.clone();

    assert!(state.prepare(&program, "main", std::slice::from_ref(&v)));
    let spent = step_until(&program, &mut state, &mut ctx, to_the_end);
    assert_eq!(*state.status(), Status::Idle, "ran to the end");
    assert_eq!(spent, 0, "a store of the held bytes copies nothing");
    assert_eq!(state.config_digest(), digest);
    assert_eq!(state.config_digest(), state.config_digest_reference());
    assert!(state.config_eq(&clone));

    // A different value is a real write: the shared path is copied.
    assert!(state.prepare(&program, "main", &[Value::const_(0x1235, Width::W16)]));
    assert!(step_until(&program, &mut state, &mut ctx, to_the_end) > 0);
    assert_ne!(state.config_digest(), digest);
    assert_eq!(low_byte(&state, 0), 0x35);
    assert_eq!(low_byte(&clone, 0), 0x34, "the clone is unchanged");
}

/// A state that ran a handler keeps its frame buffer until its next
/// event — one per executed state, for the rest of the run: the
/// handler's frame box, left behind as a spare (40 bytes here). A `Vec`
/// of frames' first push would reserve four (160 bytes: 6 MB of the
/// 57 MB live at `collect7_cow`'s peak, one buffer per executed state).
#[test]
fn an_idle_state_keeps_a_frame_buffer_of_one() {
    let mut pb = ProgramBuilder::new();
    pb.function("on_boot", 0, |f| f.ret(None));
    let program = pb.build().unwrap();
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    let mut state = VmState::fresh(&program);
    assert!(state.prepare(&program, "on_boot", &[]));
    step_until(&program, &mut state, &mut ctx, |_| false);
    assert_eq!(*state.status(), Status::Idle);
    // Empty memory, path and traces: the buffer is all the state owns.
    let before = freed_bytes();
    drop(state);
    let held = freed_bytes() - before;
    assert!(
        (1..=40).contains(&held),
        "an idle state held {held} bytes of frame buffer"
    );
}

// ---- forks: the store's and the mappers' -----------------------------------
//
// A state is boxed once when it becomes resident; a group's membership is
// one sorted list. So what a fork allocates does not depend on how many
// members the groups around it have. Measured with this file's counter at
// the commit before (state table a `HashMap<StateId, SdeState>`, every
// dstate a `BTreeMap<NodeId, BTreeSet<VId>>`, COB / COW groups a
// `BTreeMap` per group inside `HashMap`s):
//
// * the SDS case-A send below: 28 allocations at k = 16, 85 at k = 64 —
//   more than one per member (a B-tree leaf for its node's set, the
//   dstate's map growing node by node); 11 and 11 here. It is the mapper's
//   first send, so its working lists are allocated for it; from then on
//   they are reused (the case-B budget below);
// * the COB branch below at k = 16: 5 allocations for the new group's
//   `BTreeMap` and none per `store.fork` — the copy went inline into the
//   hash table, which paid for it in rehashes of 312-byte buckets instead
//   (not counted there: the test lets the tables grow first). Here a fork
//   is exactly one allocation, the state's box, and the branch adds one
//   list plus the mapper's state → group vector growing: 18 = 15 + 3.

use sde::core::mapping::{Algorithm, StateStore};
use sde::core::store::Store;
use sde::core::{SdeState, StateId};

/// A store that only hands out ids: what a mapper allocates, isolated.
struct IdsOnly {
    next: u64,
    forked: u64,
}

impl StateStore for IdsOnly {
    fn fork(&mut self, _original: StateId) -> StateId {
        self.next += 1;
        self.forked += 1;
        StateId(self.next - 1)
    }

    fn node_of(&self, state: StateId) -> NodeId {
        panic!("no mapper asks for the node of {state}")
    }
}

/// One dstate of `k` single-state nodes plus one rival of node 0's state;
/// returns the allocations of node 0's state sending to node 1 (case A:
/// the target forks, the other `k − 2` states are copied virtually).
fn allocations_of_sds_case_a_send(k: u16) -> u64 {
    let mut sds = Algorithm::Sds.new_mapper();
    let boot: Vec<(StateId, NodeId)> = (0..k).map(|i| (StateId(u64::from(i)), NodeId(i))).collect();
    sds.on_boot(&boot);
    let mut store = IdsOnly {
        next: u64::from(k) + 1,
        forked: 0,
    };
    sds.on_branch(StateId(0), StateId(u64::from(k)), NodeId(0), &mut store);
    let before = allocations();
    let delivery = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
    let spent = allocations() - before;
    assert_eq!(delivery.receivers, [StateId(1)]);
    assert_eq!(store.forked, 1, "only the target forks");
    assert_eq!(sds.group_count(), 2);
    assert_eq!(sds.stats().virtual_forks, 1 + u64::from(k) - 1);
    assert_eq!(sds.check_invariants(), None);
    spent
}

#[test]
fn an_sds_dstate_copy_allocates_the_same_whatever_its_size() {
    let small = allocations_of_sds_case_a_send(16);
    let large = allocations_of_sds_case_a_send(64);
    println!("SDS case-A send: {small} allocations at k = 16, {large} at k = 64");
    assert!(
        large <= small,
        "k = 16 allocates {small} times, k = 64 allocates {large} times"
    );
}

/// Conflicting sends in a row: a fresh rival of node 0's state, then a
/// case-A send from node 0 to node 1, `ROUNDS` times. Each send copies the
/// newest dstate, whose bystanders — the boot states of nodes 2 and up —
/// are members of every dstate.
const ROUNDS: u64 = 62;

/// The bytes `ROUNDS` conflicting sends in a `k`-node network retain.
fn bytes_retained_by_conflicting_sends(k: u16) -> i64 {
    let mut sds = Algorithm::Sds.new_mapper();
    let boot: Vec<(StateId, NodeId)> = (0..k).map(|i| (StateId(u64::from(i)), NodeId(i))).collect();
    sds.on_boot(&boot);
    let mut store = IdsOnly {
        next: u64::from(k),
        forked: 0,
    };
    let held = retained_bytes();
    for _ in 0..ROUNDS {
        let rival = StateId(store.next);
        store.next += 1;
        sds.on_branch(StateId(0), rival, NodeId(0), &mut store);
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
    }
    let retained = retained_bytes() - held;
    assert_eq!(store.forked, ROUNDS, "only the targets fork");
    assert_eq!(sds.group_count() as u64, ROUNDS + 1);
    assert_eq!(sds.check_invariants(), None);
    retained
}

/// A case-A send copies the rival dstate's row and shares its bystander
/// columns, so a bystander costs it a column id in the new row and a
/// dstate id in its owner's list: 8 bytes. Over 62 rounds those lists
/// and the row table grow to just under a power of two, so what the
/// allocator reports is that layout and not a doubling's slack.
///
/// Measured with this test at the commit before dstates shared their
/// columns, where each bystander's copy was a virtual state of its own (a
/// 24-byte `VState`, a 16-byte entry in the new dstate's list and an
/// 8-byte entry in its owner's, the tables doubling as they grew): 76 688
/// bytes at k = 16 and 265 616 at k = 64, 63.5 per extra bystander copy;
/// 6.8 here. (The single send above allocated 8 times there at either k.)
#[test]
fn an_sds_bystander_copy_retains_two_ids() {
    let small = bytes_retained_by_conflicting_sends(16);
    let large = bytes_retained_by_conflicting_sends(64);
    let per_copy = (large - small) as f64 / (48 * ROUNDS) as f64;
    println!(
        "{ROUNDS} SDS case-A sends retain {small} bytes at k = 16, {large} at k = 64: \
         {per_copy:.2} per extra bystander copy"
    );
    assert!(
        large - small <= 8 * 48 * ROUNDS as i64,
        "{per_copy:.2} bytes retained per extra bystander copy"
    );
}

/// A case-B send (no direct rival, nothing forks) on a mapper that has
/// sent before allocates only the receiver list it hands out: the working
/// lists of the send stay with the mapper. Built afresh on every send,
/// they cost 3 allocations here (the sender's dstates, the target list,
/// which became the receiver list in place, and the target's case-B
/// vstates).
#[test]
fn a_warmed_sds_case_b_send_allocates_only_its_receiver_list() {
    const K: u16 = 16;
    let mut sds = Algorithm::Sds.new_mapper();
    let boot: Vec<(StateId, NodeId)> = (0..K).map(|i| (StateId(u64::from(i)), NodeId(i))).collect();
    sds.on_boot(&boot);
    let mut store = IdsOnly {
        next: u64::from(K),
        forked: 0,
    };
    for _ in 0..4 {
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
    }
    let before = allocations();
    let delivery = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
    let spent = allocations() - before;
    assert_eq!(delivery.receivers, [StateId(1)]);
    assert_eq!(store.forked, 0, "case B forks nothing");
    assert_eq!(sds.group_count(), 1);
    assert_eq!(spent, 1, "the receiver list, nothing else");
    assert_eq!(sds.check_invariants(), None);
}

/// A store of `k` idle boot states, one per node, nothing queued.
fn idle_store(k: u16) -> Store {
    let mut pb = ProgramBuilder::new();
    pb.function("on_boot", 0, |f| f.ret(None));
    let vm = VmState::fresh(&pb.build().unwrap());
    let mut store = Store::default();
    for node in 0..k {
        let id = store.allocate_id();
        store.states.insert(SdeState::boot(
            id,
            NodeId(node),
            vm.clone(),
            &FailureConfig::new(),
            &FaultPlan::new(),
            false,
        ));
    }
    store
}

#[test]
fn a_store_fork_of_an_idle_state_is_one_allocation() {
    let mut store = idle_store(2);
    // Let every id-indexed vector do its growing first.
    for _ in 0..64 {
        store.fork(StateId(0));
    }
    let before = allocations();
    let child = store.fork(StateId(0));
    assert_eq!(allocations() - before, 1, "the child's box, nothing else");
    assert_eq!(store.states[&child].node, NodeId(0));
}

#[test]
fn a_cob_branch_allocates_its_forks_and_one_list() {
    const K: u16 = 16;
    let mut store = idle_store(K);
    let mut cob = Algorithm::Cob.new_mapper();
    let boot: Vec<(StateId, NodeId)> = (0..K).map(|i| (StateId(u64::from(i)), NodeId(i))).collect();
    cob.on_boot(&boot);
    // Let the store's id-indexed vectors do their growing first.
    for _ in 0..64 {
        store.fork(StateId(1));
    }
    // The branching state's sibling, resident as the engine has it.
    let child = store.allocate_id();
    let sibling = store.states[&StateId(0)].fork_as(child);
    store.states.insert(sibling);

    // `c`: what one fork through this store costs by itself.
    let before = allocations();
    store.fork(StateId(1));
    let per_fork = allocations() - before;

    let before = allocations();
    cob.on_branch(StateId(0), child, NodeId(0), &mut store);
    let spent = allocations() - before;
    println!("COB branch at k = {K}: {spent} allocations, {per_fork} per store.fork");
    assert_eq!(cob.stats().mapper_forks, u64::from(K) - 1);
    assert_eq!(cob.check_invariants(), None);
    assert!(
        spent <= (u64::from(K) - 1) * per_fork + 4,
        "{spent} allocations for {} forks of {per_fork} each",
        K - 1
    );
}

#[test]
fn growing_the_state_table_never_moves_a_resident() {
    let mut store = idle_store(1);
    while store.states.len() < 1_000 {
        store.fork(StateId(0));
    }
    let address = |store: &Store, id: u64| std::ptr::from_ref(&store.states[&StateId(id)]);
    let before: Vec<*const SdeState> = (0..1_000).map(|id| address(&store, id)).collect();
    while store.states.len() < 100_000 {
        store.fork(StateId(0));
    }
    let after: Vec<*const SdeState> = (0..1_000).map(|id| address(&store, id)).collect();
    assert!(
        before.iter().zip(&after).all(|(a, b)| std::ptr::eq(*a, *b)),
        "a resident state stays where it was boxed"
    );
    assert_eq!(store.states.totals(), store.states.totals_reference());
}

// ---- the resident layout ---------------------------------------------------
//
// Every resident state is one boxed `SdeState`, and the queue keeps one
// pending-event slot per id ever minted, so these sizes multiply by the
// state count. At the commit before, `SdeState` was 304 bytes (a 320-byte
// malloc chunk), `Status` 72 (a `BugReport` inline in every state) and
// the slot a 32-byte `VecDeque`; boxing `fork_as` of an idle state was one
// allocation of 304 bytes.

use sde::core::store::IndexedQueue;
use sde::core::NodeEvent;

#[test]
fn the_resident_layout_stays_in_budget() {
    let state = std::mem::size_of::<SdeState>();
    let status = std::mem::size_of::<Status>();
    println!("SdeState {state} B, Status {status} B");
    assert!(state <= 192, "SdeState is {state} bytes (304 before)");
    assert!(status <= 16, "Status is {status} bytes (72 before)");
}

#[test]
fn the_pending_index_costs_at_most_eight_bytes_per_id() {
    const IDS: u64 = 100_000;
    let mut queue = IndexedQueue::default();
    let held = retained_bytes();
    queue.push(5, (StateId(IDS - 1), NodeEvent::Timer(1)));
    let index = retained_bytes() - held;
    println!("{index} bytes retained for {IDS} ids");
    // Beyond the slots: the one event and its list, its key and the key's
    // time bucket.
    assert!(
        index <= 8 * IDS as i64 + 4096,
        "{index} bytes for {IDS} slots (32 each before)"
    );
    assert_eq!(queue.len(), 1);
}

#[test]
fn boxing_a_fork_of_an_idle_state_is_one_allocation_of_one_chunk() {
    let store = idle_store(1);
    let idle = &store.states[&StateId(0)];
    let (before, held) = (allocations(), retained_bytes());
    let child = Box::new(idle.fork_as(StateId(1)));
    let (spent, kept) = (allocations() - before, retained_bytes() - held);
    assert_eq!(spent, 1, "the box, nothing else");
    assert!(kept <= 192, "the fork retains {kept} bytes (304 before)");
    assert_eq!(child.node, NodeId(0));
}
