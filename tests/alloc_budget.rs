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
use std::sync::Arc;

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

// ---- frames: the dispatching engine's, not the states' ----------------------
//
// A handler's frame box goes back to the engine when the handler ends,
// and the next handler the engine dispatches runs in it — in its
// register box too, when it has as many registers. At the commit before,
// each state kept its last handler's frame box (40 bytes) as a spare for
// the rest of the run, one per state that ever ran a handler (35 368 on
// collect 7×7 under COW), and every dispatch allocated a register box.

/// Registers of node 1's `on_recv`: an odd size for a register box.
const RECV_REGS: u16 = 29;

/// Every 100 ms node 0 sends node 1 two words; node 1's `on_recv`
/// computes on registers only, with [`RECV_REGS`] of them.
fn ping_scenario() -> Scenario {
    let mut sender = ProgramBuilder::new();
    sender.function("on_boot", 0, |f| {
        let delay = f.imm(100, Width::W64);
        f.set_timer(delay, 1);
        f.ret(None);
    });
    sender.function("on_timer", 1, |f| {
        let (dest, word) = (f.imm(1, Width::W16), f.imm(7, Width::W16));
        f.send(dest, &[word]);
        f.send(dest, &[word]);
        let delay = f.imm(100, Width::W64);
        f.set_timer(delay, 1);
        f.ret(None);
    });
    let mut receiver = ProgramBuilder::new();
    receiver.function("on_boot", 0, |f| f.ret(None));
    receiver.function("on_recv", 2, |f| {
        // Two parameter registers, then one more per add.
        let mut acc = f.param(1);
        for _ in 2..RECV_REGS {
            let next = f.reg();
            f.bin(BinOp::Add, next, acc, acc);
            acc = next;
        }
        f.ret(None);
    });
    let programs = vec![sender.build().unwrap(), receiver.build().unwrap()];
    Scenario::new(Topology::line(2), programs)
        .with_duration_ms(100_000)
        .with_sample_every(1_000_000)
}

#[test]
fn the_engine_keeps_the_frame_and_a_warmed_delivery_allocates_none() {
    let scenario = ping_scenario();
    let receiver = Arc::clone(&scenario.programs[1]);
    let on_recv = receiver.function(receiver.function_id("on_recv").unwrap());
    assert_eq!(on_recv.reg_count(), RECV_REGS);
    let mut engine = Engine::new(scenario, Algorithm::Cow);
    // Two boots, then a timer and its two deliveries, over and over:
    // after 2 + 3k + 2 events the next one is a delivery to node 1 right
    // after another, so the frame the engine holds has its registers.
    assert_eq!(
        engine.run_until(Budget::events(2 + 3 * 8 + 2)),
        RunOutcome::Paused
    );
    let ran = |engine: &Engine| engine.state(StateId(1)).unwrap().vm.instructions_executed();
    let (before, ran_before) = (allocations(), ran(&engine));
    assert_eq!(engine.run_until(Budget::events(1)), RunOutcome::Paused);
    let spent = allocations() - before;
    assert_eq!(
        ran(&engine) - ran_before,
        on_recv.len() as u64,
        "one on_recv ran"
    );
    assert_eq!(
        spent, 0,
        "a warmed delivery allocates no frame, no register box, nothing"
    );
    assert!(
        engine.states().all(|s| !s.vm.holds_left_frame()),
        "no resident state keeps a frame"
    );
}

// ---- forks: the store's and the mappers' -----------------------------------
//
// A fork shares its parent's state body until one of the two is written;
// a group's membership is one sorted list. So what a fork allocates does
// not depend on how many members the groups around it have. Measured
// with this file's counter at the commit before (state table a
// `HashMap<StateId, SdeState>`, every dstate a
// `BTreeMap<NodeId, BTreeSet<VId>>`, COB / COW groups a `BTreeMap` per
// group inside `HashMap`s):
//
// * the SDS case-A send below: 28 allocations at k = 16, 85 at k = 64 —
//   more than one per member (a B-tree leaf for its node's set, the
//   dstate's map growing node by node); 11 and 11 here. It is the mapper's
//   first send, so its working lists are allocated for it; from then on
//   they are reused (the case-B budget below);
// * the COB branch below at k = 16: 5 allocations for the new group's
//   `BTreeMap` and none per `store.fork` — the copy went inline into the
//   hash table, which paid for it in rehashes of 312-byte buckets instead
//   (not counted there: the test lets the tables grow first). With every
//   state boxed, a fork was exactly one allocation, the state's box, and
//   the branch 18 = 15 + 3. Here a fork allocates nothing (its handle
//   shares the parent's core), so the branch is the one list plus the
//   mapper's state → group vector growing.

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
            false,
        ));
    }
    store
}

#[test]
fn a_store_fork_of_an_idle_state_allocates_nothing() {
    let mut store = idle_store(2);
    // Let every id-indexed vector do its growing first.
    for _ in 0..64 {
        store.fork(StateId(0));
    }
    let before = allocations();
    let child = store.fork(StateId(0));
    assert_eq!(
        allocations() - before,
        0,
        "one handle on the parent's core (a box before)"
    );
    assert_eq!(store.states[&child].node, NodeId(0));
    let core = |id: StateId| std::ptr::from_ref::<StateCore>(&store.states[&id]);
    assert_eq!(core(child), core(StateId(0)), "the two share one core");
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

/// The table moves 24-byte handles as it grows; a state's core, where
/// its body lives, stays where it was allocated.
#[test]
fn growing_the_state_table_never_moves_a_resident() {
    let mut store = idle_store(1);
    // Each fork is written once, so it owns a core of its own.
    let fork_own = |store: &mut Store| {
        let child = store.fork(StateId(0));
        store.states.update(child, |s| s.budgets[0] = 1);
    };
    while store.states.len() < 1_000 {
        fork_own(&mut store);
    }
    let address =
        |store: &Store, id: u64| std::ptr::from_ref::<StateCore>(&store.states[&StateId(id)]);
    let before: Vec<*const StateCore> = (0..1_000).map(|id| address(&store, id)).collect();
    while store.states.len() < 100_000 {
        fork_own(&mut store);
    }
    let after: Vec<*const StateCore> = (0..1_000).map(|id| address(&store, id)).collect();
    assert!(
        before.iter().zip(&after).all(|(a, b)| std::ptr::eq(*a, *b)),
        "a resident state's core stays where it was allocated"
    );
    let mut distinct = before.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 1_000, "every written fork owns its core");
    assert_eq!(store.states.totals(), store.states.totals_reference());
}

// ---- the resident layout ---------------------------------------------------
//
// Every resident state is one `SdeState` handle inline in the table, and
// the queue keeps one pending-event slot per id ever minted, so these
// sizes multiply by the state count; a state's core is paid once per
// distinct body, by the first write to a shared one. Once, `SdeState`
// was 304 bytes (a 320-byte malloc chunk), `Status` 72 (a
// `BugReport` inline in every state) and the slot a 32-byte `VecDeque`;
// boxing `fork_as` of an idle state was one allocation of 304 bytes.
// Later every state was a boxed 184-byte `SdeState` (a 192-byte chunk)
// and every fork one such box, then a 32-byte handle whose `shard_root`
// was a `u64`.

use sde::core::store::IndexedQueue;
use sde::core::{HistoryEvent, NodeEvent, StateCore};
use sde::net::PacketId;

#[test]
fn the_resident_layout_stays_in_budget() {
    let state = std::mem::size_of::<SdeState>();
    let status = std::mem::size_of::<Status>();
    println!("SdeState {state} B, Status {status} B");
    assert!(
        state <= 24,
        "SdeState is {state} bytes (32 before, 184 and 304 earlier)"
    );
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
fn the_first_write_to_a_shared_state_allocates_one_core_of_one_chunk() {
    let mut store = idle_store(1);
    // Let every id-indexed vector do its growing first.
    for _ in 0..64 {
        store.fork(StateId(0));
    }
    let (parent, child) = (StateId(0), store.fork(StateId(0)));
    let facts = |s: &SdeState| (s.config_digest(), s.budgets(), s.history.clone());
    let parent_facts = facts(&store.states[&parent]);
    let (before, held) = (allocations(), retained_bytes());
    store.states.update(child, |s| {
        s.budgets[0] += 1;
        s.history.record(HistoryEvent::Sent {
            id: PacketId(7),
            peer: NodeId(1),
        });
    });
    let (spent, kept) = (allocations() - before, retained_bytes() - held);
    assert_eq!(spent, 1, "the child's own core, nothing else");
    assert!(
        kept <= 192,
        "the written fork retains {kept} bytes (a 192-byte box before)"
    );
    let core = |id: StateId| std::ptr::from_ref::<StateCore>(&store.states[&id]);
    assert_ne!(core(child), core(parent), "the child owns its core now");
    assert_eq!(
        facts(&store.states[&parent]),
        parent_facts,
        "the sibling is unchanged"
    );
    assert_ne!(facts(&store.states[&child]), parent_facts);
    // The core is the child's own now: the next write copies nothing.
    let before = allocations();
    store.states.update(child, |s| s.budgets[0] += 1);
    assert_eq!(allocations() - before, 0);
    assert_eq!(store.states.totals(), store.states.totals_reference());
}

// ---- resident states, end to end ----------------------------------------
//
// Copies of a state that run the same handler from the same pre-state
// build equal heaps apart; the engine keeps one storage per memory image
// (`sde::vm::HeapPool`), pooling a heap when its handler ends and every
// decoded heap on resume.

mod common;

use sde::core::EngineSnapshot;

/// Bytes the engine holds per resident state, and the resident count, of
/// collect 5×5 under COW paused after 4 000 events. `resumed` measures
/// the engine resumed from the pause's snapshot bytes instead, once the
/// paused engine, the snapshot and its bytes are gone.
fn retained_per_resident_state(resumed: bool) -> (i64, usize) {
    let scenario = || common::grid_collect(5, 5, 6000, false);
    let held = retained_bytes();
    let mut engine = Engine::new(scenario(), Algorithm::Cow);
    assert_eq!(engine.run_until(Budget::events(4_000)), RunOutcome::Paused);
    if resumed {
        let bytes = engine.snapshot().to_bytes();
        drop(engine);
        let snapshot = EngineSnapshot::from_bytes(&bytes).expect("own snapshot decodes");
        drop(bytes);
        engine = Engine::resume(scenario(), &snapshot).expect("own snapshot resumes");
    }
    let kept = retained_bytes() - held;
    let resident = engine.states().count();
    assert!(
        engine.states().all(|s| !s.vm.holds_left_frame()),
        "no resident state keeps a frame"
    );
    drop(engine);
    (kept / resident as i64, resident)
}

/// Everything the paused engine holds — states, mapper, queue, solver
/// caches, the heap pool — over its 3 083 resident states. Measured with
/// this test at the commit before heaps were pooled: 533 bytes a state
/// straight and 802 resumed, where every decoded state kept a trie of its
/// own; 437 and 666 at the commit before states gave their frames back
/// and the handle shrank to 24 bytes; 404 and 656 here. A resumed state
/// still costs more than a straight one: decoded states own their cores
/// and histories, where the straight run's copies share them.
#[test]
fn a_resident_state_retains_bytes_in_budget_straight_and_resumed() {
    let (straight, resident) = retained_per_resident_state(false);
    let (resumed, again) = retained_per_resident_state(true);
    println!("{resident} resident states: {straight} B each straight, {resumed} B resumed");
    assert_eq!(resident, again, "the resumed engine holds the same states");
    assert!(
        straight <= 435,
        "{straight} bytes per resident state straight (437 before frames went back)"
    );
    assert!(
        resumed <= 690,
        "{resumed} bytes per resident state resumed (666 before frames went back)"
    );
}
