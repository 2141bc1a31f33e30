//! Symbolic VM microbenchmarks: step throughput, fork cost, state clone
//! cost (the quantities the engine multiplies by millions of states).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sde_symbolic::{BinOp, CastOp, Solver, SymbolTable, Width};
use sde_vm::{run_to_completion, HandlerOutcome, ProgramBuilder, VmCtx, VmState};

/// Runs `main` of `program` from a fresh state, with a fresh solver.
fn run_main(program: &sde_vm::Program) -> HandlerOutcome {
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    let state = VmState::fresh(program);
    run_to_completion(
        program,
        state.prepared(program, "main", &[]).unwrap(),
        &mut ctx,
    )
}

/// A concrete counting loop: pure interpreter throughput.
fn loop_program(iterations: u64) -> sde_vm::Program {
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

/// `iterations` times: store the 16-bit `i` at one of 64 fixed addresses,
/// load it back.
fn store_load_program(iterations: u64) -> sde_vm::Program {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, move |f| {
        let i = f.reg();
        f.const_(i, 0, Width::W32);
        let limit = f.imm(iterations, Width::W32);
        let one = f.imm(1, Width::W32);
        let mask = f.imm(63, Width::W32);
        let base = f.imm(0x400, Width::W32);
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
        f.store(addr, v);
        let back = f.reg();
        f.load(back, addr, Width::W16);
        f.bin(BinOp::Add, i, i, one);
        f.jmp(top);
        f.place(out);
        f.ret(None);
    });
    pb.build().unwrap()
}

/// A program forking into 2^depth leaves.
fn fork_program(depth: u16) -> sde_vm::Program {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, move |f| {
        for i in 0..depth {
            let b = f.reg();
            f.make_symbolic(b, &format!("b{i}"), Width::BOOL);
            let (yes, no) = (f.label(), f.label());
            f.br(b, yes, no);
            f.place(yes);
            f.nop();
            f.jmp(no);
            f.place(no);
        }
        f.ret(None);
    });
    pb.build().unwrap()
}

fn bench_interpreter(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm");
    let program = loop_program(1000);
    group.bench_function("concrete_loop_1k_iters", |b| {
        b.iter(|| black_box(run_main(&program).finished.len()))
    });

    // 1 000 concrete 16-bit store/load round trips over 64 addresses: the
    // byte heap on an unshared state (constants inline, cells replaced in
    // place — `tests/alloc_budget.rs` counts the allocations).
    let memory = store_load_program(1000);
    group.bench_function("concrete_store_load_1k", |b| {
        b.iter(|| black_box(run_main(&memory).finished[0].0.memory_footprint()))
    });

    let forky = fork_program(6);
    group.bench_function("fork_64_leaves", |b| {
        b.iter(|| {
            let out = run_main(&forky);
            assert_eq!(out.finished.len(), 64);
            black_box(out.finished.len())
        })
    });

    // Clone cost of a state with populated memory — the fork primitive.
    let heavy = heavy_state();
    group.bench_function("clone_state_1KiB_memory", |b| {
        b.iter(|| black_box(heavy.clone()).memory_footprint())
    });
    group.finish();
}

/// A terminated state with 1 KiB of written memory — the digest
/// benchmarks' worst case scales with exactly this kind of footprint.
fn heavy_state() -> VmState {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        for i in 0..512u64 {
            let a = f.imm(i * 2, Width::W32);
            let v = f.imm(i, Width::W16);
            f.store(a, v);
        }
        f.ret(None);
    });
    let out = run_main(&pb.build().unwrap());
    out.finished.into_iter().next().unwrap().0
}

/// The duplicate-detection hot path (DESIGN.md §10): the engine reads
/// `config_digest` at *every* dispatch, so it must stay O(frames) — the
/// incremental accumulators — while `config_digest_reference` rescans the
/// whole heap and path condition. The gap between the two is the
/// acceptance criterion "no full-state rehash on the hot path".
fn bench_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("digest");
    let heavy = heavy_state();
    assert_eq!(
        heavy.config_digest(),
        heavy.config_digest_reference(),
        "accumulators must agree with the rescan"
    );
    group.bench_function("incremental", |b| {
        b.iter(|| black_box(&heavy).config_digest())
    });
    group.bench_function("reference_rescan", |b| {
        b.iter(|| black_box(&heavy).config_digest_reference())
    });
    group.finish();
}

criterion_group!(benches, bench_interpreter, bench_digest);
criterion_main!(benches);
