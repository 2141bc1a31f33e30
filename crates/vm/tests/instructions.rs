//! Instruction-level tests for the corners the inline unit tests don't
//! reach: casts, select, deep call chains, failure instructions,
//! symbolic pointers and preset-driven replay.

use sde_symbolic::{BinOp, CastOp, Solver, SymbolTable, Value, Width};
use sde_vm::{run_to_completion, BugKind, Preset, Program, ProgramBuilder, Status, VmCtx, VmState};

fn run(program: &Program, handler: &str) -> sde_vm::HandlerOutcome {
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    let state = VmState::fresh(program);
    run_to_completion(
        program,
        state.prepared(program, handler, &[]).unwrap(),
        &mut ctx,
    )
}

fn assert_clean(out: &sde_vm::HandlerOutcome) {
    assert!(
        out.bugged.is_empty(),
        "unexpected bug: {:?}",
        out.bugged[0].status()
    );
}

#[test]
fn casts_roundtrip() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let v = f.imm(0x80, Width::W8);
        let sx = f.reg();
        f.cast(CastOp::Sext, Width::W16, sx, v);
        let expect = f.imm(0xff80, Width::W16);
        let ok = f.reg();
        f.bin(BinOp::Eq, ok, sx, expect);
        f.assert(ok, "sext");
        let zx = f.reg();
        f.cast(CastOp::Zext, Width::W16, zx, v);
        let expect2 = f.imm(0x80, Width::W16);
        let ok2 = f.reg();
        f.bin(BinOp::Eq, ok2, zx, expect2);
        f.assert(ok2, "zext");
        let tr = f.reg();
        f.cast(CastOp::Trunc, Width::W8, tr, sx);
        let ok3 = f.reg();
        f.bin(BinOp::Eq, ok3, tr, v);
        f.assert(ok3, "trunc undoes sext low byte");
        f.ret(None);
    });
    assert_clean(&run(&pb.build().unwrap(), "main"));
}

#[test]
fn select_builds_ite_without_forking() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let x = f.reg();
        f.make_symbolic(x, "x", Width::W8);
        let ten = f.imm(10, Width::W8);
        let c = f.reg();
        f.bin(BinOp::Ult, c, x, ten);
        let a = f.imm(1, Width::W8);
        let b = f.imm(2, Width::W8);
        let r = f.reg();
        f.select(r, c, a, b);
        // r is 1 or 2 — assert r != 0 always holds, with no fork.
        let zero = f.imm(0, Width::W8);
        let nz = f.reg();
        f.bin(BinOp::Ne, nz, r, zero);
        f.assert(nz, "select result nonzero");
        f.ret(None);
    });
    let out = run(&pb.build().unwrap(), "main");
    assert_clean(&out);
    assert_eq!(out.finished.len(), 1, "select must not fork");
}

#[test]
fn mov_and_un_ops() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let a = f.imm(0b1010, Width::W8);
        let b = f.reg();
        f.mov(b, a);
        let n = f.reg();
        f.un(sde_symbolic::UnOp::Not, n, b);
        let expect = f.imm(0b1111_0101, Width::W8);
        let ok = f.reg();
        f.bin(BinOp::Eq, ok, n, expect);
        f.assert(ok, "not");
        let neg = f.reg();
        f.un(sde_symbolic::UnOp::Neg, neg, a);
        let expect2 = f.imm(0xf6, Width::W8); // -10 mod 256
        let ok2 = f.reg();
        f.bin(BinOp::Eq, ok2, neg, expect2);
        f.assert(ok2, "neg");
        f.ret(None);
    });
    assert_clean(&run(&pb.build().unwrap(), "main"));
}

#[test]
fn deep_call_chain_works_and_overflow_is_caught() {
    // A 3-deep chain computes ((1+1)+1)+1 = 4.
    let mut pb = ProgramBuilder::new();
    for (name, callee) in [("f0", "f1"), ("f1", "f2"), ("f2", "f3")] {
        pb.function(name, 1, move |f| {
            let r = f.reg();
            f.call(callee, &[f.param(0)], Some(r));
            let one = f.imm(1, Width::W8);
            let out = f.reg();
            f.bin(BinOp::Add, out, r, one);
            f.ret(Some(out));
        });
    }
    pb.function("f3", 1, |f| {
        f.ret(Some(f.param(0)));
    });
    pb.function("main", 0, |f| {
        let x = f.imm(1, Width::W8);
        let r = f.reg();
        f.call("f0", &[x], Some(r));
        let expect = f.imm(4, Width::W8);
        let ok = f.reg();
        f.bin(BinOp::Eq, ok, r, expect);
        f.assert(ok, "chain result");
        f.ret(None);
    });
    assert_clean(&run(&pb.build().unwrap(), "main"));

    // Unbounded recursion trips the depth guard as an internal bug.
    let mut pb = ProgramBuilder::new();
    pb.function("rec", 0, |f| {
        f.call("rec", &[], None);
        f.ret(None);
    });
    pb.function("main", 0, |f| {
        f.call("rec", &[], None);
        f.ret(None);
    });
    let out = run(&pb.build().unwrap(), "main");
    assert_eq!(out.bugged.len(), 1);
    match out.bugged[0].status() {
        Status::Bugged(r) => assert_eq!(r.kind, BugKind::Internal),
        other => panic!("{other:?}"),
    }
}

#[test]
fn fail_instruction_reports_with_message() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        f.fail("unreachable protocol state");
    });
    let out = run(&pb.build().unwrap(), "main");
    match out.bugged[0].status() {
        Status::Bugged(r) => {
            assert_eq!(r.kind, BugKind::ExplicitFail);
            assert_eq!(&*r.message, "unreachable protocol state");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn truly_symbolic_pointer_is_rejected() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let x = f.reg();
        f.make_symbolic(x, "addr", Width::W32);
        let v = f.imm(1, Width::W8);
        f.store(x, v);
        f.ret(None);
    });
    let out = run(&pb.build().unwrap(), "main");
    assert_eq!(out.bugged.len(), 1);
    match out.bugged[0].status() {
        Status::Bugged(r) => assert_eq!(r.kind, BugKind::SymbolicPointer),
        other => panic!("{other:?}"),
    }
}

#[test]
fn constrained_symbolic_pointer_concretizes() {
    // addr is symbolic but the path condition pins it to one value.
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let x = f.reg();
        f.make_symbolic(x, "addr", Width::W32);
        let target = f.imm(64, Width::W32);
        let eq = f.reg();
        f.bin(BinOp::Eq, eq, x, target);
        f.assume(eq);
        let v = f.imm(7, Width::W8);
        f.store(x, v);
        let back = f.reg();
        let t2 = f.imm(64, Width::W32);
        f.load(back, t2, Width::W8);
        let expect = f.imm(7, Width::W8);
        let ok = f.reg();
        f.bin(BinOp::Eq, ok, back, expect);
        f.assert(ok, "store through concretized pointer");
        f.ret(None);
    });
    let out = run(&pb.build().unwrap(), "main");
    assert_clean(&out);
    assert_eq!(out.finished.len(), 1);
}

#[test]
fn assume_false_discards_the_state() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let zero = f.imm(0, Width::BOOL);
        f.assume(zero);
        f.fail("never reached");
    });
    let out = run(&pb.build().unwrap(), "main");
    assert!(out.bugged.is_empty());
    assert!(out.finished.is_empty());
    assert_eq!(out.infeasible, 1);
}

#[test]
fn unknown_handler_and_bad_arity_are_rejected() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 1, |f| f.ret(None));
    let p = pb.build().unwrap();
    let s = VmState::fresh(&p);
    assert!(s.prepared(&p, "missing", &[]).is_none());
    assert!(s.prepared(&p, "main", &[]).is_none(), "arity mismatch");
    let arg = [Value::const_(1, Width::W8)];
    assert!(s.prepared(&p, "main", &arg).is_some());
}

#[test]
fn preset_pins_symbolic_inputs() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let x = f.reg();
        f.make_symbolic(x, "x", Width::W8);
        let y = f.reg();
        f.make_symbolic(y, "x", Width::W8); // same name, occurrence 1
        let fifty = f.imm(50, Width::W8);
        let c = f.reg();
        f.bin(BinOp::Ult, c, x, fifty);
        let (lo, hi) = (f.label(), f.label());
        f.br(c, lo, hi);
        f.place(lo);
        f.halt();
        f.place(hi);
        let c2 = f.reg();
        f.bin(BinOp::Ult, c2, y, fifty);
        let (lo2, hi2) = (f.label(), f.label());
        f.br(c2, lo2, hi2);
        f.place(lo2);
        f.ret(None);
        f.place(hi2);
        f.fail("y too big");
    });
    let p = pb.build().unwrap();
    // Pin x#0 = 200 (go high), x#1 = 10 (avoid the failure).
    let mut preset = Preset::new();
    preset.insert(0, "x", 0, 200);
    preset.insert(0, "x", 1, 10);
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    ctx.preset = Some(&preset);
    let state = VmState::fresh(&p);
    let out = run_to_completion(&p, state.prepared(&p, "main", &[]).unwrap(), &mut ctx);
    assert!(out.bugged.is_empty());
    assert_eq!(out.finished.len(), 1, "no forking under a full preset");
    assert_eq!(*out.finished[0].0.status(), Status::Idle);
}

#[test]
fn branch_trace_identifies_paths() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        let x = f.reg();
        f.make_symbolic(x, "x", Width::BOOL);
        let (a, b) = (f.label(), f.label());
        f.br(x, a, b);
        f.place(a);
        f.ret(None);
        f.place(b);
        f.ret(None);
    });
    let p = pb.build().unwrap();
    let out = run(&p, "main");
    let traces: Vec<Vec<bool>> = out
        .finished
        .iter()
        .map(|(s, _)| s.branch_trace().map(|(_, taken)| *taken).collect())
        .collect();
    assert_eq!(traces.len(), 2);
    assert_ne!(traces[0], traces[1]);
    // External branches extend the digest too.
    let mut s = out.finished[0].0.clone();
    let before = s.path_digest();
    s.record_external_branch(1, 0, true);
    assert_ne!(s.path_digest(), before);
}

#[test]
fn halted_state_cannot_run_again() {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| f.halt());
    let p = pb.build().unwrap();
    let out = run(&p, "main");
    let halted = &out.finished[0].0;
    assert_eq!(*halted.status(), Status::Halted);
    assert!(!halted.status().is_live());
    assert!(halted.prepared(&p, "main", &[]).is_none());
}
