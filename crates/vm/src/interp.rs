//! The symbolic interpreter: single-step semantics plus a local driver.

use crate::bug::{BugKind, BugReport};
use crate::isa::{Inst, Loc};
use crate::program::Program;
use crate::state::{Frame, Status, VmState};
use sde_symbolic::{BinOp, CastOp, Expr, ExprRef, Solver, SymbolTable, Value, Width};
use std::sync::Arc;

/// Maximum call-stack depth before the interpreter reports an internal bug.
const MAX_CALL_DEPTH: usize = 128;

/// Environment for interpretation: the solver deciding branch feasibility,
/// the symbol table minting fresh symbolic inputs, and the per-invocation
/// facts (`now`, `node_id`) exposed to the program.
#[derive(Debug)]
pub struct VmCtx<'a> {
    /// The constraint solver consulted for branch feasibility.
    pub solver: &'a Solver,
    /// Allocator for fresh symbolic inputs (shared across all nodes).
    pub symbols: &'a mut SymbolTable,
    /// Current virtual time in milliseconds (returned by `Now`).
    pub now: u64,
    /// Identity of the executing node (returned by `MyId`).
    pub node_id: u16,
    /// Replay mode: when set, `MakeSymbolic` still allocates the variable
    /// (so later inputs keep fresh identities) but yields the preset's
    /// concrete value — looked up by the run-independent replay key
    /// `(node, name, occurrence)` — instead of a symbolic term, so the
    /// execution follows exactly one path.
    pub preset: Option<&'a crate::Preset>,
}

impl<'a> VmCtx<'a> {
    /// Creates a context at time 0 for node 0.
    pub fn new(solver: &'a Solver, symbols: &'a mut SymbolTable) -> Self {
        VmCtx {
            solver,
            symbols,
            now: 0,
            node_id: 0,
            preset: None,
        }
    }
}

/// An environment interaction requested by the program; the caller (the
/// SDE engine, or tests) decides what it means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// Transmit a packet to the node with the given id.
    Send {
        /// Destination node id.
        dest: u16,
        /// Payload values (possibly symbolic).
        payload: Vec<Value>,
    },
    /// Arm a one-shot timer.
    SetTimer {
        /// Delay in virtual milliseconds.
        delay: u64,
        /// Timer id handed to the `on_timer` handler.
        timer: u16,
    },
}

/// Result of executing one instruction on a state.
#[derive(Debug)]
pub enum StepResult {
    /// Ordinary progress; step again.
    Continue,
    /// The state forked. `self` took one side; the returned sibling took
    /// the other (the sibling may already be [`Status::Bugged`], e.g. the
    /// failing side of an assert).
    Forked(VmState),
    /// The program performed an environment call; the state continues.
    Syscall(Syscall),
    /// The handler returned; the state is [`Status::Idle`] again.
    HandlerDone(Option<Value>),
    /// The program halted for good.
    Halted,
    /// The path condition became unsatisfiable; discard the state.
    Infeasible,
    /// A bug was found on this path; the state is [`Status::Bugged`].
    Bug(BugReport),
}

/// Executes one instruction of `state`.
///
/// # Panics
///
/// Panics when `state` is not [`Status::Running`] (drive states through
/// [`VmState::prepare`] or [`VmState::prepared`] first), or when the program is malformed in ways
/// the [`ProgramBuilder`](crate::ProgramBuilder) rules out (dangling
/// function ids, out-of-range jump targets).
pub fn step(program: &Program, state: &mut VmState, ctx: &mut VmCtx<'_>) -> StepResult {
    assert_eq!(state.status, Status::Running, "step on a non-running state");
    let frame = state.frames.last().expect("running state has a frame");
    let func_id = frame.func;
    let pc = frame.pc;
    let loc = Loc {
        func: func_id,
        index: pc,
    };
    let inst = program
        .function(func_id)
        .inst(pc)
        .unwrap_or_else(|| panic!("pc {loc} out of range"));
    state.instret += 1;

    macro_rules! bug {
        ($kind:expr, $msg:expr) => {{
            let report = BugReport {
                kind: $kind,
                message: Arc::from($msg),
                loc,
                model: ctx.solver.model(&state.path),
            };
            state.status = Status::Bugged(report.clone());
            return StepResult::Bug(report);
        }};
    }

    macro_rules! reg {
        ($r:expr) => {{
            match state.frames.last().expect("frame").regs.get($r.0 as usize) {
                Some(Some(v)) => v.clone(),
                _ => bug!(
                    BugKind::Internal,
                    format!("read of uninitialized register {}", $r)
                ),
            }
        }};
    }

    macro_rules! set_reg {
        ($r:expr, $v:expr) => {{
            let f = state.frames.last_mut().expect("frame");
            match f.regs.get_mut($r.0 as usize) {
                Some(slot) => *slot = Some($v),
                None => bug!(
                    BugKind::Internal,
                    format!("write to out-of-range register {}", $r)
                ),
            }
        }};
    }

    macro_rules! advance {
        () => {{
            state.frames.last_mut().expect("frame").pc += 1;
        }};
    }

    match *inst {
        Inst::Nop => {
            advance!();
            StepResult::Continue
        }
        Inst::Const { dst, value, width } => {
            set_reg!(dst, Value::const_(value, width));
            advance!();
            StepResult::Continue
        }
        Inst::Mov { dst, src } => {
            let v = reg!(src);
            set_reg!(dst, v);
            advance!();
            StepResult::Continue
        }
        Inst::Un { op, dst, src } => {
            let v = reg!(src);
            set_reg!(dst, v.unop(op));
            advance!();
            StepResult::Continue
        }
        Inst::Cast { op, to, dst, src } => {
            let v = reg!(src);
            set_reg!(dst, v.cast(op, to));
            advance!();
            StepResult::Continue
        }
        Inst::Select {
            dst,
            cond,
            then,
            els,
        } => {
            let c = reg!(cond);
            let t = reg!(then);
            let e = reg!(els);
            if c.width() != Width::BOOL {
                bug!(BugKind::Internal, "select condition is not width-1");
            }
            set_reg!(dst, Value::ite(c, t, e));
            advance!();
            StepResult::Continue
        }
        Inst::Bin { op, dst, lhs, rhs } => {
            let a = reg!(lhs);
            let b = reg!(rhs);
            if a.width() != b.width() {
                bug!(
                    BugKind::Internal,
                    format!("width mismatch {} vs {}", a.width(), b.width())
                );
            }
            // Division safety: fork off the divisor-zero path as a bug.
            if matches!(op, BinOp::UDiv | BinOp::URem | BinOp::SDiv | BinOp::SRem) {
                let is_zero = b.clone().binop(BinOp::Eq, Value::const_(0, b.width()));
                match decide(ctx.solver, state, &is_zero) {
                    Decision::AlwaysTrue => bug!(BugKind::DivisionByZero, format!("{op:?}")),
                    Decision::AlwaysFalse => {}
                    Decision::Either(is_zero) => {
                        // Sibling: divisor is zero — a bug path.
                        let mut sibling = state.clone();
                        sibling.path_push(is_zero.clone());
                        let report = BugReport {
                            kind: BugKind::DivisionByZero,
                            message: Arc::from(format!("{op:?}")),
                            loc,
                            model: ctx.solver.model(&sibling.path),
                        };
                        sibling.status = Status::Bugged(report);
                        // Self: divisor is nonzero; continue with the op.
                        state.path_push(Expr::not(is_zero));
                        set_reg!(dst, a.binop(op, b));
                        advance!();
                        return StepResult::Forked(sibling);
                    }
                }
            }
            set_reg!(dst, a.binop(op, b));
            advance!();
            StepResult::Continue
        }
        Inst::Jmp { target } => {
            state.frames.last_mut().expect("frame").pc = target;
            StepResult::Continue
        }
        Inst::Br {
            cond,
            then_target,
            else_target,
        } => {
            let c = reg!(cond);
            if c.width() != Width::BOOL {
                bug!(BugKind::Internal, "branch condition is not width-1");
            }
            match decide(ctx.solver, state, &c) {
                Decision::AlwaysTrue => {
                    // Replay mode: conditions are concrete, so branches
                    // never fork — record the decision anyway so the
                    // replay's path digest identifies the path taken
                    // (the conformance oracle compares replays by path
                    // class). Symbolic runs leave decided branches out of
                    // the digest, as before.
                    if ctx.preset.is_some() {
                        state.record_branch(loc, true);
                    }
                    state.frames.last_mut().expect("frame").pc = then_target;
                    StepResult::Continue
                }
                Decision::AlwaysFalse => {
                    if ctx.preset.is_some() {
                        state.record_branch(loc, false);
                    }
                    state.frames.last_mut().expect("frame").pc = else_target;
                    StepResult::Continue
                }
                Decision::Either(c) => {
                    let mut sibling = state.clone();
                    sibling.path_push(Expr::not(c.clone()));
                    sibling.frames.last_mut().expect("frame").pc = else_target;
                    sibling.record_branch(loc, false);
                    state.path_push(c);
                    state.frames.last_mut().expect("frame").pc = then_target;
                    state.record_branch(loc, true);
                    StepResult::Forked(sibling)
                }
            }
        }
        Inst::Call {
            func,
            ref args,
            dst,
        } => {
            if state.frames.len() >= MAX_CALL_DEPTH {
                bug!(BugKind::Internal, "call-stack overflow");
            }
            let callee = program.function(func);
            if usize::from(callee.param_count()) != args.len() {
                bug!(
                    BugKind::Internal,
                    format!("arity mismatch calling {}", callee.name())
                );
            }
            let mut regs: Vec<Option<Value>> = vec![None; usize::from(callee.reg_count())];
            for (slot, a) in regs.iter_mut().zip(args) {
                *slot = Some(reg!(*a));
            }
            // Return to the next instruction of the caller.
            advance!();
            state.frames.push(Frame {
                func,
                pc: 0,
                regs,
                ret_dst: dst,
            });
            StepResult::Continue
        }
        Inst::Ret { val } => {
            let ret_value = match val {
                Some(r) => Some(reg!(r)),
                None => None,
            };
            let finished = state.frames.pop().expect("frame");
            if state.frames.is_empty() {
                state.status = Status::Idle;
                return StepResult::HandlerDone(ret_value);
            }
            if let Some(dst) = finished.ret_dst {
                match ret_value.clone() {
                    Some(v) => set_reg!(dst, v),
                    None => bug!(
                        BugKind::Internal,
                        "callee returned no value into a destination"
                    ),
                }
            }
            StepResult::Continue
        }
        Inst::MakeSymbolic {
            dst,
            ref name,
            width,
        } => {
            let occurrence = state.next_input_occurrence(name);
            let var = ctx
                .symbols
                .fresh_keyed(name, width, ctx.node_id, occurrence);
            let value = match ctx.preset {
                Some(preset) => {
                    match preset.resolve(ctx.node_id, name, occurrence, width) {
                        Some(v) => Value::const_(v, width),
                        // Strict replay: an unpinned input is an error,
                        // not a 0 — defaulting would let an incomplete
                        // solve or enumeration masquerade as a real run.
                        None if preset.is_strict() => bug!(
                            BugKind::UnkeyedInput,
                            format!(
                                "strict replay has no value for input \
                                 `{name}` (occurrence {occurrence}) on node {}",
                                ctx.node_id
                            )
                        ),
                        // Lenient replay: inputs absent from the preset
                        // were unconstrained — any value replays the
                        // path; use 0.
                        None => Value::const_(0, width),
                    }
                }
                None => Expr::sym(var).into(),
            };
            set_reg!(dst, value);
            advance!();
            StepResult::Continue
        }
        Inst::Send { dest, ref payload } => {
            let d = reg!(dest);
            let dest_id = match concretize(ctx.solver, state, &d) {
                Some(v) => v as u16,
                None => bug!(BugKind::SymbolicPointer, "send destination is symbolic"),
            };
            let mut values = Vec::with_capacity(payload.len());
            for p in payload {
                values.push(reg!(*p));
            }
            advance!();
            StepResult::Syscall(Syscall::Send {
                dest: dest_id,
                payload: values,
            })
        }
        Inst::SetTimer { delay, timer } => {
            let d = reg!(delay);
            let delay_ms = match concretize(ctx.solver, state, &d) {
                Some(v) => v,
                None => bug!(BugKind::SymbolicPointer, "timer delay is symbolic"),
            };
            advance!();
            StepResult::Syscall(Syscall::SetTimer {
                delay: delay_ms,
                timer,
            })
        }
        Inst::Now { dst } => {
            set_reg!(dst, Value::const_(ctx.now, Width::W64));
            advance!();
            StepResult::Continue
        }
        Inst::MyId { dst } => {
            set_reg!(dst, Value::const_(u64::from(ctx.node_id), Width::W16));
            advance!();
            StepResult::Continue
        }
        Inst::Assert { cond, ref msg } => {
            let c = reg!(cond);
            if c.width() != Width::BOOL {
                bug!(BugKind::Internal, "assert condition is not width-1");
            }
            match decide(ctx.solver, state, &c) {
                Decision::AlwaysTrue => {
                    advance!();
                    StepResult::Continue
                }
                Decision::AlwaysFalse => bug!(BugKind::AssertFailed, msg.to_string()),
                Decision::Either(c) => {
                    let mut sibling = state.clone();
                    sibling.path_push(Expr::not(c.clone()));
                    let report = BugReport {
                        kind: BugKind::AssertFailed,
                        message: msg.clone(),
                        loc,
                        model: ctx.solver.model(&sibling.path),
                    };
                    sibling.status = Status::Bugged(report);
                    state.path_push(c);
                    advance!();
                    StepResult::Forked(sibling)
                }
            }
        }
        Inst::Assume { cond } => {
            let c = reg!(cond);
            if c.width() != Width::BOOL {
                bug!(BugKind::Internal, "assume condition is not width-1");
            }
            state.path_push(c.into());
            if state.path.is_trivially_false() || !may_hold(ctx.solver, &state.path) {
                state.status = Status::Infeasible;
                return StepResult::Infeasible;
            }
            advance!();
            StepResult::Continue
        }
        Inst::Fail { ref msg } => bug!(BugKind::ExplicitFail, msg.to_string()),
        Inst::Halt => {
            state.status = Status::Halted;
            state.frames.clear();
            StepResult::Halted
        }
        Inst::Load { dst, addr, width } => {
            let a = reg!(addr);
            let Some(base) = concretize(ctx.solver, state, &a) else {
                bug!(BugKind::SymbolicPointer, "load address is symbolic");
            };
            let nbytes = u64::from(width.bits()) / 8;
            if width.bits() % 8 != 0 {
                bug!(BugKind::Internal, "load width is not byte-sized");
            }
            if base + nbytes > u64::from(state.memory_size) {
                bug!(BugKind::OutOfBounds { addr: base }, "load");
            }
            // Compose little-endian bytes.
            let mut value: Option<Value> = None;
            for i in 0..nbytes {
                let byte = state.memory_byte((base + i) as u32);
                let shifted = byte
                    .cast(CastOp::Zext, width)
                    .binop(BinOp::Shl, Value::const_(8 * i, width));
                value = Some(match value {
                    None => shifted,
                    Some(acc) => acc.binop(BinOp::Or, shifted),
                });
            }
            set_reg!(dst, value.expect("width >= 8 bits"));
            advance!();
            StepResult::Continue
        }
        Inst::Store { addr, src } => {
            let a = reg!(addr);
            let v = reg!(src);
            let Some(base) = concretize(ctx.solver, state, &a) else {
                bug!(BugKind::SymbolicPointer, "store address is symbolic");
            };
            let width = v.width();
            if width.bits() % 8 != 0 {
                bug!(BugKind::Internal, "store width is not byte-sized");
            }
            let nbytes = u64::from(width.bits()) / 8;
            if base + nbytes > u64::from(state.memory_size) {
                bug!(BugKind::OutOfBounds { addr: base }, "store");
            }
            for i in 0..nbytes {
                let byte = v
                    .clone()
                    .binop(BinOp::LShr, Value::const_(8 * i, width))
                    .cast(CastOp::Trunc, Width::W8);
                state.heap_store((base + i) as u32, byte);
            }
            advance!();
            StepResult::Continue
        }
    }
}

/// Three-valued feasibility of a width-1 condition under a state's path
/// condition.
enum Decision {
    AlwaysTrue,
    AlwaysFalse,
    /// Both sides are feasible; carries the (necessarily symbolic)
    /// condition for the two path conditions.
    Either(ExprRef),
}

fn decide(solver: &Solver, state: &VmState, cond: &Value) -> Decision {
    // A constant decides itself; only a term reaches the solver.
    let Some(cond) = cond.as_term() else {
        return if cond.as_const() == Some(1) {
            Decision::AlwaysTrue
        } else {
            Decision::AlwaysFalse
        };
    };
    let may_true = solver.may_be_true(&state.path, cond);
    let may_false = solver.may_be_true(&state.path, &Expr::not(cond.clone()));
    match (may_true, may_false) {
        (true, true) => Decision::Either(cond.clone()),
        (true, false) => Decision::AlwaysTrue,
        (false, true) => Decision::AlwaysFalse,
        // Path condition itself unsatisfiable; either answer is vacuous.
        (false, false) => Decision::AlwaysFalse,
    }
}

fn may_hold(solver: &Solver, pc: &sde_symbolic::PathCondition) -> bool {
    !solver.check(pc).is_unsat()
}

/// Resolves a value to a unique concrete value under the path condition,
/// or `None` when it stays multi-valued (or the solver cannot decide
/// within budget).
fn concretize(solver: &Solver, state: &VmState, value: &Value) -> Option<u64> {
    let Some(term) = value.as_term() else {
        return value.as_const();
    };
    let model = solver.model(&state.path)?;
    let v = term.eval(&model)?;
    let unique = solver.must_be_true(
        &state.path,
        &Expr::eq(term.clone(), Expr::const_(v, term.width())),
    );
    unique.then_some(v)
}

/// Everything that came out of running one handler to completion on one
/// initial state (plus all states forked along the way).
#[derive(Debug, Default)]
pub struct HandlerOutcome {
    /// States that completed the handler ([`Status::Idle`]) or halted,
    /// each with the environment calls it performed, in order.
    pub finished: Vec<(VmState, Vec<Syscall>)>,
    /// States that ended in a bug.
    pub bugged: Vec<VmState>,
    /// Number of states discarded as infeasible.
    pub infeasible: usize,
}

/// Runs `initial` (a state returned by [`VmState::prepared`]) until every
/// descendant state finishes the handler, halts, errors out, or becomes
/// infeasible.
///
/// This is the *local* driver used by tests, examples and single-node
/// exploration; the distributed engine in `sde-core` drives [`step`]
/// itself so it can interleave state mapping with packet transmission.
///
/// # Panics
///
/// Panics after 10 million steps (runaway program guard).
pub fn run_to_completion(
    program: &Program,
    initial: VmState,
    ctx: &mut VmCtx<'_>,
) -> HandlerOutcome {
    let mut outcome = HandlerOutcome::default();
    let mut worklist: Vec<(VmState, Vec<Syscall>)> = vec![(initial, Vec::new())];
    let mut steps: u64 = 0;
    while let Some((mut state, mut effects)) = worklist.pop() {
        loop {
            steps += 1;
            assert!(
                steps < 10_000_000,
                "run_to_completion: step budget exhausted"
            );
            match step(program, &mut state, ctx) {
                StepResult::Continue => {}
                StepResult::Forked(sibling) => {
                    if let Status::Bugged(_) = sibling.status {
                        outcome.bugged.push(sibling);
                    } else {
                        worklist.push((sibling, effects.clone()));
                    }
                }
                StepResult::Syscall(sc) => effects.push(sc),
                StepResult::HandlerDone(_) | StepResult::Halted => {
                    outcome.finished.push((state, effects));
                    break;
                }
                StepResult::Infeasible => {
                    outcome.infeasible += 1;
                    break;
                }
                StepResult::Bug(_) => {
                    outcome.bugged.push(state);
                    break;
                }
            }
        }
    }
    outcome
}

impl VmState {
    /// Folds an *environment-level* branch (network failure model fork)
    /// into the path digest and trace, so states that differ only in a
    /// failure decision have distinct path identities. `kind` identifies
    /// the failure model and `occurrence` the per-lineage instance — both
    /// run-independent.
    pub fn record_external_branch(&mut self, kind: u32, occurrence: u32, taken: bool) {
        let loc = Loc {
            func: crate::isa::FuncId(0xffff_0000 | kind),
            index: occurrence,
        };
        self.record_branch(loc, taken);
    }

    /// Folds a decided symbolic branch into the path digest and trace.
    pub(crate) fn record_branch(&mut self, loc: Loc, taken: bool) {
        self.branch_trace = self.branch_trace.prepend((loc, taken));
        // FNV-1a over (func, index, taken).
        let mut h = self.path_digest;
        for byte in loc
            .func
            .0
            .to_le_bytes()
            .into_iter()
            .chain(loc.index.to_le_bytes())
            .chain([u8::from(taken)])
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.path_digest = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use sde_symbolic::Width;

    fn ctx_parts() -> (Solver, SymbolTable) {
        (Solver::new(), SymbolTable::new())
    }

    fn run(program: &Program, handler: &str) -> HandlerOutcome {
        let (solver, mut symbols) = ctx_parts();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let state = VmState::fresh(program);
        run_to_completion(
            program,
            state.prepared(program, handler, &[]).unwrap(),
            &mut ctx,
        )
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let a = f.imm(20, Width::W8);
            let b = f.imm(22, Width::W8);
            let c = f.reg();
            f.bin(BinOp::Add, c, a, b);
            let expected = f.imm(42, Width::W8);
            let ok = f.reg();
            f.bin(BinOp::Eq, ok, c, expected);
            f.assert(ok, "sum");
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 1);
        assert!(out.bugged.is_empty());
    }

    #[test]
    fn symbolic_branch_forks_both_paths() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let x = f.reg();
            f.make_symbolic(x, "x", Width::W8);
            let ten = f.imm(10, Width::W8);
            let c = f.reg();
            f.bin(BinOp::Ult, c, x, ten);
            let (lo, hi) = (f.label(), f.label());
            f.br(c, lo, hi);
            f.place(lo);
            f.ret(None);
            f.place(hi);
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 2);
        // The two paths have distinct digests and distinct path conditions.
        let (a, b) = (&out.finished[0].0, &out.finished[1].0);
        assert_ne!(a.path_digest(), b.path_digest());
        assert_eq!(a.path_condition().len(), 1);
        assert_eq!(b.path_condition().len(), 1);
    }

    #[test]
    fn figure_one_program_explores_four_paths() {
        // The paper's Fig. 1: x==0; x<50; x>10 — four feasible paths.
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let x = f.reg();
            f.make_symbolic(x, "x", Width::W8);
            let zero = f.imm(0, Width::W8);
            let c0 = f.reg();
            f.bin(BinOp::Eq, c0, x, zero);
            let (z, nz) = (f.label(), f.label());
            f.br(c0, z, nz);
            f.place(z);
            f.ret(None);
            f.place(nz);
            let fifty = f.imm(50, Width::W8);
            let c1 = f.reg();
            f.bin(BinOp::Ult, c1, x, fifty);
            let (lt, ge) = (f.label(), f.label());
            f.br(c1, lt, ge);
            f.place(lt);
            let ten = f.imm(10, Width::W8);
            let c2 = f.reg();
            f.bin(BinOp::Ult, c2, ten, x);
            let (gt, le) = (f.label(), f.label());
            f.br(c2, gt, le);
            f.place(gt);
            f.ret(None);
            f.place(le);
            f.ret(None);
            f.place(ge);
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 4);
        // All four digests distinct.
        let mut digests: Vec<u64> = out.finished.iter().map(|(s, _)| s.path_digest()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 4);
    }

    #[test]
    fn infeasible_branch_does_not_fork() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let x = f.reg();
            f.make_symbolic(x, "x", Width::W8);
            let five = f.imm(5, Width::W8);
            let lt5 = f.reg();
            f.bin(BinOp::Ult, lt5, x, five);
            f.assume(lt5);
            // x < 5 implies x < 10: no fork on the second branch.
            let ten = f.imm(10, Width::W8);
            let lt10 = f.reg();
            f.bin(BinOp::Ult, lt10, x, ten);
            let (a, b) = (f.label(), f.label());
            f.br(lt10, a, b);
            f.place(a);
            f.ret(None);
            f.place(b);
            f.fail("unreachable");
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 1);
        assert!(out.bugged.is_empty());
    }

    #[test]
    fn assert_forks_a_bug_state() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let x = f.reg();
            f.make_symbolic(x, "x", Width::W8);
            let limit = f.imm(200, Width::W8);
            let ok = f.reg();
            f.bin(BinOp::Ult, ok, x, limit);
            f.assert(ok, "x must stay below 200");
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 1);
        assert_eq!(out.bugged.len(), 1);
        match out.bugged[0].status() {
            Status::Bugged(report) => {
                assert_eq!(report.kind, BugKind::AssertFailed);
                let model = report.model.as_ref().expect("witness model");
                let (_, v) = model.iter().next().expect("x assigned");
                assert!(v >= 200, "witness {v} does not trigger the bug");
            }
            other => panic!("expected bugged, got {other:?}"),
        }
    }

    #[test]
    fn division_by_symbolic_zero_forks_bug() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let d = f.reg();
            f.make_symbolic(d, "d", Width::W8);
            let one = f.imm(1, Width::W8);
            let q = f.reg();
            f.bin(BinOp::UDiv, q, one, d);
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 1);
        assert_eq!(out.bugged.len(), 1);
        match out.bugged[0].status() {
            Status::Bugged(r) => assert_eq!(r.kind, BugKind::DivisionByZero),
            other => panic!("{other:?}"),
        }
        // The surviving path knows d != 0.
        assert_eq!(out.finished[0].0.path_condition().len(), 1);
    }

    #[test]
    fn memory_roundtrip_across_widths() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let addr = f.imm(100, Width::W32);
            let v = f.imm(0xdead, Width::W16);
            f.store(addr, v);
            let lo_addr = f.imm(100, Width::W32);
            let lo = f.reg();
            f.load(lo, lo_addr, Width::W8);
            let expect_lo = f.imm(0xad, Width::W8);
            let ok1 = f.reg();
            f.bin(BinOp::Eq, ok1, lo, expect_lo);
            f.assert(ok1, "low byte");
            let full_addr = f.imm(100, Width::W32);
            let full = f.reg();
            f.load(full, full_addr, Width::W16);
            let expect = f.imm(0xdead, Width::W16);
            let ok2 = f.reg();
            f.bin(BinOp::Eq, ok2, full, expect);
            f.assert(ok2, "full halfword");
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert!(
            out.bugged.is_empty(),
            "{:?}",
            out.bugged.first().map(|s| s.status().clone())
        );
        assert_eq!(out.finished.len(), 1);
        assert_eq!(out.finished[0].0.memory_footprint(), 2);
    }

    #[test]
    fn out_of_bounds_store_is_a_bug() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let addr = f.imm(u64::from(crate::state::DEFAULT_MEMORY_SIZE), Width::W32);
            let v = f.imm(1, Width::W8);
            f.store(addr, v);
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.bugged.len(), 1);
        match out.bugged[0].status() {
            Status::Bugged(r) => assert!(matches!(r.kind, BugKind::OutOfBounds { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn calls_and_returns() {
        let mut pb = ProgramBuilder::new();
        pb.function("double", 1, |f| {
            let two = f.imm(2, Width::W8);
            let r = f.reg();
            f.bin(BinOp::Mul, r, f.param(0), two);
            f.ret(Some(r));
        });
        pb.function("main", 0, |f| {
            let x = f.imm(21, Width::W8);
            let y = f.reg();
            f.call("double", &[x], Some(y));
            let expect = f.imm(42, Width::W8);
            let ok = f.reg();
            f.bin(BinOp::Eq, ok, y, expect);
            f.assert(ok, "double(21) == 42");
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert!(out.bugged.is_empty());
        assert_eq!(out.finished.len(), 1);
    }

    #[test]
    fn syscalls_are_surfaced_in_order() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let dest = f.imm(7, Width::W16);
            let v = f.imm(0x55, Width::W8);
            f.send(dest, &[v]);
            let delay = f.imm(1000, Width::W64);
            f.set_timer(delay, 3);
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 1);
        let effects = &out.finished[0].1;
        assert_eq!(effects.len(), 2);
        match &effects[0] {
            Syscall::Send { dest, payload } => {
                assert_eq!(*dest, 7);
                assert_eq!(payload[0].as_const(), Some(0x55));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            effects[1],
            Syscall::SetTimer {
                delay: 1000,
                timer: 3
            }
        );
    }

    #[test]
    fn now_and_my_id_come_from_ctx() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            let t = f.reg();
            f.now(t);
            let expect_t = f.imm(12345, Width::W64);
            let ok = f.reg();
            f.bin(BinOp::Eq, ok, t, expect_t);
            f.assert(ok, "time");
            let id = f.reg();
            f.my_id(id);
            let expect_id = f.imm(9, Width::W16);
            let ok2 = f.reg();
            f.bin(BinOp::Eq, ok2, id, expect_id);
            f.assert(ok2, "node id");
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let (solver, mut symbols) = ctx_parts();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        ctx.now = 12345;
        ctx.node_id = 9;
        let state = VmState::fresh(&p);
        let out = run_to_completion(&p, state.prepared(&p, "main", &[]).unwrap(), &mut ctx);
        assert!(out.bugged.is_empty());
    }

    #[test]
    fn halt_stops_the_node() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            f.halt();
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished.len(), 1);
        assert_eq!(*out.finished[0].0.status(), Status::Halted);
        // A halted state cannot be prepared again.
        assert!(out.finished[0].0.prepared(&p, "main", &[]).is_none());
    }

    #[test]
    fn state_persists_across_handlers() {
        let mut pb = ProgramBuilder::new();
        pb.function("first", 0, |f| {
            let addr = f.imm(0, Width::W32);
            let v = f.imm(99, Width::W8);
            f.store(addr, v);
            f.ret(None);
        });
        pb.function("second", 0, |f| {
            let addr = f.imm(0, Width::W32);
            let v = f.reg();
            f.load(v, addr, Width::W8);
            let expect = f.imm(99, Width::W8);
            let ok = f.reg();
            f.bin(BinOp::Eq, ok, v, expect);
            f.assert(ok, "memory persisted");
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let (solver, mut symbols) = ctx_parts();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let state = VmState::fresh(&p);
        let out1 = run_to_completion(&p, state.prepared(&p, "first", &[]).unwrap(), &mut ctx);
        let after_first = out1.finished.into_iter().next().unwrap().0;
        let out2 = run_to_completion(
            &p,
            after_first.prepared(&p, "second", &[]).unwrap(),
            &mut ctx,
        );
        assert!(out2.bugged.is_empty());
    }

    #[test]
    fn handler_args_arrive_in_registers() {
        let mut pb = ProgramBuilder::new();
        pb.function("on_recv", 2, |f| {
            let ok = f.reg();
            f.bin(BinOp::Eq, ok, f.param(0), f.param(1));
            f.assert(ok, "args equal");
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let (solver, mut symbols) = ctx_parts();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let state = VmState::fresh(&p);
        let args = [Value::const_(4, Width::W8), Value::const_(4, Width::W8)];
        let out = run_to_completion(&p, state.prepared(&p, "on_recv", &args).unwrap(), &mut ctx);
        assert!(out.bugged.is_empty());
        // Arity mismatch is rejected.
        assert!(state.prepared(&p, "on_recv", &[]).is_none());
    }

    #[test]
    fn instret_counts_instructions() {
        let mut pb = ProgramBuilder::new();
        pb.function("main", 0, |f| {
            f.nop();
            f.nop();
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let out = run(&p, "main");
        assert_eq!(out.finished[0].0.instructions_executed(), 3);
    }
}
