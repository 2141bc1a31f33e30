//! A register-based symbolic bytecode virtual machine.
//!
//! This crate plays the role KLEE's LLVM interpreter plays in KleeNet:
//! it executes *node programs* over [`sde_symbolic::Expr`] values, forking
//! the execution state whenever a branch condition is symbolic and both
//! sides are feasible under the current path condition.
//!
//! The pieces:
//!
//! * [`Inst`] / [`Program`] / [`ProgramBuilder`] — a small, explicit
//!   instruction set plus a typed assembler with labels. Node software
//!   (the `sde-os` crate's Contiki-like runtime and Rime-style protocols)
//!   is expressed in this ISA.
//! * [`VmState`] — one execution state: call frames, a persistent
//!   byte-addressed global memory, the path condition, and a branch-trace
//!   digest identifying the explored path. Cloning is cheap by design
//!   (persistent structures underneath), which is what makes the
//!   state-mapping algorithms in `sde-core` affordable.
//! * [`step`]-ing the interpreter yields [`StepResult`]s: plain progress,
//!   a forked sibling, an environment call ([`Syscall`]: send a packet,
//!   arm a timer, …) or a detected [`BugReport`].
//!
//! Execution is event-driven: the engine invokes a handler function
//! (`on_boot`, `on_timer`, `on_recv`, …) on a state, runs it to
//! completion, and global memory plus path condition persist across
//! handler invocations.
//!
//! # Examples
//!
//! ```
//! use sde_vm::{ProgramBuilder, VmState, VmCtx, run_to_completion};
//! use sde_symbolic::{Solver, SymbolTable, Width};
//!
//! let mut pb = ProgramBuilder::new();
//! pb.function("on_boot", 0, |f| {
//!     let x = f.reg();
//!     f.make_symbolic(x, "x", Width::W8);
//!     let c = f.reg();
//!     let fifty = f.reg();
//!     f.const_(fifty, 50, Width::W8);
//!     f.bin(sde_symbolic::BinOp::Ult, c, x, fifty);
//!     let (small, big) = (f.label(), f.label());
//!     f.br(c, small, big);
//!     f.place(small);
//!     f.ret(None);
//!     f.place(big);
//!     f.ret(None);
//! });
//! let program = pb.build().unwrap();
//!
//! let solver = Solver::new();
//! let mut symbols = SymbolTable::new();
//! let mut ctx = VmCtx::new(&solver, &mut symbols);
//! let state = VmState::fresh(&program);
//! let outcome = run_to_completion(&program, state.prepared(&program, "on_boot", &[]).unwrap(), &mut ctx);
//! assert_eq!(outcome.finished.len(), 2); // the branch forked
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bug;
mod interp;
mod isa;
mod preset;
mod program;
mod state;

pub use bug::{BugKind, BugReport};
pub use interp::{run_to_completion, step, HandlerOutcome, StepResult, Syscall, VmCtx};
pub use isa::{FuncId, Inst, Loc, Reg};
pub use preset::{InputRequest, Preset, RequestLog};
pub use program::{FunctionBuilder, Label, Program, ProgramBuilder, ProgramError};
pub use state::{FrameBuffer, HeapPool, KeyIsHash, Status, VmState};
