//! Symbolic expressions, path conditions and a bounded bit-vector solver.
//!
//! This crate is the constraint substrate of the SDE reproduction: the role
//! STP played for KLEE. Programs under test compute over [`Expr`] values —
//! either concrete bit-vector constants or terms over symbolic variables.
//! Branches on symbolic conditions ask the [`Solver`] whether each side is
//! feasible under the current [`PathCondition`]; final states ask it for a
//! [`Model`] (a concrete test case).
//!
//! The solver is *bounded but complete* over the domains used by the SDE
//! evaluation (small bit-vectors: packet-drop booleans, header bytes):
//! it simplifies, partitions constraints into independent groups
//! (KLEE-style), prunes with interval analysis, and finishes with
//! backtracking enumeration under a configurable budget.
//!
//! # Examples
//!
//! ```
//! use sde_symbolic::{Expr, SymbolTable, Solver, PathCondition, Width};
//!
//! let mut syms = SymbolTable::new();
//! let x = syms.fresh("x", Width::W8);
//! let cond = Expr::ult(Expr::sym(x.clone()), Expr::const_(50, Width::W8));
//! let pc = PathCondition::new().with(Expr::ne(Expr::sym(x.clone()), Expr::const_(0, Width::W8)));
//!
//! let solver = Solver::new();
//! assert!(solver.may_be_true(&pc, &cond));
//! let model = solver.model(&pc.with(cond)).expect("satisfiable");
//! let v = model.value_of(x.id()).unwrap();
//! assert!(v != 0 && v < 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod expr;
mod interval;
mod model;
mod path;
mod simplify;
mod snapshot;
mod solver;
mod table;
mod value;
mod vars;
mod width;

pub use expr::{BinOp, CastOp, Expr, ExprKind, ExprRef, UnOp};
pub use interval::Interval;
pub use model::Model;
pub use path::PathCondition;
pub use simplify::simplify;
pub use snapshot::{CodecError, SnapReader, SnapWriter};
pub use solver::{Solver, SolverBudget, SolverResult, SolverSnapshot, SolverStats};
pub use table::{SymId, SymVar, SymbolTable};
pub use value::Value;
pub use vars::VarSet;
pub use width::Width;
