//! Bit-vector expression terms and their smart constructors.

// The constructor names (`add`, `not`, …) deliberately mirror the
// operators they build; they are associated functions, not methods, so
// no confusion with the std operator traits is possible at call sites.
#![allow(clippy::should_implement_trait)]

use crate::model::Model;
use crate::table::{SymId, SymVar};
use crate::vars::VarSet;
use crate::width::Width;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Shared reference to an expression node.
///
/// Expressions form immutable DAGs: sibling execution states share all
/// common sub-terms, so cloning a term is one `Arc` bump.
pub type ExprRef = Arc<Expr>;

/// Unary bit-vector operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement. On width-1 values this is boolean negation.
    Not,
    /// Two's-complement negation.
    Neg,
}

/// Binary bit-vector operators. Comparison operators yield width-1 results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; division by zero yields the all-ones vector
    /// (SMT-LIB `bvudiv` convention).
    UDiv,
    /// Unsigned remainder; remainder by zero yields the dividend.
    URem,
    /// Signed division (SMT-LIB conventions for zero and overflow).
    SDiv,
    /// Signed remainder (sign follows the dividend).
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Left shift; shifts of `width` or more yield zero.
    Shl,
    /// Logical right shift; shifts of `width` or more yield zero.
    LShr,
    /// Arithmetic right shift; shifts of `width` or more yield the sign fill.
    AShr,
    /// Equality (width-1 result).
    Eq,
    /// Disequality (width-1 result).
    Ne,
    /// Unsigned less-than (width-1 result).
    Ult,
    /// Unsigned less-or-equal (width-1 result).
    Ule,
    /// Signed less-than (width-1 result).
    Slt,
    /// Signed less-or-equal (width-1 result).
    Sle,
}

impl BinOp {
    /// Whether the operator produces a width-1 (boolean) result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Ult | BinOp::Ule | BinOp::Slt | BinOp::Sle
        )
    }
}

/// Width-changing operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Zero extension to a wider width.
    Zext,
    /// Sign extension to a wider width.
    Sext,
    /// Truncation to a narrower width.
    Trunc,
}

/// The structural shape of an expression node (see [`Expr`]).
///
/// Pattern-match on [`Expr::kind`] to destructure a term; equality and
/// hashing of [`Expr`] are defined purely over this shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// A constant of the given width (value is kept truncated).
    Const {
        /// The constant's value, truncated to `width`.
        value: u64,
        /// The constant's width.
        width: Width,
    },
    /// A symbolic variable.
    Sym(SymVar),
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        arg: ExprRef,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprRef,
        /// Right operand.
        rhs: ExprRef,
    },
    /// If-then-else over a width-1 condition.
    Ite {
        /// Width-1 condition.
        cond: ExprRef,
        /// Value when `cond` is 1.
        then: ExprRef,
        /// Value when `cond` is 0.
        els: ExprRef,
    },
    /// A width cast.
    Cast {
        /// The cast kind.
        op: CastOp,
        /// The target width.
        to: Width,
        /// The operand.
        arg: ExprRef,
    },
}

/// A bit-vector expression term.
///
/// Construct terms with the associated functions ([`Expr::add`],
/// [`Expr::eq`], …) rather than raw [`ExprKind`]s: the constructors
/// constant-fold and apply cheap algebraic identities, which keeps terms
/// small and keeps the solver fast.
///
/// Every node memoizes, at construction time, its result [`Width`], its
/// free-variable [`VarSet`], and its tree node count — so the solver's
/// independence partitioner and the path condition never walk the DAG to
/// answer "which variables does this term mention?" (the first layer of
/// the incremental solver stack, DESIGN.md §6). Equality and hashing
/// ignore the memos: they are functions of the shape.
///
/// # Examples
///
/// ```
/// use sde_symbolic::{Expr, ExprKind, SymbolTable, Width};
///
/// let mut t = SymbolTable::new();
/// let x = Expr::sym(t.fresh("x", Width::W8));
/// let e = Expr::add(x, Expr::const_(0, Width::W8));
/// assert!(matches!(e.kind(), ExprKind::Sym(_))); // x + 0 folds to x
/// ```
#[derive(Debug, Clone)]
pub struct Expr {
    kind: ExprKind,
    width: Width,
    vars: VarSet,
    nodes: u32,
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        // The memo fields are functions of `kind`; comparing them would
        // only repeat work (and `vars` comparison is not pointer-cheap).
        self.kind == other.kind
    }
}

impl Eq for Expr {}

impl std::hash::Hash for Expr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
    }
}

impl From<ExprKind> for Expr {
    fn from(kind: ExprKind) -> Expr {
        Expr::from_kind(kind)
    }
}

impl Expr {
    /// Builds a node from a raw shape, computing the width/variable/size
    /// memos from the (already memoized) children in O(children).
    ///
    /// This bypasses the smart constructors' folding — use it only where
    /// a specific shape is required (simplifier rules, tests).
    pub fn from_kind(kind: ExprKind) -> Expr {
        let width = match &kind {
            ExprKind::Const { width, .. } => *width,
            ExprKind::Sym(v) => v.width(),
            ExprKind::Unary { arg, .. } => arg.width,
            ExprKind::Binary { op, lhs, .. } => {
                if op.is_comparison() {
                    Width::BOOL
                } else {
                    lhs.width
                }
            }
            ExprKind::Ite { then, .. } => then.width,
            ExprKind::Cast { to, .. } => *to,
        };
        let vars = match &kind {
            ExprKind::Const { .. } => VarSet::empty(),
            ExprKind::Sym(v) => v.var_set(),
            ExprKind::Unary { arg, .. } | ExprKind::Cast { arg, .. } => arg.vars.clone(),
            ExprKind::Binary { lhs, rhs, .. } => lhs.vars.union(&rhs.vars),
            ExprKind::Ite { cond, then, els } => cond.vars.union(&then.vars).union(&els.vars),
        };
        let nodes = match &kind {
            ExprKind::Const { .. } | ExprKind::Sym(_) => 1u32,
            ExprKind::Unary { arg, .. } | ExprKind::Cast { arg, .. } => arg.nodes.saturating_add(1),
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.nodes.saturating_add(rhs.nodes).saturating_add(1)
            }
            ExprKind::Ite { cond, then, els } => cond
                .nodes
                .saturating_add(then.nodes)
                .saturating_add(els.nodes)
                .saturating_add(1),
        };
        Expr {
            kind,
            width,
            vars,
            nodes,
        }
    }

    fn mk(kind: ExprKind) -> ExprRef {
        Arc::new(Expr::from_kind(kind))
    }

    // ----- constructors ---------------------------------------------------

    /// A constant of width `w` (the value is truncated to `w`).
    pub fn const_(value: u64, w: Width) -> ExprRef {
        Self::mk(ExprKind::Const {
            value: w.truncate(value),
            width: w,
        })
    }

    /// The boolean constant `true` (width-1 one).
    pub fn true_() -> ExprRef {
        Expr::const_(1, Width::BOOL)
    }

    /// The boolean constant `false` (width-1 zero).
    pub fn false_() -> ExprRef {
        Expr::const_(0, Width::BOOL)
    }

    /// A symbolic variable term.
    pub fn sym(var: SymVar) -> ExprRef {
        Self::mk(ExprKind::Sym(var))
    }

    /// Wrapping addition.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when operand widths differ.
    pub fn add(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Add, lhs, rhs)
    }

    /// Wrapping subtraction. See [`Expr::add`] for width requirements.
    pub fn sub(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Sub, lhs, rhs)
    }

    /// Wrapping multiplication. See [`Expr::add`] for width requirements.
    pub fn mul(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Mul, lhs, rhs)
    }

    /// Unsigned division. See [`BinOp::UDiv`] for the division-by-zero
    /// convention.
    pub fn udiv(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::UDiv, lhs, rhs)
    }

    /// Unsigned remainder.
    pub fn urem(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::URem, lhs, rhs)
    }

    /// Signed division.
    pub fn sdiv(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::SDiv, lhs, rhs)
    }

    /// Signed remainder.
    pub fn srem(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::SRem, lhs, rhs)
    }

    /// Bitwise and.
    pub fn and(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::And, lhs, rhs)
    }

    /// Bitwise or.
    pub fn or(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Or, lhs, rhs)
    }

    /// Bitwise exclusive or.
    pub fn xor(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Xor, lhs, rhs)
    }

    /// Left shift.
    pub fn shl(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Shl, lhs, rhs)
    }

    /// Logical right shift.
    pub fn lshr(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::LShr, lhs, rhs)
    }

    /// Arithmetic right shift.
    pub fn ashr(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::AShr, lhs, rhs)
    }

    /// Equality; yields a width-1 value.
    pub fn eq(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Eq, lhs, rhs)
    }

    /// Disequality; yields a width-1 value.
    pub fn ne(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Ne, lhs, rhs)
    }

    /// Unsigned less-than; yields a width-1 value.
    pub fn ult(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Ult, lhs, rhs)
    }

    /// Unsigned less-or-equal; yields a width-1 value.
    pub fn ule(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Ule, lhs, rhs)
    }

    /// Signed less-than; yields a width-1 value.
    pub fn slt(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Slt, lhs, rhs)
    }

    /// Signed less-or-equal; yields a width-1 value.
    pub fn sle(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::binary(BinOp::Sle, lhs, rhs)
    }

    /// Unsigned greater-than (encoded as a swapped [`Expr::ult`]).
    pub fn ugt(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::ult(rhs, lhs)
    }

    /// Unsigned greater-or-equal (encoded as a swapped [`Expr::ule`]).
    pub fn uge(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Self::ule(rhs, lhs)
    }

    /// Bitwise complement; boolean negation on width-1 values.
    pub fn not(arg: ExprRef) -> ExprRef {
        if let ExprKind::Const { value, width } = arg.kind() {
            return Expr::const_(!value, *width);
        }
        // ¬¬x → x
        if let ExprKind::Unary {
            op: UnOp::Not,
            arg: inner,
        } = arg.kind()
        {
            return inner.clone();
        }
        // Negating a comparison flips the operator instead of wrapping.
        if let ExprKind::Binary { op, lhs, rhs } = arg.kind() {
            if arg.width() == Width::BOOL {
                let flipped = match op {
                    BinOp::Eq => Some(BinOp::Ne),
                    BinOp::Ne => Some(BinOp::Eq),
                    BinOp::Ult => Some(BinOp::Ule), // ¬(a<b) ≡ b≤a, swap below
                    BinOp::Ule => Some(BinOp::Ult),
                    BinOp::Slt => Some(BinOp::Sle),
                    BinOp::Sle => Some(BinOp::Slt),
                    _ => None,
                };
                if let Some(f) = flipped {
                    return match f {
                        BinOp::Eq | BinOp::Ne => Self::binary(f, lhs.clone(), rhs.clone()),
                        // ¬(a < b) = b <= a and ¬(a <= b) = b < a.
                        _ => Self::binary(f, rhs.clone(), lhs.clone()),
                    };
                }
            }
        }
        Self::mk(ExprKind::Unary { op: UnOp::Not, arg })
    }

    /// Two's-complement negation.
    pub fn neg(arg: ExprRef) -> ExprRef {
        if let ExprKind::Const { value, width } = arg.kind() {
            return Expr::const_(value.wrapping_neg(), *width);
        }
        Self::mk(ExprKind::Unary { op: UnOp::Neg, arg })
    }

    /// Boolean conjunction of width-1 terms.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless both operands have width 1.
    pub fn and_bool(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        debug_assert_eq!(lhs.width(), Width::BOOL);
        debug_assert_eq!(rhs.width(), Width::BOOL);
        Self::and(lhs, rhs)
    }

    /// Boolean disjunction of width-1 terms. See [`Expr::and_bool`].
    pub fn or_bool(lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        debug_assert_eq!(lhs.width(), Width::BOOL);
        debug_assert_eq!(rhs.width(), Width::BOOL);
        Self::or(lhs, rhs)
    }

    /// If-then-else over a width-1 condition.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `cond` has width 1 and the branches
    /// share a width.
    pub fn ite(cond: ExprRef, then: ExprRef, els: ExprRef) -> ExprRef {
        debug_assert_eq!(cond.width(), Width::BOOL);
        debug_assert_eq!(then.width(), els.width());
        if let ExprKind::Const { value, .. } = cond.kind() {
            return if *value == 1 { then } else { els };
        }
        if then == els {
            return then;
        }
        Self::mk(ExprKind::Ite { cond, then, els })
    }

    /// Zero-extends to `to`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `to` is narrower than the operand.
    pub fn zext(arg: ExprRef, to: Width) -> ExprRef {
        debug_assert!(to >= arg.width());
        Self::cast(CastOp::Zext, arg, to)
    }

    /// Sign-extends to `to`. See [`Expr::zext`] for width requirements.
    pub fn sext(arg: ExprRef, to: Width) -> ExprRef {
        debug_assert!(to >= arg.width());
        Self::cast(CastOp::Sext, arg, to)
    }

    /// Truncates to `to`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `to` is wider than the operand.
    pub fn trunc(arg: ExprRef, to: Width) -> ExprRef {
        debug_assert!(to <= arg.width());
        Self::cast(CastOp::Trunc, arg, to)
    }

    pub(crate) fn cast(op: CastOp, arg: ExprRef, to: Width) -> ExprRef {
        if arg.width() == to {
            return arg;
        }
        if let ExprKind::Const { value, width } = arg.kind() {
            let v = match op {
                CastOp::Zext | CastOp::Trunc => to.truncate(*value),
                CastOp::Sext => to.truncate(width.to_signed(*value) as u64),
            };
            return Expr::const_(v, to);
        }
        Self::mk(ExprKind::Cast { op, to, arg })
    }

    pub(crate) fn binary(op: BinOp, lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        debug_assert_eq!(
            lhs.width(),
            rhs.width(),
            "operand width mismatch for {op:?}: {} vs {}",
            lhs.width(),
            rhs.width()
        );
        let w = lhs.width();
        let out_w = if op.is_comparison() { Width::BOOL } else { w };

        // Constant folding.
        if let (ExprKind::Const { value: a, .. }, ExprKind::Const { value: b, .. }) =
            (lhs.kind(), rhs.kind())
        {
            return Expr::const_(eval_binop(op, *a, *b, w), out_w);
        }

        // Cheap identities (only ones that are valid for all operands).
        if let ExprKind::Const { value: b, .. } = rhs.kind() {
            match (op, *b) {
                (
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Or
                    | BinOp::Xor
                    | BinOp::Shl
                    | BinOp::LShr
                    | BinOp::AShr,
                    0,
                ) => {
                    return lhs;
                }
                (BinOp::Mul, 1) | (BinOp::UDiv, 1) => return lhs,
                (BinOp::Mul | BinOp::And, 0) => return Expr::const_(0, w),
                (BinOp::And, m) if m == w.mask() => return lhs,
                (BinOp::Or, m) if m == w.mask() => return Expr::const_(m, w),
                (BinOp::Ult, 0) => return Expr::false_(), // x < 0 unsigned
                (BinOp::Ule, m) if m == w.mask() => return Expr::true_(),
                _ => {}
            }
        }
        if let ExprKind::Const { value: a, .. } = lhs.kind() {
            match (op, *a) {
                (BinOp::Add | BinOp::Or | BinOp::Xor, 0) => return rhs,
                (BinOp::Mul, 1) => return rhs,
                (BinOp::Mul | BinOp::And, 0) => return Expr::const_(0, w),
                (BinOp::And, m) if m == w.mask() => return rhs,
                (BinOp::Ule, 0) => return Expr::true_(), // 0 <= x unsigned
                _ => {}
            }
        }
        if lhs == rhs {
            match op {
                BinOp::Eq | BinOp::Ule | BinOp::Sle => return Expr::true_(),
                BinOp::Ne | BinOp::Ult | BinOp::Slt => return Expr::false_(),
                BinOp::Sub | BinOp::Xor => return Expr::const_(0, w),
                BinOp::And | BinOp::Or => return lhs,
                _ => {}
            }
        }

        Self::mk(ExprKind::Binary { op, lhs, rhs })
    }

    // ----- inspection -----------------------------------------------------

    /// The term's structural shape — pattern-match this to destructure.
    pub fn kind(&self) -> &ExprKind {
        &self.kind
    }

    /// The term's width (memoized; O(1)).
    pub fn width(&self) -> Width {
        self.width
    }

    /// The term's free variables with their widths (memoized; O(1)).
    pub fn vars(&self) -> &VarSet {
        &self.vars
    }

    /// Returns the constant value when the term is a constant.
    pub fn as_const(&self) -> Option<u64> {
        match &self.kind {
            ExprKind::Const { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Returns `true` when the term is the width-1 constant 1.
    pub fn is_true(&self) -> bool {
        matches!(&self.kind, ExprKind::Const { value: 1, width } if *width == Width::BOOL)
    }

    /// Returns `true` when the term is the width-1 constant 0.
    pub fn is_false(&self) -> bool {
        matches!(&self.kind, ExprKind::Const { value: 0, width } if *width == Width::BOOL)
    }

    /// Collects the ids of all symbolic variables in the term.
    ///
    /// Reads the memoized [`Expr::vars`] set — no DAG walk.
    pub fn collect_vars(&self, out: &mut BTreeSet<SymId>) {
        out.extend(self.vars.ids());
    }

    /// Returns `true` when the term contains no symbolic variables
    /// (memoized; O(1)).
    pub fn is_concrete(&self) -> bool {
        self.vars.is_empty()
    }

    /// Number of nodes in the term (tree view; shared nodes counted per
    /// occurrence, saturating at `u32::MAX`). Memoized; used for memory
    /// accounting and solver budgets.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Evaluates the term under a (possibly partial) assignment.
    ///
    /// Returns `None` when an unassigned variable is reached.
    pub fn eval(&self, model: &Model) -> Option<u64> {
        match &self.kind {
            ExprKind::Const { value, .. } => Some(*value),
            ExprKind::Sym(v) => model.value_of(v.id()),
            ExprKind::Unary { op, arg } => {
                let a = arg.eval(model)?;
                let w = arg.width();
                Some(match op {
                    UnOp::Not => w.truncate(!a),
                    UnOp::Neg => w.truncate(a.wrapping_neg()),
                })
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit boolean operators so that a partial
                // assignment can still decide the result.
                let w = lhs.width();
                let (a, b) = (lhs.eval(model), rhs.eval(model));
                if w == Width::BOOL {
                    match op {
                        BinOp::And if a == Some(0) || b == Some(0) => return Some(0),
                        BinOp::Or if a == Some(1) || b == Some(1) => return Some(1),
                        _ => {}
                    }
                }
                Some(eval_binop(*op, a?, b?, w))
            }
            ExprKind::Ite { cond, then, els } => {
                match cond.eval(model) {
                    Some(1) => then.eval(model),
                    Some(_) => els.eval(model),
                    None => {
                        // Both branches agreeing still decides the value.
                        let t = then.eval(model)?;
                        let e = els.eval(model)?;
                        (t == e).then_some(t)
                    }
                }
            }
            ExprKind::Cast { op, to, arg } => {
                let a = arg.eval(model)?;
                Some(match op {
                    CastOp::Zext | CastOp::Trunc => to.truncate(a),
                    CastOp::Sext => to.truncate(arg.width().to_signed(a) as u64),
                })
            }
        }
    }
}

/// Evaluates a binary operator over concrete values of width `w`.
pub(crate) fn eval_binop(op: BinOp, a: u64, b: u64, w: Width) -> u64 {
    let t = |v: u64| w.truncate(v);
    let (sa, sb) = (w.to_signed(a), w.to_signed(b));
    match op {
        BinOp::Add => t(a.wrapping_add(b)),
        BinOp::Sub => t(a.wrapping_sub(b)),
        BinOp::Mul => t(a.wrapping_mul(b)),
        BinOp::UDiv => a.checked_div(b).map(t).unwrap_or_else(|| w.mask()),
        BinOp::URem => a.checked_rem(b).map(t).unwrap_or(a),
        BinOp::SDiv => {
            if sb == 0 {
                if sa >= 0 {
                    w.mask() // -1
                } else {
                    1
                }
            } else {
                t(sa.wrapping_div(sb) as u64)
            }
        }
        BinOp::SRem => {
            if sb == 0 {
                a
            } else {
                t(sa.wrapping_rem(sb) as u64)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= u64::from(w.bits()) {
                0
            } else {
                t(a << b)
            }
        }
        BinOp::LShr => {
            if b >= u64::from(w.bits()) {
                0
            } else {
                a >> b
            }
        }
        BinOp::AShr => {
            if b >= u64::from(w.bits()) {
                if sa < 0 {
                    w.mask()
                } else {
                    0
                }
            } else {
                t((sa >> b) as u64)
            }
        }
        BinOp::Eq => u64::from(a == b),
        BinOp::Ne => u64::from(a != b),
        BinOp::Ult => u64::from(a < b),
        BinOp::Ule => u64::from(a <= b),
        BinOp::Slt => u64::from(sa < sb),
        BinOp::Sle => u64::from(sa <= sb),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExprKind::Const { value, width } => write!(f, "{value}:{width}"),
            ExprKind::Sym(v) => write!(f, "{v}"),
            ExprKind::Unary { op, arg } => {
                let name = match op {
                    UnOp::Not => "not",
                    UnOp::Neg => "neg",
                };
                write!(f, "({name} {arg})")
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let name = match op {
                    BinOp::Add => "add",
                    BinOp::Sub => "sub",
                    BinOp::Mul => "mul",
                    BinOp::UDiv => "udiv",
                    BinOp::URem => "urem",
                    BinOp::SDiv => "sdiv",
                    BinOp::SRem => "srem",
                    BinOp::And => "and",
                    BinOp::Or => "or",
                    BinOp::Xor => "xor",
                    BinOp::Shl => "shl",
                    BinOp::LShr => "lshr",
                    BinOp::AShr => "ashr",
                    BinOp::Eq => "=",
                    BinOp::Ne => "!=",
                    BinOp::Ult => "u<",
                    BinOp::Ule => "u<=",
                    BinOp::Slt => "s<",
                    BinOp::Sle => "s<=",
                };
                write!(f, "({name} {lhs} {rhs})")
            }
            ExprKind::Ite { cond, then, els } => write!(f, "(ite {cond} {then} {els})"),
            ExprKind::Cast { op, to, arg } => {
                let name = match op {
                    CastOp::Zext => "zext",
                    CastOp::Sext => "sext",
                    CastOp::Trunc => "trunc",
                };
                write!(f, "({name} {arg} {to})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    fn c(v: u64, w: Width) -> ExprRef {
        Expr::const_(v, w)
    }

    #[test]
    fn constant_folding() {
        let e = Expr::add(c(200, Width::W8), c(100, Width::W8));
        assert_eq!(e.as_const(), Some(44)); // wraps mod 256
        let e = Expr::mul(c(16, Width::W8), c(16, Width::W8));
        assert_eq!(e.as_const(), Some(0));
        let e = Expr::ult(c(3, Width::W8), c(4, Width::W8));
        assert!(e.is_true());
        let e = Expr::slt(c(0xff, Width::W8), c(0, Width::W8)); // -1 < 0 signed
        assert!(e.is_true());
    }

    #[test]
    fn identities_fold_away() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        assert_eq!(Expr::add(x.clone(), c(0, Width::W8)), x);
        assert_eq!(Expr::mul(x.clone(), c(1, Width::W8)), x);
        assert!(Expr::mul(x.clone(), c(0, Width::W8)).as_const() == Some(0));
        assert!(Expr::eq(x.clone(), x.clone()).is_true());
        assert!(Expr::ne(x.clone(), x.clone()).is_false());
        assert!(Expr::sub(x.clone(), x.clone()).as_const() == Some(0));
        assert!(Expr::ult(x.clone(), c(0, Width::W8)).is_false());
    }

    #[test]
    fn not_flips_comparisons() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let lt = Expr::ult(x.clone(), c(5, Width::W8));
        let not_lt = Expr::not(lt);
        // ¬(x < 5) ≡ 5 <= x
        match not_lt.kind() {
            ExprKind::Binary {
                op: BinOp::Ule,
                lhs,
                ..
            } => {
                assert_eq!(lhs.as_const(), Some(5));
            }
            other => panic!("expected ule, got {other:?}"),
        }
        // Double negation cancels.
        let eq = Expr::eq(x.clone(), c(1, Width::W8));
        assert_eq!(Expr::not(Expr::not(eq.clone())), eq);
    }

    #[test]
    fn casts() {
        assert_eq!(
            Expr::zext(c(0xff, Width::W8), Width::W16).as_const(),
            Some(0xff)
        );
        assert_eq!(
            Expr::sext(c(0xff, Width::W8), Width::W16).as_const(),
            Some(0xffff)
        );
        assert_eq!(
            Expr::trunc(c(0x1234, Width::W16), Width::W8).as_const(),
            Some(0x34)
        );
        // Cast to the same width is the identity.
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        assert_eq!(Expr::zext(x.clone(), Width::W8), x);
    }

    #[test]
    fn ite_simplification() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let y = Expr::sym(t.fresh("y", Width::W8));
        assert_eq!(Expr::ite(Expr::true_(), x.clone(), y.clone()), x);
        assert_eq!(Expr::ite(Expr::false_(), x.clone(), y.clone()), y);
        let cond = Expr::eq(x.clone(), y.clone());
        assert_eq!(Expr::ite(cond, x.clone(), x.clone()), x);
    }

    #[test]
    fn division_conventions() {
        assert_eq!(eval_binop(BinOp::UDiv, 5, 0, Width::W8), 0xff);
        assert_eq!(eval_binop(BinOp::URem, 5, 0, Width::W8), 5);
        assert_eq!(eval_binop(BinOp::SDiv, 0x80, 0xff, Width::W8), 0x80); // MIN/-1 wraps
        assert_eq!(eval_binop(BinOp::UDiv, 7, 2, Width::W8), 3);
        assert_eq!(
            eval_binop(BinOp::SDiv, 0xf9, 2, Width::W8),
            Width::W8.truncate(-3i64 as u64)
        );
    }

    #[test]
    fn shift_conventions() {
        assert_eq!(eval_binop(BinOp::Shl, 1, 9, Width::W8), 0);
        assert_eq!(eval_binop(BinOp::LShr, 0x80, 9, Width::W8), 0);
        assert_eq!(eval_binop(BinOp::AShr, 0x80, 9, Width::W8), 0xff);
        assert_eq!(eval_binop(BinOp::AShr, 0x80, 1, Width::W8), 0xc0);
    }

    #[test]
    fn eval_under_model() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let x = Expr::sym(xv.clone());
        let e = Expr::add(Expr::mul(x.clone(), c(2, Width::W8)), c(1, Width::W8));
        let mut m = Model::new();
        assert_eq!(e.eval(&m), None);
        m.assign(xv.id(), 10);
        assert_eq!(e.eval(&m), Some(21));
    }

    #[test]
    fn partial_eval_short_circuits() {
        let mut t = SymbolTable::new();
        let a = Expr::sym(t.fresh("a", Width::BOOL));
        let b = t.fresh("b", Width::BOOL);
        let e = Expr::and_bool(a.clone(), Expr::sym(b.clone()));
        let mut m = Model::new();
        m.assign(b.id(), 0);
        assert_eq!(e.eval(&m), Some(0)); // false ∧ unknown = false
        let e = Expr::or_bool(a, Expr::sym(b.clone()));
        let mut m = Model::new();
        m.assign(b.id(), 1);
        assert_eq!(e.eval(&m), Some(1));
    }

    #[test]
    fn collect_vars_finds_all() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let e = Expr::add(Expr::sym(xv.clone()), Expr::sym(yv.clone()));
        let mut vars = BTreeSet::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&xv.id()));
        assert!(vars.contains(&yv.id()));
        assert!(!e.is_concrete());
        assert!(c(1, Width::W8).is_concrete());
    }

    #[test]
    fn memos_match_recomputation() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let x = Expr::sym(xv.clone());
        let y = Expr::sym(yv.clone());
        let e = Expr::ite(
            Expr::ult(x.clone(), y.clone()),
            Expr::add(x.clone(), y.clone()),
            Expr::zext(Expr::trunc(y.clone(), Width::BOOL), Width::W8),
        );
        // vars memo = {x, y} with widths.
        assert_eq!(e.vars().len(), 2);
        assert!(e.vars().contains(xv.id()));
        let widths: Vec<Width> = e.vars().iter().map(|(_, w)| w).collect();
        assert_eq!(widths, [Width::W8, Width::W8]);
        // node count memo matches a manual tree count:
        // ite(1) + ult(1)+x+y + add(1)+x+y + zext(1)+trunc(1)+y = 10
        assert_eq!(e.node_count(), 10);
        // width memo matches the shape.
        assert_eq!(e.width(), Width::W8);
        // Equality ignores memos: an identical shape built via from_kind
        // compares equal.
        let raw = Expr::from_kind(e.kind().clone());
        assert_eq!(&raw, &*e);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |e: &Expr| {
            let mut s = DefaultHasher::new();
            e.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&raw), h(&e));
    }

    #[test]
    fn display_is_readable() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let e = Expr::ult(x, c(50, Width::W8));
        assert_eq!(e.to_string(), "(u< x#0 50:i8)");
    }
}
