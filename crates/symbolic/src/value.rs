//! Unboxed run-time values: a constant held inline, or a symbolic term.

use crate::expr::{eval_binop, BinOp, CastOp, Expr, ExprKind, ExprRef, UnOp};
use crate::width::Width;
use std::fmt;
use std::hash::{Hash, Hasher};

/// What a register, a memory byte or a payload word holds: a constant of
/// some width, stored inline, or a shared symbolic term.
///
/// This is KLEE's split between a memory object's concrete byte store and
/// its symbolic overlay, applied to every value the interpreter moves:
/// computing on constants touches no heap, and only a value that depends
/// on a symbolic input is an [`ExprRef`].
///
/// **Invariant: the term variant never holds a constant.** Every way in
/// — [`Value::const_`], `From<ExprRef>`, the operations — normalises, so
/// one constant has exactly one representation and `Eq` / `Hash` are
/// structural. `Hash` feeds a hasher exactly what the equivalent
/// [`ExprRef`] would, so digests over values equal digests over terms.
///
/// The operations fold two constants with the rules of the [`Expr`]
/// smart constructors and otherwise *call* those constructors, so a term
/// built through `Value` is the term `Expr` would have built.
///
/// # Examples
///
/// ```
/// use sde_symbolic::{BinOp, Expr, SymbolTable, Value, Width};
///
/// let sum = Value::const_(200, Width::W8).binop(BinOp::Add, Value::const_(100, Width::W8));
/// assert_eq!(sum.as_const(), Some(44)); // wraps mod 256, no allocation
///
/// let mut t = SymbolTable::new();
/// let x = Expr::sym(t.fresh("x", Width::W8));
/// let v = Value::from(x.clone()).binop(BinOp::Add, Value::const_(0, Width::W8));
/// assert_eq!(v.as_term(), Some(&x)); // x + 0 folds to x, as `Expr::add` does
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Value(Repr);

// 16 bytes, and 16 as an `Option`: a fatter heap cell would push the
// persistent map's leaf into the next malloc size class.
#[derive(Debug, PartialEq, Eq)]
enum Repr {
    Const { value: u64, width: Width },
    Term(ExprRef),
}

// Written out, not derived: the derive copies a constant's width and the
// padding behind it as one 7-byte piece (two overlapping 4-byte moves),
// which cannot be forwarded from the byte store that just wrote the
// width — a pipeline stall on every read of a freshly written register,
// 2× on the interpreter's concrete loop. Field by field, each load
// matches a store.
impl Clone for Value {
    #[inline]
    fn clone(&self) -> Value {
        match &self.0 {
            Repr::Const { value, width } => Value(Repr::Const {
                value: *value,
                width: *width,
            }),
            Repr::Term(e) => Value(Repr::Term(e.clone())),
        }
    }
}

impl From<ExprRef> for Value {
    fn from(e: ExprRef) -> Value {
        match e.kind() {
            ExprKind::Const { value, width } => Value(Repr::Const {
                value: *value,
                width: *width,
            }),
            _ => Value(Repr::Term(e)),
        }
    }
}

impl From<Value> for ExprRef {
    fn from(v: Value) -> ExprRef {
        match v.0 {
            Repr::Const { value, width } => Expr::const_(value, width),
            Repr::Term(e) => e,
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Repr::Const { value, width } => ExprKind::Const {
                value: *value,
                width: *width,
            }
            .hash(state),
            Repr::Term(e) => e.hash(state),
        }
    }
}

impl Value {
    /// A constant of width `w` (the value is truncated to `w`).
    pub fn const_(value: u64, w: Width) -> Value {
        Value(Repr::Const {
            value: w.truncate(value),
            width: w,
        })
    }

    /// The constant's value when this is a constant.
    pub fn as_const(&self) -> Option<u64> {
        match &self.0 {
            Repr::Const { value, .. } => Some(*value),
            Repr::Term(_) => None,
        }
    }

    /// The term when this is not a constant.
    pub fn as_term(&self) -> Option<&ExprRef> {
        match &self.0 {
            Repr::Const { .. } => None,
            Repr::Term(e) => Some(e),
        }
    }

    /// The equivalent term (allocates one node for a constant).
    pub fn to_expr(&self) -> ExprRef {
        self.clone().into()
    }

    /// The value's width.
    pub fn width(&self) -> Width {
        match &self.0 {
            Repr::Const { width, .. } => *width,
            Repr::Term(e) => e.width(),
        }
    }

    /// Returns `true` when the value mentions no symbolic variable.
    pub fn is_concrete(&self) -> bool {
        match &self.0 {
            Repr::Const { .. } => true,
            Repr::Term(e) => e.is_concrete(),
        }
    }

    /// Whether `other` is this very value: an equal constant, or the same
    /// shared term. Terms compare by pointer, never by structure, so the
    /// answer costs one comparison and `false` may hide an equal term.
    pub fn is_same(&self, other: &Value) -> bool {
        match (&self.0, &other.0) {
            (Repr::Term(a), Repr::Term(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => self == other,
        }
    }

    /// `self op rhs`; comparison operators yield width 1.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when operand widths differ.
    pub fn binop(self, op: BinOp, rhs: Value) -> Value {
        if let (
            Repr::Const { value: a, width },
            Repr::Const {
                value: b,
                width: rw,
            },
        ) = (&self.0, &rhs.0)
        {
            debug_assert_eq!(width, rw, "operand width mismatch for {op:?}");
            let out_w = if op.is_comparison() {
                Width::BOOL
            } else {
                *width
            };
            return Value::const_(eval_binop(op, *a, *b, *width), out_w);
        }
        Expr::binary(op, self.into(), rhs.into()).into()
    }

    /// `op self`.
    pub fn unop(self, op: UnOp) -> Value {
        match (op, self.0) {
            (UnOp::Not, Repr::Const { value, width }) => Value::const_(!value, width),
            (UnOp::Neg, Repr::Const { value, width }) => Value::const_(value.wrapping_neg(), width),
            (UnOp::Not, Repr::Term(e)) => Expr::not(e).into(),
            (UnOp::Neg, Repr::Term(e)) => Expr::neg(e).into(),
        }
    }

    /// Casts to width `to`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when an extension narrows or a truncation
    /// widens.
    pub fn cast(self, op: CastOp, to: Width) -> Value {
        match op {
            CastOp::Zext | CastOp::Sext => debug_assert!(to >= self.width()),
            CastOp::Trunc => debug_assert!(to <= self.width()),
        }
        match self.0 {
            Repr::Const { width, .. } if width == to => self,
            Repr::Const { value, width } => Value::const_(
                match op {
                    CastOp::Zext | CastOp::Trunc => value,
                    CastOp::Sext => width.to_signed(value) as u64,
                },
                to,
            ),
            Repr::Term(e) => Expr::cast(op, e, to).into(),
        }
    }

    /// `cond ? then : els` over a width-1 condition.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `cond` has width 1 and the branches
    /// share a width.
    pub fn ite(cond: Value, then: Value, els: Value) -> Value {
        debug_assert_eq!(cond.width(), Width::BOOL);
        debug_assert_eq!(then.width(), els.width());
        match cond.0 {
            Repr::Const { value: 1, .. } => then,
            Repr::Const { .. } => els,
            Repr::Term(c) => Expr::ite(c, then.into(), els.into()).into(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Const { value, width } => write!(f, "{value}:{width}"),
            Repr::Term(e) => e.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;
    use std::collections::hash_map::DefaultHasher;

    const BINOPS: [BinOp; 19] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::UDiv,
        BinOp::URem,
        BinOp::SDiv,
        BinOp::SRem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Ult,
        BinOp::Ule,
        BinOp::Slt,
        BinOp::Sle,
    ];
    const CASTS: [CastOp; 3] = [CastOp::Zext, CastOp::Sext, CastOp::Trunc];
    const WIDTHS: [Width; 5] = [Width::BOOL, Width::W8, Width::W16, Width::W32, Width::W64];

    /// Edge operands of width `w` (0, 1, all-ones, the sign bit and its
    /// neighbours, `w` itself as a shift amount) plus seeded random ones.
    fn operands(w: Width, rng: &mut u64) -> Vec<u64> {
        let mut out = vec![
            0,
            1,
            w.mask(),
            w.sign_bit(),
            w.sign_bit().wrapping_sub(1),
            w.sign_bit() | 1,
            u64::from(w.bits()),
            u64::from(w.bits()) - 1,
            u64::from(w.bits()) + 1,
        ];
        for _ in 0..12 {
            // splitmix64
            *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.push(z ^ (z >> 31));
        }
        out.iter().map(|v| w.truncate(*v)).collect()
    }

    fn unary(op: UnOp, e: ExprRef) -> ExprRef {
        match op {
            UnOp::Not => Expr::not(e),
            UnOp::Neg => Expr::neg(e),
        }
    }

    fn cast_applies(op: CastOp, from: Width, to: Width) -> bool {
        match op {
            CastOp::Zext | CastOp::Sext => to >= from,
            CastOp::Trunc => to <= from,
        }
    }

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// The whole contract of one result: it is the normal form of the
    /// term the `Expr` constructors build, and it hashes like that term.
    #[track_caller]
    fn assert_is(value: Value, expected: ExprRef) {
        assert_eq!(value, Value::from(expected.clone()));
        assert_eq!(value.to_expr(), expected);
        assert_eq!(value.as_const(), expected.as_const());
        assert_eq!(value.as_term().is_some(), expected.as_const().is_none());
        assert_eq!(value.width(), expected.width());
        assert_eq!(hash_of(&value), hash_of(&expected));
        assert_eq!(hash_of(&Some(value)), hash_of(&Some(expected)));
    }

    #[test]
    fn cell_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 16);
    }

    #[test]
    fn is_same_is_constant_equality_or_term_identity() {
        let c = Value::const_(7, Width::W8);
        assert!(c.is_same(&Value::const_(7, Width::W8)));
        assert!(!c.is_same(&Value::const_(7, Width::W16)));
        assert!(!c.is_same(&Value::const_(8, Width::W8)));
        let mut t = SymbolTable::new();
        let var = t.fresh("x", Width::W8);
        let x = Value::from(Expr::sym(var.clone()));
        assert!(x.is_same(&x.clone()));
        assert!(!x.is_same(&c) && !c.is_same(&x));
        let twin = Value::from(Expr::sym(var));
        assert_eq!(x, twin);
        assert!(!x.is_same(&twin), "an equal term behind another pointer");
    }

    #[test]
    fn constant_ops_equal_the_expr_constructors() {
        let mut rng = 0x5eed_u64;
        for w in WIDTHS {
            let xs = operands(w, &mut rng);
            for &a in &xs {
                let (va, ea) = (Value::const_(a, w), Expr::const_(a, w));
                for op in [UnOp::Not, UnOp::Neg] {
                    assert_is(va.clone().unop(op), unary(op, ea.clone()));
                }
                for to in WIDTHS {
                    for op in CASTS.into_iter().filter(|op| cast_applies(*op, w, to)) {
                        assert_is(va.clone().cast(op, to), Expr::cast(op, ea.clone(), to));
                    }
                }
                for &b in &xs {
                    let (vb, eb) = (Value::const_(b, w), Expr::const_(b, w));
                    for op in BINOPS {
                        assert_is(
                            va.clone().binop(op, vb.clone()),
                            Expr::binary(op, ea.clone(), eb.clone()),
                        );
                    }
                }
                let c = Value::const_(a & 1, Width::BOOL);
                let other = Value::const_(!a, w);
                assert_is(
                    Value::ite(c.clone(), va.clone(), other.clone()),
                    Expr::ite(c.to_expr(), ea.clone(), other.to_expr()),
                );
            }
        }
    }

    #[test]
    fn mixed_ops_build_the_expr_constructors_terms() {
        let mut t = SymbolTable::new();
        let mut rng = 0xfeed_u64;
        for w in WIDTHS {
            let x = Expr::sym(t.fresh("x", w));
            let y = Expr::sym(t.fresh("y", w));
            let terms = [
                x.clone(),
                y.clone(),
                Expr::add(x.clone(), y.clone()),
                Expr::not(x.clone()),
            ];
            // Identity operands (`x + 0`, `x & mask`, `x * 1`, …) are the
            // first entries of `operands`.
            let consts = operands(w, &mut rng);
            for e in &terms {
                let v = Value::from(e.clone());
                assert_is(v.clone(), e.clone());
                for op in [UnOp::Not, UnOp::Neg] {
                    assert_is(v.clone().unop(op), unary(op, e.clone()));
                }
                for to in WIDTHS {
                    for op in CASTS.into_iter().filter(|op| cast_applies(*op, w, to)) {
                        assert_is(v.clone().cast(op, to), Expr::cast(op, e.clone(), to));
                    }
                }
                for op in BINOPS {
                    for &k in &consts {
                        let (vk, ek) = (Value::const_(k, w), Expr::const_(k, w));
                        assert_is(
                            v.clone().binop(op, vk.clone()),
                            Expr::binary(op, e.clone(), ek.clone()),
                        );
                        assert_is(vk.binop(op, v.clone()), Expr::binary(op, ek, e.clone()));
                    }
                    for f in &terms {
                        assert_is(
                            v.clone().binop(op, Value::from(f.clone())),
                            Expr::binary(op, e.clone(), f.clone()),
                        );
                    }
                }
            }
            // ite: constant and symbolic conditions, equal and distinct
            // arms, constant and symbolic arms.
            let cond = Expr::ult(x.clone(), y.clone());
            let arms = [x.clone(), y.clone(), Expr::const_(consts[9], w)];
            for c in [cond, Expr::true_(), Expr::false_()] {
                for a in &arms {
                    for b in &arms {
                        assert_is(
                            Value::ite(c.clone().into(), a.clone().into(), b.clone().into()),
                            Expr::ite(c.clone(), a.clone(), b.clone()),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eq_and_hash_agree_with_the_terms() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let y = Expr::sym(t.fresh("y", Width::W8));
        let exprs = [
            Expr::const_(0, Width::W8),
            Expr::const_(0, Width::W16),
            Expr::const_(1, Width::W8),
            Expr::false_(),
            x.clone(),
            y.clone(),
            Expr::add(x.clone(), y.clone()),
            Expr::add(y.clone(), x.clone()),
            Expr::add(x.clone(), Expr::const_(1, Width::W8)),
        ];
        for a in &exprs {
            for b in &exprs {
                let (va, vb) = (Value::from(a.clone()), Value::from(b.clone()));
                assert_eq!(va == vb, a == b, "{a} vs {b}");
                assert_eq!(hash_of(&va) == hash_of(&vb), hash_of(a) == hash_of(b));
            }
        }
    }

    #[test]
    fn a_constant_has_one_representation() {
        // A raw shape the smart constructors would have folded still
        // normalises on the way in.
        let raw: ExprRef = std::sync::Arc::new(Expr::from_kind(ExprKind::Const {
            value: 7,
            width: Width::W8,
        }));
        let v = Value::from(raw);
        assert!(v.as_term().is_none());
        assert_eq!(v, Value::const_(7, Width::W8));
        assert_eq!(Value::const_(0x1ff, Width::W8).as_const(), Some(0xff));
        assert_ne!(Value::const_(1, Width::W8), Value::const_(1, Width::W16));
        assert_eq!(v.to_string(), "7:i8");
        assert!(v.is_concrete());
    }
}
