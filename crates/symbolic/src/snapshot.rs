//! Binary snapshot codec primitives: a compact, deterministic encoding
//! of expressions, models and scalars shared by every crate that
//! serializes engine state (`sde-vm` states, the solver caches, the
//! engine's checkpoint files).
//!
//! # Expression pool
//!
//! Expressions are DAGs with heavy structural sharing (sibling states
//! share their whole path-condition prefix). A naive tree encoding would
//! blow that sharing up exponentially, so a [`SnapWriter`] interns every
//! distinct `Arc` node into a *pool*: children always precede parents,
//! and the body refers to terms by pool index. [`SnapReader`] decodes the
//! pool eagerly — one fresh `Arc` per pool entry, via
//! [`Expr::from_kind`] so no smart-constructor folding can alter the
//! stored shape — which makes
//! decode ∘ encode the identity on bytes and preserves sharing exactly.
//!
//! A [`Value`] travels as the term it stands for ([`SnapWriter::value`] /
//! [`SnapReader::value`]): an inline constant has no `Arc` to share, so
//! each one written is a pool entry of its own, and every `Const` entry
//! read back through `value` is an inline constant again.
//!
//! # Robustness
//!
//! Every read is bounds-checked and returns [`CodecError`] instead of
//! panicking: snapshot files cross process boundaries and must survive
//! truncation and corruption gracefully.

use crate::expr::{BinOp, CastOp, Expr, ExprKind, ExprRef, UnOp};
use crate::model::Model;
use crate::table::{SymId, SymVar};
use crate::value::Value;
use crate::width::Width;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A decoding failure. Encoding cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// The bytes decoded to an impossible value (bad tag, bad width,
    /// out-of-range pool index, invalid UTF-8, …).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot data truncated"),
            CodecError::Malformed(what) => write!(f, "malformed snapshot data: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes scalars, strings and expression DAGs into one byte buffer.
///
/// Writes go to a *body* section while distinct expression nodes are
/// interned into a pool; [`SnapWriter::finish`] emits the pool followed
/// by the body, so a [`SnapReader`] can rebuild every term before the
/// body is read.
#[derive(Debug, Default)]
pub struct SnapWriter {
    body: Vec<u8>,
    pool: Vec<ExprRef>,
    index: HashMap<usize, u32>,
}

/// Writes `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.body.push(v);
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.body.push(u8::from(v));
    }

    /// Writes an unsigned integer as a LEB128 varint.
    pub fn varint(&mut self, v: u64) {
        put_varint(&mut self.body, v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.body.extend_from_slice(s.as_bytes());
    }

    /// Writes a [`Width`] as its bit count.
    pub fn width(&mut self, w: Width) {
        self.body.push(w.bits());
    }

    /// Writes an expression as a pool reference, interning the whole term
    /// (children first) on first sight.
    pub fn expr(&mut self, e: &ExprRef) {
        let idx = self.intern(e);
        self.varint(u64::from(idx));
    }

    /// Writes a [`Value`] as the term it stands for — the wire format has
    /// no notion of an inline constant. A constant interns a pool entry
    /// of its own per write, as a freshly built `Const` node would.
    pub fn value(&mut self, v: &Value) {
        self.expr(&v.to_expr());
    }

    /// Writes a model as sorted `(variable index, value)` pairs.
    pub fn model(&mut self, m: &Model) {
        self.varint(m.len() as u64);
        for (id, value) in m.iter() {
            self.varint(u64::from(id.index()));
            self.varint(value);
        }
    }

    /// Interns `root` and its transitive children into the pool
    /// (iterative post-order: children always get lower indices).
    fn intern(&mut self, root: &ExprRef) -> u32 {
        let root_key = Arc::as_ptr(root) as usize;
        if let Some(&i) = self.index.get(&root_key) {
            return i;
        }
        let mut stack: Vec<(ExprRef, bool)> = vec![(root.clone(), false)];
        while let Some((e, expanded)) = stack.pop() {
            let key = Arc::as_ptr(&e) as usize;
            if self.index.contains_key(&key) {
                continue;
            }
            if expanded {
                let idx = u32::try_from(self.pool.len()).expect("expression pool overflow");
                self.index.insert(key, idx);
                self.pool.push(e);
                continue;
            }
            match e.kind() {
                ExprKind::Const { .. } | ExprKind::Sym(_) => {}
                ExprKind::Unary { arg, .. } | ExprKind::Cast { arg, .. } => {
                    let arg = arg.clone();
                    stack.push((e, true));
                    stack.push((arg, false));
                    continue;
                }
                ExprKind::Binary { lhs, rhs, .. } => {
                    let (lhs, rhs) = (lhs.clone(), rhs.clone());
                    stack.push((e, true));
                    stack.push((rhs, false));
                    stack.push((lhs, false));
                    continue;
                }
                ExprKind::Ite { cond, then, els } => {
                    let (cond, then, els) = (cond.clone(), then.clone(), els.clone());
                    stack.push((e, true));
                    stack.push((els, false));
                    stack.push((then, false));
                    stack.push((cond, false));
                    continue;
                }
            }
            stack.push((e, true));
        }
        self.index[&root_key]
    }

    /// Emits the pool section followed by the body and consumes the
    /// writer.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + self.pool.len() * 8 + 8);
        put_varint(&mut out, self.pool.len() as u64);
        for e in &self.pool {
            let child = |c: &ExprRef| u64::from(self.index[&(Arc::as_ptr(c) as usize)]);
            match e.kind() {
                ExprKind::Const { value, width } => {
                    out.push(0);
                    put_varint(&mut out, *value);
                    out.push(width.bits());
                }
                ExprKind::Sym(v) => {
                    out.push(1);
                    put_varint(&mut out, u64::from(v.id().index()));
                    put_varint(&mut out, v.name().len() as u64);
                    out.extend_from_slice(v.name().as_bytes());
                    out.push(v.width().bits());
                    put_varint(&mut out, u64::from(v.node()));
                    put_varint(&mut out, u64::from(v.occurrence()));
                }
                ExprKind::Unary { op, arg } => {
                    out.push(2);
                    out.push(unop_tag(*op));
                    put_varint(&mut out, child(arg));
                }
                ExprKind::Binary { op, lhs, rhs } => {
                    out.push(3);
                    out.push(binop_tag(*op));
                    put_varint(&mut out, child(lhs));
                    put_varint(&mut out, child(rhs));
                }
                ExprKind::Ite { cond, then, els } => {
                    out.push(4);
                    put_varint(&mut out, child(cond));
                    put_varint(&mut out, child(then));
                    put_varint(&mut out, child(els));
                }
                ExprKind::Cast { op, to, arg } => {
                    out.push(5);
                    out.push(castop_tag(*op));
                    out.push(to.bits());
                    put_varint(&mut out, child(arg));
                }
            }
        }
        out.extend_from_slice(&self.body);
        out
    }
}

pub(crate) fn unop_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Not => 0,
        UnOp::Neg => 1,
    }
}

pub(crate) fn unop_from(tag: u8) -> Result<UnOp, CodecError> {
    Ok(match tag {
        0 => UnOp::Not,
        1 => UnOp::Neg,
        _ => return Err(CodecError::Malformed("unary operator tag")),
    })
}

pub(crate) fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::UDiv => 3,
        BinOp::URem => 4,
        BinOp::SDiv => 5,
        BinOp::SRem => 6,
        BinOp::And => 7,
        BinOp::Or => 8,
        BinOp::Xor => 9,
        BinOp::Shl => 10,
        BinOp::LShr => 11,
        BinOp::AShr => 12,
        BinOp::Eq => 13,
        BinOp::Ne => 14,
        BinOp::Ult => 15,
        BinOp::Ule => 16,
        BinOp::Slt => 17,
        BinOp::Sle => 18,
    }
}

pub(crate) fn binop_from(tag: u8) -> Result<BinOp, CodecError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::UDiv,
        4 => BinOp::URem,
        5 => BinOp::SDiv,
        6 => BinOp::SRem,
        7 => BinOp::And,
        8 => BinOp::Or,
        9 => BinOp::Xor,
        10 => BinOp::Shl,
        11 => BinOp::LShr,
        12 => BinOp::AShr,
        13 => BinOp::Eq,
        14 => BinOp::Ne,
        15 => BinOp::Ult,
        16 => BinOp::Ule,
        17 => BinOp::Slt,
        18 => BinOp::Sle,
        _ => return Err(CodecError::Malformed("binary operator tag")),
    })
}

pub(crate) fn castop_tag(op: CastOp) -> u8 {
    match op {
        CastOp::Zext => 0,
        CastOp::Sext => 1,
        CastOp::Trunc => 2,
    }
}

pub(crate) fn castop_from(tag: u8) -> Result<CastOp, CodecError> {
    Ok(match tag {
        0 => CastOp::Zext,
        1 => CastOp::Sext,
        2 => CastOp::Trunc,
        _ => return Err(CodecError::Malformed("cast operator tag")),
    })
}

/// Decodes a buffer produced by [`SnapWriter::finish`]: the expression
/// pool is rebuilt eagerly on construction, after which reads mirror the
/// writer's body calls one-for-one.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    pool: Vec<ExprRef>,
}

impl<'a> SnapReader<'a> {
    /// Parses the pool section of `bytes` and positions the cursor at
    /// the start of the body.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the pool section is truncated or
    /// malformed (forward references, bad tags, invalid widths).
    pub fn new(bytes: &'a [u8]) -> Result<SnapReader<'a>, CodecError> {
        let mut r = SnapReader {
            bytes,
            pos: 0,
            pool: Vec::new(),
        };
        let count = r.varint()?;
        // Each pool entry takes at least two bytes; reject absurd counts
        // before reserving memory for them.
        if count > (bytes.len() as u64) {
            return Err(CodecError::Malformed("expression pool count"));
        }
        r.pool.reserve(count as usize);
        for _ in 0..count {
            let kind = match r.u8()? {
                0 => {
                    let value = r.varint()?;
                    let width = r.width()?;
                    ExprKind::Const {
                        value: width.truncate(value),
                        width,
                    }
                }
                1 => {
                    let id = u32::try_from(r.varint()?)
                        .map_err(|_| CodecError::Malformed("symbol id"))?;
                    let name = r.str()?;
                    let width = r.width()?;
                    let node = u16::try_from(r.varint()?)
                        .map_err(|_| CodecError::Malformed("symbol node"))?;
                    let occurrence = u32::try_from(r.varint()?)
                        .map_err(|_| CodecError::Malformed("symbol occurrence"))?;
                    ExprKind::Sym(SymVar::from_raw(SymId(id), &name, width, node, occurrence))
                }
                2 => {
                    let op = unop_from(r.u8()?)?;
                    let arg = r.pool_ref()?;
                    ExprKind::Unary { op, arg }
                }
                3 => {
                    let op = binop_from(r.u8()?)?;
                    let lhs = r.pool_ref()?;
                    let rhs = r.pool_ref()?;
                    ExprKind::Binary { op, lhs, rhs }
                }
                4 => {
                    let cond = r.pool_ref()?;
                    let then = r.pool_ref()?;
                    let els = r.pool_ref()?;
                    ExprKind::Ite { cond, then, els }
                }
                5 => {
                    let op = castop_from(r.u8()?)?;
                    let to = r.width()?;
                    let arg = r.pool_ref()?;
                    ExprKind::Cast { op, to, arg }
                }
                _ => return Err(CodecError::Malformed("expression tag")),
            };
            r.pool.push(Arc::new(Expr::from_kind(kind)));
        }
        Ok(r)
    }

    /// A pool entry written *before* the one currently being decoded.
    fn pool_ref(&mut self) -> Result<ExprRef, CodecError> {
        let idx = self.varint()? as usize;
        self.pool
            .get(idx)
            .cloned()
            .ok_or(CodecError::Malformed("expression pool index"))
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a boolean byte (must be 0 or 1).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("boolean byte")),
        }
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or a varint exceeding 64 bits.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let part = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && part > 1) {
                return Err(CodecError::Malformed("varint overflow"));
            }
            v |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.varint()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|e| *e <= self.bytes.len())
            .ok_or(CodecError::Truncated)?;
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| CodecError::Malformed("string encoding"))?;
        self.pos = end;
        Ok(s.to_string())
    }

    /// Reads a [`Width`] from its bit count.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the bit count is not in `1..=64`.
    pub fn width(&mut self) -> Result<Width, CodecError> {
        Width::new(self.u8()?).ok_or(CodecError::Malformed("width bits"))
    }

    /// Reads an expression by pool index.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or an out-of-range index.
    pub fn expr(&mut self) -> Result<ExprRef, CodecError> {
        let idx = self.varint()? as usize;
        self.pool
            .get(idx)
            .cloned()
            .ok_or(CodecError::Malformed("expression pool index"))
    }

    /// Reads a [`Value`] written by [`SnapWriter::value`] (or any term
    /// written by [`SnapWriter::expr`]), normalised: a `Const` pool entry
    /// decodes to an inline constant.
    pub fn value(&mut self) -> Result<Value, CodecError> {
        Ok(Value::from(self.expr()?))
    }

    /// Reads a model written by [`SnapWriter::model`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or malformed entries.
    pub fn model(&mut self) -> Result<Model, CodecError> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        let mut m = Model::new();
        for _ in 0..len {
            let id =
                u32::try_from(self.varint()?).map_err(|_| CodecError::Malformed("model var id"))?;
            let value = self.varint()?;
            m.assign(SymId(id), value);
        }
        Ok(m)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    fn roundtrip(write: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write(&mut w);
        w.finish()
    }

    #[test]
    fn scalars_roundtrip() {
        let bytes = roundtrip(|w| {
            w.u8(0xab);
            w.bool(true);
            w.varint(0);
            w.varint(127);
            w.varint(128);
            w.varint(u64::MAX);
            w.str("héllo");
            w.width(Width::W32);
        });
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert_eq!(r.varint().unwrap(), 0);
        assert_eq!(r.varint().unwrap(), 127);
        assert_eq!(r.varint().unwrap(), 128);
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.width().unwrap(), Width::W32);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn exprs_roundtrip_with_sharing() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh_keyed("x", Width::W8, 3, 1));
        let y = Expr::sym(t.fresh("y", Width::W8));
        let shared = Expr::add(x.clone(), y.clone());
        let top = Expr::eq(shared.clone(), Expr::mul(shared.clone(), y.clone()));
        let ite = Expr::ite(top.clone(), x.clone(), y.clone());

        let bytes = roundtrip(|w| {
            w.expr(&top);
            w.expr(&ite);
            w.expr(&top); // repeated: same pool index
        });
        let mut r = SnapReader::new(&bytes).unwrap();
        let top2 = r.expr().unwrap();
        let ite2 = r.expr().unwrap();
        let top3 = r.expr().unwrap();
        assert_eq!(*top2, *top);
        assert_eq!(*ite2, *ite);
        assert!(Arc::ptr_eq(&top2, &top3), "repeats decode to one Arc");
        // Hashes must survive the trip: the solver cache keys on them.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |e: &ExprRef| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&top), h(&top2));
        // And the memos.
        assert_eq!(top2.vars().len(), top.vars().len());
        assert_eq!(top2.width(), top.width());
    }

    #[test]
    fn reencode_is_byte_identical() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W16));
        let e = Expr::not(Expr::ult(
            Expr::zext(x.clone(), Width::W32),
            Expr::const_(1000, Width::W32),
        ));
        let bytes = roundtrip(|w| {
            w.expr(&e);
            w.varint(42);
        });
        let mut r = SnapReader::new(&bytes).unwrap();
        let e2 = r.expr().unwrap();
        let v = r.varint().unwrap();
        let bytes2 = roundtrip(|w| {
            w.expr(&e2);
            w.varint(v);
        });
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn model_roundtrip() {
        let m: Model = [(SymId(0), 7), (SymId(9), u64::MAX)].into_iter().collect();
        let bytes = roundtrip(|w| w.model(&m));
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.model().unwrap(), m);
    }

    #[test]
    fn corrupted_input_never_panics() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let bytes = roundtrip(|w| {
            w.expr(&Expr::eq(x, Expr::const_(3, Width::W8)));
            w.str("tail");
        });
        // Truncation at every prefix length.
        for n in 0..bytes.len() {
            let _ = SnapReader::new(&bytes[..n]).map(|mut r| {
                let _ = r.expr();
                let _ = r.str();
            });
        }
        // Single-byte corruption at every position.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5a;
            let _ = SnapReader::new(&bad).map(|mut r| {
                let _ = r.expr();
                let _ = r.str();
            });
        }
    }

    #[test]
    fn malformed_tags_are_typed_errors() {
        // Pool count 1, bogus tag 9.
        assert_eq!(
            SnapReader::new(&[1, 9]).unwrap_err(),
            CodecError::Malformed("expression tag")
        );
        // Pool count far beyond the buffer.
        assert!(matches!(
            SnapReader::new(&[0xff, 0xff, 0x03]).unwrap_err(),
            CodecError::Malformed(_)
        ));
        // Empty input.
        assert_eq!(SnapReader::new(&[]).unwrap_err(), CodecError::Truncated);
        // Forward pool reference: entry 0 is a unary referring to itself.
        assert_eq!(
            SnapReader::new(&[1, 2, 0, 0]).unwrap_err(),
            CodecError::Malformed("expression pool index")
        );
    }
}
