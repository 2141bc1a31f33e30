//! Canonical forms of constraint groups, modulo order-preserving symbol
//! renaming — the key scheme of the solver's exact cache (DESIGN.md §6).
//!
//! Forked copies of a sender re-run the same `make_symbolic` and mint a
//! fresh symbol for the same input, so the solver is asked the same
//! constraint *shape* again and again under different [`SymId`]s. The
//! canonical form makes those queries one cache line: every variable of a
//! group is renamed to its **rank** in ascending id order (width kept;
//! name, node and occurrence dropped), and the constraints are put in the
//! order of their renamed forms. A group's memoized [`VarSet`] is sorted by
//! id, so it *is* the rank table.
//!
//! Only order-preserving renamings are identified: the search orders
//! variables by id, so ranks keep its variable order and the answer stays
//! a pure function of the canonical form.
//!
//! The form is held as **words**, not terms: a pre-order walk writes one
//! `u64` per node (kind, operator, widths, a symbol's rank) and a
//! constant's value in a second one, so each constraint's encoding is
//! self-delimiting and a group's form is their concatenation. A lookup
//! walks each real constraint once, reading it *through* the rank table
//! ([`encode`]); hashing and comparing are then flat word-slice
//! operations, and the cache keeps one small allocation per entry. Terms
//! are built from the words ([`decode`]) only when a group is actually
//! solved — from the words alone, which is what makes the purity above
//! hold by construction.

use crate::expr::{Expr, ExprKind, ExprRef};
use crate::model::Model;
use crate::snapshot::{
    binop_from, binop_tag, castop_from, castop_tag, unop_from, unop_tag, CodecError,
};
use crate::table::{SymId, SymVar};
use crate::vars::VarSet;
use crate::width::Width;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

// Node word layout: kind in bits 0–2, operator tag in 3–7, the node's own
// width in 8–14 (constants and symbols), a cast's target width in 15–21,
// a symbol's rank from bit 22 up.
const CONST: u64 = 0;
const SYM: u64 = 1;
const UNARY: u64 = 2;
const BINARY: u64 = 3;
const ITE: u64 = 4;
const CAST: u64 = 5;
const OP_SHIFT: u32 = 3;
const WIDTH_SHIFT: u32 = 8;
const TO_SHIFT: u32 = 15;
const RANK_SHIFT: u32 = 22;

/// The union of the constraints' memoized var-sets: the rank table of the
/// group they form.
pub(crate) fn vars_of(constraints: &[ExprRef]) -> VarSet {
    constraints
        .iter()
        .fold(VarSet::empty(), |acc, c| acc.union(c.vars()))
}

/// Appends the words of `e`'s renamed form under `ranks` to `out`,
/// building no term.
///
/// # Panics
///
/// Panics when `e` mentions a variable outside `ranks` (a group's var-set
/// covers its constraints by construction).
pub(crate) fn encode(e: &Expr, ranks: &VarSet, out: &mut Vec<u64>) {
    let bits = |w: Width| u64::from(w.bits());
    match e.kind() {
        ExprKind::Const { value, width } => {
            out.push(CONST | bits(*width) << WIDTH_SHIFT);
            out.push(*value);
        }
        ExprKind::Sym(v) => {
            let rank = ranks
                .rank_of(v.id())
                .expect("rank table covers the group's variables");
            out.push(SYM | bits(v.width()) << WIDTH_SHIFT | (rank as u64) << RANK_SHIFT);
        }
        ExprKind::Unary { op, arg } => {
            out.push(UNARY | u64::from(unop_tag(*op)) << OP_SHIFT);
            encode(arg, ranks, out);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            out.push(BINARY | u64::from(binop_tag(*op)) << OP_SHIFT);
            encode(lhs, ranks, out);
            encode(rhs, ranks, out);
        }
        ExprKind::Ite { cond, then, els } => {
            out.push(ITE);
            encode(cond, ranks, out);
            encode(then, ranks, out);
            encode(els, ranks, out);
        }
        ExprKind::Cast { op, to, arg } => {
            out.push(CAST | u64::from(castop_tag(*op)) << OP_SHIFT | bits(*to) << TO_SHIFT);
            encode(arg, ranks, out);
        }
    }
}

/// Puts `constraints` in canonical order — the lexicographic order of
/// their encodings, a total order, so arrival order cannot leak into the
/// form — and returns the group's form: the encodings, concatenated.
pub(crate) fn order(constraints: &mut Vec<ExprRef>, ranks: &VarSet) -> Vec<u64> {
    let mut words = Vec::new();
    let mut spans: Vec<(std::ops::Range<usize>, ExprRef)> = constraints
        .drain(..)
        .map(|c| {
            let start = words.len();
            encode(&c, ranks, &mut words);
            (start..words.len(), c)
        })
        .collect();
    spans.sort_by(|(a, _), (b, _)| words[a.clone()].cmp(&words[b.clone()]));
    let mut form = Vec::with_capacity(words.len());
    for (span, c) in spans {
        form.extend_from_slice(&words[span]);
        constraints.push(c);
    }
    form
}

/// The exact-cache key of a form.
pub(crate) fn key(form: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    form.hash(&mut h);
    h.finish()
}

/// Builds the canonical terms a form denotes, one per constraint: every
/// symbol is the anonymous variable whose id is its rank (one shared node
/// per rank). Shapes are built through [`Expr::from_kind`], so no
/// smart-constructor folding can alter them.
///
/// # Panics
///
/// Panics on words [`encode`] cannot have written. Forms never come from
/// outside the program: a snapshot carries terms, and [`check_entry`]
/// re-encodes them.
pub(crate) fn decode(form: &[u64]) -> Vec<ExprRef> {
    let mut decoder = Decoder {
        words: form.iter(),
        symbols: Vec::new(),
    };
    let mut constraints = Vec::new();
    while let Some(head) = decoder.words.next() {
        constraints.push(decoder.term(*head));
    }
    constraints
}

struct Decoder<'a> {
    words: std::slice::Iter<'a, u64>,
    symbols: Vec<Option<ExprRef>>,
}

impl Decoder<'_> {
    fn child(&mut self) -> ExprRef {
        let head = *self.words.next().expect("form ends inside a term");
        self.term(head)
    }

    fn term(&mut self, head: u64) -> ExprRef {
        let op = (head >> OP_SHIFT & 0x1f) as u8;
        let width = |shift: u32| Width::new((head >> shift & 0x7f) as u8).expect("encoded width");
        let kind = match head & 0x7 {
            CONST => ExprKind::Const {
                value: *self.words.next().expect("form ends inside a constant"),
                width: width(WIDTH_SHIFT),
            },
            SYM => {
                let rank = (head >> RANK_SHIFT) as usize;
                if self.symbols.len() <= rank {
                    self.symbols.resize(rank + 1, None);
                }
                return Arc::clone(self.symbols[rank].get_or_insert_with(|| {
                    let id = u32::try_from(rank).expect("ranks are bounded by the symbol id space");
                    Expr::sym(SymVar::from_raw(SymId(id), "", width(WIDTH_SHIFT), 0, 0))
                }));
            }
            UNARY => ExprKind::Unary {
                op: unop_from(op).expect("encoded operator"),
                arg: self.child(),
            },
            BINARY => ExprKind::Binary {
                op: binop_from(op).expect("encoded operator"),
                lhs: self.child(),
                rhs: self.child(),
            },
            ITE => ExprKind::Ite {
                cond: self.child(),
                then: self.child(),
                els: self.child(),
            },
            CAST => ExprKind::Cast {
                op: castop_from(op).expect("encoded operator"),
                to: width(TO_SHIFT),
                arg: self.child(),
            },
            _ => unreachable!("no such node kind"),
        };
        Arc::new(Expr::from_kind(kind))
    }
}

/// Translates a model over ranks (a cached or freshly solved canonical
/// answer) back to the group's real variables.
///
/// # Panics
///
/// Panics when the model assigns a rank outside `ranks`; canonical models
/// only ever mention their own group's ranks ([`check_entry`] enforces it
/// for decoded ones).
pub(crate) fn model_from_ranks(model: &Model, ranks: &VarSet) -> Model {
    model
        .iter()
        .map(|(rank, value)| {
            let id = ranks
                .nth(rank.index() as usize)
                .expect("canonical model stays within its rank table");
            (id, value)
        })
        .collect()
}

/// The inverse of [`model_from_ranks`]: a model over the group's real
/// variables, re-keyed by rank. Assignments to foreign variables are
/// dropped.
pub(crate) fn model_to_ranks(model: &Model, ranks: &VarSet) -> Model {
    model
        .iter()
        .filter_map(|(id, value)| {
            let rank = u32::try_from(ranks.rank_of(id)?).ok()?;
            Some((SymId(rank), value))
        })
        .collect()
}

/// Validates a decoded exact-cache entry and returns its form. The entry
/// must be its own canonical form: symbols anonymous with ids the dense
/// ranks `0..k`, constraints in canonical order, and a model (if any)
/// assigning only those ranks. Anything else would decode and then
/// silently never hit, or index past the rank table on a hit.
pub(crate) fn check_entry(set: &[ExprRef], model: Option<&Model>) -> Result<Vec<u64>, CodecError> {
    let ranks = vars_of(set);
    let mut form = Vec::new();
    let mut ends = vec![0];
    for c in set {
        encode(c, &ranks, &mut form);
        ends.push(form.len());
    }
    // Anonymous symbols whose ids are their ranks, of one width each: the
    // terms are exactly what their own encoding denotes.
    if decode(&form) != set {
        return Err(CodecError::Malformed("exact cache entry symbols"));
    }
    let in_order = ends
        .windows(3)
        .all(|e| form[e[0]..e[1]] <= form[e[1]..e[2]]);
    if !in_order {
        return Err(CodecError::Malformed("exact cache entry order"));
    }
    let in_table = |(rank, _): (SymId, u64)| (rank.index() as usize) < ranks.len();
    if !model.is_none_or(|m| m.iter().all(in_table)) {
        return Err(CodecError::Malformed("exact cache entry model"));
    }
    Ok(form)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    fn form_of(constraints: &[ExprRef]) -> Vec<u64> {
        let mut ordered = constraints.to_vec();
        order(&mut ordered, &vars_of(constraints))
    }

    /// `lo + 3 < hi` over two symbols minted in the given order.
    fn shape(t: &mut SymbolTable, lo_first: bool) -> ExprRef {
        let (a, b) = (
            Expr::sym(t.fresh_keyed("a", Width::W8, 7, 2)),
            Expr::sym(t.fresh("b", Width::W8)),
        );
        let (lo, hi) = if lo_first { (a, b) } else { (b, a) };
        Expr::ult(Expr::add(lo, Expr::const_(3, Width::W8)), hi)
    }

    #[test]
    fn order_preserving_renamings_share_one_form() {
        let mut t = SymbolTable::new();
        let first = shape(&mut t, true);
        t.fresh("gap", Width::W16);
        let second = shape(&mut t, true);
        assert_ne!(first, second);
        let form = form_of(std::slice::from_ref(&first));
        assert_eq!(form, form_of(std::slice::from_ref(&second)));
        // The terms a form denotes are their own canonical form.
        let canonical = decode(&form);
        assert_eq!(canonical[0].to_string(), "(u< (add #0 3:i8) #1)");
        assert_eq!(form_of(&canonical), form);
    }

    #[test]
    fn order_reversing_renamings_do_not() {
        let mut t = SymbolTable::new();
        let forward = shape(&mut t, true);
        let reversed = shape(&mut t, false);
        assert_ne!(
            form_of(std::slice::from_ref(&forward)),
            form_of(std::slice::from_ref(&reversed))
        );
    }

    #[test]
    fn widths_are_part_of_the_form() {
        let mut t = SymbolTable::new();
        let narrow = Expr::sym(t.fresh("x", Width::W8));
        let wide = Expr::trunc(Expr::sym(t.fresh("x", Width::W16)), Width::W8);
        let c = |x: ExprRef| Expr::eq(x, Expr::const_(1, Width::W8));
        assert_ne!(form_of(&[c(narrow)]), form_of(&[c(wide)]));
    }

    #[test]
    fn arrival_order_is_not_part_of_the_form() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let y = Expr::sym(t.fresh("y", Width::W16));
        // Every node kind, so that decode ∘ encode is checked on each.
        let a = Expr::ult(x.clone(), Expr::const_(200, Width::W8));
        let b = Expr::eq(
            Expr::ite(
                Expr::not(a.clone()),
                Expr::zext(Expr::neg(x.clone()), Width::W16),
                y.clone(),
            ),
            Expr::const_(7, Width::W16),
        );
        let c = Expr::ne(Expr::trunc(y, Width::W8), x);
        let form = form_of(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(form, form_of(&[c, a, b]));
        let canonical = decode(&form);
        assert_eq!(canonical.len(), 3);
        assert_eq!(form_of(&canonical), form);
        assert_eq!(check_entry(&canonical, None), Ok(form));
    }

    #[test]
    fn models_translate_both_ways() {
        let ranks =
            VarSet::singleton(SymId(4), Width::W8).union(&VarSet::singleton(SymId(9), Width::W8));
        let real: Model = [(SymId(4), 1), (SymId(9), 2), (SymId(11), 3)]
            .into_iter()
            .collect();
        let by_rank = model_to_ranks(&real, &ranks);
        let expected: Model = [(SymId(0), 1), (SymId(1), 2)].into_iter().collect();
        assert_eq!(by_rank, expected, "foreign variables are dropped");
        let back: Model = [(SymId(4), 1), (SymId(9), 2)].into_iter().collect();
        assert_eq!(model_from_ranks(&by_rank, &ranks), back);
    }

    #[test]
    fn check_entry_accepts_exactly_canonical_forms() {
        let mut t = SymbolTable::new();
        t.fresh("pad", Width::W8);
        let real = shape(&mut t, true);
        let form = form_of(std::slice::from_ref(&real));
        let canonical = decode(&form);
        let model: Model = [(SymId(0), 0), (SymId(1), 4)].into_iter().collect();
        assert_eq!(check_entry(&canonical, Some(&model)), Ok(form));
        // Real (named, non-dense) symbols are not a canonical form.
        assert_eq!(
            check_entry(&[real], None),
            Err(CodecError::Malformed("exact cache entry symbols"))
        );
        let stray: Model = [(SymId(2), 0)].into_iter().collect();
        assert_eq!(
            check_entry(&canonical, Some(&stray)),
            Err(CodecError::Malformed("exact cache entry model"))
        );
    }
}
