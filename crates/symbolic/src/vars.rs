//! Memoized free-variable sets.
//!
//! Every [`Expr`](crate::Expr) node stores the set of symbolic variables
//! occurring in it, computed **once at construction time** as the union of
//! its children's sets. Consumers that used to walk the whole expression
//! DAG per query (`collect_vars` in the path condition and the solver's
//! independence partitioner) now read an O(1) memo instead — the first
//! layer of the incremental solver stack (DESIGN.md §6).
//!
//! Sets are tiny in practice (a branch constraint mentions one or two
//! variables), so the representation is a sorted shared slice of
//! `(SymId, Width)` pairs rather than a bitset: widths ride along so the
//! solver never re-walks a term to recover variable widths either.

use crate::table::SymId;
use crate::width::Width;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An immutable, sorted set of symbolic variables (with their widths).
///
/// Cloning is one `Arc` bump; unions reuse a side's allocation whenever
/// the result equals that side (the common `term ∪ constant` case).
///
/// # Examples
///
/// ```
/// use sde_symbolic::{Expr, SymbolTable, Width};
///
/// let mut t = SymbolTable::new();
/// let x = Expr::sym(t.fresh("x", Width::W8));
/// let y = Expr::sym(t.fresh("y", Width::W8));
/// let e = Expr::add(x.clone(), y);
/// assert_eq!(e.vars().len(), 2);
/// assert_eq!(Expr::add(x, Expr::const_(1, Width::W8)).vars().len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct VarSet {
    entries: Arc<[(SymId, Width)]>,
}

impl VarSet {
    /// The empty set (shared allocation).
    pub fn empty() -> VarSet {
        static EMPTY: OnceLock<VarSet> = OnceLock::new();
        EMPTY
            .get_or_init(|| VarSet {
                entries: Arc::from(Vec::new()),
            })
            .clone()
    }

    /// The one-variable set.
    pub fn singleton(id: SymId, width: Width) -> VarSet {
        VarSet {
            entries: Arc::from(vec![(id, width)]),
        }
    }

    /// Rebuilds a set from entries that are already sorted by id and
    /// duplicate-free (snapshot decode of sets exported via
    /// [`VarSet::iter`], which yields exactly that order).
    pub(crate) fn from_sorted_entries(entries: Vec<(SymId, Width)>) -> VarSet {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        VarSet {
            entries: Arc::from(entries),
        }
    }

    /// Set union. Reuses `self`'s or `other`'s allocation when the result
    /// is equal to it (one side empty or a subset of the other).
    #[must_use]
    pub fn union(&self, other: &VarSet) -> VarSet {
        if other.is_empty() || Arc::ptr_eq(&self.entries, &other.entries) {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let (a, b) = (&self.entries, &other.entries);
        let mut merged: Vec<(SymId, Width)> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        if merged.len() == a.len() {
            return self.clone();
        }
        if merged.len() == b.len() {
            return other.clone();
        }
        VarSet {
            entries: Arc::from(merged),
        }
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no variable is contained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: SymId) -> bool {
        self.entries.binary_search_by_key(&id, |(v, _)| *v).is_ok()
    }

    /// The variable's *rank*: its position in ascending id order (binary
    /// search). A group's var-set is the rank table of its canonical form
    /// (`canon.rs`).
    pub fn rank_of(&self, id: SymId) -> Option<usize> {
        self.entries.binary_search_by_key(&id, |(v, _)| *v).ok()
    }

    /// The variable of the given rank — the inverse of [`VarSet::rank_of`].
    pub fn nth(&self, rank: usize) -> Option<SymId> {
        self.entries.get(rank).map(|(v, _)| *v)
    }

    /// Iterates over `(variable, width)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, Width)> + '_ {
        self.entries.iter().copied()
    }

    /// Iterates over the variable ids in order.
    pub fn ids(&self) -> impl Iterator<Item = SymId> + '_ {
        self.entries.iter().map(|(v, _)| *v)
    }

    /// The smallest variable id, if any — used as the counterexample
    /// cache's index key.
    pub fn min_var(&self) -> Option<SymId> {
        self.entries.first().map(|(v, _)| *v)
    }

    /// Returns `true` when the two sets share a variable (sorted merge
    /// scan, no allocation).
    pub fn intersects(&self, other: &VarSet) -> bool {
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Returns `true` when every variable of `self` is in `other`.
    pub fn is_subset_of(&self, other: &VarSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let (a, b) = (&self.entries, &other.entries);
        let mut j = 0;
        'outer: for (v, _) in a.iter() {
            while j < b.len() {
                match b[j].0.cmp(v) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.ids()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> VarSet {
        ids.iter().fold(VarSet::empty(), |acc, i| {
            acc.union(&VarSet::singleton(SymId(*i), Width::W8))
        })
    }

    #[test]
    fn union_dedups_and_sorts() {
        let a = vs(&[3, 1]);
        let b = vs(&[2, 3]);
        let u = a.union(&b);
        assert_eq!(u.ids().map(|v| v.index()).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn union_reuses_allocations() {
        let a = vs(&[1, 2]);
        let sub = vs(&[2]);
        let u = a.union(&sub);
        assert!(Arc::ptr_eq(&u.entries, &a.entries), "subset union reuses");
        let e = VarSet::empty();
        assert!(Arc::ptr_eq(&a.union(&e).entries, &a.entries));
        assert!(Arc::ptr_eq(&e.union(&a).entries, &a.entries));
    }

    #[test]
    fn subset_and_intersection() {
        let a = vs(&[1, 3, 5]);
        assert!(vs(&[1, 5]).is_subset_of(&a));
        assert!(!vs(&[1, 2]).is_subset_of(&a));
        assert!(!a.is_subset_of(&vs(&[1, 5])));
        assert!(a.intersects(&vs(&[2, 3])));
        assert!(!a.intersects(&vs(&[2, 4])));
        assert!(!a.intersects(&VarSet::empty()));
        assert!(VarSet::empty().is_subset_of(&a));
    }

    #[test]
    fn accessors() {
        let a = vs(&[4, 2]);
        assert_eq!(a.min_var(), Some(SymId(2)));
        assert!(a.contains(SymId(4)));
        assert!(!a.contains(SymId(3)));
        assert_eq!(a.rank_of(SymId(4)), Some(1));
        assert_eq!(a.rank_of(SymId(3)), None);
        assert_eq!(a.nth(1), Some(SymId(4)));
        assert_eq!(a.nth(2), None);
        assert_eq!(a.iter().count(), 2);
        assert!(VarSet::empty().min_var().is_none());
    }
}
