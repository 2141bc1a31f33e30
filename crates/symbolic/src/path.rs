//! Path conditions: the conjunction of branch constraints along one
//! execution path.

use crate::expr::ExprRef;
use crate::model::Model;
use crate::simplify::simplify;
use crate::table::SymId;
use crate::width::Width;
use sde_pds::PList;
use std::collections::BTreeSet;
use std::fmt;

/// An immutable conjunction of width-1 constraints.
///
/// Forked sibling states share the common prefix of their path conditions
/// structurally (one `Arc` per shared constraint), mirroring how KLEE-style
/// engines keep millions of states affordable.
///
/// # Examples
///
/// ```
/// use sde_symbolic::{Expr, PathCondition, SymbolTable, Width};
///
/// let mut t = SymbolTable::new();
/// let x = Expr::sym(t.fresh("x", Width::W8));
/// let pc = PathCondition::new()
///     .with(Expr::ne(x.clone(), Expr::const_(0, Width::W8)))
///     .with(Expr::ult(x, Expr::const_(50, Width::W8)));
/// assert_eq!(pc.len(), 2);
/// assert!(!pc.is_trivially_false());
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PathCondition {
    constraints: PList<ExprRef>,
    /// Set when some added constraint simplified to the constant `false`;
    /// such a path is infeasible without consulting the solver.
    trivially_false: bool,
    /// Sum of the stored constraints' node counts, kept current by
    /// [`PathCondition::with`] so memory accounting never walks the list.
    /// Saturating `u32`, as the per-term counts are; it sits in the
    /// padding behind `trivially_false`, so states do not grow.
    nodes: u32,
}

impl PathCondition {
    /// The empty (always-true) path condition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a new path condition extended with `constraint`.
    ///
    /// The constraint is simplified first; adding a constraint that
    /// simplifies to `true` returns an unchanged clone, and one that
    /// simplifies to `false` marks the result trivially infeasible.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `constraint` has width 1.
    #[must_use]
    pub fn with(&self, constraint: ExprRef) -> Self {
        debug_assert_eq!(constraint.width(), Width::BOOL);
        let c = simplify(&constraint);
        if c.is_true() {
            return self.clone();
        }
        if c.is_false() {
            return PathCondition {
                trivially_false: true,
                ..self.clone()
            };
        }
        PathCondition {
            nodes: self.nodes.saturating_add(node_count_u32(&c)),
            constraints: self.constraints.prepend(c),
            trivially_false: self.trivially_false,
        }
    }

    /// Rebuilds a path condition from its exact stored parts: the
    /// constraints as yielded by [`PathCondition::iter`] (most recent
    /// first) plus the trivially-false marker.
    ///
    /// Unlike [`PathCondition::with`], nothing is re-simplified — the
    /// snapshot codec uses this to restore the *identical* constraint
    /// sequence, so solver cache keys derived from it keep matching
    /// after a resume.
    pub fn from_parts(constraints: Vec<ExprRef>, trivially_false: bool) -> Self {
        let mut list = PList::new();
        let mut nodes: u32 = 0;
        for c in constraints.into_iter().rev() {
            nodes = nodes.saturating_add(node_count_u32(&c));
            list = list.prepend(c);
        }
        PathCondition {
            constraints: list,
            trivially_false,
            nodes,
        }
    }

    /// Number of stored constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` when no constraint is stored (always-true condition).
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty() && !self.trivially_false
    }

    /// Returns `true` when some added constraint simplified to `false`.
    pub fn is_trivially_false(&self) -> bool {
        self.trivially_false
    }

    /// Iterates over the constraints, most recent first.
    pub fn iter(&self) -> impl Iterator<Item = &ExprRef> {
        self.constraints.iter()
    }

    /// Collects the ids of all symbolic variables mentioned.
    ///
    /// Reads each constraint's memoized [`Expr::vars`](crate::Expr::vars)
    /// set — O(total set size), no DAG walks.
    pub fn collect_vars(&self, out: &mut BTreeSet<SymId>) {
        for c in self.iter() {
            c.collect_vars(out);
        }
    }

    /// Evaluates the conjunction under a (possibly partial) model.
    ///
    /// Returns `Some(false)` as soon as one constraint is violated,
    /// `Some(true)` when all constraints evaluate to 1, and `None` when
    /// undecided.
    pub fn eval(&self, model: &Model) -> Option<bool> {
        if self.trivially_false {
            return Some(false);
        }
        let mut all_known = true;
        for c in self.iter() {
            match c.eval(model) {
                Some(1) => {}
                Some(_) => return Some(false),
                None => all_known = false,
            }
        }
        if all_known {
            Some(true)
        } else {
            None
        }
    }

    /// Total number of expression nodes across all constraints (for memory
    /// accounting), saturating at `u32::MAX`. O(1): the sum is carried
    /// along as constraints are added, and per-constraint counts are
    /// memoized at construction time.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Whether the two conditions store the same constraints, each as
    /// often, in any order (the trivially-false marker is not a stored
    /// constraint). Terms compare by structure — no rendering.
    ///
    /// Conditions that met the same branches in the same order are
    /// decided by the in-order walk, which stops at the first list cell
    /// the two share; only orders that differ pay for the matching.
    pub fn same_constraints(&self, other: &Self) -> bool {
        if self.constraints == other.constraints {
            return true;
        }
        if self.len() != other.len() {
            return false;
        }
        let mut unmatched: Vec<&ExprRef> = other.iter().collect();
        self.iter().all(|c| {
            let at = unmatched.iter().position(|d| *d == c);
            at.map(|at| unmatched.swap_remove(at)).is_some()
        })
    }

    /// Returns `true` when the two conditions share their entire constraint
    /// storage (cheap identity test for sibling states).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.trivially_false == other.trivially_false && self.constraints.ptr_eq(&other.constraints)
    }
}

/// A term's memoized node count, which already saturates at `u32::MAX`.
fn node_count_u32(c: &ExprRef) -> u32 {
    u32::try_from(c.node_count()).unwrap_or(u32::MAX)
}

impl fmt::Debug for PathCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.trivially_false {
            write!(f, "PathCondition[FALSE]")?;
        }
        f.debug_list()
            .entries(self.iter().map(|c| c.to_string()))
            .finish()
    }
}

impl fmt::Display for PathCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.trivially_false {
            return write!(f, "false");
        }
        if self.constraints.is_empty() {
            return write!(f, "true");
        }
        let parts: Vec<String> = self.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, SymbolTable};

    #[test]
    fn true_constraints_are_dropped() {
        let pc = PathCondition::new().with(Expr::true_());
        assert!(pc.is_empty());
        assert_eq!(pc.len(), 0);
    }

    #[test]
    fn false_constraint_poisons() {
        let pc = PathCondition::new().with(Expr::false_());
        assert!(pc.is_trivially_false());
        assert_eq!(pc.eval(&Model::new()), Some(false));
    }

    #[test]
    fn eval_conjunction() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let x = Expr::sym(xv.clone());
        let pc = PathCondition::new()
            .with(Expr::ult(x.clone(), Expr::const_(10, Width::W8)))
            .with(Expr::ne(x.clone(), Expr::const_(3, Width::W8)));
        let mut m = Model::new();
        assert_eq!(pc.eval(&m), None);
        m.assign(xv.id(), 5);
        assert_eq!(pc.eval(&m), Some(true));
        m.assign(xv.id(), 3);
        assert_eq!(pc.eval(&m), Some(false));
        m.assign(xv.id(), 10);
        assert_eq!(pc.eval(&m), Some(false));
    }

    #[test]
    fn siblings_share_prefix() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let base = PathCondition::new().with(Expr::ne(x.clone(), Expr::const_(0, Width::W8)));
        let cond = Expr::ult(x.clone(), Expr::const_(50, Width::W8));
        let left = base.with(cond.clone());
        let right = base.with(Expr::not(cond));
        assert_eq!(left.len(), 2);
        assert_eq!(right.len(), 2);
        assert!(!left.ptr_eq(&right));
    }

    #[test]
    fn same_constraints_is_multiset_equality() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let c = |n| Expr::ult(x.clone(), Expr::const_(n, Width::W8));
        let base = PathCondition::new().with(c(90));
        let ab = base.with(c(10)).with(c(20));
        let ba = base.with(c(20)).with(c(10));
        assert!(ab.same_constraints(&ab.clone()), "shared storage");
        assert!(
            ab.same_constraints(&base.with(c(10)).with(c(20))),
            "shared tail"
        );
        assert!(
            ab.same_constraints(&ba) && ba.same_constraints(&ab),
            "permuted"
        );
        assert!(!ab.same_constraints(&base.with(c(10)).with(c(30))));
        assert!(!ab.same_constraints(&base.with(c(10))), "shorter");
        // Multiplicity counts: {10, 10, 20} is not {10, 20, 20}.
        assert!(!ab.with(c(10)).same_constraints(&ab.with(c(20))));
        assert!(ab.with(c(10)).same_constraints(&ba.with(c(10))));
        // The marker is not a stored constraint.
        assert!(ab.same_constraints(&ab.with(Expr::false_())));
    }

    #[test]
    fn vars_and_nodes() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let pc = PathCondition::new()
            .with(Expr::eq(Expr::sym(xv.clone()), Expr::const_(1, Width::W8)))
            .with(Expr::eq(Expr::sym(yv.clone()), Expr::sym(xv.clone())));
        let mut vars = BTreeSet::new();
        pc.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
        assert!(pc.node_count() >= 5);
        let walked: usize = pc.iter().map(|c| c.node_count()).sum();
        assert_eq!(pc.node_count(), walked);
        let rebuilt = PathCondition::from_parts(pc.iter().cloned().collect(), false);
        assert_eq!(rebuilt.node_count(), walked);
    }
}
