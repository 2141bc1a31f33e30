//! Concrete variable assignments (solver models / test cases).

use crate::table::SymId;
use std::collections::BTreeMap;
use std::fmt;

/// A (possibly partial) assignment of concrete values to symbolic
/// variables.
///
/// A complete model of a path condition *is* a test case: feeding these
/// values as the program's inputs replays exactly the path the model was
/// solved from.
///
/// # Examples
///
/// ```
/// use sde_symbolic::{Model, SymbolTable, Width};
///
/// let mut t = SymbolTable::new();
/// let x = t.fresh("x", Width::W8);
/// let mut m = Model::new();
/// m.assign(x.id(), 42);
/// assert_eq!(m.value_of(x.id()), Some(42));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<SymId, u64>,
}

impl Model {
    /// Creates an empty (fully unassigned) model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `value` to `var`, replacing any previous assignment.
    pub fn assign(&mut self, var: SymId, value: u64) {
        self.values.insert(var, value);
    }

    /// Removes the assignment of `var`, if any.
    pub fn unassign(&mut self, var: SymId) {
        self.values.remove(&var);
    }

    /// The value assigned to `var`, if any.
    pub fn value_of(&self, var: SymId) -> Option<u64> {
        self.values.get(&var).copied()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, u64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges `other` into `self`; `other` wins on conflicts.
    pub fn extend(&mut self, other: &Model) {
        for (k, v) in other.iter() {
            self.values.insert(k, v);
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(SymId, u64)> for Model {
    fn from_iter<I: IntoIterator<Item = (SymId, u64)>>(iter: I) -> Self {
        Model {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_query() {
        let mut m = Model::new();
        assert!(m.is_empty());
        m.assign(SymId(0), 7);
        m.assign(SymId(1), 9);
        m.assign(SymId(0), 8); // overwrite
        assert_eq!(m.len(), 2);
        assert_eq!(m.value_of(SymId(0)), Some(8));
        m.unassign(SymId(0));
        assert_eq!(m.value_of(SymId(0)), None);
    }

    #[test]
    fn merge_prefers_other() {
        let mut a: Model = [(SymId(0), 1), (SymId(1), 2)].into_iter().collect();
        let b: Model = [(SymId(1), 20), (SymId(2), 30)].into_iter().collect();
        a.extend(&b);
        assert_eq!(a.value_of(SymId(0)), Some(1));
        assert_eq!(a.value_of(SymId(1)), Some(20));
        assert_eq!(a.value_of(SymId(2)), Some(30));
    }

    #[test]
    fn display() {
        let m: Model = [(SymId(0), 1), (SymId(2), 3)].into_iter().collect();
        assert_eq!(m.to_string(), "{v0=1, v2=3}");
    }
}
