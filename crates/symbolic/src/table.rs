//! Symbolic variable identities.

use crate::vars::VarSet;
use crate::Width;
use std::fmt;
use std::sync::Arc;

/// Opaque identifier of a symbolic variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub(crate) u32);

impl SymId {
    /// The raw index (stable within one [`SymbolTable`]).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A symbolic variable: identity, human-readable name, width, and its
/// *replay key* — the node that minted it plus the per-lineage
/// occurrence count of its name on that node.
///
/// The replay key identifies "the same input" across two runs of the
/// same scenario even though the global creation order (and therefore
/// [`SymId`]) differs when one run forks and the other does not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymVar {
    id: SymId,
    name: Arc<str>,
    width: Width,
    node: u16,
    occurrence: u32,
}

impl SymVar {
    /// The variable's identifier.
    pub fn id(&self) -> SymId {
        self.id
    }

    /// The human-readable name given at creation.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable's bit width.
    pub fn width(&self) -> Width {
        self.width
    }

    /// The node that minted the input (0 for plain [`SymbolTable::fresh`]).
    pub fn node(&self) -> u16 {
        self.node
    }

    /// How many inputs of the same name the minting state had created
    /// before this one.
    pub fn occurrence(&self) -> u32 {
        self.occurrence
    }

    /// The run-independent replay key `(node, name, occurrence)`.
    pub fn replay_key(&self) -> (u16, String, u32) {
        (self.node, self.name.to_string(), self.occurrence)
    }

    /// Number of concrete values this input can take (`2^width`,
    /// saturating at `u64::MAX` for width 64) — the per-input axis length
    /// of the exhaustive cross-product an enumeration oracle walks.
    pub fn domain_size(&self) -> u64 {
        self.width.domain_size()
    }

    /// The variable's singleton [`VarSet`] — the leaf of the memoized
    /// var-set computation in [`Expr::from_kind`](crate::Expr::from_kind).
    pub(crate) fn var_set(&self) -> VarSet {
        VarSet::singleton(self.id, self.width)
    }

    /// Rebuilds a variable from its serialized fields (snapshot decode).
    /// The caller is responsible for id consistency with any symbol
    /// table it pairs the variable with.
    pub(crate) fn from_raw(
        id: SymId,
        name: &str,
        width: Width,
        node: u16,
        occurrence: u32,
    ) -> SymVar {
        SymVar {
            id,
            name: Arc::from(name),
            width,
            node,
            occurrence,
        }
    }
}

impl fmt::Display for SymVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.node == 0 && self.occurrence == 0 {
            write!(f, "{}#{}", self.name, self.id.0)
        } else {
            write!(f, "{}@n{}#{}", self.name, self.node, self.occurrence)
        }
    }
}

/// Allocates fresh symbolic variables with unique ids.
///
/// Each SDE run owns one table; every `make_symbolic` in any node program
/// draws from it, so models can be split per node by name when test cases
/// are emitted.
///
/// # Examples
///
/// ```
/// use sde_symbolic::{SymbolTable, Width};
///
/// let mut t = SymbolTable::new();
/// let a = t.fresh("drop", Width::BOOL);
/// let b = t.fresh("drop", Width::BOOL);
/// assert_ne!(a.id(), b.id()); // same name, distinct identity
/// ```
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    /// First id this table allocates; non-zero only for
    /// [`SymbolTable::forked`] windows.
    base: u32,
    vars: Vec<SymVar>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable with the given display name and width.
    pub fn fresh(&mut self, name: &str, width: Width) -> SymVar {
        self.fresh_keyed(name, width, 0, 0)
    }

    /// Allocates a fresh variable with an explicit replay key (see
    /// [`SymVar::replay_key`]).
    pub fn fresh_keyed(&mut self, name: &str, width: Width, node: u16, occurrence: u32) -> SymVar {
        let offset = u32::try_from(self.vars.len()).expect("symbol table overflow");
        let id = SymId(
            self.base
                .checked_add(offset)
                .expect("symbol table overflow"),
        );
        let var = SymVar {
            id,
            name: Arc::from(name),
            width,
            node,
            occurrence,
        };
        self.vars.push(var.clone());
        var
    }

    /// Looks a variable up by id.
    ///
    /// In a [`SymbolTable::forked`] window only variables minted by the
    /// window itself are visible.
    pub fn get(&self, id: SymId) -> Option<&SymVar> {
        let index = id.0.checked_sub(self.base)?;
        self.vars.get(index as usize)
    }

    /// The id the next [`SymbolTable::fresh`] call will return.
    pub fn next_id(&self) -> SymId {
        SymId(self.base + u32::try_from(self.vars.len()).expect("symbol table overflow"))
    }

    /// An empty *allocator window* that continues this table's id
    /// sequence: its first `fresh` mints exactly [`SymbolTable::next_id`].
    ///
    /// This is O(1) — no variables are copied. A shard worker executes
    /// against a window, so an input its handler mints gets the [`SymId`]
    /// the serial merge will mint, never one that collides with an id its
    /// state already holds. A window can only resolve ids it minted
    /// itself.
    pub fn forked(&self) -> SymbolTable {
        SymbolTable {
            base: self.next_id().0,
            vars: Vec::new(),
        }
    }

    /// Number of variables allocated by this table (excluding the ids
    /// skipped by a [`SymbolTable::forked`] base offset).
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` when no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over all allocated variables in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &SymVar> {
        self.vars.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_size_follows_width() {
        let mut t = SymbolTable::new();
        assert_eq!(t.fresh("b", Width::BOOL).domain_size(), 2);
        assert_eq!(t.fresh("x", Width::W8).domain_size(), 256);
        assert_eq!(t.fresh("y", Width::W16).domain_size(), 65_536);
        assert_eq!(t.fresh("z", Width::W64).domain_size(), u64::MAX);
    }

    #[test]
    fn fresh_ids_are_sequential_and_unique() {
        let mut t = SymbolTable::new();
        let a = t.fresh("x", Width::W8);
        let b = t.fresh("y", Width::W16);
        assert_eq!(a.id().index(), 0);
        assert_eq!(b.id().index(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a.id()).unwrap().name(), "x");
        assert_eq!(t.get(b.id()).unwrap().width(), Width::W16);
    }

    #[test]
    fn forked_window_continues_the_id_sequence() {
        let mut t = SymbolTable::new();
        t.fresh("x", Width::W8);
        t.fresh("y", Width::W8);
        let mut w = t.forked();
        assert!(w.is_empty());
        assert_eq!(w.next_id(), t.next_id());
        let a = w.fresh("z", Width::BOOL);
        assert_eq!(a.id().index(), 2, "window mints the table's next id");
        assert_eq!(w.get(a.id()).unwrap().name(), "z");
        assert!(w.get(SymId(0)).is_none(), "windows cannot see older vars");
        // The real table is unaffected and mints the same id next.
        let b = t.fresh("z", Width::BOOL);
        assert_eq!(b.id(), a.id());
    }

    #[test]
    fn display_forms() {
        let mut t = SymbolTable::new();
        let a = t.fresh("pkt", Width::W8);
        assert_eq!(a.to_string(), "pkt#0");
        assert_eq!(a.id().to_string(), "v0");
    }
}
