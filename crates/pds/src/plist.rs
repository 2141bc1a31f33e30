//! A persistent singly-linked (cons) list.

use std::fmt;
use std::sync::Arc;

struct Cons<T> {
    head: T,
    tail: Option<Arc<Cons<T>>>,
}

/// A persistent cons list with `O(1)` clone and `O(1)` prepend.
///
/// Path conditions in symbolic execution grow by prepending one constraint
/// per branch, and sibling states share their entire suffix — exactly the
/// cons-list access pattern.
///
/// # Examples
///
/// ```
/// use sde_pds::PList;
///
/// let base: PList<u32> = PList::new().prepend(1);
/// let left = base.prepend(2);
/// let right = base.prepend(3);
/// assert_eq!(left.iter().copied().collect::<Vec<_>>(), vec![2, 1]);
/// assert_eq!(right.iter().copied().collect::<Vec<_>>(), vec![3, 1]);
/// ```
pub struct PList<T> {
    node: Option<Arc<Cons<T>>>,
    len: usize,
}

impl<T> Clone for PList<T> {
    fn clone(&self) -> Self {
        PList {
            node: self.node.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for PList<T> {
    fn default() -> Self {
        PList { node: None, len: 0 }
    }
}

impl<T> PList<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a new list with `value` at the front.
    #[must_use]
    pub fn prepend(&self, value: T) -> Self {
        PList {
            node: Some(Arc::new(Cons {
                head: value,
                tail: self.node.clone(),
            })),
            len: self.len + 1,
        }
    }

    /// The first element, if any.
    pub fn head(&self) -> Option<&T> {
        self.node.as_deref().map(|c| &c.head)
    }

    /// The list without its first element; empty stays empty.
    pub fn tail(&self) -> Self {
        match &self.node {
            None => PList::new(),
            Some(c) => PList {
                node: c.tail.clone(),
                len: self.len - 1,
            },
        }
    }

    /// Iterates front-to-back.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            node: self.node.as_deref(),
        }
    }

    /// Returns `true` when the two lists share their entire storage
    /// (i.e. one was cloned from the other without modification).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.node, &other.node) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Iterator over a [`PList`] front-to-back.
pub struct Iter<'a, T> {
    node: Option<&'a Cons<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<Self::Item> {
        let cons = self.node?;
        self.node = cons.tail.as_deref();
        Some(&cons.head)
    }
}

impl<T: Clone> FromIterator<T> for PList<T> {
    /// Builds a list whose iteration order matches the input order.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let items: Vec<T> = iter.into_iter().collect();
        let mut list = PList::new();
        for item in items.into_iter().rev() {
            list = list.prepend(item);
        }
        list
    }
}

impl<T: fmt::Debug> fmt::Debug for PList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for PList<T> {
    /// Element-wise, stopping at the first cell both lists share: equal
    /// lengths walked in step reach a shared suffix at the same time, and
    /// a shared suffix is equal without being read.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (self.node.as_ref(), other.node.as_ref());
        while let (Some(x), Some(y)) = (a, b) {
            if Arc::ptr_eq(x, y) {
                return true;
            }
            if x.head != y.head {
                return false;
            }
            (a, b) = (x.tail.as_ref(), y.tail.as_ref());
        }
        true
    }
}

impl<T: Eq> Eq for PList<T> {}

impl<T> Drop for PList<T> {
    fn drop(&mut self) {
        // Unlink iteratively to avoid recursive Arc drops blowing the stack
        // on very long path conditions.
        let mut node = self.node.take();
        while let Some(arc) = node {
            match Arc::try_unwrap(arc) {
                Ok(mut cons) => node = cons.tail.take(),
                Err(_) => break, // shared suffix: someone else keeps it alive
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let l: PList<u8> = PList::new();
        assert!(l.is_empty());
        assert_eq!(l.head(), None);
        assert!(l.tail().is_empty());
    }

    #[test]
    fn prepend_and_iterate() {
        let l = PList::new().prepend(1).prepend(2).prepend(3);
        assert_eq!(l.len(), 3);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![3, 2, 1]);
        assert_eq!(l.head(), Some(&3));
        assert_eq!(l.tail().head(), Some(&2));
    }

    #[test]
    fn sharing_between_siblings() {
        let base = PList::new().prepend("pc0");
        let left = base.prepend("left");
        let right = base.prepend("right");
        assert!(left.tail().ptr_eq(&right.tail()));
        assert!(!left.ptr_eq(&right));
    }

    #[test]
    fn from_iterator_preserves_order() {
        let l: PList<u32> = (0..5).collect();
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deep_list_drop_does_not_overflow() {
        let mut l = PList::new();
        for i in 0..200_000u32 {
            l = l.prepend(i);
        }
        assert_eq!(l.len(), 200_000);
        drop(l); // must not blow the stack
    }

    #[test]
    fn eq_by_contents() {
        let a: PList<u8> = (0..10).collect();
        let b: PList<u8> = (0..10).collect();
        assert_eq!(a, b);
        assert_ne!(a, b.prepend(99));
    }
}
