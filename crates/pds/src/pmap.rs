//! A persistent hash array mapped trie (HAMT).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const BITS: u32 = 5;
const WIDTH: usize = 1 << BITS; // 32
const MASK: u64 = (WIDTH as u64) - 1;
/// Depth at which the 64-bit hash is exhausted and we fall back to a
/// collision bucket.
const MAX_DEPTH: u32 = 64 / BITS; // 12

/// The trie position of `key`.
///
/// The hash decides only where an entry sits in the trie: lookups compare
/// keys, iteration order is unspecified, and nothing outside this module
/// reads it. So it needs to spread keys, not to resist chosen ones — a
/// keyed SipHash with fixed keys bought no DoS resistance and cost most of
/// a heap access. [`TrieHasher`] folds each word with one multiply and a
/// rotate, then mixes all 64 bits into the low ones the trie reads first.
fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = TrieHasher(0);
    key.hash(&mut h);
    h.finish()
}

/// rustc's `FxHasher` fold with a splitmix64 finish. The fold alone
/// leaves the low bits of a hash depending on the low bits of the key
/// only; the trie branches on the lowest five bits first.
struct TrieHasher(u64);

impl TrieHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for TrieHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    /// The heap's key: one fold, no byte loop.
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

enum Node<K, V> {
    /// Interior node: bitmap of populated slots + dense child array, and
    /// the number of entries below it (the map's length, at the root). The
    /// count sits beside the bitmap, where a node has room for it.
    Branch {
        bitmap: u32,
        len: u32,
        children: Vec<Arc<Node<K, V>>>,
    },
    /// A single key/value pair.
    Leaf { hash: u64, key: K, value: V },
    /// Keys whose 64-bit hashes collide entirely.
    Collision { hash: u64, entries: Vec<(K, V)> },
}

impl<K: Clone, V: Clone> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        match self {
            Node::Branch {
                bitmap,
                len,
                children,
            } => Node::Branch {
                bitmap: *bitmap,
                len: *len,
                children: children.clone(),
            },
            Node::Leaf { hash, key, value } => Node::Leaf {
                hash: *hash,
                key: key.clone(),
                value: value.clone(),
            },
            Node::Collision { hash, entries } => Node::Collision {
                hash: *hash,
                entries: entries.clone(),
            },
        }
    }
}

impl<K, V> Node<K, V> {
    /// Number of entries at or below this node.
    fn len(&self) -> u32 {
        match self {
            Node::Branch { len, .. } => *len,
            Node::Leaf { .. } => 1,
            Node::Collision { entries, .. } => {
                u32::try_from(entries.len()).expect("a map holds fewer than 2^32 entries")
            }
        }
    }
}

/// A persistent hash map with `O(1)` clone and `O(log32 n)` access.
///
/// A `PMap` is one pointer: cloning it copies a single `Arc`, and its
/// length is read off the root. Mutating operations return a new map and
/// leave the receiver untouched, sharing all unmodified structure.
///
/// # Examples
///
/// ```
/// use sde_pds::PMap;
///
/// let m: PMap<u32, &str> = PMap::new().insert(1, "one").insert(2, "two");
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.get(&1), Some(&"one"));
/// assert!(m.remove(&1).get(&1).is_none());
/// ```
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None }
    }
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries in the map.
    pub fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |root| root.len() as usize)
    }

    /// Returns `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Whether the two maps are one storage: the same root, or both
    /// empty. Equal maps built apart are not.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether nothing else holds this map's root — no other map, as its
    /// root or as a subtree — so dropping the map frees it. An empty map
    /// holds nothing, so it is unique.
    pub fn is_unique(&self) -> bool {
        self.root
            .as_ref()
            .is_none_or(|root| Arc::strong_count(root) == 1)
    }
}

impl<K: Hash + Eq + Clone, V: Clone> PMap<K, V> {
    /// Looks up `key`, returning a reference to its value if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        let hash = hash_of(key);
        let mut shift = 0u32;
        loop {
            match node {
                Node::Branch {
                    bitmap, children, ..
                } => {
                    let idx = ((hash >> shift) & MASK) as u32;
                    let bit = 1u32 << idx;
                    if bitmap & bit == 0 {
                        return None;
                    }
                    let pos = (bitmap & (bit - 1)).count_ones() as usize;
                    node = &children[pos];
                    shift += BITS;
                }
                Node::Leaf {
                    hash: h,
                    key: k,
                    value,
                } => {
                    return if *h == hash && k == key {
                        Some(value)
                    } else {
                        None
                    };
                }
                Node::Collision { hash: h, entries } => {
                    if *h != hash {
                        return None;
                    }
                    return entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                }
            }
        }
    }

    /// Returns `true` when `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Returns a new map with `key` bound to `value` (replacing any
    /// previous binding).
    #[must_use]
    pub fn insert(&self, key: K, value: V) -> Self {
        let mut next = self.clone();
        next.insert_mut(key, value);
        next
    }

    /// Binds `key` to `value` in this map and returns the value it
    /// replaced, if any.
    ///
    /// Clones of the map taken earlier are unaffected: a node only this
    /// map references is edited in place, a shared one is copied first
    /// (`Arc::make_mut`) — the path copy of a persistent insert, paid
    /// only where a clone can still see the node.
    ///
    /// # Panics
    ///
    /// Panics when the map already holds `u32::MAX` entries.
    pub fn insert_mut(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash_of(&key);
        match &mut self.root {
            None => {
                self.root = Some(Arc::new(Node::Leaf { hash, key, value }));
                None
            }
            Some(root) => Self::insert_at(root, 0, hash, key, value),
        }
    }

    fn insert_at(node: &mut Arc<Node<K, V>>, shift: u32, hash: u64, key: K, value: V) -> Option<V> {
        // A leaf or collision bucket of another hash moves one level down
        // beside the new leaf; it is shared, never copied.
        if let Node::Leaf { hash: h, .. } | Node::Collision { hash: h, .. } = node.as_ref() {
            if *h != hash {
                let leaf = Arc::new(Node::Leaf { hash, key, value });
                *node = Self::merge(node.clone(), *h, leaf, hash, shift);
                return None;
            }
        }
        let node = Arc::make_mut(node);
        match node {
            Node::Branch {
                bitmap,
                len,
                children,
            } => {
                let idx = ((hash >> shift) & MASK) as u32;
                let bit = 1u32 << idx;
                let pos = (*bitmap & (bit - 1)).count_ones() as usize;
                let replaced = if *bitmap & bit == 0 {
                    // Exact growth: these vectors are most of a map's
                    // memory and rarely grow again.
                    children.reserve_exact(1);
                    children.insert(pos, Arc::new(Node::Leaf { hash, key, value }));
                    *bitmap |= bit;
                    None
                } else {
                    Self::insert_at(&mut children[pos], shift + BITS, hash, key, value)
                };
                if replaced.is_none() {
                    *len = len
                        .checked_add(1)
                        .expect("a map holds fewer than 2^32 entries");
                }
                replaced
            }
            Node::Leaf {
                key: k, value: v, ..
            } => {
                if *k == key {
                    return Some(std::mem::replace(v, value));
                }
                let entries = vec![(k.clone(), v.clone()), (key, value)];
                *node = Node::Collision { hash, entries };
                None
            }
            Node::Collision { entries, .. } => {
                if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
                    Some(std::mem::replace(&mut slot.1, value))
                } else {
                    entries.push((key, value));
                    None
                }
            }
        }
    }

    /// Builds the minimal branch spine distinguishing two nodes with
    /// different hashes starting at `shift`.
    fn merge(
        a: Arc<Node<K, V>>,
        ha: u64,
        b: Arc<Node<K, V>>,
        hb: u64,
        shift: u32,
    ) -> Arc<Node<K, V>> {
        debug_assert!(ha != hb);
        debug_assert!(shift < MAX_DEPTH * BITS);
        let ia = ((ha >> shift) & MASK) as u32;
        let ib = ((hb >> shift) & MASK) as u32;
        if ia == ib {
            let child = Self::merge(a, ha, b, hb, shift + BITS);
            Arc::new(Node::Branch {
                bitmap: 1 << ia,
                len: child.len(),
                children: vec![child],
            })
        } else {
            let len = a.len() + b.len();
            let (bitmap, children) = if ia < ib {
                (1 << ia | 1 << ib, vec![a, b])
            } else {
                (1 << ia | 1 << ib, vec![b, a])
            };
            Arc::new(Node::Branch {
                bitmap,
                len,
                children,
            })
        }
    }

    /// Returns a new map without `key`. Returns a clone when the key is
    /// absent.
    #[must_use]
    pub fn remove(&self, key: &K) -> Self {
        let hash = hash_of(key);
        match &self.root {
            None => self.clone(),
            Some(r) => match Self::del(r, 0, hash, key) {
                Deleted::NotFound => self.clone(),
                Deleted::Empty => PMap { root: None },
                Deleted::Replaced(n) => PMap { root: Some(n) },
            },
        }
    }

    fn del(node: &Arc<Node<K, V>>, shift: u32, hash: u64, key: &K) -> Deleted<K, V> {
        match node.as_ref() {
            Node::Branch {
                bitmap,
                len,
                children,
            } => {
                // Every branch rebuilt below lost exactly the one entry.
                let len = len - 1;
                let idx = ((hash >> shift) & MASK) as u32;
                let bit = 1u32 << idx;
                if bitmap & bit == 0 {
                    return Deleted::NotFound;
                }
                let pos = (bitmap & (bit - 1)).count_ones() as usize;
                match Self::del(&children[pos], shift + BITS, hash, key) {
                    Deleted::NotFound => Deleted::NotFound,
                    Deleted::Empty => {
                        if children.len() == 1 {
                            Deleted::Empty
                        } else if children.len() == 2 {
                            // Collapse single remaining child if it is a leaf
                            // or collision (safe to lift: its position is
                            // derivable from its hash at any level).
                            let other = &children[1 - pos];
                            match other.as_ref() {
                                Node::Branch { .. } => {
                                    let mut ch = children.clone();
                                    ch.remove(pos);
                                    Deleted::Replaced(Arc::new(Node::Branch {
                                        bitmap: bitmap & !bit,
                                        len,
                                        children: ch,
                                    }))
                                }
                                _ => Deleted::Replaced(other.clone()),
                            }
                        } else {
                            let mut ch = children.clone();
                            ch.remove(pos);
                            Deleted::Replaced(Arc::new(Node::Branch {
                                bitmap: bitmap & !bit,
                                len,
                                children: ch,
                            }))
                        }
                    }
                    Deleted::Replaced(n) => {
                        // Lift a lone leaf/collision child through a
                        // single-entry branch.
                        if children.len() == 1 && !matches!(n.as_ref(), Node::Branch { .. }) {
                            Deleted::Replaced(n)
                        } else {
                            let mut ch = children.clone();
                            ch[pos] = n;
                            Deleted::Replaced(Arc::new(Node::Branch {
                                bitmap: *bitmap,
                                len,
                                children: ch,
                            }))
                        }
                    }
                }
            }
            Node::Leaf {
                hash: h, key: k, ..
            } => {
                if *h == hash && k == key {
                    Deleted::Empty
                } else {
                    Deleted::NotFound
                }
            }
            Node::Collision { hash: h, entries } => {
                if *h != hash {
                    return Deleted::NotFound;
                }
                match entries.iter().position(|(k, _)| k == key) {
                    None => Deleted::NotFound,
                    Some(pos) => {
                        let mut entries = entries.clone();
                        entries.remove(pos);
                        if entries.len() == 1 {
                            let (k, v) = entries.pop().expect("len checked");
                            Deleted::Replaced(Arc::new(Node::Leaf {
                                hash: *h,
                                key: k,
                                value: v,
                            }))
                        } else {
                            Deleted::Replaced(Arc::new(Node::Collision { hash: *h, entries }))
                        }
                    }
                }
            }
        }
    }

    /// Iterates over `(&K, &V)` pairs in unspecified order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        if let Some(r) = &self.root {
            stack.push(Frame::Node(r));
        }
        Iter { stack }
    }

    /// Iterates over keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

enum Deleted<K, V> {
    NotFound,
    Empty,
    Replaced(Arc<Node<K, V>>),
}

enum Frame<'a, K, V> {
    Node(&'a Node<K, V>),
    CollisionAt(&'a [(K, V)], usize),
}

/// Iterator over the entries of a [`PMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<Frame<'a, K, V>>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.pop()? {
                Frame::Node(Node::Branch { children, .. }) => {
                    for c in children.iter().rev() {
                        self.stack.push(Frame::Node(c));
                    }
                }
                Frame::Node(Node::Leaf { key, value, .. }) => return Some((key, value)),
                Frame::Node(Node::Collision { entries, .. }) => {
                    self.stack.push(Frame::CollisionAt(entries, 0));
                }
                Frame::CollisionAt(entries, i) => {
                    if i < entries.len() {
                        self.stack.push(Frame::CollisionAt(entries, i + 1));
                        let (k, v) = &entries[i];
                        return Some((k, v));
                    }
                }
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Extend<(K, V)> for PMap<K, V> {
    /// Inserts all items; later duplicates win (like `HashMap`).
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert_mut(k, v);
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = PMap::new();
        m.extend(iter);
        m
    }
}

impl<K: Hash + Eq + Clone + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone + PartialEq> PMap<K, V> {
    /// Whether every entry under `a` is bound to an equal value in
    /// `whole`, where `b` is `whole`'s node at `a`'s trie position.
    ///
    /// Storage the two maps share is equal without being read — a clone
    /// that was written a few times differs from its origin in a few
    /// spines only. Where both sides have the same shape the walk goes
    /// down both at once, comparing leaves in place (no hashing); any
    /// other pairing — removals can leave equal maps in different shapes
    /// — is settled by looking `a`'s entries up in `whole`.
    fn bound_in(a: &Arc<Node<K, V>>, b: &Arc<Node<K, V>>, whole: &Self) -> bool {
        if Arc::ptr_eq(a, b) {
            return true;
        }
        match (a.as_ref(), b.as_ref()) {
            (
                Node::Branch {
                    bitmap, children, ..
                },
                Node::Branch {
                    bitmap: other_bitmap,
                    children: other_children,
                    ..
                },
            ) if bitmap == other_bitmap => children
                .iter()
                .zip(other_children)
                .all(|(x, y)| Self::bound_in(x, y, whole)),
            (
                Node::Leaf { key, value, .. },
                Node::Leaf {
                    key: other_key,
                    value: other_value,
                    ..
                },
            ) if key == other_key => value == other_value,
            (a, _) => {
                let mut under_a = Iter {
                    stack: vec![Frame::Node(a)],
                };
                under_a.all(|(k, v)| whole.get(k) == Some(v))
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone + PartialEq> PartialEq for PMap<K, V> {
    /// Equal sizes and every entry of `self` bound alike in `other`;
    /// O(1) for a map and its unmodified clone, no hashing while the two
    /// tries have the same shape.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => Self::bound_in(a, b, other),
            _ => false,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone + Eq> Eq for PMap<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map() {
        let m: PMap<u32, u32> = PMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&0), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn insert_get_overwrite() {
        let m = PMap::new().insert(1u32, "a");
        let m2 = m.insert(1, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m2.get(&1), Some(&"b"));
        assert_eq!(m.len(), 1);
        assert_eq!(m2.len(), 1);
    }

    #[test]
    fn persistence_under_remove() {
        let m = PMap::new().insert(1u32, 1).insert(2, 2).insert(3, 3);
        let r = m.remove(&2);
        assert_eq!(m.len(), 3);
        assert_eq!(r.len(), 2);
        assert_eq!(m.get(&2), Some(&2));
        assert_eq!(r.get(&2), None);
    }

    #[test]
    fn remove_absent_is_noop() {
        let m = PMap::new().insert(5u32, 5);
        let r = m.remove(&77);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&5), Some(&5));
    }

    #[test]
    fn many_inserts_then_removes() {
        let mut m = PMap::new();
        for i in 0..2000u32 {
            m = m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 2000);
        for i in 0..2000u32 {
            assert_eq!(m.get(&i), Some(&(i * 2)), "key {i}");
        }
        for i in (0..2000u32).step_by(2) {
            m = m.remove(&i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..2000u32 {
            if i % 2 == 0 {
                assert_eq!(m.get(&i), None);
            } else {
                assert_eq!(m.get(&i), Some(&(i * 2)));
            }
        }
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut m = PMap::new();
        for i in 0..500u32 {
            m = m.insert(i, ());
        }
        let mut keys: Vec<u32> = m.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn a_map_is_one_pointer_and_its_nodes_did_not_grow() {
        assert_eq!(std::mem::size_of::<PMap<u32, u64>>(), 8);
        // The branch count fits beside the bitmap: a node is as large as
        // its widest variant was before it.
        assert_eq!(std::mem::size_of::<Node<u32, [u64; 2]>>(), 40);
        assert_eq!(std::mem::size_of::<Node<String, u32>>(), 40);
    }

    #[test]
    fn branch_counts_follow_inserts_and_removes() {
        let mut m = PMap::new();
        for i in 0..300u32 {
            m.insert_mut(i, i);
            m.insert_mut(i, i + 1);
            assert_eq!(m.len(), i as usize + 1);
        }
        let shared = m.clone();
        for i in (0..300u32).rev() {
            m = m.remove(&i).remove(&(i + 1000));
            assert_eq!(m.len(), i as usize);
        }
        assert!(m.is_empty());
        assert_eq!(shared.len(), 300);
    }

    #[test]
    fn eq_is_structural() {
        let a = PMap::new().insert(1u32, 1).insert(2, 2);
        let b = PMap::new().insert(2u32, 2).insert(1, 1);
        assert_eq!(a, b);
        assert_ne!(a, b.insert(3, 3));
    }

    #[test]
    fn ptr_eq_and_is_unique_follow_the_root() {
        let empty: PMap<u32, u32> = PMap::new();
        assert!(empty.ptr_eq(&PMap::new()) && empty.is_unique());
        let mut a: PMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        let b: PMap<u32, u32> = (0..100).rev().map(|i| (i, i)).collect();
        assert!(a == b && !a.ptr_eq(&b), "equal, built apart");
        assert!(a.is_unique());
        let shared = a.clone();
        assert!(a.ptr_eq(&shared) && !a.is_unique() && !shared.is_unique());
        a.insert_mut(200, 2);
        assert!(!a.ptr_eq(&shared), "a write copies the shared root");
        assert!(a.is_unique() && shared.is_unique());
    }

    #[test]
    fn from_iterator() {
        let m: PMap<u32, u32> = (0..10).map(|i| (i, i + 1)).collect();
        assert_eq!(m.len(), 10);
        assert_eq!(m.get(&9), Some(&10));
    }

    #[test]
    fn extend_inserts_and_overwrites() {
        let mut m: PMap<u32, u32> = (0..3).map(|i| (i, i)).collect();
        m.extend([(2, 20), (3, 30)]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(&2), Some(&20));
        assert_eq!(m.get(&3), Some(&30));
    }

    /// Key type whose hash collides in the low bits, exercising deep
    /// branches, and collides fully for equal `group`, exercising
    /// collision buckets.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Clash {
        group: u8,
        id: u32,
    }
    impl Hash for Clash {
        fn hash<H: Hasher>(&self, state: &mut H) {
            // Deliberately degenerate: hash only on `group`.
            state.write_u8(self.group);
        }
    }

    #[test]
    fn full_hash_collisions() {
        let mut m = PMap::new();
        for id in 0..50u32 {
            m = m.insert(Clash { group: 1, id }, id);
            m = m.insert(Clash { group: 2, id }, id + 1000);
        }
        assert_eq!(m.len(), 100);
        for id in 0..50u32 {
            assert_eq!(m.get(&Clash { group: 1, id }), Some(&id));
            assert_eq!(m.get(&Clash { group: 2, id }), Some(&(id + 1000)));
        }
        // Remove one side of the collision bucket entirely.
        for id in 0..50u32 {
            m = m.remove(&Clash { group: 1, id });
        }
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&Clash { group: 1, id: 7 }), None);
        assert_eq!(m.get(&Clash { group: 2, id: 7 }), Some(&1007));
    }

    #[test]
    fn collision_overwrite_keeps_len() {
        let k = Clash { group: 3, id: 1 };
        let k2 = Clash { group: 3, id: 2 };
        let m = PMap::new().insert(k.clone(), 1).insert(k2.clone(), 2);
        let m = m.insert(k.clone(), 10);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&k), Some(&10));
        assert_eq!(m.get(&k2), Some(&2));
    }
}
