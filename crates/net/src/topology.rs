//! Node identities, topologies and static routing.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Identity of a network node, unique within one scenario.
///
/// In a grid topology ids are assigned row-major: node `0` is the top-left
/// corner (the sink in the paper's scenarios) and node `w·h − 1` the
/// bottom-right corner (the source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// An undirected connectivity graph over `k` nodes.
///
/// Only static topologies are modeled (the paper's scenarios are fixed
/// grids); mobility would be layered above by regenerating topologies.
///
/// # Examples
///
/// ```
/// use sde_net::{NodeId, Topology};
///
/// let line = Topology::line(4);
/// assert!(line.are_neighbors(NodeId(1), NodeId(2)));
/// assert!(!line.are_neighbors(NodeId(0), NodeId(2)));
/// assert_eq!(line.route(NodeId(0), NodeId(3)).unwrap(),
///            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    adjacency: Vec<BTreeSet<u16>>,
}

impl Topology {
    /// A topology over `k` nodes with no links.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero (every scenario needs at least one node).
    pub fn disconnected(k: u16) -> Topology {
        assert!(k > 0, "a topology needs at least one node");
        Topology {
            adjacency: vec![BTreeSet::new(); usize::from(k)],
        }
    }

    /// A line `0 — 1 — … — k−1`.
    pub fn line(k: u16) -> Topology {
        let mut t = Topology::disconnected(k);
        for i in 0..k.saturating_sub(1) {
            t.add_link(NodeId(i), NodeId(i + 1));
        }
        t
    }

    /// A ring (line plus a closing link).
    pub fn ring(k: u16) -> Topology {
        let mut t = Topology::line(k);
        if k > 2 {
            t.add_link(NodeId(k - 1), NodeId(0));
        }
        t
    }

    /// A `width × height` grid, row-major ids, 4-neighborhood links —
    /// the paper's evaluation layout (5×5, 7×7, 10×10).
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero or the node count overflows
    /// `u16`.
    pub fn grid(width: u16, height: u16) -> Topology {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        let k = width.checked_mul(height).expect("grid too large");
        let mut t = Topology::disconnected(k);
        for y in 0..height {
            for x in 0..width {
                let id = y * width + x;
                if x + 1 < width {
                    t.add_link(NodeId(id), NodeId(id + 1));
                }
                if y + 1 < height {
                    t.add_link(NodeId(id), NodeId(id + width));
                }
            }
        }
        t
    }

    /// A complete graph over `k` nodes (the paper's §IV-C adversarial
    /// flooding setting).
    pub fn full_mesh(k: u16) -> Topology {
        let mut t = Topology::disconnected(k);
        for a in 0..k {
            for b in (a + 1)..k {
                t.add_link(NodeId(a), NodeId(b));
            }
        }
        t
    }

    /// Adds an undirected link.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) {
        assert!(a.index() < self.adjacency.len(), "node {a} out of range");
        assert!(b.index() < self.adjacency.len(), "node {b} out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        self.adjacency[a.index()].insert(b.0);
        self.adjacency[b.index()].insert(a.0);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Always `false` (topologies have at least one node); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.adjacency.len() as u16).map(NodeId)
    }

    /// The neighbors of `node`, ascending.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[node.index()].iter().map(|&i| NodeId(i))
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Returns `true` when `a` and `b` share a link.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency
            .get(a.index())
            .is_some_and(|s| s.contains(&b.0))
    }

    /// Shortest path from `src` to `dst` (inclusive of both endpoints),
    /// ties broken toward smaller node ids. `None` when unreachable.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let n = self.adjacency.len();
        let mut prev: Vec<Option<u16>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[src.index()] = true;
        queue.push_back(src.0);
        while let Some(cur) = queue.pop_front() {
            for &nb in &self.adjacency[usize::from(cur)] {
                if !visited[usize::from(nb)] {
                    visited[usize::from(nb)] = true;
                    prev[usize::from(nb)] = Some(cur);
                    if nb == dst.0 {
                        // Reconstruct.
                        let mut path = vec![dst];
                        let mut at = dst.0;
                        while let Some(p) = prev[usize::from(at)] {
                            path.push(NodeId(p));
                            at = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(nb);
                }
            }
        }
        None
    }

    /// The first hop on the shortest path from `src` toward `dst`;
    /// `None` when unreachable or `src == dst`.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let route = self.route(src, dst)?;
        route.get(1).copied()
    }

    /// Hop distance between two nodes (`0` for the node itself).
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.route(src, dst).map(|r| r.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_links() {
        let t = Topology::line(4);
        assert_eq!(t.len(), 4);
        assert!(t.are_neighbors(NodeId(0), NodeId(1)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(2)));
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(1)), 2);
    }

    #[test]
    fn ring_closes() {
        let t = Topology::ring(5);
        assert!(t.are_neighbors(NodeId(4), NodeId(0)));
        assert_eq!(t.degree(NodeId(0)), 2);
        // Tiny rings degenerate to lines.
        let t2 = Topology::ring(2);
        assert!(t2.are_neighbors(NodeId(0), NodeId(1)));
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(5, 5);
        assert_eq!(t.len(), 25);
        // Interior node has 4 neighbors, corner 2, edge 3.
        assert_eq!(t.degree(NodeId(12)), 4);
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.degree(NodeId(1)), 3);
        assert!(t.are_neighbors(NodeId(0), NodeId(5)));
        assert!(!t.are_neighbors(NodeId(4), NodeId(5))); // row wrap is not a link
    }

    #[test]
    fn full_mesh_degrees() {
        let t = Topology::full_mesh(6);
        for n in t.nodes() {
            assert_eq!(t.degree(n), 5);
        }
    }

    #[test]
    fn routes_are_shortest() {
        let t = Topology::grid(5, 5);
        let r = t.route(NodeId(24), NodeId(0)).unwrap();
        assert_eq!(r.len(), 9); // 8 hops corner to corner
        assert_eq!(r[0], NodeId(24));
        assert_eq!(*r.last().unwrap(), NodeId(0));
        for pair in r.windows(2) {
            assert!(t.are_neighbors(pair[0], pair[1]));
        }
        assert_eq!(t.distance(NodeId(24), NodeId(0)), Some(8));
        assert_eq!(t.distance(NodeId(3), NodeId(3)), Some(0));
    }

    #[test]
    fn next_hop_moves_closer() {
        let t = Topology::grid(7, 7);
        let sink = NodeId(0);
        let mut at = NodeId(48);
        let mut hops = 0;
        while at != sink {
            let nh = t.next_hop(at, sink).unwrap();
            assert!(t.are_neighbors(at, nh));
            assert!(t.distance(nh, sink).unwrap() < t.distance(at, sink).unwrap());
            at = nh;
            hops += 1;
        }
        assert_eq!(hops, 12);
    }

    #[test]
    fn unreachable_route_is_none() {
        let mut t = Topology::disconnected(4);
        t.add_link(NodeId(0), NodeId(1));
        assert_eq!(t.route(NodeId(0), NodeId(3)), None);
        assert_eq!(t.next_hop(NodeId(0), NodeId(3)), None);
        assert_eq!(t.next_hop(NodeId(0), NodeId(0)), None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut t = Topology::disconnected(2);
        t.add_link(NodeId(1), NodeId(1));
    }

    #[test]
    fn nodes_iterates_all() {
        let t = Topology::grid(3, 2);
        let ids: Vec<u16> = t.nodes().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }
}
