//! A dense directed graph over `0..n` node indices.

use std::collections::BTreeSet;

/// A directed graph over node indices `0..self.node_count()`.
///
/// Edges are kept both as per-node sorted successor sets (for deterministic
/// iteration) and are deduplicated on insertion. Self-loops are allowed at
/// this layer — the order layer above rejects them, but cycle detection must
/// be able to *report* them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiGraph {
    succs: Vec<BTreeSet<usize>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates an empty graph with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        DiGraph {
            succs: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph directly from per-node successor sets, growing the
    /// node set to cover any successor index past the row count. This is
    /// the bulk constructor the dense→sparse conversion uses: no per-edge
    /// `ensure_node`/dedup work.
    pub fn from_successor_sets(succs: Vec<BTreeSet<usize>>) -> Self {
        let mut g = DiGraph {
            edge_count: succs.iter().map(BTreeSet::len).sum(),
            succs,
        };
        let max_succ = g.succs.iter().filter_map(|vs| vs.last().copied()).max();
        if let Some(m) = max_succ {
            g.ensure_node(m);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Grows the graph so `idx` is a valid node.
    pub fn ensure_node(&mut self, idx: usize) {
        if idx >= self.succs.len() {
            self.succs.resize(idx + 1, BTreeSet::new());
        }
    }

    /// Adds edge `u -> v`, growing the node set if needed.
    /// Returns `true` if the edge is new.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        self.ensure_node(u.max(v));
        let fresh = self.succs[u].insert(v);
        if fresh {
            self.edge_count += 1;
        }
        fresh
    }

    /// Whether edge `u -> v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.succs.len() && self.succs[u].contains(&v)
    }

    /// Successors of `u` in ascending order.
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.succs.get(u).into_iter().flatten().copied()
    }

    /// All edges `(u, v)` in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// In-degrees of all nodes.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.node_count()];
        for (_, v) in self.edges() {
            deg[v] += 1;
        }
        deg
    }

    /// Merges all edges of `other` into `self` (node sets are unioned).
    /// Rows are merged directly — one node-set reservation up front, then
    /// set-into-set inserts — instead of routing every edge through
    /// [`DiGraph::add_edge`]'s per-edge grow-and-dedup path.
    pub fn union_with(&mut self, other: &DiGraph) {
        if other.node_count() > self.node_count() {
            self.ensure_node(other.node_count() - 1);
        }
        for (row, vs) in self.succs.iter_mut().zip(&other.succs) {
            if vs.is_empty() {
                continue;
            }
            if row.is_empty() {
                *row = vs.clone();
                self.edge_count += vs.len();
            } else {
                for &v in vs {
                    if row.insert(v) {
                        self.edge_count += 1;
                    }
                }
            }
        }
    }

    /// Returns the union of two graphs.
    pub fn union(&self, other: &DiGraph) -> DiGraph {
        let mut g = self.clone();
        g.union_with(other);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn add_edge_grows_nodes() {
        let mut g = DiGraph::new();
        assert!(g.add_edge(2, 5));
        assert_eq!(g.node_count(), 6);
        assert!(g.has_edge(2, 5));
        assert!(!g.has_edge(5, 2));
    }

    #[test]
    fn duplicate_edges_not_counted() {
        let mut g = DiGraph::with_nodes(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn successors_sorted() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0, 3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let succ: Vec<_> = g.successors(0).collect();
        assert_eq!(succ, vec![1, 2, 3]);
    }

    #[test]
    fn union_merges_edges() {
        let mut a = DiGraph::with_nodes(3);
        a.add_edge(0, 1);
        let mut b = DiGraph::with_nodes(3);
        b.add_edge(1, 2);
        let u = a.union(&b);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(1, 2));
        assert_eq!(u.edge_count(), 2);
    }

    #[test]
    fn union_with_counts_only_new_edges() {
        let mut a = DiGraph::with_nodes(2);
        a.add_edge(0, 1);
        let mut b = DiGraph::with_nodes(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        a.union_with(&b);
        assert_eq!(a.node_count(), 4);
        assert_eq!(a.edge_count(), 2);
        assert!(a.has_edge(2, 3));
    }

    #[test]
    fn from_successor_sets_bulk_builds() {
        let rows = vec![BTreeSet::from([1, 5]), BTreeSet::new(), BTreeSet::from([0])];
        let g = DiGraph::from_successor_sets(rows);
        assert_eq!(g.node_count(), 6); // grown to cover successor 5
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 5) && g.has_edge(2, 0));
    }

    #[test]
    fn in_degrees_counted() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        assert_eq!(g.in_degrees(), vec![0, 0, 2]);
    }

    #[test]
    fn self_loop_allowed_at_this_layer() {
        let mut g = DiGraph::with_nodes(1);
        assert!(g.add_edge(0, 0));
        assert!(g.has_edge(0, 0));
    }
}
