//! Dense word-parallel relation kernels.
//!
//! [`BitGraph`] stores adjacency as row-major `u64` words — 64 successors
//! per AND/OR — so transitive closure and reachability become word-parallel
//! sweeps instead of pointer-chasing `BTreeSet` walks.
//!
//! [`DiGraph`] stays the sparse build-time representation; callers convert
//! at a size-based crossover (see `compc-core`'s checker options and
//! DESIGN.md's two-representation policy). The differential property suite
//! (`tests/bitgraph_equiv.rs`) pins both backends pair-for-pair identical.

use crate::DiGraph;
use std::collections::BTreeSet;

/// Reusable buffers for [`BitGraph::close_transitively_with`]: the
/// topological sort's in-degrees, ready set and order, and one row's
/// successors.
#[derive(Clone, Debug, Default)]
pub struct CloseScratch {
    indeg: Vec<u32>,
    ready: Vec<u64>,
    order: Vec<usize>,
    direct: Vec<usize>,
}

/// A dense directed graph over `0..n`: row `u` is a bitset of successors,
/// `words_per_row` `u64`s wide. Bits past `n` in the last word are always
/// zero (every mutating operation maintains that invariant, so whole-row
/// word operations never need a trailing mask).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitGraph {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

#[inline]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Iterates the set-bit indices of a row slice in ascending order.
#[inline]
pub(crate) fn row_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
    })
}

impl BitGraph {
    /// An empty graph with no nodes.
    pub fn new() -> Self {
        BitGraph::default()
    }

    /// A graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        let words = words_for(n);
        BitGraph {
            n,
            words,
            rows: vec![0; n * words],
        }
    }

    /// Builds the dense form of a sparse graph.
    pub fn from_digraph(g: &DiGraph) -> Self {
        let mut out = BitGraph::with_nodes(g.node_count());
        out.load_from(g);
        out
    }

    /// Reloads this graph from a sparse one, reusing the row allocation —
    /// the per-worker scratch path of the checking engine.
    pub fn load_from(&mut self, g: &DiGraph) {
        self.reset(g.node_count());
        for (u, v) in g.edges() {
            self.rows[u * self.words + v / 64] |= 1u64 << (v % 64);
        }
    }

    /// Clears the graph to `n` nodes and no edges, keeping the allocation.
    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = words_for(n);
        self.rows.clear();
        self.rows.resize(n * self.words, 0);
    }

    /// Converts back to the sparse representation.
    pub fn to_digraph(&self) -> DiGraph {
        let succs: Vec<BTreeSet<usize>> = (0..self.n)
            .map(|u| row_bits(self.row(u)).collect())
            .collect();
        DiGraph::from_successor_sets(succs)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Words per adjacency row.
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// Number of edges (popcount over all rows).
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The adjacency row of `u` as words.
    #[inline]
    pub fn row(&self, u: usize) -> &[u64] {
        &self.rows[u * self.words..(u + 1) * self.words]
    }

    /// Adds edge `u -> v` (both must be `< node_count`). Returns whether
    /// the edge is new.
    ///
    /// Panics when either endpoint is out of range. The target check is a
    /// real bound, not just a word-index one: `v` inside the row's trailing
    /// word but past `n` would silently set a bit beyond the node range and
    /// break the "bits past `n` are zero" invariant every whole-row word
    /// operation relies on.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(
            u < self.n && v < self.n,
            "edge ({u}, {v}) out of range for {} nodes",
            self.n
        );
        let slot = &mut self.rows[u * self.words + v / 64];
        let bit = 1u64 << (v % 64);
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    /// Whether edge `u -> v` exists.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && self.rows[u * self.words + v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Successors of `u` in ascending order.
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        row_bits(self.row(u))
    }

    /// `row[dst] |= row[src]` — the word-parallel splice primitive.
    pub fn or_row_into(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let w = self.words;
        let (d, s) = (dst * w, src * w);
        // Disjoint row ranges; split so both can be borrowed at once.
        let (lo, hi) = if d < s {
            let (a, b) = self.rows.split_at_mut(s);
            (&mut a[d..d + w], &b[..w])
        } else {
            let (a, b) = self.rows.split_at_mut(d);
            (&mut b[..w], &a[s..s + w])
        };
        for (dw, sw) in lo.iter_mut().zip(hi) {
            *dw |= *sw;
        }
    }

    /// A topological order (smallest-ready-first, matching
    /// [`crate::topological_sort`]'s determinism), or `None` if cyclic.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let mut scratch = CloseScratch::default();
        self.topo_order_into(&mut scratch).then_some(scratch.order)
    }

    /// [`BitGraph::topo_order`] into `scratch.order`; whether it covers
    /// every node.
    fn topo_order_into(&self, scratch: &mut CloseScratch) -> bool {
        let n = self.n;
        let CloseScratch {
            indeg,
            ready,
            order,
            ..
        } = scratch;
        indeg.clear();
        indeg.resize(n, 0);
        for u in 0..n {
            for v in self.successors(u) {
                indeg[v] += 1;
            }
        }
        // The ready set is itself a bitset; popping the lowest set bit keeps
        // the order deterministic without a heap.
        ready.clear();
        ready.resize(self.words, 0);
        for (v, &d) in indeg.iter().enumerate() {
            if d == 0 {
                ready[v / 64] |= 1u64 << (v % 64);
            }
        }
        order.clear();
        loop {
            let Some(v) = row_bits(ready).next() else {
                break;
            };
            ready[v / 64] &= !(1u64 << (v % 64));
            order.push(v);
            for w in self.successors(v) {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    ready[w / 64] |= 1u64 << (w % 64);
                }
            }
        }
        order.len() == n
    }

    /// Transitive closure in place: edge `u -> v` in the result iff the
    /// input had a nonempty path `u ->* v`.
    ///
    /// On a DAG this is a reverse-topological sweep — each node ORs in the
    /// already-closed rows of its direct successors, 64 edges per word op.
    /// On a cyclic graph it condenses strong components first (all members
    /// of a component share one closed row), closes the DAG of components
    /// with the same reverse-topological sweep at component granularity,
    /// and expands each component row back — `O(V + E + output)` instead of
    /// the `O(n³/64)` bitset Floyd–Warshall this path used to run.
    pub fn close_transitively(&mut self) {
        self.close_transitively_with(&mut CloseScratch::default());
    }

    /// [`BitGraph::close_transitively`] reusing `scratch`'s buffers on the
    /// acyclic path.
    pub fn close_transitively_with(&mut self, scratch: &mut CloseScratch) {
        if !self.topo_order_into(scratch) {
            return self.close_via_condensation();
        }
        let CloseScratch { order, direct, .. } = scratch;
        for &u in order.iter().rev() {
            direct.clear();
            direct.extend(self.successors(u));
            for &v in direct.iter() {
                self.or_row_into(u, v);
            }
        }
    }

    /// The cyclic-closure path: Tarjan (components emitted in reverse
    /// topological order, so every successor component is already closed
    /// when its predecessors are processed), one OR-sweep over component
    /// rows, then a per-component expansion copied to all members.
    fn close_via_condensation(&mut self) {
        let comps = crate::algo::scc_with_successors(
            self.n,
            |v, out| out.extend(self.successors(v)),
            &mut crate::SccScratch::new(),
        );
        let ncomps = comps.len();
        let mut comp_of = vec![0u32; self.n];
        for (c, members) in comps.iter().enumerate() {
            for &m in members {
                comp_of[m] = c as u32;
            }
        }
        // Closed component rows, bitsets over component indices. Emission
        // order guarantees every successor component index is < c, so one
        // forward pass closes the condensation DAG.
        let cw = words_for(ncomps);
        let mut closed = vec![0u64; ncomps * cw];
        let mut cyclic = vec![false; ncomps];
        let mut succ_comps: Vec<usize> = Vec::new();
        let mut seen = vec![u32::MAX; ncomps];
        for (c, members) in comps.iter().enumerate() {
            cyclic[c] = members.len() > 1;
            succ_comps.clear();
            for &m in members {
                for v in self.successors(m) {
                    let d = comp_of[v] as usize;
                    if d == c {
                        cyclic[c] = true;
                    } else if seen[d] != c as u32 {
                        seen[d] = c as u32;
                        succ_comps.push(d);
                    }
                }
            }
            let (head, tail) = closed.split_at_mut(c * cw);
            let row_c = &mut tail[..cw];
            for &d in &succ_comps {
                row_c[d / 64] |= 1u64 << (d % 64);
                for (rc, rd) in row_c.iter_mut().zip(&head[d * cw..(d + 1) * cw]) {
                    *rc |= *rd;
                }
            }
        }
        // Expansion: build each component's node-level row once and copy it
        // to every member — members of one component have identical closed
        // rows, so total cost is O(output bits + n * words).
        let words = self.words;
        let mut row = vec![0u64; words];
        for (c, members) in comps.iter().enumerate() {
            row.fill(0);
            for d in row_bits(&closed[c * cw..(c + 1) * cw]) {
                for &m in &comps[d] {
                    row[m / 64] |= 1u64 << (m % 64);
                }
            }
            if cyclic[c] {
                for &m in members {
                    row[m / 64] |= 1u64 << (m % 64);
                }
            }
            for &m in members {
                self.rows[m * words..(m + 1) * words].copy_from_slice(&row);
            }
        }
    }

    /// Writes the set of nodes reachable from `start` by paths of length
    /// ≥ 1 into `out` (one row's worth of words, zeroed first). Bitset BFS:
    /// each step ORs whole rows of the current frontier.
    ///
    /// Panics when `out` is not exactly one row wide — in release builds a
    /// short buffer would otherwise truncate the reachable set silently (the
    /// zip below stops at the shorter side), and a long one would leave
    /// stale high words.
    pub fn reachable_into(&self, start: usize, out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.words,
            "reachable_into needs a buffer of exactly words_per_row() words"
        );
        out.fill(0);
        let mut frontier: Vec<u64> = self.row(start).to_vec();
        let mut next: Vec<u64> = vec![0; self.words];
        loop {
            // frontier &= !reached; stop when no new nodes.
            let mut any = false;
            for (f, r) in frontier.iter_mut().zip(out.iter()) {
                *f &= !r;
                any |= *f != 0;
            }
            if !any {
                break;
            }
            for (r, f) in out.iter_mut().zip(frontier.iter()) {
                *r |= f;
            }
            next.fill(0);
            for v in row_bits(&frontier) {
                for (nw, rw) in next.iter_mut().zip(self.row(v)) {
                    *nw |= rw;
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
    }

    /// The nodes reachable from `start` by paths of length ≥ 1, ascending —
    /// the dense counterpart of [`crate::reachable_from`].
    pub fn reachable_from(&self, start: usize) -> Vec<usize> {
        let mut row = vec![0u64; self.words];
        self.reachable_into(start, &mut row);
        row_bits(&row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_bits(n: usize) -> BitGraph {
        let mut g = BitGraph::with_nodes(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn row_bits_crosses_word_boundaries() {
        let mut g = BitGraph::with_nodes(130);
        for v in [0, 63, 64, 65, 127, 128, 129] {
            g.add_edge(1, v);
        }
        assert_eq!(
            g.successors(1).collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 129]
        );
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    fn digraph_roundtrip() {
        let mut g = DiGraph::with_nodes(70);
        g.add_edge(0, 69);
        g.add_edge(69, 1);
        g.add_edge(3, 3);
        let b = BitGraph::from_digraph(&g);
        assert_eq!(b.to_digraph(), g);
        assert_eq!(b.edge_count(), 3);
    }

    #[test]
    fn closure_of_chain_is_upper_triangle() {
        for n in [4usize, 63, 64, 65, 130] {
            let mut g = chain_bits(n);
            g.close_transitively();
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(g.has_edge(u, v), u < v, "n={n} ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn cyclic_closure_saturates() {
        let mut g = chain_bits(5);
        g.add_edge(4, 0);
        g.close_transitively();
        for u in 0..5 {
            for v in 0..5 {
                assert!(g.has_edge(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn reachable_matches_closure_row() {
        let mut g = BitGraph::with_nodes(10);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (5, 6), (3, 1)] {
            g.add_edge(u, v);
        }
        assert_eq!(g.reachable_from(0), vec![1, 2, 3]);
        assert_eq!(g.reachable_from(5), vec![6]);
        assert_eq!(g.reachable_from(6), Vec::<usize>::new());
        // 1 reaches itself through the 1->2->3->1 cycle.
        assert!(g.reachable_from(1).contains(&1));
    }

    #[test]
    fn topo_order_matches_sparse_determinism() {
        let mut g = BitGraph::with_nodes(4);
        g.add_edge(3, 1);
        assert_eq!(g.topo_order().unwrap(), vec![0, 2, 3, 1]);
        let mut c = chain_bits(3);
        c.add_edge(2, 0);
        assert!(c.topo_order().is_none());
    }
}
