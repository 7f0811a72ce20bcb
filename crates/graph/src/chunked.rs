//! Compressed hybrid relation kernels: sorted-chunk rows for cold rows,
//! dense words for hot ones, and an SCC-condensed closure that shares one
//! closed row per strong component.
//!
//! [`crate::BitGraph`] is row-major `u64` and therefore `O(n²/64)` memory
//! regardless of how sparse the relation is — the dense backend dies around
//! 10⁵ nodes. [`ChunkedBitGraph`] keeps each adjacency row sparse (a sorted
//! `Vec<u32>`) until it grows past the point where dense words are smaller,
//! then promotes that row alone; memory tracks the edge count, not `n²`.
//! Its closure, [`CondensedClosure`], never materializes per-node rows at
//! all: it stores one closed row per strong component (bitsets over
//! *component* indices), so a graph that is one giant cycle closes in
//! `O(n + E)` instead of `Θ(n²)` — the representation-level counterpart of
//! the condensation sweep `BitGraph::close_transitively` runs.
//!
//! The row-extraction contract mirrors `BitGraph` exactly —
//! [`ChunkedBitGraph::reachable_into`] and [`CondensedClosure::row_into`]
//! fill the same word buffers as `BitGraph::reachable_into` — so the
//! backends compare row for row.

use crate::bitgraph::{row_bits, words_for};
use crate::{DiGraph, SccScratch};
use std::collections::BTreeSet;

/// Sparse rows promote to dense words once they hold more than
/// `columns / SPARSE_BYTES_PER_ENTRY_RATIO` entries: a sorted `u32` entry
/// costs 4 bytes, a dense row `columns / 8` bytes, so the break-even is at
/// `columns / 32` set bits (floored at a small constant so tiny rows never
/// flap representations).
const fn promote_cap(columns: usize) -> usize {
    let cap = columns / 32;
    if cap < 8 {
        8
    } else {
        cap
    }
}

/// One adjacency row: sorted sparse indices while cold, dense words once
/// hot. All operations take the column count context from the caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ChunkedRow {
    /// Ascending column indices; at most [`promote_cap`] entries.
    Sparse(Vec<u32>),
    /// `words_for(columns)` words, trailing bits past the column count zero.
    Dense(Vec<u64>),
}

impl Default for ChunkedRow {
    fn default() -> Self {
        ChunkedRow::Sparse(Vec::new())
    }
}

impl ChunkedRow {
    fn clear(&mut self) {
        *self = ChunkedRow::Sparse(match std::mem::take(self) {
            ChunkedRow::Sparse(mut v) => {
                v.clear();
                v
            }
            ChunkedRow::Dense(_) => Vec::new(),
        });
    }

    fn contains(&self, v: usize) -> bool {
        match self {
            ChunkedRow::Sparse(s) => s.binary_search(&(v as u32)).is_ok(),
            ChunkedRow::Dense(w) => w[v / 64] & (1u64 << (v % 64)) != 0,
        }
    }

    fn count(&self) -> usize {
        match self {
            ChunkedRow::Sparse(s) => s.len(),
            ChunkedRow::Dense(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
        }
    }

    fn promote(&mut self, columns: usize) {
        if let ChunkedRow::Sparse(s) = self {
            let mut words = vec![0u64; words_for(columns)];
            for &v in s.iter() {
                words[v as usize / 64] |= 1u64 << (v % 64);
            }
            *self = ChunkedRow::Dense(words);
        }
    }

    /// Inserts column `v`; promotes past the cap. Returns whether it is new.
    fn insert(&mut self, v: usize, columns: usize) -> bool {
        match self {
            ChunkedRow::Sparse(s) => match s.binary_search(&(v as u32)) {
                Ok(_) => false,
                Err(pos) => {
                    s.insert(pos, v as u32);
                    if s.len() > promote_cap(columns) {
                        self.promote(columns);
                    }
                    true
                }
            },
            ChunkedRow::Dense(w) => {
                let slot = &mut w[v / 64];
                let bit = 1u64 << (v % 64);
                let fresh = *slot & bit == 0;
                *slot |= bit;
                fresh
            }
        }
    }

    /// `self |= other`, promoting when the merged sparse form would exceed
    /// the cap (or when the other side is already dense — a dense operand
    /// means the union is hot anyway, and word ORs beat element merges).
    fn or_from(&mut self, other: &ChunkedRow, columns: usize) {
        match (&mut *self, other) {
            (ChunkedRow::Dense(d), ChunkedRow::Dense(o)) => {
                for (dw, ow) in d.iter_mut().zip(o) {
                    *dw |= *ow;
                }
            }
            (ChunkedRow::Dense(d), ChunkedRow::Sparse(o)) => {
                for &v in o {
                    d[v as usize / 64] |= 1u64 << (v % 64);
                }
            }
            (ChunkedRow::Sparse(_), ChunkedRow::Dense(_)) => {
                self.promote(columns);
                self.or_from(other, columns);
            }
            (ChunkedRow::Sparse(s), ChunkedRow::Sparse(o)) => {
                if s.len() + o.len() > promote_cap(columns) {
                    self.promote(columns);
                    self.or_from(other, columns);
                    return;
                }
                let mut merged = Vec::with_capacity(s.len() + o.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < s.len() && j < o.len() {
                    match s[i].cmp(&o[j]) {
                        std::cmp::Ordering::Less => {
                            merged.push(s[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(o[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(s[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&s[i..]);
                merged.extend_from_slice(&o[j..]);
                *s = merged;
                if s.len() > promote_cap(columns) {
                    self.promote(columns);
                }
            }
        }
    }

    /// Calls `f` for every set column, ascending.
    fn for_each<F: FnMut(usize)>(&self, mut f: F) {
        match self {
            ChunkedRow::Sparse(s) => {
                for &v in s {
                    f(v as usize);
                }
            }
            ChunkedRow::Dense(w) => {
                for v in row_bits(w) {
                    f(v);
                }
            }
        }
    }
}

/// A directed graph over `0..n` with per-row hybrid storage: memory tracks
/// the edge count (4 bytes per sparse edge) instead of `BitGraph`'s flat
/// `n²/64` words, while hot rows promote to dense words and keep their
/// word-parallel operations. The compressed relation backend's input form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkedBitGraph {
    n: usize,
    rows: Vec<ChunkedRow>,
}

impl ChunkedBitGraph {
    /// An empty graph with no nodes.
    pub fn new() -> Self {
        ChunkedBitGraph::default()
    }

    /// A graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = ChunkedBitGraph::new();
        g.rows.resize_with(n, ChunkedRow::default);
        g.n = n;
        g
    }

    /// Builds the compressed form of a sparse graph.
    pub fn from_digraph(g: &DiGraph) -> Self {
        let mut out = ChunkedBitGraph::new();
        out.load_from(g);
        out
    }

    /// Reloads from a sparse graph, reusing row allocations — the scratch
    /// path of the checking engine, mirroring `BitGraph::load_from`.
    pub fn load_from(&mut self, g: &DiGraph) {
        let n = g.node_count();
        self.rows.truncate(n);
        for row in &mut self.rows {
            row.clear();
        }
        self.rows.resize_with(n, ChunkedRow::default);
        self.n = n;
        for u in 0..n {
            // DiGraph successors are ascending, so these are ordered pushes.
            for v in g.successors(u) {
                self.rows[u].insert(v, n);
            }
        }
    }

    /// Converts back to the sparse representation.
    pub fn to_digraph(&self) -> DiGraph {
        let succs: Vec<BTreeSet<usize>> = self
            .rows
            .iter()
            .map(|row| {
                let mut set = BTreeSet::new();
                row.for_each(|v| {
                    set.insert(v);
                });
                set
            })
            .collect();
        DiGraph::from_successor_sets(succs)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Words per dense row buffer (`ceil(n/64)`, the `BitGraph` contract).
    pub fn words_per_row(&self) -> usize {
        words_for(self.n)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(ChunkedRow::count).sum()
    }

    /// Adds edge `u -> v` (both must be `< node_count`). Returns whether
    /// the edge is new. Bounds are real asserts, like `BitGraph::add_edge`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(
            u < self.n && v < self.n,
            "edge ({u}, {v}) out of range for {} nodes",
            self.n
        );
        self.rows[u].insert(v, self.n)
    }

    /// Whether edge `u -> v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && self.rows[u].contains(v)
    }

    /// Successors of `u` in ascending order.
    pub fn successors(&self, u: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.rows[u].for_each(|v| out.push(v));
        out
    }

    /// Writes the nodes reachable from `start` by paths of length ≥ 1 into
    /// `out` — same contract (and same real length check) as
    /// `BitGraph::reachable_into`, but the traversal touches only actual
    /// edges, so cost is `O(reached rows)` not `O(n · words)`.
    pub fn reachable_into(&self, start: usize, out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.words_per_row(),
            "reachable_into needs a buffer of exactly words_per_row() words"
        );
        out.fill(0);
        let mut stack: Vec<usize> = self.successors(start);
        while let Some(v) = stack.pop() {
            let slot = &mut out[v / 64];
            let bit = 1u64 << (v % 64);
            if *slot & bit != 0 {
                continue;
            }
            *slot |= bit;
            self.rows[v].for_each(|w| {
                if out[w / 64] & (1u64 << (w % 64)) == 0 {
                    stack.push(w);
                }
            });
        }
    }

    /// The transitive closure as a [`CondensedClosure`]: Tarjan's components
    /// (shared generic implementation, identical emission order to the
    /// sparse and dense backends), closed at component granularity so all
    /// members of a strong component share one row.
    pub fn condensed_closure(&self) -> CondensedClosure {
        self.condensed_closure_with(&mut SccScratch::new())
    }

    /// [`ChunkedBitGraph::condensed_closure`] reusing Tarjan buffers.
    pub fn condensed_closure_with(&self, scratch: &mut SccScratch) -> CondensedClosure {
        let comps_usize = crate::algo::scc_with_successors(
            self.n,
            |v, out| self.rows[v].for_each(|w| out.push(w)),
            scratch,
        );
        let ncomps = comps_usize.len();
        let mut comp_of = vec![0u32; self.n];
        let mut members: Vec<Vec<u32>> = Vec::with_capacity(ncomps);
        for (c, comp) in comps_usize.iter().enumerate() {
            for &m in comp {
                comp_of[m] = c as u32;
            }
            members.push(comp.iter().map(|&m| m as u32).collect());
        }
        // Reverse-topological emission order: every successor component of c
        // has index < c, so one forward pass closes the condensation DAG.
        let mut closed: Vec<ChunkedRow> = Vec::with_capacity(ncomps);
        closed.resize_with(ncomps, ChunkedRow::default);
        let mut cyclic = vec![false; ncomps];
        let mut succ_comps: Vec<usize> = Vec::new();
        let mut seen = vec![u32::MAX; ncomps];
        for (c, comp) in comps_usize.iter().enumerate() {
            cyclic[c] = comp.len() > 1;
            succ_comps.clear();
            for &m in comp {
                self.rows[m].for_each(|v| {
                    let d = comp_of[v] as usize;
                    if d == c {
                        cyclic[c] = true;
                    } else if seen[d] != c as u32 {
                        seen[d] = c as u32;
                        succ_comps.push(d);
                    }
                });
            }
            let (head, tail) = closed.split_at_mut(c);
            let row_c = &mut tail[0];
            for &d in &succ_comps {
                row_c.insert(d, ncomps);
                row_c.or_from(&head[d], ncomps);
            }
        }
        CondensedClosure {
            n: self.n,
            comp_of,
            members,
            cyclic,
            closed,
        }
    }
}

/// The transitive closure of a [`ChunkedBitGraph`], stored condensed: one
/// closed row per strong component (a hybrid bitset over *component*
/// indices) plus the member lists. Every member of a component has the
/// identical closure row, so a graph dominated by large components costs
/// `O(n + component-level closure)` memory — a one-giant-cycle graph whose
/// dense closure is `Θ(n²)` bits stores here as one component with an empty
/// successor row.
#[derive(Clone, Debug)]
pub struct CondensedClosure {
    n: usize,
    comp_of: Vec<u32>,
    /// Per component, its member nodes ascending.
    members: Vec<Vec<u32>>,
    /// Whether the component is a cycle (size > 1 or a self-loop): members
    /// then reach every member including themselves.
    cyclic: Vec<bool>,
    /// Per component, the set of *other* components it reaches.
    closed: Vec<ChunkedRow>,
}

impl CondensedClosure {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of strong components.
    pub fn component_count(&self) -> usize {
        self.members.len()
    }

    /// Words per dense row buffer (the `BitGraph` contract over `n`).
    pub fn words_per_row(&self) -> usize {
        words_for(self.n)
    }

    /// The component index of `u`.
    pub fn component_of(&self, u: usize) -> usize {
        self.comp_of[u] as usize
    }

    /// Whether the closure has edge `u -> v` — an `O(1)`/`O(log)` lookup,
    /// no row materialization.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        let (c, d) = (self.comp_of[u] as usize, self.comp_of[v] as usize);
        if c == d {
            self.cyclic[c]
        } else {
            self.closed[c].contains(d)
        }
    }

    /// Total closure edges, counted component-wise without expanding rows:
    /// every member of `c` reaches all members of each reached component,
    /// plus all members of `c` itself (including self) when `c` is cyclic.
    pub fn edge_count(&self) -> usize {
        let mut total = 0usize;
        for (c, members) in self.members.iter().enumerate() {
            let mut per_member = 0usize;
            self.closed[c].for_each(|d| per_member += self.members[d].len());
            if self.cyclic[c] {
                per_member += members.len();
            }
            total += members.len() * per_member;
        }
        total
    }

    /// Writes node `u`'s closed row as dense words over `n` columns — the
    /// same buffer shape `BitGraph::reachable_into` fills, with the same
    /// real length check.
    pub fn row_into(&self, u: usize, out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.words_per_row(),
            "row_into needs a buffer of exactly words_per_row() words"
        );
        out.fill(0);
        let c = self.comp_of[u] as usize;
        self.closed[c].for_each(|d| {
            for &m in &self.members[d] {
                out[m as usize / 64] |= 1u64 << (m % 64);
            }
        });
        if self.cyclic[c] {
            for &m in &self.members[c] {
                out[m as usize / 64] |= 1u64 << (m % 64);
            }
        }
    }

    /// Converts to the sparse representation. Each component's successor
    /// set is built once and cloned to its members (their rows are
    /// identical), so cost is `O(output)`, not `O(members × output)` work
    /// per set construction.
    pub fn to_digraph(&self) -> DiGraph {
        let mut comp_sets: Vec<BTreeSet<usize>> = Vec::with_capacity(self.members.len());
        for (c, members) in self.members.iter().enumerate() {
            let mut set = BTreeSet::new();
            self.closed[c].for_each(|d| {
                for &m in &self.members[d] {
                    set.insert(m as usize);
                }
            });
            if self.cyclic[c] {
                for &m in members {
                    set.insert(m as usize);
                }
            }
            comp_sets.push(set);
        }
        let succs: Vec<BTreeSet<usize>> = (0..self.n)
            .map(|u| comp_sets[self.comp_of[u] as usize].clone())
            .collect();
        DiGraph::from_successor_sets(succs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{transitive_closure, BitGraph};

    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        let mut g = DiGraph::with_nodes(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn row_promotes_and_stays_equal() {
        // 512 columns: cap is 16, so the 17th insert promotes.
        let mut row = ChunkedRow::default();
        for v in 0..16usize {
            row.insert(v * 3, 512);
        }
        assert!(matches!(row, ChunkedRow::Sparse(_)));
        row.insert(500, 512);
        assert!(matches!(row, ChunkedRow::Dense(_)));
        assert_eq!(row.count(), 17);
        assert!(row.contains(500) && row.contains(45) && !row.contains(1));
    }

    #[test]
    fn chunked_roundtrip_and_queries() {
        let g = graph(130, &[(0, 129), (129, 64), (3, 3), (64, 63)]);
        let c = ChunkedBitGraph::from_digraph(&g);
        assert_eq!(c.to_digraph(), g);
        assert_eq!(c.edge_count(), 4);
        assert!(c.has_edge(0, 129) && !c.has_edge(129, 0));
        assert_eq!(c.successors(129), vec![64]);
    }

    #[test]
    fn chunked_reachability_matches_dense() {
        let g = graph(70, &[(0, 1), (1, 2), (2, 0), (2, 65), (65, 69), (4, 5)]);
        let chunked = ChunkedBitGraph::from_digraph(&g);
        let dense = BitGraph::from_digraph(&g);
        let words = dense.words_per_row();
        let (mut a, mut b) = (vec![0u64; words], vec![0u64; words]);
        for u in 0..70 {
            chunked.reachable_into(u, &mut a);
            dense.reachable_into(u, &mut b);
            assert_eq!(a, b, "source {u}");
        }
    }

    #[test]
    fn condensed_closure_on_giant_cycle_is_one_component() {
        let n = 300;
        let mut g = DiGraph::with_nodes(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        let closed = ChunkedBitGraph::from_digraph(&g).condensed_closure();
        assert_eq!(closed.component_count(), 1);
        assert_eq!(closed.edge_count(), n * n);
        assert!(closed.has_edge(7, 7) && closed.has_edge(299, 0));
        assert_eq!(closed.to_digraph(), transitive_closure(&g));
    }

    #[test]
    fn condensed_closure_on_singletons_is_empty() {
        let g = DiGraph::with_nodes(50);
        let closed = ChunkedBitGraph::from_digraph(&g).condensed_closure();
        assert_eq!(closed.component_count(), 50);
        assert_eq!(closed.edge_count(), 0);
        assert!(!closed.has_edge(3, 3));
    }

    #[test]
    fn condensed_closure_mixed_matches_sparse() {
        // Two cycles bridged through a chain, plus a self-loop and an
        // isolated node — every component flavour at once.
        let g = graph(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
                (7, 7),
                (7, 0),
                (9, 10),
            ],
        );
        let closed = ChunkedBitGraph::from_digraph(&g).condensed_closure();
        assert_eq!(closed.to_digraph(), transitive_closure(&g));
        assert!(closed.has_edge(7, 7), "self-loop is cyclic");
        assert!(!closed.has_edge(11, 11), "isolated node reaches nothing");
    }

    #[test]
    #[should_panic(expected = "words_per_row")]
    fn reachable_into_rejects_short_buffer() {
        let g = ChunkedBitGraph::with_nodes(100);
        let mut short = vec![0u64; 1];
        g.reachable_into(0, &mut short);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_out_of_range_target() {
        // 3 nodes: v = 5 is inside the single trailing word but past n.
        ChunkedBitGraph::with_nodes(3).add_edge(0, 5);
    }
}
