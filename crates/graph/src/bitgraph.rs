//! Dense word-parallel relation kernels.
//!
//! [`BitGraph`] stores adjacency as row-major `u64` words — 64 successors
//! per AND/OR — so the three kernels every Comp-C verdict bottoms out in
//! (transitive closure, reachability, incremental order splicing) become
//! word-parallel sweeps instead of pointer-chasing `BTreeSet` walks.
//! [`BitOrderRel`] is the dense counterpart of [`PartialOrderRel`]: the same
//! strict-partial-order semantics with inserts spliced by row OR.
//!
//! [`DiGraph`] stays the sparse build-time representation; callers convert
//! at a size-based crossover (see `compc-core`'s checker options and
//! DESIGN.md's two-representation policy). The differential property suite
//! (`tests/bitgraph_equiv.rs`) pins both backends pair-for-pair identical.

use crate::order::{OrderError, PartialOrderRel};
use crate::DiGraph;
use std::collections::BTreeSet;

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
        let n = g.node_count();
        self.n = n;
        self.words = words_for(n);
        self.rows.clear();
        self.rows.resize(n * self.words, 0);
        for (u, v) in g.edges() {
            self.rows[u * self.words + v / 64] |= 1u64 << (v % 64);
        }
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
        let n = self.n;
        let mut indeg = vec![0u32; n];
        for u in 0..n {
            for v in self.successors(u) {
                indeg[v] += 1;
            }
        }
        // The ready set is itself a bitset; popping the lowest set bit keeps
        // the order deterministic without a heap.
        let mut ready = vec![0u64; self.words];
        for (v, &d) in indeg.iter().enumerate() {
            if d == 0 {
                ready[v / 64] |= 1u64 << (v % 64);
            }
        }
        let mut out = Vec::with_capacity(n);
        loop {
            let Some(v) = row_bits(&ready).next() else {
                break;
            };
            ready[v / 64] &= !(1u64 << (v % 64));
            out.push(v);
            for w in self.successors(v) {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    ready[w / 64] |= 1u64 << (w % 64);
                }
            }
        }
        (out.len() == n).then_some(out)
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
        match self.topo_order() {
            Some(order) => {
                let mut direct: Vec<usize> = Vec::new();
                for &u in order.iter().rev() {
                    direct.clear();
                    direct.extend(self.successors(u));
                    for &v in &direct {
                        self.or_row_into(u, v);
                    }
                }
            }
            None => self.close_via_condensation(),
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

    /// Whether any node reaches itself through a nonempty path — in a
    /// transitively closed graph this is just a diagonal-bit scan.
    pub fn has_diagonal(&self) -> bool {
        (0..self.n).any(|u| self.has_edge(u, u))
    }
}

/// The dense counterpart of [`PartialOrderRel`]: a strict partial order
/// whose transitive closure is maintained by word-parallel row splices.
///
/// Successor *and* predecessor rows are kept (the transpose), so an insert
/// is `O(|pred(a)| + |succ(b)|)` row ORs instead of nested scalar loops,
/// and `contains`/`restricted_to` are word-wise subset/mask operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitOrderRel {
    n: usize,
    words: usize,
    succ: Vec<u64>,
    pred: Vec<u64>,
}

impl BitOrderRel {
    /// The empty order.
    pub fn new() -> Self {
        BitOrderRel::default()
    }

    /// An empty order over at least `n` elements.
    pub fn with_elements(n: usize) -> Self {
        let words = words_for(n);
        BitOrderRel {
            n,
            words,
            succ: vec![0; n * words],
            pred: vec![0; n * words],
        }
    }

    /// Builds an order from pairs, failing on the first violation —
    /// identical semantics to [`PartialOrderRel::from_pairs`].
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(
        pairs: I,
    ) -> Result<Self, OrderError> {
        let mut rel = BitOrderRel::new();
        for (a, b) in pairs {
            rel.insert(a, b)?;
        }
        Ok(rel)
    }

    /// Imports a sparse order (closure copied row by row).
    pub fn from_partial_order(rel: &PartialOrderRel) -> Self {
        let mut out = BitOrderRel::with_elements(rel.element_count());
        for (a, b) in rel.pairs() {
            out.set_pair(a, b);
        }
        out
    }

    /// Exports to the sparse representation.
    pub fn to_partial_order(&self) -> PartialOrderRel {
        PartialOrderRel::from_pairs(self.pairs()).expect("a valid order round-trips")
    }

    /// Number of elements the order spans.
    pub fn element_count(&self) -> usize {
        self.n
    }

    /// Number of related pairs in the closure.
    pub fn pair_count(&self) -> usize {
        self.succ.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `a < b` holds (in the transitive closure).
    #[inline]
    pub fn lt(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.succ[a * self.words + b / 64] & (1u64 << (b % 64)) != 0
    }

    /// Whether `a` and `b` are comparable in either direction.
    pub fn comparable(&self, a: usize, b: usize) -> bool {
        self.lt(a, b) || self.lt(b, a)
    }

    /// Grows the element set so `idx` is valid, re-laying rows if the word
    /// width changes.
    pub fn ensure_element(&mut self, idx: usize) {
        if idx < self.n {
            return;
        }
        let n2 = idx + 1;
        let w2 = words_for(n2);
        let relayout = |rows: &Vec<u64>, n: usize, w: usize| {
            let mut out = vec![0u64; n2 * w2];
            for u in 0..n {
                out[u * w2..u * w2 + w].copy_from_slice(&rows[u * w..(u + 1) * w]);
            }
            out
        };
        self.succ = relayout(&self.succ, self.n, self.words);
        self.pred = relayout(&self.pred, self.n, self.words);
        self.n = n2;
        self.words = w2;
    }

    #[inline]
    fn set_pair(&mut self, a: usize, b: usize) {
        self.succ[a * self.words + b / 64] |= 1u64 << (b % 64);
        self.pred[b * self.words + a / 64] |= 1u64 << (a % 64);
    }

    /// Inserts `a < b` and closes transitively by row splicing:
    /// `succ(x) |= rhs` for every `x ∈ pred(a) ∪ {a}` and
    /// `pred(y) |= lhs` for every `y ∈ succ(b) ∪ {b}` — word-wise ORs in
    /// place of [`PartialOrderRel::insert`]'s nested scalar loops. Returns
    /// whether the pair was new.
    pub fn insert(&mut self, a: usize, b: usize) -> Result<bool, OrderError> {
        if a == b {
            return Err(OrderError::Reflexive(a));
        }
        self.ensure_element(a.max(b));
        if self.lt(b, a) {
            return Err(OrderError::Contradiction { attempted: (a, b) });
        }
        if self.lt(a, b) {
            return Ok(false);
        }
        let w = self.words;
        let mut lhs: Vec<u64> = self.pred[a * w..(a + 1) * w].to_vec();
        lhs[a / 64] |= 1u64 << (a % 64);
        let mut rhs: Vec<u64> = self.succ[b * w..(b + 1) * w].to_vec();
        rhs[b / 64] |= 1u64 << (b % 64);
        // A common element would splice x < x; unreachable given the
        // `lt(b, a)` check above, but kept for parity with the sparse path.
        if lhs.iter().zip(&rhs).any(|(l, r)| l & r != 0) {
            return Err(OrderError::Contradiction { attempted: (a, b) });
        }
        for x in row_bits(&lhs) {
            for (sw, rw) in self.succ[x * w..(x + 1) * w].iter_mut().zip(&rhs) {
                *sw |= rw;
            }
        }
        for y in row_bits(&rhs) {
            for (pw, lw) in self.pred[y * w..(y + 1) * w].iter_mut().zip(&lhs) {
                *pw |= lw;
            }
        }
        Ok(true)
    }

    /// All pairs `(a, b)` with `a < b`, lexicographically.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| {
            row_bits(&self.succ[a * self.words..(a + 1) * self.words]).map(move |b| (a, b))
        })
    }

    /// Whether every pair of `other` is contained in `self` — a word-wise
    /// subset test per row.
    pub fn contains(&self, other: &BitOrderRel) -> bool {
        for a in 0..other.n {
            let orow = &other.succ[a * other.words..(a + 1) * other.words];
            if a >= self.n {
                if orow.iter().any(|&w| w != 0) {
                    return false;
                }
                continue;
            }
            let srow = &self.succ[a * self.words..(a + 1) * self.words];
            for (i, &ow) in orow.iter().enumerate() {
                let sw = srow.get(i).copied().unwrap_or(0);
                if ow & !sw != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Union with another order; fails if the union is contradictory.
    ///
    /// The fast path ORs the two closures row-wise, re-closes with the
    /// word-parallel Warshall sweep and scans the diagonal; only a
    /// contradictory union falls back to pair-at-a-time insertion so the
    /// reported offending pair matches [`PartialOrderRel::try_union`].
    pub fn try_union(&self, other: &BitOrderRel) -> Result<BitOrderRel, OrderError> {
        let mut out = self.clone();
        if other.n > 0 {
            out.ensure_element(other.n - 1);
        }
        let w = out.words;
        for a in 0..other.n {
            let orow = &other.succ[a * other.words..(a + 1) * other.words];
            for (i, &ow) in orow.iter().enumerate() {
                out.succ[a * w + i] |= ow;
            }
        }
        // Word-parallel Warshall on the union, then a diagonal scan.
        let mut g = BitGraph {
            n: out.n,
            words: w,
            rows: std::mem::take(&mut out.succ),
        };
        g.close_transitively();
        if g.has_diagonal() {
            // Contradictory: redo sequentially for the exact error pair.
            let mut redo = self.clone();
            for (a, b) in other.pairs() {
                redo.insert(a, b)?;
            }
            unreachable!("diagonal bit implies some insert must fail");
        }
        out.succ = g.rows;
        // Rebuild the transpose.
        out.pred.clear();
        out.pred.resize(out.n * w, 0);
        for a in 0..out.n {
            for b in row_bits(&out.succ[a * w..(a + 1) * w]) {
                out.pred[b * w + a / 64] |= 1u64 << (a % 64);
            }
        }
        Ok(out)
    }

    /// Whether the order is total over the given elements.
    pub fn is_total_over(&self, elements: &[usize]) -> bool {
        for (i, &a) in elements.iter().enumerate() {
            for &b in &elements[i + 1..] {
                if !self.comparable(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Restricts the order to the given elements — a row mask: the
    /// restriction of a transitively closed relation is itself closed, so
    /// no re-closure is needed.
    pub fn restricted_to(&self, keep: &[usize]) -> BitOrderRel {
        let mut mask = vec![0u64; self.words];
        for &k in keep {
            if k < self.n {
                mask[k / 64] |= 1u64 << (k % 64);
            }
        }
        let mut out = BitOrderRel::with_elements(self.n);
        let w = self.words;
        for u in row_bits(&mask) {
            for (i, &m) in mask.iter().enumerate() {
                out.succ[u * w + i] = self.succ[u * w + i] & m;
                out.pred[u * w + i] = self.pred[u * w + i] & m;
            }
        }
        out
    }

    /// A linear extension (deterministic smallest-ready-first topological
    /// order over `0..element_count()`).
    pub fn linear_extension(&self) -> Vec<usize> {
        BitGraph {
            n: self.n,
            words: self.words,
            rows: self.succ.clone(),
        }
        .topo_order()
        .expect("a valid partial order is acyclic by construction")
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
        assert!(g.has_diagonal());
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

    #[test]
    fn order_insert_splices_closure() {
        let mut rel = BitOrderRel::new();
        rel.insert(0, 1).unwrap();
        rel.insert(2, 3).unwrap();
        assert!(!rel.lt(0, 3));
        rel.insert(1, 2).unwrap();
        assert!(rel.lt(0, 3) && rel.lt(0, 2) && rel.lt(1, 3));
        assert_eq!(
            rel.insert(3, 0),
            Err(OrderError::Contradiction { attempted: (3, 0) })
        );
        assert_eq!(rel.insert(1, 1), Err(OrderError::Reflexive(1)));
    }

    #[test]
    fn order_grows_across_word_boundary() {
        let mut rel = BitOrderRel::new();
        rel.insert(0, 63).unwrap();
        rel.insert(63, 64).unwrap();
        rel.insert(64, 130).unwrap();
        assert!(rel.lt(0, 130));
        assert_eq!(rel.element_count(), 131);
        let sparse = rel.to_partial_order();
        assert_eq!(
            sparse.pairs().collect::<Vec<_>>(),
            rel.pairs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn union_and_containment() {
        let a = BitOrderRel::from_pairs([(0, 1)]).unwrap();
        let b = BitOrderRel::from_pairs([(1, 2)]).unwrap();
        let u = a.try_union(&b).unwrap();
        assert!(u.lt(0, 2));
        assert!(u.contains(&a) && u.contains(&b) && !a.contains(&u));
        let c = BitOrderRel::from_pairs([(1, 0)]).unwrap();
        assert_eq!(
            a.try_union(&c),
            Err(OrderError::Contradiction { attempted: (1, 0) })
        );
    }

    #[test]
    fn restriction_is_mask() {
        let rel = BitOrderRel::from_pairs([(0, 1), (1, 2), (3, 4)]).unwrap();
        let r = rel.restricted_to(&[0, 2, 3]);
        assert!(r.lt(0, 2));
        assert!(!r.lt(3, 4) && !r.lt(0, 1));
        // Parity with the sparse restriction.
        let sparse = rel.to_partial_order().restricted_to(&[0, 2, 3]);
        assert_eq!(
            sparse.pairs().collect::<Vec<_>>(),
            r.pairs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn linear_extension_respects_order() {
        let rel = BitOrderRel::from_pairs([(2, 0), (0, 1)]).unwrap();
        let ext = rel.linear_extension();
        let pos = |x: usize| ext.iter().position(|&e| e == x).unwrap();
        assert!(pos(2) < pos(0) && pos(0) < pos(1));
    }
}
