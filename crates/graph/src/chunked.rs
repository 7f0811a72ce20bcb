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
//! [`ChunkedRow`] is also the reduction's row type: a front's member set
//! and its order rows are `ChunkedRow`s, combined by masked ORs and
//! masked iteration that cost `O(min(entries, n/64))` per row, and the
//! closures write their result back into the rows in place.
//!
//! The row-extraction contract mirrors `BitGraph` exactly —
//! [`ChunkedBitGraph::reachable_into`] and [`CondensedClosure::row_into`]
//! fill the same word buffers as `BitGraph::reachable_into` — so the
//! backends compare row for row.

use crate::bitgraph::{row_bits, words_for};
use crate::{BitGraph, DiGraph, SccScratch};
use std::collections::BTreeSet;

/// Sparse rows promote to dense words once they hold more than
/// `columns / 32` entries: a sorted `u32` entry
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

/// One relation row (or one set of node ids): sorted sparse indices while
/// cold, dense words once hot. Every operation takes the column count from
/// the caller, and costs `O(min(entries, columns/64))` per operand row, so
/// a cold row of a large relation never scans its full word width.
///
/// A dense row may be narrower than the caller's column count (a row
/// promoted while its relation spanned fewer columns): its missing words
/// read as zero, and an insert or OR past its end widens it.
///
/// Equality is by content: a sparse and a dense row holding the same
/// columns are equal.
#[derive(Clone, Debug)]
pub enum ChunkedRow {
    /// Ascending column indices; at most `max(columns / 32, 8)` entries.
    Sparse(Vec<u32>),
    /// `ceil(columns / 64)` words, trailing bits past the column count zero.
    Dense(Vec<u64>),
}

impl Default for ChunkedRow {
    fn default() -> Self {
        ChunkedRow::Sparse(Vec::new())
    }
}

impl PartialEq for ChunkedRow {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ChunkedRow::Sparse(a), ChunkedRow::Sparse(b)) => a == b,
            // Dense rows of one relation may differ in width (an order's
            // rows widen as it grows): the longer row's extra words are zero.
            (ChunkedRow::Dense(a), ChunkedRow::Dense(b)) => {
                let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
            }
            _ => self.count() == other.count() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for ChunkedRow {}

impl ChunkedRow {
    /// An empty row.
    pub fn new() -> Self {
        ChunkedRow::default()
    }

    /// The row holding the set bits of `words`, sparse when they are few.
    pub fn from_words(words: &[u64], columns: usize) -> Self {
        let count: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if count > promote_cap(columns) {
            ChunkedRow::Dense(words.to_vec())
        } else {
            ChunkedRow::Sparse(row_bits(words).map(|v| v as u32).collect())
        }
    }

    /// Empties the row, keeping a sparse row's buffer.
    pub(crate) fn clear(&mut self) {
        *self = ChunkedRow::Sparse(match std::mem::take(self) {
            ChunkedRow::Sparse(mut v) => {
                v.clear();
                v
            }
            ChunkedRow::Dense(_) => Vec::new(),
        });
    }

    /// Whether column `v` is set.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        match self {
            ChunkedRow::Sparse(s) => s.binary_search(&(v as u32)).is_ok(),
            ChunkedRow::Dense(w) => w.get(v / 64).is_some_and(|x| x & (1u64 << (v % 64)) != 0),
        }
    }

    /// Number of set columns.
    pub fn count(&self) -> usize {
        match self {
            ChunkedRow::Sparse(s) => s.len(),
            ChunkedRow::Dense(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
        }
    }

    /// Whether no column is set.
    pub fn is_empty(&self) -> bool {
        match self {
            ChunkedRow::Sparse(s) => s.is_empty(),
            ChunkedRow::Dense(w) => w.iter().all(|&x| x == 0),
        }
    }

    /// The set columns, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (sparse, dense) = match self {
            ChunkedRow::Sparse(s) => (Some(s.iter().map(|&v| v as usize)), None),
            ChunkedRow::Dense(w) => (None, Some(row_bits(w))),
        };
        sparse
            .into_iter()
            .flatten()
            .chain(dense.into_iter().flatten())
    }

    fn promote(&mut self, columns: usize) {
        if let ChunkedRow::Sparse(s) = self {
            let width = s.last().map_or(0, |&v| v as usize + 1).max(columns);
            let mut words = vec![0u64; words_for(width)];
            for &v in s.iter() {
                words[v as usize / 64] |= 1u64 << (v % 64);
            }
            *self = ChunkedRow::Dense(words);
        }
    }

    /// Inserts column `v`; promotes past the cap. Returns whether it is new.
    pub fn insert(&mut self, v: usize, columns: usize) -> bool {
        match self {
            ChunkedRow::Sparse(s) => {
                // Ascending pushes, the common case, skip the search.
                let pos = match s.last() {
                    Some(&last) if (last as usize) < v => s.len(),
                    _ => match s.binary_search(&(v as u32)) {
                        Ok(_) => return false,
                        Err(pos) => pos,
                    },
                };
                s.insert(pos, v as u32);
                if s.len() > promote_cap(columns) {
                    self.promote(columns);
                }
                true
            }
            ChunkedRow::Dense(w) => {
                if v / 64 >= w.len() {
                    w.resize(v / 64 + 1, 0);
                }
                let slot = &mut w[v / 64];
                let bit = 1u64 << (v % 64);
                let fresh = *slot & bit == 0;
                *slot |= bit;
                fresh
            }
        }
    }

    /// Removes column `v`. Returns whether it was set.
    pub fn remove(&mut self, v: usize) -> bool {
        match self {
            ChunkedRow::Sparse(s) => match s.binary_search(&(v as u32)) {
                Ok(pos) => {
                    s.remove(pos);
                    true
                }
                Err(_) => false,
            },
            ChunkedRow::Dense(w) => {
                let Some(slot) = w.get_mut(v / 64) else {
                    return false;
                };
                let bit = 1u64 << (v % 64);
                let was = *slot & bit != 0;
                *slot &= !bit;
                was
            }
        }
    }

    /// `self |= other`, promoting when the merged sparse form would exceed
    /// the cap (or when the other side is already dense — a dense operand
    /// means the union is hot anyway, and word ORs beat element merges).
    pub fn or_from(&mut self, other: &ChunkedRow, columns: usize) {
        match (&mut *self, other) {
            (_, ChunkedRow::Sparse(o)) if o.is_empty() => {}
            (ChunkedRow::Dense(d), ChunkedRow::Dense(o)) => {
                if d.len() < o.len() {
                    d.resize(o.len(), 0);
                }
                for (dw, ow) in d.iter_mut().zip(o) {
                    *dw |= *ow;
                }
            }
            (ChunkedRow::Dense(_), ChunkedRow::Sparse(o)) => {
                for &v in o {
                    self.insert(v as usize, columns);
                }
            }
            (ChunkedRow::Sparse(s), ChunkedRow::Dense(o)) if s.is_empty() => {
                *self = ChunkedRow::Dense(o.clone());
            }
            (ChunkedRow::Sparse(_), ChunkedRow::Dense(_)) => {
                self.promote(columns);
                self.or_from(other, columns);
            }
            (ChunkedRow::Sparse(s), ChunkedRow::Sparse(o)) => {
                if s.is_empty() {
                    s.extend_from_slice(o);
                    return;
                }
                if s.len() + o.len() > promote_cap(columns) {
                    self.promote(columns);
                    self.or_from(other, columns);
                    return;
                }
                merge_in_place(s, o);
                if s.len() > promote_cap(columns) {
                    self.promote(columns);
                }
            }
        }
    }

    /// `self |= src ∩ keep ∖ drop`, where an absent `keep` keeps every
    /// column and an absent `drop` drops none. A dense `src` is combined
    /// word by word; a sparse one entry by entry. A sparse `self` stays
    /// sparse while the union fits under its cap.
    pub fn or_masked(
        &mut self,
        src: &ChunkedRow,
        keep: Option<&ChunkedRow>,
        drop: Option<&ChunkedRow>,
        columns: usize,
    ) {
        let ChunkedRow::Dense(w) = src else {
            return src.for_each_masked(keep, drop, |v| {
                self.insert(v, columns);
            });
        };
        if let ChunkedRow::Sparse(s) = self {
            let (mut k, mut d) = (WordCursor::new(keep, !0), WordCursor::new(drop, 0));
            let mut total = s.len();
            let fits = w.iter().enumerate().all(|(i, &sw)| {
                total += (sw & k.word(i) & !d.word(i)).count_ones() as usize;
                total <= promote_cap(columns)
            });
            if fits {
                let mut add = Vec::new();
                src.for_each_masked(keep, drop, |v| add.push(v as u32));
                merge_in_place(s, &add);
                return;
            }
        }
        self.promote(columns);
        let ChunkedRow::Dense(d) = self else {
            unreachable!("promoted above")
        };
        if d.len() < w.len() {
            d.resize(w.len(), 0);
        }
        let (mut keep, mut drop) = (WordCursor::new(keep, !0), WordCursor::new(drop, 0));
        for (k, (dw, &sw)) in d.iter_mut().zip(w).enumerate() {
            if sw != 0 {
                *dw |= sw & keep.word(k) & !drop.word(k);
            }
        }
    }

    /// Calls `f` for every column of `self ∩ keep ∖ drop`, ascending (an
    /// absent `keep` keeps every column, an absent `drop` drops none).
    pub fn for_each_masked<F: FnMut(usize)>(
        &self,
        keep: Option<&ChunkedRow>,
        drop: Option<&ChunkedRow>,
        mut f: F,
    ) {
        match self {
            ChunkedRow::Sparse(s) => {
                for &v in s {
                    let v = v as usize;
                    if keep.is_none_or(|k| k.contains(v)) && !drop.is_some_and(|d| d.contains(v)) {
                        f(v);
                    }
                }
            }
            ChunkedRow::Dense(w) => {
                let (mut keep, mut drop) = (WordCursor::new(keep, !0), WordCursor::new(drop, 0));
                for (k, &sw) in w.iter().enumerate() {
                    if sw == 0 {
                        continue;
                    }
                    let mut bits = sw & keep.word(k) & !drop.word(k);
                    while bits != 0 {
                        f(k * 64 + bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Calls `f` for every column of `self` not in `seen` when the walk
    /// reaches it, ascending; `f` may add columns to `seen`, and a dense
    /// row skips what they cover a word at a time.
    pub(crate) fn for_each_outside<F: FnMut(usize, &mut ChunkedRow)>(
        &self,
        seen: &mut ChunkedRow,
        mut f: F,
    ) {
        match self {
            ChunkedRow::Sparse(s) => {
                for &v in s {
                    if !seen.contains(v as usize) {
                        f(v as usize, seen);
                    }
                }
            }
            ChunkedRow::Dense(w) => {
                for (k, &sw) in w.iter().enumerate() {
                    let mut bits = sw & !seen.word(k);
                    while bits != 0 {
                        f(k * 64 + bits.trailing_zeros() as usize, seen);
                        bits &= (bits - 1) & !seen.word(k);
                    }
                }
            }
        }
    }

    /// Word `k` of the row: columns `64k..64k + 64`.
    fn word(&self, k: usize) -> u64 {
        match self {
            ChunkedRow::Dense(w) => w.get(k).copied().unwrap_or(0),
            ChunkedRow::Sparse(s) => {
                let from = s.partition_point(|&v| (v as usize) < k * 64);
                (s[from..].iter())
                    .take_while(|&&v| (v as usize) < (k + 1) * 64)
                    .fold(0, |word, &v| word | 1 << (v % 64))
            }
        }
    }

    /// `|self ∩ other|`: a popcount when both rows are dense.
    pub fn count_and(&self, other: &ChunkedRow) -> usize {
        match (self, other) {
            (ChunkedRow::Dense(a), ChunkedRow::Dense(b)) => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum(),
            (ChunkedRow::Sparse(s), row) | (row, ChunkedRow::Sparse(s)) => {
                s.iter().filter(|&&v| row.contains(v as usize)).count()
            }
        }
    }
}

/// `s ∪= o` for two ascending lists, merged from the back into `s`'s own
/// buffer: no allocation beyond `s` growing by `o.len()`.
fn merge_in_place(s: &mut Vec<u32>, o: &[u32]) {
    let (mut i, mut j) = (s.len(), o.len());
    s.resize(i + j, 0);
    let mut w = s.len();
    while j > 0 {
        w -= 1;
        if i > 0 && s[i - 1] >= o[j - 1] {
            if s[i - 1] == o[j - 1] {
                j -= 1;
            }
            i -= 1;
            s[w] = s[i];
        } else {
            j -= 1;
            s[w] = o[j];
        }
    }
    // Duplicates left a gap of `w - i` slots between the untouched prefix
    // `s[..i]` and the merged tail `s[w..]`.
    if w > i {
        s.copy_within(w.., i);
        s.truncate(s.len() - (w - i));
    }
}

/// Reads a mask row one word at a time, in ascending word order: a dense
/// mask by index, a sparse one by a cursor over its entries, so a pass over
/// all words costs `O(words + entries)`. An absent mask reads `absent`.
struct WordCursor<'a> {
    row: Option<&'a ChunkedRow>,
    absent: u64,
    next: usize,
}

impl<'a> WordCursor<'a> {
    fn new(row: Option<&'a ChunkedRow>, absent: u64) -> Self {
        WordCursor {
            row,
            absent,
            next: 0,
        }
    }

    /// Word `k`; calls must not go back to a smaller `k`.
    #[inline]
    fn word(&mut self, k: usize) -> u64 {
        match self.row {
            None => self.absent,
            Some(ChunkedRow::Dense(w)) => w.get(k).copied().unwrap_or(0),
            Some(ChunkedRow::Sparse(s)) => {
                let mut word = 0u64;
                while let Some(&v) = s.get(self.next) {
                    let v = v as usize;
                    if v / 64 > k {
                        break;
                    }
                    if v / 64 == k {
                        word |= 1u64 << (v % 64);
                    }
                    self.next += 1;
                }
                word
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
                set.extend(row.iter());
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
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.rows[u].iter()
    }

    /// All edges `(u, v)` in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |v| (u, v)))
    }

    /// Row `u`: the successors of `u` over `node_count()` columns.
    pub fn row(&self, u: usize) -> &ChunkedRow {
        &self.rows[u]
    }

    /// Row `u`, mutably; operations on it take `node_count()` as their
    /// column count.
    pub fn row_mut(&mut self, u: usize) -> &mut ChunkedRow {
        &mut self.rows[u]
    }

    /// The graph on `keep`'s nodes in which `u -> v` iff this graph has a
    /// path from `u` to `v` whose inner nodes all lie outside `keep`: paths
    /// through other nodes are cut short at their first node in `keep`, and
    /// rows of nodes outside `keep` are empty.
    pub fn shortcut_outside(&self, keep: &ChunkedRow) -> ChunkedBitGraph {
        let n = self.n;
        let mut out = ChunkedBitGraph::with_nodes(n);
        let mut seen = vec![usize::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        for a in keep.iter() {
            let (row, dst) = (&self.rows[a], &mut out.rows[a]);
            dst.or_masked(row, Some(keep), None, n);
            row.for_each_masked(None, Some(keep), |s| {
                seen[s] = a;
                stack.push(s);
            });
            while let Some(s) = stack.pop() {
                for t in self.rows[s].iter() {
                    if keep.contains(t) {
                        dst.insert(t, n);
                    } else if seen[t] != a {
                        seen[t] = a;
                        stack.push(t);
                    }
                }
            }
        }
        out
    }

    /// The graph with every node `u` merged into `comp[u]`: an edge
    /// `comp[u] -> comp[v]` for each edge `u -> v` with `comp[u] !=
    /// comp[v]`. `moved` holds the nodes with `comp[u] != u`; the rest of a
    /// row moves with word operations.
    pub fn contract(&self, comp: &[usize], moved: &ChunkedRow) -> ChunkedBitGraph {
        let n = self.n;
        let mut out = ChunkedBitGraph::with_nodes(n);
        for (u, row) in self.rows.iter().enumerate() {
            if row.is_empty() {
                continue;
            }
            let c = comp[u];
            let dst = &mut out.rows[c];
            dst.or_masked(row, None, Some(moved), n);
            row.for_each_masked(Some(moved), None, |v| {
                dst.insert(comp[v], n);
            });
            // Every edge into `c` from a node merged into `c` is internal.
            dst.remove(c);
        }
        out
    }

    /// Closes the relation transitively in place, one reachability pass
    /// per source (the sparse backend). A row already closed only adds
    /// reachable nodes to later passes, so rewriting rows as it goes keeps
    /// every pass exact.
    pub fn close_by_dfs(&mut self) {
        let mut reach = vec![0u64; self.words_per_row()];
        for u in 0..self.n {
            self.reachable_into(u, &mut reach);
            self.rows[u] = ChunkedRow::from_words(&reach, self.n);
        }
    }

    /// Closes the relation transitively in place on the flat dense rows of
    /// `dense`, a reusable buffer (the dense backend).
    pub fn close_dense(&mut self, dense: &mut BitGraph) {
        dense.reset(self.n);
        for (u, row) in self.rows.iter().enumerate() {
            for v in row.iter() {
                dense.add_edge(u, v);
            }
        }
        dense.close_transitively();
        for (u, row) in self.rows.iter_mut().enumerate() {
            *row = ChunkedRow::from_words(dense.row(u), self.n);
        }
    }

    /// Closes the relation transitively in place through its
    /// [`CondensedClosure`] (the compressed backend): each strong
    /// component's closed row is built once and copied to its members.
    pub fn close_condensed(&mut self, scratch: &mut SccScratch) {
        let closed = self.condensed_closure_with(scratch);
        let mut row: Vec<u32> = Vec::new();
        for (c, members) in closed.members.iter().enumerate() {
            row.clear();
            for d in closed.closed[c].iter() {
                row.extend(&closed.members[d]);
            }
            if closed.cyclic[c] {
                row.extend(members);
            }
            row.sort_unstable();
            let shared = if row.len() > promote_cap(self.n) {
                let mut words = vec![0u64; words_for(self.n)];
                for &v in &row {
                    words[v as usize / 64] |= 1u64 << (v % 64);
                }
                ChunkedRow::Dense(words)
            } else {
                ChunkedRow::Sparse(row.clone())
            };
            for &m in members {
                self.rows[m as usize] = shared.clone();
            }
        }
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
        let mut stack: Vec<usize> = self.successors(start).collect();
        while let Some(v) = stack.pop() {
            let slot = &mut out[v / 64];
            let bit = 1u64 << (v % 64);
            if *slot & bit != 0 {
                continue;
            }
            *slot |= bit;
            for w in self.rows[v].iter() {
                if out[w / 64] & (1u64 << (w % 64)) == 0 {
                    stack.push(w);
                }
            }
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
            |v, out| out.extend(self.rows[v].iter()),
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
                for v in self.rows[m].iter() {
                    let d = comp_of[v] as usize;
                    if d == c {
                        cyclic[c] = true;
                    } else if seen[d] != c as u32 {
                        seen[d] = c as u32;
                        succ_comps.push(d);
                    }
                }
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
            let mut per_member: usize = self.closed[c].iter().map(|d| self.members[d].len()).sum();
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
        for d in self.closed[c].iter() {
            for &m in &self.members[d] {
                out[m as usize / 64] |= 1u64 << (m % 64);
            }
        }
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
            for d in self.closed[c].iter() {
                set.extend(self.members[d].iter().map(|&m| m as usize));
            }
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
        assert_eq!(c.successors(129).collect::<Vec<_>>(), vec![64]);
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
    fn shortcut_outside_passes_through_dropped_nodes() {
        // 0 -> 5 -> 6 -> 1, 0 -> 2, 6 -> 0, 3 -> 5; keep {0, 1, 2, 3}.
        let g = graph(7, &[(0, 5), (5, 6), (6, 1), (0, 2), (6, 0), (3, 5)]);
        let mut keep = ChunkedRow::new();
        for v in [0, 1, 2, 3] {
            keep.insert(v, 7);
        }
        let cut = ChunkedBitGraph::from_digraph(&g).shortcut_outside(&keep);
        let edges: Vec<_> = cut.edges().collect();
        assert_eq!(edges, vec![(0, 0), (0, 1), (0, 2), (3, 0), (3, 1)]);
    }

    #[test]
    fn contract_merges_rows_and_drops_internal_edges() {
        // {0, 1} -> 4 and {2} -> 5; 3 stays.
        let g = graph(6, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (0, 3)]);
        let comp = [4, 4, 5, 3, 4, 5];
        let mut moved = ChunkedRow::new();
        for v in [0, 1, 2] {
            moved.insert(v, 6);
        }
        let c = ChunkedBitGraph::from_digraph(&g).contract(&comp, &moved);
        let edges: Vec<_> = c.edges().collect();
        assert_eq!(edges, vec![(3, 4), (4, 3), (4, 5), (5, 3)]);
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
