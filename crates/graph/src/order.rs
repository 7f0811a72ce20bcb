//! Strict partial orders, kept transitively closed.
//!
//! The paper's weak (`<`, `≺`, `→`) and strong (`≪`, `→→`) orders are all
//! *transitively closed strict partial orders* (Definition 1: "These orders
//! are, in all cases, transitively closed"). [`PartialOrderRel`] keeps that
//! closure. It grows one way: [`PartialOrderRel::extend`] takes a batch of
//! pairs and closes them over the order in one sweep, or rejects the batch
//! with the first pair that is reflexive or would close a cycle (i.e. a
//! contradiction `a < b` and `b < a`), leaving the order as it was.
//! [`PartialOrderRel::from_pairs`] extends the empty order. A batch's
//! extension reports what it added, for [`PartialOrderRel::undo`] to take
//! it back.

use crate::bitgraph::words_for;
use crate::{ChunkedRow, DiGraph};

/// Errors from mutating a [`PartialOrderRel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderError {
    /// Attempted to relate an element to itself (strict orders are irreflexive).
    Reflexive(usize),
    /// Inserting `(a, b)` would contradict the already-present `(b, a)`.
    Contradiction {
        /// The pair whose insertion was attempted.
        attempted: (usize, usize),
    },
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::Reflexive(a) => write!(f, "strict order cannot relate {a} to itself"),
            OrderError::Contradiction { attempted: (a, b) } => {
                write!(f, "inserting {a} < {b} contradicts existing {b} < {a}")
            }
        }
    }
}

impl std::error::Error for OrderError {}

/// The row of an element outside the span.
static EMPTY: ChunkedRow = ChunkedRow::Sparse(Vec::new());

/// A strict partial order over `usize` elements, closed under transitivity.
///
/// The closure is stored as successor rows (`a -> b` means `a < b`),
/// [`ChunkedRow`]s over absolute element ids (sorted ids while cold, dense
/// words once hot), covering only the *span* `[lo, lo + rows)` of elements
/// the order relates: a transaction's intra order over three ops with ids
/// near 4,000 holds three short rows, not 4,000. `lt` is one row lookup,
/// and a row ORs straight into any other row over the same ids.
///
/// Equality is "same pairs and same [`PartialOrderRel::element_count`]",
/// whatever the order the pairs came in or the row representation.
///
/// ```
/// use compc_graph::{OrderError, PartialOrderRel};
/// let mut rel = PartialOrderRel::from_pairs([(0, 1)]).unwrap();
/// rel.extend(&[(1, 2)], None).unwrap();
/// assert!(rel.lt(0, 2));               // transitive closure is maintained
/// let cycle = OrderError::Contradiction { attempted: (2, 0) };
/// assert_eq!(rel.extend(&[(3, 4), (2, 0)], None), Err((1, cycle)));
/// assert!(!rel.lt(3, 4));              // a rejected batch changes nothing
/// assert_eq!(PartialOrderRel::from_pairs([(0, 1), (1, 2)]).unwrap(), rel);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PartialOrderRel {
    /// The element row 0 describes.
    lo: usize,
    /// `above[i]`: the elements `b` with `lo + i < b`.
    above: Vec<ChunkedRow>,
    /// Max element index + 1, or the `with_elements` count if larger; the
    /// rows' column count.
    elements: usize,
    pairs: usize,
}

/// What one [`PartialOrderRel::extend`] added to an order: the
/// span and pair count the order had, and where the [`Gain`]s of the rows
/// of that span start in the caller's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Added {
    lo: usize,
    rows: usize,
    elements: usize,
    pairs: usize,
    gains: usize,
}

/// The columns a row gained in one word: the row's element, the word's
/// index `i` (columns `64 i` to `64 i + 63`) and the word's bits.
pub type Gain = (u32, u32, u64);

impl PartialEq for PartialOrderRel {
    fn eq(&self, other: &Self) -> bool {
        self.elements == other.elements
            && self.pairs == other.pairs
            && self.pairs().eq(other.pairs())
    }
}

impl Eq for PartialOrderRel {}

impl PartialOrderRel {
    /// The empty order.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty order over at least `n` elements.
    pub fn with_elements(n: usize) -> Self {
        PartialOrderRel {
            elements: n,
            ..Self::default()
        }
    }

    /// The order the pairs close to: the empty order extended by them
    /// ([`PartialOrderRel::extend`]), failing with the error of the first
    /// offending pair.
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(
        pairs: I,
    ) -> Result<Self, OrderError> {
        let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        let mut rel = PartialOrderRel::new();
        rel.extend(&pairs, None).map_err(|(_, e)| e)?;
        Ok(rel)
    }

    /// Adds `pairs` and closes them over the order in one sweep.
    ///
    /// Fails as inserting the pairs one by one, in the given order, would
    /// first fail: with the index of the first pair that is reflexive or
    /// closes a cycle with the order and the pairs before it, and with
    /// [`OrderError::Reflexive`] or [`OrderError::Contradiction`] for it.
    /// On failure the order is left as it was.
    ///
    /// The sweep runs over a graph of the span: each pair is an edge, and
    /// each row that already reaches a source of a pair gets an edge to
    /// that source (found by a scan of the rows masked by the sources: no
    /// predecessor rows are kept). Every cycle of the extended order shows
    /// in that graph, so Kahn's algorithm over it either finds one or
    /// orders the rows. Rows with edges are then closed in reverse
    /// topological order, each gaining the rows of its targets, closed
    /// before it, at one row OR per target not already reached. A cycle
    /// is named by bisecting on the pairs: whether a prefix closes a cycle
    /// only grows with the prefix, and each probe is one Kahn pass.
    ///
    /// Returns what the batch added, for [`PartialOrderRel::undo`]: the
    /// span and pair count the order had and, when `gains` is given, a
    /// [`Gain`] pushed to it for each word a row of that span gained (rows
    /// new to the span go with it).
    pub fn extend(
        &mut self,
        pairs: &[(usize, usize)],
        mut gains: Option<&mut Vec<Gain>>,
    ) -> Result<Added, (usize, OrderError)> {
        let added = Added {
            lo: self.lo,
            rows: self.above.len(),
            elements: self.elements,
            pairs: self.pairs,
            gains: gains.as_ref().map_or(0, |g| g.len()),
        };
        let (Some(lo), Some(hi)) = (
            pairs.iter().map(|&(a, b)| a.min(b)).min(),
            pairs.iter().map(|&(a, b)| a.max(b)).max(),
        ) else {
            return Ok(added);
        };
        let (lo, hi) = match self.above.len() {
            0 => (lo, hi),
            rows => (lo.min(self.lo), hi.max(self.lo + rows - 1)),
        };
        let (len, cols) = (hi + 1 - lo, self.elements.max(hi + 1));
        // Edge `i` of the graph is pair `i`; the rows' edges to the sources
        // they reach come after, and belong to every prefix.
        let mut edges: Vec<(usize, usize)> = pairs.iter().map(|&(a, b)| (a - lo, b - lo)).collect();
        if self.pairs > 0 {
            let mut words = vec![0u64; words_for(cols)];
            for &(a, _) in pairs {
                words[a / 64] |= 1 << (a % 64);
            }
            let sources = ChunkedRow::from_words(&words, cols);
            for (x, row) in self.rows() {
                row.for_each_masked(Some(&sources), None, |s| edges.push((x - lo, s - lo)));
            }
        }
        let graph = Adjacency::new(len, &edges);
        let Some(order) = graph.topological(pairs.len(), pairs.len()) else {
            // The shortest failing prefix ends with the offending pair.
            let (mut ok, mut fails) = (0, pairs.len());
            while fails - ok > 1 {
                let mid = (ok + fails) / 2;
                match graph.topological(pairs.len(), mid) {
                    Some(_) => ok = mid,
                    None => fails = mid,
                }
            }
            let (a, b) = pairs[fails - 1];
            let error = if a == b {
                OrderError::Reflexive(a)
            } else {
                OrderError::Contradiction { attempted: (a, b) }
            };
            return Err((fails - 1, error));
        };
        self.cover(lo, hi);
        // A row gains each target and the target's row, closed before it;
        // a target already gained brings nothing new.
        for &u in order.iter().rev() {
            let targets = graph.of(u as usize);
            if targets.is_empty() {
                continue;
            }
            let mut gained = ChunkedRow::new();
            for &v in targets {
                if gained.insert(lo + v as usize, cols) {
                    gained.or_from(&self.above[v as usize], cols);
                }
            }
            let row = &mut self.above[u as usize];
            let at = lo + u as usize;
            let spanned = |_: &&mut Vec<Gain>| (added.lo..added.lo + added.rows).contains(&at);
            if let Some(gains) = gains.as_deref_mut().filter(spanned) {
                gained.for_each_masked(None, Some(&*row), |b| {
                    let (word, bit) = ((b / 64) as u32, 1u64 << (b % 64));
                    // Only a gain of this extension may take the bit.
                    match gains[added.gains..].last_mut() {
                        Some((r, w, bits)) if (*r as usize, *w) == (at, word) => *bits |= bit,
                        _ => gains.push((at as u32, word, bit)),
                    }
                });
            }
            self.pairs += gained.count() - row.count_and(&gained);
            if row.is_empty() {
                *row = gained;
            } else {
                row.or_from(&gained, cols);
            }
        }
        Ok(added)
    }

    /// Takes back what [`PartialOrderRel::extend`] added, which must be
    /// the last change to the order not undone yet, and removes its gains,
    /// the last ones, from `gains`.
    pub fn undo(&mut self, added: Added, gains: &mut Vec<Gain>) {
        for (a, word, bits) in gains.drain(added.gains..) {
            let row = &mut self.above[a as usize - self.lo];
            for bit in (0..64).filter(|i| bits >> i & 1 == 1) {
                row.remove(64 * word as usize + bit);
            }
        }
        self.pairs = added.pairs;
        self.above.drain(..added.lo.saturating_sub(self.lo));
        self.above.truncate(added.rows);
        self.lo = added.lo;
        self.elements = added.elements;
    }

    /// Number of elements the order currently spans (max index + 1).
    pub fn element_count(&self) -> usize {
        self.elements
    }

    /// Number of related pairs in the closure.
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    fn row(&self, a: usize) -> Option<usize> {
        a.checked_sub(self.lo).filter(|&i| i < self.above.len())
    }

    /// Whether `a < b` holds (in the transitive closure).
    #[inline]
    pub fn lt(&self, a: usize, b: usize) -> bool {
        self.above_row(a).contains(b)
    }

    /// The row of elements above `a` (every `b` with `a < b`), over
    /// absolute element ids.
    #[inline]
    pub fn above_row(&self, a: usize) -> &ChunkedRow {
        self.row(a).map_or(&EMPTY, |i| &self.above[i])
    }

    /// The nonempty successor rows `(a, above_row(a))`, by ascending `a`.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &ChunkedRow)> + '_ {
        let lo = self.lo;
        (lo..).zip(&self.above).filter(|(_, row)| !row.is_empty())
    }

    /// The elements above `a` (every `b` with `a < b`), ascending.
    pub fn above(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.above_row(a).iter()
    }

    /// Grows the rows to cover `[lo, hi]`, prepending rows when `lo` lies
    /// below the current span.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.above.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            let fresh = self.lo - lo;
            self.above
                .splice(0..0, (0..fresh).map(|_| ChunkedRow::new()));
            self.lo = lo;
        }
        let len = (hi + 1).max(self.lo + self.above.len()) - self.lo;
        self.above.resize_with(len, ChunkedRow::new);
        self.elements = self.elements.max(hi + 1);
    }

    /// All pairs `(a, b)` with `a < b`, lexicographically.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self.lo;
        self.above
            .iter()
            .enumerate()
            .flat_map(move |(i, row)| row.iter().map(move |b| (lo + i, b)))
    }

    /// The covering ("Hasse") pairs: the transitive reduction of the order,
    /// lexicographically. `a < b` covers iff no `c` has `a < c < b`.
    ///
    /// Row by row: an element `c` above `a` is reached when a row ORed in
    /// so far holds it, and only unreached elements OR their rows in (a
    /// reached one's row lies inside the row that reached it). What stays
    /// unreached covers `a`. On a chain that is one row OR per row, not a
    /// scan of every pair's row.
    pub fn covering_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut reached = ChunkedRow::new();
        for (a, row) in self.rows() {
            reached.clear();
            row.for_each_outside(&mut reached, |c, reached| {
                reached.or_from(self.above_row(c), self.elements);
            });
            row.for_each_masked(None, Some(&reached), |b| out.push((a, b)));
        }
        out
    }

    /// Restricts the order to the given elements (pairs with both endpoints
    /// in `keep`). Membership is a flat boolean mask over the span, and the
    /// kept pairs, already closed, are closed once.
    pub fn restricted_to(&self, keep: &[usize]) -> PartialOrderRel {
        let mut mask = vec![false; self.above.len()];
        for &k in keep {
            if let Some(i) = self.row(k) {
                mask[i] = true;
            }
        }
        let kept = |x: usize| mask[x - self.lo];
        PartialOrderRel::from_pairs(self.pairs().filter(|&(a, b)| kept(a) && kept(b)))
            .expect("restriction of a valid order stays valid")
    }

    /// A linear extension of the order over `0..element_count()`.
    pub fn linear_extension(&self) -> Vec<usize> {
        let mut g = DiGraph::with_nodes(self.elements);
        for (a, b) in self.pairs() {
            g.add_edge(a, b);
        }
        crate::topological_sort(&g).expect("a valid partial order is acyclic by construction")
    }
}

/// Adjacency lists over `0..len` in one flat buffer, each list in the
/// order its edges were given, each target with the index of its edge.
struct Adjacency {
    start: Vec<u32>,
    items: Vec<u32>,
    edge: Vec<u32>,
}

impl Adjacency {
    fn new(len: usize, edges: &[(usize, usize)]) -> Self {
        let mut start = vec![0u32; len + 1];
        for &(u, _) in edges {
            start[u + 1] += 1;
        }
        for i in 0..len {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; edges.len()];
        let mut edge = vec![0u32; edges.len()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            items[fill[u] as usize] = v as u32;
            edge[fill[u] as usize] = i as u32;
            fill[u] += 1;
        }
        Adjacency { start, items, edge }
    }

    fn of(&self, u: usize) -> &[u32] {
        &self.items[self.start[u] as usize..self.start[u + 1] as usize]
    }

    /// Kahn's order over the first `prefix` of the `pairs` pair edges and
    /// every later edge, or `None` if they close a cycle (a self-loop is
    /// one).
    fn topological(&self, pairs: usize, prefix: usize) -> Option<Vec<u32>> {
        let len = self.start.len() - 1;
        let live = |i: u32| (i as usize) < prefix || i as usize >= pairs;
        let mut indegree = vec![0u32; len];
        for (&v, &i) in self.items.iter().zip(&self.edge) {
            if live(i) {
                indegree[v as usize] += 1;
            }
        }
        let mut order: Vec<u32> = (0..len as u32)
            .filter(|&v| indegree[v as usize] == 0)
            .collect();
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            let at = self.start[u as usize] as usize..self.start[u as usize + 1] as usize;
            for (&v, &i) in self.items[at.clone()].iter().zip(&self.edge[at]) {
                if live(i) {
                    indegree[v as usize] -= 1;
                    if indegree[v as usize] == 0 {
                        order.push(v);
                    }
                }
            }
        }
        (order.len() == len).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_order_relates_nothing() {
        let rel = PartialOrderRel::new();
        assert!(!rel.lt(0, 1));
        assert_eq!(rel.pair_count(), 0);
    }

    #[test]
    fn reflexive_rejected() {
        let mut rel = PartialOrderRel::new();
        assert_eq!(
            rel.extend(&[(3, 3)], None),
            Err((0, OrderError::Reflexive(3)))
        );
    }

    #[test]
    fn contradiction_rejected() {
        let mut rel = PartialOrderRel::from_pairs([(0, 1)]).unwrap();
        let before = rel.clone();
        assert_eq!(
            rel.extend(&[(1, 0)], None),
            Err((0, OrderError::Contradiction { attempted: (1, 0) }))
        );
        assert_eq!(rel, before);
    }

    #[test]
    fn transitive_contradiction_rejected() {
        let mut rel = PartialOrderRel::from_pairs([(0, 1), (1, 2)]).unwrap();
        assert!(rel.extend(&[(2, 0)], None).is_err());
    }

    #[test]
    fn closure_maintained_incrementally() {
        let mut rel = PartialOrderRel::from_pairs([(0, 1), (2, 3)]).unwrap();
        assert!(!rel.lt(0, 3));
        rel.extend(&[(1, 2)], None).unwrap();
        assert!(rel.lt(0, 3));
        assert!(rel.lt(0, 2));
        assert!(rel.lt(1, 3));
        assert_eq!(rel.pair_count(), 6);
    }

    #[test]
    fn duplicate_pairs_idempotent() {
        let mut rel = PartialOrderRel::from_pairs([(0, 1), (0, 1)]).unwrap();
        rel.extend(&[(0, 1)], None).unwrap();
        assert_eq!(rel.pair_count(), 1);
    }

    #[test]
    fn restriction_keeps_inner_pairs() {
        let rel = PartialOrderRel::from_pairs([(0, 1), (1, 2), (3, 4)]).unwrap();
        let r = rel.restricted_to(&[0, 2, 3]);
        assert!(r.lt(0, 2)); // via closure pair (0,2)
        assert!(!r.lt(3, 4));
        assert!(!r.lt(0, 1));
    }

    #[test]
    fn covering_pairs_are_reduction() {
        let rel = PartialOrderRel::from_pairs([(0, 1), (1, 2)]).unwrap();
        assert_eq!(rel.covering_pairs(), vec![(0, 1), (1, 2)]);
        assert_eq!(rel.pair_count(), 3); // closure has (0,2) too
    }

    /// The row-wise reduction keeps exactly the pairs no third element
    /// lies between, on random orders whose ids do and do not follow the
    /// order (rows both sparse and dense).
    #[test]
    fn covering_pairs_match_the_definition() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for round in 0..40 {
            let n = 2 + next(300) as usize;
            let perm: Vec<usize> = match round % 2 {
                0 => (0..n).collect(),
                _ => (0..n).rev().collect(),
            };
            let edges = (0..n * (1 + round % 4)).map(|_| {
                let (a, b) = (next(n as u64) as usize, next(n as u64) as usize);
                (perm[a.min(b)], perm[a.max(b)])
            });
            let rel = PartialOrderRel::from_pairs(edges.filter(|(a, b)| a != b)).unwrap();
            let naive: Vec<(usize, usize)> = rel
                .pairs()
                .filter(|&(a, b)| !rel.above(a).any(|c| c != b && rel.lt(c, b)))
                .collect();
            assert_eq!(rel.covering_pairs(), naive, "round {round}");
        }
    }

    #[test]
    fn linear_extension_respects_order() {
        let rel = PartialOrderRel::from_pairs([(2, 0), (0, 1)]).unwrap();
        let ext = rel.linear_extension();
        let pos = |x: usize| ext.iter().position(|&e| e == x).unwrap();
        assert!(pos(2) < pos(0));
        assert!(pos(0) < pos(1));
    }

    /// The same shape over `0..5` and shifted to `10_000..10_005`.
    fn shifted_pair(base: usize) -> PartialOrderRel {
        PartialOrderRel::from_pairs(
            [(0, 1), (1, 3), (0, 2), (4, 3)].map(|(a, b)| (base + a, base + b)),
        )
        .unwrap()
    }

    #[test]
    fn span_sized_rows_match_the_shifted_order() {
        const BASE: usize = 10_000;
        let near = shifted_pair(0);
        let far = shifted_pair(BASE);
        let shift = |v: Vec<(usize, usize)>| -> Vec<(usize, usize)> {
            v.into_iter().map(|(a, b)| (a + BASE, b + BASE)).collect()
        };
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(far.lt(a + BASE, b + BASE), near.lt(a, b), "({a}, {b})");
                assert!(!far.lt(a, b));
            }
        }
        assert_eq!(
            far.pairs().collect::<Vec<_>>(),
            shift(near.pairs().collect())
        );
        assert_eq!(far.pair_count(), near.pair_count());
        assert_eq!(far.element_count(), near.element_count() + BASE);
        assert_eq!(far.covering_pairs(), shift(near.covering_pairs()));
        assert_eq!(far.above.len(), 5, "rows cover the span only");
        // Elements below the span come first, in index order, then the
        // span's own extension shifted.
        let ext = far.linear_extension();
        assert_eq!(ext[..BASE], (0..BASE).collect::<Vec<_>>());
        assert_eq!(
            ext[BASE..],
            near.linear_extension()
                .iter()
                .map(|&x| x + BASE)
                .collect::<Vec<_>>()
        );
        let keep = [0, 1, 3];
        assert_eq!(
            far.restricted_to(&keep.map(|k| k + BASE)),
            PartialOrderRel::from_pairs(shift(near.restricted_to(&keep).pairs().collect()))
                .unwrap()
        );
    }

    #[test]
    fn extending_below_the_span_keeps_earlier_pairs() {
        let mut rel = PartialOrderRel::from_pairs([(20, 21), (21, 25)]).unwrap();
        rel.extend(&[(3, 20)], None).unwrap();
        assert_eq!(
            rel.pairs().collect::<Vec<_>>(),
            vec![(3, 20), (3, 21), (3, 25), (20, 21), (20, 25), (21, 25)]
        );
        assert_eq!(rel.above(3).collect::<Vec<_>>(), vec![20, 21, 25]);
        assert_eq!(rel.element_count(), 26);
        assert!(rel.extend(&[(25, 3)], None).is_err());
    }

    #[test]
    fn extending_in_batches_matches_closing_once() {
        let pairs = [(7, 9), (2, 7), (9, 12), (2, 4), (4, 9), (2, 9)];
        let mut batches = PartialOrderRel::from_pairs(pairs[..2].iter().copied()).unwrap();
        batches.extend(&pairs[2..4], None).unwrap();
        batches.extend(&pairs[4..], None).unwrap();
        assert_eq!(batches, PartialOrderRel::from_pairs(pairs).unwrap());
        // A cycle or a reflexive pair is named as inserting the pairs one
        // by one would name it, also when the cycle runs through pairs
        // closed earlier.
        let cyclic = [(1, 2), (2, 3), (5, 6), (3, 1), (6, 5)];
        assert_eq!(
            PartialOrderRel::from_pairs(cyclic),
            Err(OrderError::Contradiction { attempted: (3, 1) })
        );
        assert_eq!(
            PartialOrderRel::from_pairs([(1, 2), (4, 4)]),
            Err(OrderError::Reflexive(4))
        );
        let mut closed = PartialOrderRel::from_pairs([(1, 2), (3, 4)]).unwrap();
        assert_eq!(
            closed.extend(&[(2, 3), (6, 6), (4, 1)], None),
            Err((1, OrderError::Reflexive(6)))
        );
        assert_eq!(
            closed.extend(&[(2, 3), (0, 5), (4, 1), (6, 6)], None),
            Err((2, OrderError::Contradiction { attempted: (4, 1) }))
        );
        assert_eq!(
            closed,
            PartialOrderRel::from_pairs([(1, 2), (3, 4)]).unwrap()
        );
    }

    /// Undoing batches in reverse gives back each earlier order, whether
    /// a batch extended the span below, above or not at all, and whether
    /// it failed (a failed batch reports nothing to undo).
    #[test]
    fn undo_takes_back_each_batch() {
        let batches: [&[(usize, usize)]; 5] = [
            &[(20, 21), (21, 25)],
            &[(3, 20)],
            &[(25, 40), (3, 21)],
            &[(22, 23)],
            &(1..70).map(|b| (0, b)).collect::<Vec<_>>(),
        ];
        let mut rel = PartialOrderRel::with_elements(30);
        let mut history = vec![(rel.clone(), rel.lo, rel.above.len())];
        let (mut undos, mut gains) = (Vec::new(), Vec::new());
        for batch in batches {
            undos.push(rel.extend(batch, Some(&mut gains)).unwrap());
            let failed = rel.extend(&[(21, 22), (5, 5)], Some(&mut gains));
            assert!(failed.is_err());
            history.push((rel.clone(), rel.lo, rel.above.len()));
        }
        for added in undos.into_iter().rev() {
            history.pop();
            rel.undo(added, &mut gains);
            let (before, lo, rows) = history.last().unwrap();
            assert_eq!(&rel, before);
            assert_eq!((rel.lo, rel.above.len()), (*lo, *rows));
            assert_eq!(rel.pairs().count(), rel.pair_count());
        }
        assert_eq!(rel, PartialOrderRel::with_elements(30));
        assert!(gains.is_empty());
    }

    /// Orders that share one gains buffer each take back only their own
    /// gains, also when two gains fall in the same row and word.
    #[test]
    fn orders_sharing_a_gains_buffer_undo_their_own_gains() {
        let mut gains = Vec::new();
        let (mut a, mut b) = (PartialOrderRel::new(), PartialOrderRel::new());
        a.extend(&[(1, 2)], None).unwrap();
        b.extend(&[(1, 2)], None).unwrap();
        let before = (a.clone(), b.clone());
        let added_a = a.extend(&[(1, 3)], Some(&mut gains)).unwrap();
        let added_b = b.extend(&[(1, 3)], Some(&mut gains)).unwrap();
        b.undo(added_b, &mut gains);
        a.undo(added_a, &mut gains);
        assert_eq!((a, b), before);
        assert!(gains.is_empty());
    }

    /// A dense row promoted while the order spanned few columns widens when
    /// the order grows, and compares equal to a row promoted wide.
    #[test]
    fn rows_widen_as_the_order_grows() {
        let mut grown = PartialOrderRel::from_pairs((1..40).map(|b| (0, b))).unwrap();
        grown.extend(&[(39, 1_000)], None).unwrap();
        assert!(grown.lt(0, 1_000));
        let once = PartialOrderRel::from_pairs(grown.pairs()).unwrap();
        assert_eq!(grown, once);
        assert_eq!(grown.above_row(0), once.above_row(0));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let pairs = [(7, 9), (2, 7), (9, 12), (2, 4)];
        let forward = PartialOrderRel::from_pairs(pairs).unwrap();
        let backward = PartialOrderRel::from_pairs(pairs.into_iter().rev()).unwrap();
        assert_eq!(forward, backward);
        let mut wider = backward.clone();
        wider.cover(0, 20);
        assert_ne!(forward, wider, "element counts differ");
        assert_ne!(forward, PartialOrderRel::from_pairs([(2, 7)]).unwrap());
    }
}
