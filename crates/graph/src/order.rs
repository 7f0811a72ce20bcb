//! Strict partial orders, kept transitively closed.
//!
//! The paper's weak (`<`, `≺`, `→`) and strong (`≪`, `→→`) orders are all
//! *transitively closed strict partial orders* (Definition 1: "These orders
//! are, in all cases, transitively closed"). [`PartialOrderRel`] keeps that
//! closure: [`PartialOrderRel::insert`] closes pair by pair and rejects any
//! pair that would create a cycle (i.e. a contradiction `a < b` and
//! `b < a`) or a reflexive pair, and [`PartialOrderRel::from_pairs`] takes
//! every pair first and closes once.

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

/// [`PartialOrderRel::from_pairs`] inserts this few pairs one by one: the
/// sweep's adjacency lists and topological order cost more than a handful
/// of row ORs (closing every input once made the `batch` corpus's build
/// 8–10 % slower; cutovers of 4 and 16 measured the same as 8, E32).
const INSERT_EACH_UP_TO: usize = 8;

/// The row of an element outside the span.
static EMPTY: ChunkedRow = ChunkedRow::Sparse(Vec::new());

/// A strict partial order over `usize` elements, closed under transitivity.
///
/// The closure is stored as successor rows (`a -> b` means `a < b`) plus
/// the transposed predecessor rows, both [`ChunkedRow`]s over absolute
/// element ids (sorted ids while cold, dense words once hot), covering
/// only the *span* `[lo, lo + rows)` of elements the order relates: a
/// transaction's intra order over three ops with ids near 4,000 holds
/// three short rows, not 4,000. `lt` is one row lookup, and a row ORs
/// straight into any other row over the same ids.
///
/// Equality is "same pairs and same [`PartialOrderRel::element_count`]",
/// whatever the insertion order or row representation.
///
/// ```
/// use compc_graph::PartialOrderRel;
/// let mut rel = PartialOrderRel::new();
/// rel.insert(0, 1).unwrap();
/// rel.insert(1, 2).unwrap();
/// assert!(rel.lt(0, 2));               // transitive closure is maintained
/// assert!(rel.insert(2, 0).is_err());  // contradictions are rejected
/// assert_eq!(PartialOrderRel::from_pairs([(0, 1), (1, 2)]).unwrap(), rel);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PartialOrderRel {
    /// The element row 0 describes.
    lo: usize,
    /// `above[i]`: the elements `b` with `lo + i < b`.
    above: Vec<ChunkedRow>,
    /// `below[i]`: the elements `a` with `a < lo + i` — the transpose, kept
    /// in lockstep so an insert reads `pred(a)` directly instead of
    /// scanning every row.
    below: Vec<ChunkedRow>,
    /// Max element index + 1, or the `with_elements` count if larger; the
    /// rows' column count.
    elements: usize,
    pairs: usize,
}

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

    /// Builds the order the pairs close to, failing as inserting them one
    /// by one would: with the first pair, in the given order, that is
    /// reflexive or contradicts the closure of the pairs before it.
    ///
    /// All pairs are taken first and closed once, by an OR sweep over
    /// their graph in reverse topological order (and one in topological
    /// order for the transpose), at one row OR per pair. Only when that
    /// finds a reflexive pair or a cycle are the pairs inserted one by one,
    /// to name the offending pair (and a handful of pairs always are).
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(
        pairs: I,
    ) -> Result<Self, OrderError> {
        let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        if pairs.len() > INSERT_EACH_UP_TO {
            if let Some(rel) = Self::close_once(&pairs) {
                return Ok(rel);
            }
        }
        // One allocation for the span, not one per insert that widens it.
        // (On success some pair holds the largest element, so the element
        // count is what the inserts alone would reach.)
        let mut rel = PartialOrderRel::new();
        if let (Some(lo), Some(hi)) = (
            pairs.iter().map(|&(a, b)| a.min(b)).min(),
            pairs.iter().map(|&(a, b)| a.max(b)).max(),
        ) {
            rel.cover(lo, hi);
        }
        for (a, b) in pairs {
            rel.insert(a, b)?;
        }
        Ok(rel)
    }

    /// The closure of `pairs`, or `None` if one is reflexive or they close
    /// a cycle.
    fn close_once(pairs: &[(usize, usize)]) -> Option<Self> {
        if pairs.iter().any(|&(a, b)| a == b) {
            return None;
        }
        let Some(lo) = pairs.iter().map(|&(a, b)| a.min(b)).min() else {
            return Some(Self::new());
        };
        let cols = pairs.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(lo) + 1;
        let len = cols - lo;
        let succ = Adjacency::new(len, pairs.iter().map(|&(a, b)| (a - lo, b - lo)));
        let pred = Adjacency::new(len, pairs.iter().map(|&(a, b)| (b - lo, a - lo)));
        // Kahn's order; a cycle leaves some element unlisted.
        let mut indegree: Vec<u32> = (0..len).map(|v| pred.of(v).len() as u32).collect();
        let mut order: Vec<u32> = (0..len as u32)
            .filter(|&v| indegree[v as usize] == 0)
            .collect();
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            for &v in succ.of(u as usize) {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    order.push(v);
                }
            }
        }
        if order.len() < len {
            return None;
        }
        // A row is the union of its neighbours and their rows, closed
        // before it; a neighbour already in the row brings nothing new.
        let sweep = |adjacency: &Adjacency, order: &mut dyn Iterator<Item = &u32>| {
            let mut rows = vec![ChunkedRow::new(); len];
            for &u in order {
                let mut row = ChunkedRow::new();
                for &v in adjacency.of(u as usize) {
                    if row.insert(lo + v as usize, cols) {
                        row.or_from(&rows[v as usize], cols);
                    }
                }
                rows[u as usize] = row;
            }
            rows
        };
        let above = sweep(&succ, &mut order.iter().rev());
        let below = sweep(&pred, &mut order.iter());
        Some(PartialOrderRel {
            lo,
            pairs: above.iter().map(ChunkedRow::count).sum(),
            above,
            below,
            elements: cols,
        })
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

    /// The row of elements below `b` (every `a` with `a < b`).
    #[inline]
    pub fn below_row(&self, b: usize) -> &ChunkedRow {
        self.row(b).map_or(&EMPTY, |i| &self.below[i])
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

    /// The elements below `b` (every `a` with `a < b`), ascending.
    pub fn below(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.below_row(b).iter()
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
            self.below
                .splice(0..0, (0..fresh).map(|_| ChunkedRow::new()));
            self.lo = lo;
        }
        let len = (hi + 1).max(self.lo + self.above.len()) - self.lo;
        self.above.resize_with(len, ChunkedRow::new);
        self.below.resize_with(len, ChunkedRow::new);
        self.elements = self.elements.max(hi + 1);
    }

    /// Inserts `a < b` and closes transitively. Returns whether the pair
    /// was new.
    ///
    /// Every element of `pred(a) ∪ {a}` gains `succ(b) ∪ {b}` as one row
    /// OR, and every element of `succ(b) ∪ {b}` gains `pred(a) ∪ {a}` in
    /// the transpose: O(|pred(a)| + |succ(b)|) row ORs, each
    /// O(min(entries, elements / 64)). Building a whole order this way
    /// costs a row OR per pair *of the closure*; [`PartialOrderRel::from_pairs`]
    /// closes once at a row OR per given pair (DESIGN.md §5.1).
    pub fn insert(&mut self, a: usize, b: usize) -> Result<bool, OrderError> {
        if a == b {
            return Err(OrderError::Reflexive(a));
        }
        if self.lt(b, a) {
            return Err(OrderError::Contradiction { attempted: (a, b) });
        }
        if self.lt(a, b) {
            return Ok(false); // already known
        }
        self.cover(a.min(b), a.max(b));
        // preds(a) ∪ {a}  must all precede  succs(b) ∪ {b}. Both sides are
        // inside the span, and they are disjoint: a shared element would
        // mean b < a, which was rejected above.
        let (lo, cols) = (self.lo, self.elements);
        if self.below[a - lo].is_empty() && self.above[b - lo].is_empty() {
            self.above[a - lo].insert(b, cols);
            self.below[b - lo].insert(a, cols);
            self.pairs += 1;
            return Ok(true);
        }
        let mut lhs = self.below[a - lo].clone();
        lhs.insert(a, cols);
        let mut rhs = self.above[b - lo].clone();
        rhs.insert(b, cols);
        // Counted before each OR, by `rhs`'s entries when it is sparse:
        // a row's own count would read all its words.
        let rhs_count = rhs.count();
        for x in lhs.iter() {
            let row = &mut self.above[x - lo];
            self.pairs += rhs_count - row.count_and(&rhs);
            row.or_from(&rhs, cols);
        }
        for y in rhs.iter() {
            self.below[y - lo].or_from(&lhs, cols);
        }
        Ok(true)
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
    pub fn covering_pairs(&self) -> Vec<(usize, usize)> {
        self.pairs()
            .filter(|&(a, b)| !self.above(a).any(|c| c != b && self.lt(c, b)))
            .collect()
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
/// order its pairs were given.
struct Adjacency {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Adjacency {
    fn new(len: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut start = vec![0u32; len + 1];
        for (u, _) in pairs.clone() {
            start[u + 1] += 1;
        }
        for i in 0..len {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; start[len] as usize];
        for (u, v) in pairs {
            items[fill[u] as usize] = v as u32;
            fill[u] += 1;
        }
        Adjacency { start, items }
    }

    fn of(&self, u: usize) -> &[u32] {
        &self.items[self.start[u] as usize..self.start[u + 1] as usize]
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
        assert_eq!(rel.insert(3, 3), Err(OrderError::Reflexive(3)));
    }

    #[test]
    fn contradiction_rejected() {
        let mut rel = PartialOrderRel::new();
        rel.insert(0, 1).unwrap();
        assert_eq!(
            rel.insert(1, 0),
            Err(OrderError::Contradiction { attempted: (1, 0) })
        );
    }

    #[test]
    fn transitive_contradiction_rejected() {
        let mut rel = PartialOrderRel::new();
        rel.insert(0, 1).unwrap();
        rel.insert(1, 2).unwrap();
        assert!(rel.insert(2, 0).is_err());
    }

    #[test]
    fn closure_maintained_incrementally() {
        let mut rel = PartialOrderRel::new();
        rel.insert(0, 1).unwrap();
        rel.insert(2, 3).unwrap();
        assert!(!rel.lt(0, 3));
        rel.insert(1, 2).unwrap();
        assert!(rel.lt(0, 3));
        assert!(rel.lt(0, 2));
        assert!(rel.lt(1, 3));
    }

    #[test]
    fn duplicate_insert_idempotent() {
        let mut rel = PartialOrderRel::new();
        rel.insert(0, 1).unwrap();
        rel.insert(0, 1).unwrap();
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
    fn insert_below_the_span_keeps_earlier_pairs() {
        let mut rel = PartialOrderRel::from_pairs([(20, 21), (21, 25)]).unwrap();
        rel.insert(3, 20).unwrap();
        assert_eq!(
            rel.pairs().collect::<Vec<_>>(),
            vec![(3, 20), (3, 21), (3, 25), (20, 21), (20, 25), (21, 25)]
        );
        assert_eq!(rel.below(25).collect::<Vec<_>>(), vec![3, 20, 21]);
        assert_eq!(rel.above(3).collect::<Vec<_>>(), vec![20, 21, 25]);
        assert_eq!(rel.element_count(), 26);
        assert!(rel.insert(25, 3).is_err());
    }

    #[test]
    fn closing_once_matches_inserting_each() {
        let pairs = [(7, 9), (2, 7), (9, 12), (2, 4), (4, 9), (2, 9)];
        let mut each = PartialOrderRel::new();
        for (a, b) in pairs {
            each.insert(a, b).unwrap();
        }
        let once = PartialOrderRel::from_pairs(pairs).unwrap();
        assert_eq!(once, each);
        for x in 0..14 {
            assert!(once.below(x).eq(each.below(x)), "transpose row {x}");
        }
        // A cycle or a reflexive pair is named as the per-pair inserts
        // name it.
        let cyclic = [(1, 2), (2, 3), (5, 6), (3, 1), (6, 5)];
        assert_eq!(
            PartialOrderRel::from_pairs(cyclic),
            Err(OrderError::Contradiction { attempted: (3, 1) })
        );
        assert_eq!(
            PartialOrderRel::from_pairs([(1, 2), (4, 4)]),
            Err(OrderError::Reflexive(4))
        );
    }

    /// A dense row promoted while the order spanned few columns widens when
    /// the order grows, and compares equal to a row promoted wide.
    #[test]
    fn rows_widen_as_the_order_grows() {
        let mut grown = PartialOrderRel::new();
        for b in 1..40 {
            grown.insert(0, b).unwrap();
        }
        grown.insert(39, 1_000).unwrap();
        assert!(grown.lt(0, 1_000));
        let once = PartialOrderRel::from_pairs(grown.pairs()).unwrap();
        assert_eq!(grown, once);
        assert_eq!(grown.above_row(0), once.above_row(0));
        assert_eq!(grown.below(1_000).collect::<Vec<_>>(), vec![0, 39]);
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
