//! Strict partial orders with incremental transitive closure.
//!
//! The paper's weak (`<`, `≺`, `→`) and strong (`≪`, `→→`) orders are all
//! *transitively closed strict partial orders* (Definition 1: "These orders
//! are, in all cases, transitively closed"). [`PartialOrderRel`] maintains
//! that closure on insertion and rejects any pair that would create a cycle
//! (i.e. a contradiction `a < b` and `b < a`) or a reflexive pair.

use crate::DiGraph;
use std::collections::BTreeSet;

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

/// A strict partial order over `usize` elements, closed under transitivity.
///
/// The closure is stored as sorted successor rows (`a -> b` means `a < b`)
/// plus the transposed predecessor rows, both covering only the *span*
/// `[lo, lo + rows)` of elements the order relates: a transaction's intra
/// order over three ops with ids near 4,000 holds three rows, not 4,000.
/// `lt` stays one indexed row lookup, and every insertion splices the new
/// pair into the closure.
///
/// Equality is "same pairs and same [`PartialOrderRel::element_count`]",
/// whatever the insertion order.
///
/// ```
/// use compc_graph::PartialOrderRel;
/// let mut rel = PartialOrderRel::new();
/// rel.insert(0, 1).unwrap();
/// rel.insert(1, 2).unwrap();
/// assert!(rel.lt(0, 2));               // transitive closure is maintained
/// assert!(rel.insert(2, 0).is_err());  // contradictions are rejected
/// ```
#[derive(Clone, Debug, Default)]
pub struct PartialOrderRel {
    /// The element row 0 describes.
    lo: usize,
    /// `above[i]`: the elements `b` with `lo + i < b`.
    above: Vec<BTreeSet<usize>>,
    /// `below[i]`: the elements `a` with `a < lo + i` — the transpose, kept
    /// in lockstep so an insert reads `pred(a)` directly instead of
    /// scanning every row.
    below: Vec<BTreeSet<usize>>,
    /// Max element index + 1, or the `with_elements` count if larger.
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

    /// Builds an order from pairs, failing on the first violation.
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(
        pairs: I,
    ) -> Result<Self, OrderError> {
        let mut rel = PartialOrderRel::new();
        for (a, b) in pairs {
            rel.insert(a, b)?;
        }
        Ok(rel)
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
        self.row(a).is_some_and(|i| self.above[i].contains(&b))
    }

    /// The elements above `a` (every `b` with `a < b`), ascending.
    pub fn above(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(a)
            .map(|i| &self.above[i])
            .into_iter()
            .flatten()
            .copied()
    }

    /// The elements below `b` (every `a` with `a < b`), ascending.
    pub fn below(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(b)
            .map(|i| &self.below[i])
            .into_iter()
            .flatten()
            .copied()
    }

    /// Grows the rows to cover `[lo, hi]`, prepending rows when `lo` lies
    /// below the current span.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.above.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            let fresh = self.lo - lo;
            self.above.splice(0..0, (0..fresh).map(|_| BTreeSet::new()));
            self.below.splice(0..0, (0..fresh).map(|_| BTreeSet::new()));
            self.lo = lo;
        }
        let len = (hi + 1).max(self.lo + self.above.len()) - self.lo;
        self.above.resize_with(len, BTreeSet::new);
        self.below.resize_with(len, BTreeSet::new);
        self.elements = self.elements.max(hi + 1);
    }

    /// Inserts `a < b` and closes transitively. Returns whether the pair
    /// was new.
    ///
    /// Cost is O(|pred(a)| · |succ(b)|) per insertion — predecessors come
    /// from the maintained transpose, not a full node scan. A
    /// recompute-from-scratch strategy is benchmarked against it in
    /// `compc-bench` (`observed_order` bench, DESIGN.md §5.1).
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
        let mut lhs: Vec<usize> = self.below(a).collect();
        lhs.push(a);
        let mut rhs: Vec<usize> = self.above(b).collect();
        rhs.push(b);
        let lo = self.lo;
        for &x in &lhs {
            for &y in &rhs {
                if self.above[x - lo].insert(y) {
                    self.below[y - lo].insert(x);
                    self.pairs += 1;
                }
            }
        }
        Ok(true)
    }

    /// All pairs `(a, b)` with `a < b`, lexicographically.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self.lo;
        self.above
            .iter()
            .enumerate()
            .flat_map(move |(i, row)| row.iter().map(move |&b| (lo + i, b)))
    }

    /// The covering ("Hasse") pairs: the transitive reduction of the order,
    /// lexicographically. `a < b` covers iff no `c` has `a < c < b`.
    pub fn covering_pairs(&self) -> Vec<(usize, usize)> {
        self.pairs()
            .filter(|&(a, b)| !self.above(a).any(|c| c != b && self.lt(c, b)))
            .collect()
    }

    /// Restricts the order to the given elements (pairs with both endpoints
    /// in `keep`). Membership is a flat boolean mask over the span — no
    /// temporary `BTreeSet` per call.
    pub fn restricted_to(&self, keep: &[usize]) -> PartialOrderRel {
        let mut mask = vec![false; self.above.len()];
        for &k in keep {
            if let Some(i) = self.row(k) {
                mask[i] = true;
            }
        }
        let kept = |x: usize| mask[x - self.lo];
        let mut out = PartialOrderRel::new();
        for (a, b) in self.pairs() {
            if kept(a) && kept(b) {
                out.insert(a, b)
                    .expect("restriction of a valid order stays valid");
            }
        }
        out
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
