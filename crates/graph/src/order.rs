//! Strict partial orders with incremental transitive closure.
//!
//! The paper's weak (`<`, `≺`, `→`) and strong (`≪`, `→→`) orders are all
//! *transitively closed strict partial orders* (Definition 1: "These orders
//! are, in all cases, transitively closed"). [`PartialOrderRel`] maintains
//! that closure on insertion and rejects any pair that would create a cycle
//! (i.e. a contradiction `a < b` and `b < a`) or a reflexive pair.

use crate::{transitive_reduction_with, DiGraph, ReachScratch};

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
/// Internally a [`DiGraph`] in which an edge `a -> b` means `a < b`; every
/// insertion splices the new pair into the closure so `lt` stays O(1).
///
/// ```
/// use compc_graph::PartialOrderRel;
/// let mut rel = PartialOrderRel::new();
/// rel.insert(0, 1).unwrap();
/// rel.insert(1, 2).unwrap();
/// assert!(rel.lt(0, 2));               // transitive closure is maintained
/// assert!(rel.insert(2, 0).is_err());  // contradictions are rejected
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialOrderRel {
    closure: DiGraph,
    /// The transpose of `closure`, kept in lockstep so an insert reads
    /// `pred(a)` directly instead of scanning all `n` nodes with
    /// `has_edge(x, a)` (which made every insert O(n log n) even when `a`
    /// had no predecessors at all).
    preds: DiGraph,
}

impl PartialOrderRel {
    /// The empty order.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty order over at least `n` elements.
    pub fn with_elements(n: usize) -> Self {
        PartialOrderRel {
            closure: DiGraph::with_nodes(n),
            preds: DiGraph::with_nodes(n),
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
        self.closure.node_count()
    }

    /// Number of related pairs in the closure.
    pub fn pair_count(&self) -> usize {
        self.closure.edge_count()
    }

    /// Whether `a < b` holds (in the transitive closure).
    pub fn lt(&self, a: usize, b: usize) -> bool {
        self.closure.has_edge(a, b)
    }

    /// Whether `a` and `b` are comparable (in either direction).
    pub fn comparable(&self, a: usize, b: usize) -> bool {
        self.lt(a, b) || self.lt(b, a)
    }

    /// Inserts `a < b` and closes transitively.
    ///
    /// Cost is O(|pred(a)| · |succ(b)|) per insertion — predecessors come
    /// from the maintained transpose, not a full node scan. The dense
    /// [`crate::BitOrderRel`] splices the same closure with row-wide ORs;
    /// a recompute-from-scratch strategy is benchmarked against both in
    /// `compc-bench` (`observed_order` bench, DESIGN.md §5.1).
    pub fn insert(&mut self, a: usize, b: usize) -> Result<(), OrderError> {
        self.insert_tracked(a, b, 0).map(drop)
    }

    /// [`PartialOrderRel::insert`], reporting what the closure gained:
    /// `(changed, gained_below)`, where `gained_below` says whether a new
    /// pair has both elements below `old`. An append that extends a system
    /// in place uses it to tell new pairs between pre-existing nodes apart
    /// from pairs that involve a new node.
    pub fn insert_tracked(
        &mut self,
        a: usize,
        b: usize,
        old: usize,
    ) -> Result<(bool, bool), OrderError> {
        if a == b {
            return Err(OrderError::Reflexive(a));
        }
        if self.lt(b, a) {
            return Err(OrderError::Contradiction { attempted: (a, b) });
        }
        if self.lt(a, b) {
            return Ok((false, false)); // already known
        }
        self.closure.ensure_node(a.max(b));
        self.preds.ensure_node(a.max(b));
        // preds(a) ∪ {a}  must all precede  succs(b) ∪ {b}.
        let mut lhs: Vec<usize> = self.preds.successors(a).collect();
        lhs.push(a);
        let mut rhs: Vec<usize> = self.closure.successors(b).collect();
        rhs.push(b);
        let mut gained_below = false;
        for &x in &lhs {
            for &y in &rhs {
                if x == y {
                    // Splicing would create x < x, i.e. a cycle.
                    return Err(OrderError::Contradiction { attempted: (a, b) });
                }
                if self.closure.add_edge(x, y) {
                    gained_below |= x < old && y < old;
                }
                self.preds.add_edge(y, x);
            }
        }
        Ok((true, gained_below))
    }

    /// All pairs `(a, b)` with `a < b`, lexicographically.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.closure.edges()
    }

    /// The covering ("Hasse") pairs: the transitive reduction of the order.
    pub fn covering_pairs(&self) -> Vec<(usize, usize)> {
        self.covering_pairs_with(&mut ReachScratch::new())
    }

    /// [`PartialOrderRel::covering_pairs`] reusing traversal buffers.
    pub fn covering_pairs_with(&self, scratch: &mut ReachScratch) -> Vec<(usize, usize)> {
        transitive_reduction_with(&self.closure, scratch)
            .edges()
            .collect()
    }

    /// Whether every pair of `other` is contained in `self` (i.e.
    /// `other ⊆ self` as relations). Definitions 2–4 repeatedly require
    /// `≪ ⊆ ≺` and `→→ ⊆ →`.
    pub fn contains(&self, other: &PartialOrderRel) -> bool {
        other.pairs().all(|(a, b)| self.lt(a, b))
    }

    /// Union with another order; fails if the union is contradictory.
    pub fn try_union(&self, other: &PartialOrderRel) -> Result<PartialOrderRel, OrderError> {
        let mut out = self.clone();
        for (a, b) in other.pairs() {
            out.insert(a, b)?;
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

    /// Restricts the order to the given elements (pairs with both endpoints
    /// in `keep`). Membership is a flat boolean mask — no temporary
    /// `BTreeSet` per call.
    pub fn restricted_to(&self, keep: &[usize]) -> PartialOrderRel {
        let mut mask = vec![false; self.closure.node_count()];
        for &k in keep {
            if let Some(slot) = mask.get_mut(k) {
                *slot = true;
            }
        }
        let mut out = PartialOrderRel::new();
        for (a, b) in self.pairs() {
            if mask[a] && mask[b] {
                out.insert(a, b)
                    .expect("restriction of a valid order stays valid");
            }
        }
        out
    }

    /// Access the underlying closure graph (edge `a -> b` ⟺ `a < b`).
    pub fn as_graph(&self) -> &DiGraph {
        &self.closure
    }

    /// A linear extension of the order over `0..element_count()`.
    pub fn linear_extension(&self) -> Vec<usize> {
        crate::topological_sort(&self.closure)
            .expect("a valid partial order is acyclic by construction")
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
    fn contains_checks_inclusion() {
        let big = PartialOrderRel::from_pairs([(0, 1), (1, 2)]).unwrap();
        let small = PartialOrderRel::from_pairs([(0, 2)]).unwrap();
        assert!(big.contains(&small)); // 0<2 is in the closure of big
        assert!(!small.contains(&big));
    }

    #[test]
    fn union_merges_or_fails() {
        let a = PartialOrderRel::from_pairs([(0, 1)]).unwrap();
        let b = PartialOrderRel::from_pairs([(1, 2)]).unwrap();
        let u = a.try_union(&b).unwrap();
        assert!(u.lt(0, 2));
        let c = PartialOrderRel::from_pairs([(1, 0)]).unwrap();
        assert!(a.try_union(&c).is_err());
    }

    #[test]
    fn totality_check() {
        let chain = PartialOrderRel::from_pairs([(0, 1), (1, 2)]).unwrap();
        assert!(chain.is_total_over(&[0, 1, 2]));
        let v = PartialOrderRel::from_pairs([(0, 1), (0, 2)]).unwrap();
        assert!(!v.is_total_over(&[0, 1, 2]));
        assert!(v.is_total_over(&[0, 1]));
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
}
