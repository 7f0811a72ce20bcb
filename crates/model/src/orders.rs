//! Weak/strong order pairs (Definition 1).
//!
//! The paper distinguishes three relations between transactions `A`, `B`:
//!
//! * `A ≪ B` — *strong* (sequential) order: `A` completes before `B` starts;
//! * `A < B` — *weak* order: concurrent execution allowed, but the net effect
//!   must equal `A ≪ B` (data flows in the direction of the weak order);
//! * `A ‖ B` — unrestricted parallelism.
//!
//! Both orders are transitively closed, and every strong pair is also a weak
//! pair (`≪ ⊆ <`). [`OrderPair`] packages the two relations and enforces the
//! inclusion at insertion time, so an ill-formed pair is unrepresentable.

use crate::error::ModelError;
use crate::ids::NodeId;
use compc_graph::{OrderError, PartialOrderRel};

/// The three Definition-1 relations between two nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrderKind {
    /// `A ≪ B`: sequential execution required.
    Strong,
    /// `A < B`: restricted parallel (equivalence to sequential required).
    Weak,
    /// `A ‖ B`: unrestricted parallel execution.
    Unordered,
}

/// A (weak, strong) pair of transitively closed strict partial orders over
/// [`NodeId`]s with the invariant `strong ⊆ weak`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OrderPair {
    weak: PartialOrderRel,
    strong: PartialOrderRel,
}

impl OrderPair {
    /// The empty order pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a weak pair `a < b`.
    pub fn add_weak(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        self.insert(a, b, false).map(drop)
    }

    /// Adds a strong pair `a ≪ b`; this also records `a < b` so the
    /// inclusion `≪ ⊆ <` holds by construction.
    pub fn add_strong(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        self.insert(a, b, true).map(drop)
    }

    /// Adds `a < b`, and `a ≪ b` too when `strong`. Returns whether either
    /// relation gained the pair.
    pub fn insert(&mut self, a: NodeId, b: NodeId, strong: bool) -> Result<bool, ModelError> {
        let fail = |kind| move |source| ModelError::OrderViolation { a, b, kind, source };
        let (x, y) = (a.index(), b.index());
        // Weak first: if the weak insert succeeds, the strong insert cannot
        // fail (strong ⊆ weak means any strong contradiction is also a weak
        // one), so the inclusion invariant survives the error path.
        let mut changed = self.weak.insert(x, y).map_err(fail(OrderKind::Weak))?;
        if strong {
            changed |= self.strong.insert(x, y).map_err(fail(OrderKind::Strong))?;
        }
        Ok(changed)
    }

    /// Adds the pairs `(a, b, strong)` as [`OrderPair::insert`] would, one
    /// after the other, but closes each relation once
    /// ([`PartialOrderRel::from_pairs`]); on a violation it fails with
    /// the error the first offending insert would return, and leaves the
    /// orders as they were.
    pub fn extend_closing_once(
        &mut self,
        pairs: &[(NodeId, NodeId, bool)],
    ) -> Result<(), ModelError> {
        let fail = |kind| {
            move |source: OrderError| {
                let (a, b) = match source {
                    OrderError::Reflexive(a) => (a, a),
                    OrderError::Contradiction { attempted } => attempted,
                };
                let (a, b) = (NodeId(a as u32), NodeId(b as u32));
                ModelError::OrderViolation { a, b, kind, source }
            }
        };
        let close = |rel: &PartialOrderRel, strong_only: bool| {
            let added = pairs
                .iter()
                .filter(|p| p.2 || !strong_only)
                .map(|&(a, b, _)| (a.index(), b.index()));
            PartialOrderRel::from_pairs(rel.pairs().chain(added))
        };
        let weak = close(&self.weak, false).map_err(fail(OrderKind::Weak))?;
        if pairs.iter().any(|p| p.2) {
            self.strong = close(&self.strong, true).map_err(fail(OrderKind::Strong))?;
        }
        self.weak = weak;
        Ok(())
    }

    /// Whether `a < b` (weakly ordered, closure included).
    pub fn weak_lt(&self, a: NodeId, b: NodeId) -> bool {
        self.weak.lt(a.index(), b.index())
    }

    /// Whether `a ≪ b` (strongly ordered, closure included).
    pub fn strong_lt(&self, a: NodeId, b: NodeId) -> bool {
        self.strong.lt(a.index(), b.index())
    }

    /// The Definition-1 relation between `a` and `b` in the `a → b`
    /// direction, or `Unordered` if incomparable.
    pub fn kind(&self, a: NodeId, b: NodeId) -> OrderKind {
        if self.strong_lt(a, b) {
            OrderKind::Strong
        } else if self.weak_lt(a, b) {
            OrderKind::Weak
        } else {
            OrderKind::Unordered
        }
    }

    /// The weak relation.
    pub fn weak(&self) -> &PartialOrderRel {
        &self.weak
    }

    /// The strong relation.
    pub fn strong(&self) -> &PartialOrderRel {
        &self.strong
    }

    /// All weak pairs as `NodeId`s.
    pub fn weak_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.weak
            .pairs()
            .map(|(a, b)| (NodeId(a as u32), NodeId(b as u32)))
    }

    /// All strong pairs as `NodeId`s.
    pub fn strong_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.strong
            .pairs()
            .map(|(a, b)| (NodeId(a as u32), NodeId(b as u32)))
    }

    /// Whether both relations are empty.
    pub fn is_empty(&self) -> bool {
        self.weak.pair_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn strong_implies_weak() {
        let mut p = OrderPair::new();
        p.add_strong(n(0), n(1)).unwrap();
        assert!(p.weak_lt(n(0), n(1)));
        assert!(p.strong_lt(n(0), n(1)));
        assert_eq!(p.kind(n(0), n(1)), OrderKind::Strong);
    }

    #[test]
    fn weak_does_not_imply_strong() {
        let mut p = OrderPair::new();
        p.add_weak(n(0), n(1)).unwrap();
        assert_eq!(p.kind(n(0), n(1)), OrderKind::Weak);
        assert_eq!(p.kind(n(1), n(0)), OrderKind::Unordered);
    }

    #[test]
    fn weak_cycle_rejected() {
        let mut p = OrderPair::new();
        p.add_weak(n(0), n(1)).unwrap();
        assert!(p.add_weak(n(1), n(0)).is_err());
    }

    #[test]
    fn strong_contradicting_weak_rejected() {
        // a < b weakly, then b ≪ a must fail because ≪ ⊆ < would break.
        let mut p = OrderPair::new();
        p.add_weak(n(0), n(1)).unwrap();
        assert!(p.add_strong(n(1), n(0)).is_err());
    }

    #[test]
    fn transitive_closure_spans_both() {
        let mut p = OrderPair::new();
        p.add_strong(n(0), n(1)).unwrap();
        p.add_strong(n(1), n(2)).unwrap();
        assert!(p.strong_lt(n(0), n(2)));
        assert!(p.weak_lt(n(0), n(2)));
    }

    #[test]
    fn mixed_chain_closes_weakly_only() {
        let mut p = OrderPair::new();
        p.add_strong(n(0), n(1)).unwrap();
        p.add_weak(n(1), n(2)).unwrap();
        assert!(p.weak_lt(n(0), n(2)));
        assert!(!p.strong_lt(n(0), n(2)));
    }
}
