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
//! pair (`≪ ⊆ <`). [`OrderPair`] packages the two relations and grows them
//! only through [`OrderPair::extend_closing_once`], which adds every strong
//! pair to both, so an ill-formed pair is unrepresentable.

use crate::error::ModelError;
use crate::ids::NodeId;
use compc_graph::{Added, Gain, PartialOrderRel};

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

    /// Adds the pairs `(a, b, strong)`: `a < b`, and `a ≪ b` too when
    /// `strong`, closing each relation once
    /// ([`PartialOrderRel::extend`]).
    ///
    /// On a reflexive or contradictory pair it fails with the pair's index
    /// in `pairs` and its error, naming the first pair that adding them one
    /// by one would reject, and leaves the orders as they were. Only the
    /// weak relation can fail: it takes every pair, so a strong
    /// contradiction is also a weak one.
    pub fn extend_closing_once(
        &mut self,
        pairs: &[(NodeId, NodeId, bool)],
    ) -> Result<(), (usize, ModelError)> {
        self.extend(pairs, None).map(drop)
    }

    /// [`OrderPair::extend_closing_once`] that reports what the weak and
    /// the strong relation added, their rows' gains pushed to `gains` when
    /// it is given.
    pub(crate) fn extend(
        &mut self,
        pairs: &[(NodeId, NodeId, bool)],
        mut gains: Option<&mut Vec<Gain>>,
    ) -> Result<[Added; 2], (usize, ModelError)> {
        let all: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(a, b, _)| (a.index(), b.index()))
            .collect();
        let weak = (self.weak.extend(&all, gains.as_deref_mut())).map_err(|(i, source)| {
            let (a, b, _) = pairs[i];
            let kind = OrderKind::Weak;
            (i, ModelError::OrderViolation { a, b, kind, source })
        })?;
        let strong: Vec<(usize, usize)> = (pairs.iter().zip(all))
            .filter_map(|(p, pair)| p.2.then_some(pair))
            .collect();
        let strong =
            (self.strong.extend(&strong, gains)).expect("the weak order took every strong pair");
        Ok([weak, strong])
    }

    /// Takes back what [`OrderPair::extend`] reported.
    pub(crate) fn undo(&mut self, [weak, strong]: [Added; 2], gains: &mut Vec<Gain>) {
        self.strong.undo(strong, gains);
        self.weak.undo(weak, gains);
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

    fn add(p: &mut OrderPair, a: u32, b: u32, strong: bool) -> Result<(), (usize, ModelError)> {
        p.extend_closing_once(&[(n(a), n(b), strong)])
    }

    #[test]
    fn strong_implies_weak() {
        let mut p = OrderPair::new();
        add(&mut p, 0, 1, true).unwrap();
        assert!(p.weak_lt(n(0), n(1)));
        assert!(p.strong_lt(n(0), n(1)));
        assert_eq!(p.kind(n(0), n(1)), OrderKind::Strong);
    }

    #[test]
    fn weak_does_not_imply_strong() {
        let mut p = OrderPair::new();
        add(&mut p, 0, 1, false).unwrap();
        assert_eq!(p.kind(n(0), n(1)), OrderKind::Weak);
        assert_eq!(p.kind(n(1), n(0)), OrderKind::Unordered);
    }

    #[test]
    fn weak_cycle_rejected() {
        let mut p = OrderPair::new();
        add(&mut p, 0, 1, false).unwrap();
        assert!(add(&mut p, 1, 0, false).is_err());
    }

    #[test]
    fn strong_contradicting_weak_rejected() {
        // a < b weakly, then b ≪ a must fail because ≪ ⊆ < would break.
        let mut p = OrderPair::new();
        add(&mut p, 0, 1, false).unwrap();
        assert!(add(&mut p, 1, 0, true).is_err());
    }

    #[test]
    fn transitive_closure_spans_both() {
        let mut p = OrderPair::new();
        add(&mut p, 0, 1, true).unwrap();
        add(&mut p, 1, 2, true).unwrap();
        assert!(p.strong_lt(n(0), n(2)));
        assert!(p.weak_lt(n(0), n(2)));
    }

    #[test]
    fn mixed_chain_closes_weakly_only() {
        let mut p = OrderPair::new();
        add(&mut p, 0, 1, true).unwrap();
        add(&mut p, 1, 2, false).unwrap();
        assert!(p.weak_lt(n(0), n(2)));
        assert!(!p.strong_lt(n(0), n(2)));
    }
}
