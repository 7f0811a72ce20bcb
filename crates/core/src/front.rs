//! Computational fronts (Definition 12) and conflict consistency
//! (Definition 13).

use crate::closure::{self, CheckScratch};
use crate::reduce::Backend;
use compc_graph::{find_cycle, DiGraph};
use compc_model::{CompositeSystem, NodeId, NodeRole, SchedId, Schedule};
use std::collections::BTreeSet;

/// A computational front `F = (O, →, <ₒ, CON)`: a maximal antichain of the
/// computational forest together with the orders known among its members.
///
/// * `nodes` — the independent node set `O` (no member descends from
///   another);
/// * `observed` — the observed order `<ₒ` among front members
///   (Definition 10), kept transitively closed; it *may* be cyclic, exactly
///   as the paper warns, which is what the conflict-consistency check
///   detects;
/// * `input` — the weak input orders `→` applicable to front members (the
///   strong orders `→→` are contained in `→` by Definition 3 and need no
///   separate treatment, as §2 of the paper notes).
///
/// Generalized conflicts (Definition 11) are not materialized: they are a
/// function of the system and `observed` (see [`Front::gen_con`]).
///
/// Equality is structural (same level, members, closed observed order and
/// input order). Note `DiGraph` equality includes the node count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Front {
    /// Which reduction step produced this front (0 = all leaves).
    pub level: usize,
    /// The node set `O`.
    pub nodes: BTreeSet<NodeId>,
    /// The observed order `<ₒ`, transitively closed, possibly cyclic.
    pub observed: DiGraph,
    /// The applicable weak input orders `→`.
    pub input: DiGraph,
}

impl Front {
    /// The level-0 front (Definition 15): every leaf operation, with the
    /// observed order seeded by Definition 10 rule 1 — leaf pairs of a
    /// common schedule are observed in that schedule's weak output order,
    /// conflicting or not.
    pub fn level0(sys: &CompositeSystem) -> Front {
        Self::level0_with(sys, Backend::Auto, &mut CheckScratch::new())
    }

    /// [`Front::level0`] with a closure backend and reusable buffers for
    /// the closing normalization's closure. Identical output for every
    /// backend.
    pub(crate) fn level0_with(
        sys: &CompositeSystem,
        backend: Backend,
        scratch: &mut CheckScratch,
    ) -> Front {
        // Every same-schedule leaf pair in the schedule's weak output
        // order, read off the output orders' pairs.
        let mut observed = DiGraph::with_nodes(sys.node_count());
        let leaf = |n: NodeId| sys.node(n).role() == NodeRole::Leaf;
        for s in sys.schedules() {
            for (a, b) in s.output.weak_pairs() {
                if leaf(a) && leaf(b) {
                    observed.add_edge(a.index(), b.index());
                }
            }
        }
        // Rule 4 (transitivity) is a no-op here — all pairs are
        // intra-schedule and each schedule's output order is already closed —
        // but we normalize anyway so the invariant "observed is closed" holds
        // unconditionally.
        let observed = closure::transitive_closure(&observed, backend, scratch);
        Front {
            level: 0,
            nodes: sys.leaves().collect(),
            observed,
            input: DiGraph::with_nodes(sys.node_count()),
        }
    }

    /// The generalized conflict relation (Definition 11) between two front
    /// members: operations of a common schedule conflict iff the schedule
    /// says so; operations with no common schedule conflict iff they are
    /// related by the observed order (pessimistic, because the relation
    /// witnesses interaction on shared lower-level data).
    pub fn gen_con(&self, sys: &CompositeSystem, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        match sys.common_container(a, b) {
            Some(s) => sys.schedule(s).conflicts.conflicts(a, b),
            None => {
                self.observed.has_edge(a.index(), b.index())
                    || self.observed.has_edge(b.index(), a.index())
            }
        }
    }

    /// The front's *constraint graph*: every pair a Definition-16-step-1
    /// re-execution may **not** reorder —
    ///
    /// * the input orders `→`;
    /// * observed pairs that are generalized conflicts (commuting observed
    ///   pairs are excluded because step 1 explicitly allows swapping them);
    /// * schedule-declared conflicting pairs among front members of a common
    ///   schedule, in that schedule's output-order direction. These pairs
    ///   are *not* part of `<ₒ` (no Definition-10 rule derives an observed
    ///   order between two internal operations of one schedule), yet they
    ///   are non-commuting and executed in a fixed order, so a calculation
    ///   may not switch them. Keeping them out of `<ₒ` while constraining
    ///   calculations is what makes Theorem 3 hold: a fork's top schedule
    ///   may declare subtransaction conflicts whose order merely
    ///   *constrains* without ever joining the observed order.
    ///
    /// Built from declared pairs: the observed edges and each container
    /// schedule's conflicts, never a scan over all member pairs.
    pub fn constraint_graph(&self, sys: &CompositeSystem) -> DiGraph {
        let mut g = self.input.clone();
        g.ensure_node(sys.node_count().saturating_sub(1));
        for (u, v) in self.observed.edges() {
            let (a, b) = (NodeId(u as u32), NodeId(v as u32));
            if self.nodes.contains(&a) && self.nodes.contains(&b) && self.gen_con(sys, a, b) {
                g.add_edge(u, v);
            }
        }
        // Same-schedule conflicting pairs ordered by the schedule itself.
        for (s, a, b) in self.declared_conflicts(sys) {
            if s.output.weak_lt(a, b) {
                g.add_edge(a.index(), b.index());
            }
            if s.output.weak_lt(b, a) {
                g.add_edge(b.index(), a.index());
            }
        }
        g
    }

    /// The declared conflicts `(a, b)`, `a < b`, between two members whose
    /// common container schedule declares them, with that schedule.
    fn declared_conflicts<'s>(
        &'s self,
        sys: &'s CompositeSystem,
    ) -> impl Iterator<Item = (&'s Schedule, NodeId, NodeId)> + 's {
        let containers: BTreeSet<SchedId> = self
            .nodes
            .iter()
            .filter_map(|&n| sys.node(n).container)
            .collect();
        containers.into_iter().flat_map(move |c| {
            let s = sys.schedule(c);
            s.conflicts
                .iter()
                .filter(move |&(a, b)| {
                    self.nodes.contains(&a)
                        && self.nodes.contains(&b)
                        && sys.common_container(a, b) == Some(c)
                })
                .map(move |(a, b)| (s, a, b))
        })
    }

    /// Conflict consistency (Definition 13, literal): the union of the
    /// observed order `<ₒ` and the input orders `→` is acyclic. Returns the
    /// cycle witness if not.
    ///
    /// All observed pairs count here — including serialization pairs whose
    /// container schedule declares no conflict. That is deliberate: a weak
    /// input order binds the *serialization* of its endpoints even when they
    /// share no directly conflicting pair (a mixed input/serialization cycle
    /// is a real anomaly, and Theorem 2's SCC equivalence depends on
    /// rejecting it). The commutation-based *forgetting* applies (a) when
    /// pairs are pulled up past a common schedule (Definition 10 rule 2) and
    /// (b) to the calculation search (Definition 16 step 1), not to this
    /// check.
    pub fn is_cc(&self) -> Option<Vec<NodeId>> {
        let mut g = self.input.clone();
        g.union_with(&self.observed);
        find_cycle(&g).map(|c| c.nodes.into_iter().map(|i| NodeId(i as u32)).collect())
    }

    /// Observed pairs restricted to front members, as `NodeId` tuples.
    pub fn observed_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.observed
            .edges()
            .map(|(u, v)| (NodeId(u as u32), NodeId(v as u32)))
            .filter(|(a, b)| self.nodes.contains(a) && self.nodes.contains(b))
            .collect()
    }

    /// Input pairs restricted to front members.
    pub fn input_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.input
            .edges()
            .map(|(u, v)| (NodeId(u as u32), NodeId(v as u32)))
            .filter(|(a, b)| self.nodes.contains(a) && self.nodes.contains(b))
            .collect()
    }

    /// Conflicting (generalized) pairs among front members, normalized and
    /// sorted: the declared conflicts of a common container, plus the
    /// observed pairs between members with no common container.
    pub fn conflict_pairs(&self, sys: &CompositeSystem) -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = self
            .declared_conflicts(sys)
            .map(|(_, a, b)| (a, b))
            .collect();
        for (u, v) in self.observed.edges() {
            let (a, b) = (NodeId(u as u32), NodeId(v as u32));
            if a != b
                && self.nodes.contains(&a)
                && self.nodes.contains(&b)
                && sys.common_container(a, b).is_none()
            {
                out.push((a.min(b), a.max(b)));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compc_model::SystemBuilder;

    /// One schedule, two roots, conflicting leaves executed o1 before o2.
    fn flat() -> (CompositeSystem, NodeId, NodeId) {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        (b.build().unwrap(), o1, o2)
    }

    #[test]
    fn level0_contains_all_leaves() {
        let (sys, o1, o2) = flat();
        let f = Front::level0(&sys);
        assert_eq!(f.level, 0);
        assert!(f.nodes.contains(&o1) && f.nodes.contains(&o2));
        assert_eq!(f.nodes.len(), 2);
    }

    #[test]
    fn level0_observed_follows_schedule_order() {
        let (sys, o1, o2) = flat();
        let f = Front::level0(&sys);
        assert!(f.observed.has_edge(o1.index(), o2.index()));
        assert!(!f.observed.has_edge(o2.index(), o1.index()));
        let _ = &sys;
    }

    #[test]
    fn gen_con_same_schedule_uses_declared_conflicts() {
        let (sys, o1, o2) = flat();
        let f = Front::level0(&sys);
        assert!(f.gen_con(&sys, o1, o2));
        assert!(!f.gen_con(&sys, o1, o1));
    }

    #[test]
    fn nonconflicting_leaf_order_still_observed_but_not_constraining() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        // Ordered but NOT conflicting.
        b.output_weak(o1, o2).unwrap();
        let sys = b.build().unwrap();
        let f = Front::level0(&sys);
        assert!(f.observed.has_edge(o1.index(), o2.index()));
        let c = f.constraint_graph(&sys);
        assert!(!c.has_edge(o1.index(), o2.index()));
    }

    #[test]
    fn level0_is_cc() {
        let (sys, _, _) = flat();
        let f = Front::level0(&sys);
        assert!(f.is_cc().is_none());
    }

    #[test]
    fn conflict_pairs_listed() {
        let (sys, o1, o2) = flat();
        let f = Front::level0(&sys);
        assert_eq!(f.conflict_pairs(&sys), vec![(o1, o2)]);
    }
}
