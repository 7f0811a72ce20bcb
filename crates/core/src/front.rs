//! Computational fronts (Definition 12) and conflict consistency
//! (Definition 13).

use compc_graph::{dot_escape, ChunkedBitGraph, ChunkedRow, SearchScratch};
use compc_model::{CompositeSystem, NodeId, Schedule};
use std::collections::BTreeSet;

/// A computational front `F = (O, →, <ₒ, CON)`: a maximal antichain of the
/// computational forest together with the orders known among its members.
///
/// * the members — the independent node set `O` (no member descends from
///   another);
/// * the observed order `<ₒ` among members (Definition 10), kept
///   transitively closed; it *may* be cyclic, exactly as the paper warns,
///   which is what the conflict-consistency check detects;
/// * the weak input orders `→` applicable to members (the strong orders
///   `→→` are contained in `→` by Definition 3 and need no separate
///   treatment, as §2 of the paper notes). Input pairs keep their original
///   endpoints, so an endpoint reduced away at an earlier level stays in.
///
/// All three are rows over the system's node ids ([`ChunkedRow`], one per
/// node for the two orders): a row stays a sorted id list while cold and
/// becomes dense words once hot, so memory follows the pairs, and the
/// reduction step combines whole rows with word operations.
///
/// Generalized conflicts (Definition 11) are not materialized: they are a
/// function of the system and the observed order (see [`Front::gen_con`]).
///
/// Equality is structural: same level, members, closed observed order and
/// input order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Front {
    pub(crate) level: usize,
    pub(crate) members: ChunkedRow,
    pub(crate) observed: ChunkedBitGraph,
    pub(crate) input: ChunkedBitGraph,
}

impl Front {
    /// The level-0 front (Definition 15): every leaf operation, with the
    /// observed order seeded by Definition 10 rule 1 — leaf pairs of a
    /// common schedule are observed in that schedule's weak output order,
    /// conflicting or not.
    ///
    /// A leaf's observed row is its row of its container's weak output
    /// order masked by the leaves: one masked OR per leaf. Rule 4
    /// (transitivity) adds nothing here: each schedule's output order is
    /// closed, so is its restriction to the schedule's leaves, and no pair
    /// relates two schedules.
    pub fn level0(sys: &CompositeSystem) -> Front {
        let mut front = Front::default();
        front.reset_to_level0(sys);
        front
    }

    /// Rebuilds this front as [`Front::level0`] of `sys` in its own buffers.
    pub(crate) fn reset_to_level0(&mut self, sys: &CompositeSystem) {
        let n = sys.node_count();
        self.level = 0;
        self.members.clear();
        for l in sys.leaves() {
            self.members.insert(l.index(), n);
        }
        self.observed.reset(n);
        for l in self.members.iter() {
            let Some(c) = sys.node(NodeId(l as u32)).container else {
                continue;
            };
            let row = sys.schedule(c).output.weak().above_row(l);
            if !row.is_empty() {
                self.observed
                    .row_mut(l)
                    .or_masked(row, Some(&self.members), None, n);
            }
        }
        self.input.reset(n);
    }

    /// Which reduction step produced this front (0 = all leaves).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The members `O`, ascending.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().map(|i| NodeId(i as u32))
    }

    /// How many members the front has.
    pub fn member_count(&self) -> usize {
        self.members.count()
    }

    /// Whether `a <ₒ b`.
    pub fn has_observed(&self, a: NodeId, b: NodeId) -> bool {
        self.observed.has_edge(a.index(), b.index())
    }

    /// The observed order `<ₒ`, transitively closed, possibly cyclic: one
    /// row per node id, nonempty only for members.
    pub fn observed(&self) -> &ChunkedBitGraph {
        &self.observed
    }

    /// The applicable weak input orders `→`, one row per node id.
    pub fn input(&self) -> &ChunkedBitGraph {
        &self.input
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
            None => self.has_observed(a, b) || self.has_observed(b, a),
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
    /// Built from rows and declared pairs, never a scan over all member
    /// pairs: a member `u`'s row is `input[u] ∪ (observed[u] ∖ same[u])`,
    /// where `same[u]` holds the members of `u`'s container schedule, and
    /// then every declared conflict of a container adds its
    /// schedule-ordered and observed directions. Any other node's row is
    /// its input row.
    pub fn constraint_graph(&self, sys: &CompositeSystem) -> ChunkedBitGraph {
        let mut g = ChunkedBitGraph::new();
        self.constraint_rows_into(sys, &mut Vec::new(), &mut g);
        for u in 0..g.node_count() {
            if !self.members.contains(u) {
                *g.row_mut(u) = self.input.row(u).clone();
            }
        }
        g
    }

    /// The members' rows of [`Front::constraint_graph`] written into `out`,
    /// whose other rows are left empty; `by_container` is a buffer for
    /// [`Front::members_by_container`].
    pub(crate) fn constraint_rows_into(
        &self,
        sys: &CompositeSystem,
        by_container: &mut Vec<ChunkedRow>,
        out: &mut ChunkedBitGraph,
    ) {
        let n = self.observed.node_count();
        out.reset(n);
        self.members_by_container(sys, by_container);
        for u in self.members.iter() {
            let same = sys
                .node(NodeId(u as u32))
                .container
                .map(|c| &by_container[c.index()]);
            let row = out.row_mut(u);
            row.or_from(self.input.row(u), n);
            row.or_masked(self.observed.row(u), None, same, n);
            row.remove(u); // no pair of a member with itself conflicts
        }
        for (s, a, b) in self.declared_conflicts(sys, by_container) {
            if s.output.weak_lt(a, b) || self.has_observed(a, b) {
                out.add_edge(a.index(), b.index());
            }
            if s.output.weak_lt(b, a) || self.has_observed(b, a) {
                out.add_edge(b.index(), a.index());
            }
        }
    }

    /// Fills `rows` with, per schedule id, the members whose container it
    /// is.
    fn members_by_container(&self, sys: &CompositeSystem, rows: &mut Vec<ChunkedRow>) {
        let n = self.observed.node_count();
        rows.resize_with(sys.schedule_count(), ChunkedRow::default);
        for row in &mut rows[..sys.schedule_count()] {
            row.clear();
        }
        for m in self.members.iter() {
            if let Some(c) = sys.node(NodeId(m as u32)).container {
                rows[c.index()].insert(m, n);
            }
        }
    }

    /// The declared conflicts `(a, b)` between two members whose common
    /// container schedule declares them, with that schedule;
    /// `by_container` is [`Front::members_by_container`].
    fn declared_conflicts<'s>(
        &'s self,
        sys: &'s CompositeSystem,
        by_container: &'s [ChunkedRow],
    ) -> impl Iterator<Item = (&'s Schedule, NodeId, NodeId)> + 's {
        sys.schedules()
            .filter(|s| !by_container[s.id.index()].is_empty())
            .flat_map(move |s| {
                let members = &by_container[s.id.index()];
                s.conflicts
                    .iter()
                    .filter(move |&(a, b)| {
                        members.contains(a.index()) && members.contains(b.index())
                    })
                    .map(move |(a, b)| (s, a, b))
            })
    }

    /// The nodes with successors in `<ₒ ∪ →`, ascending, and maybe more:
    /// the members and the nodes with input pairs.
    pub(crate) fn ordered_nodes(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.observed.node_count())
            .filter(|&u| self.members.contains(u) || !self.input.row(u).is_empty())
    }

    /// Pushes the successors of `u` in `<ₒ ∪ →` onto `out`, ascending.
    pub(crate) fn order_successors(&self, u: usize, out: &mut Vec<usize>) {
        out.extend(self.observed.successors(u));
        let input = self.input.row(u);
        if !input.is_empty() {
            out.extend(input.iter());
            // Two ascending runs: the stable sort merges them in one pass.
            out.sort();
            out.dedup();
        }
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
        self.cc_cycle(&mut SearchScratch::new())
    }

    /// [`Front::is_cc`] in `search`'s buffers, started only from the nodes
    /// that have successors.
    pub(crate) fn cc_cycle(&self, search: &mut SearchScratch) -> Option<Vec<NodeId>> {
        let n = self.observed.node_count();
        search
            .find_cycle(n, self.ordered_nodes(), |u, out| {
                self.order_successors(u, out)
            })
            .map(|c| c.nodes.into_iter().map(|i| NodeId(i as u32)).collect())
    }

    /// Observed pairs restricted to front members, as `NodeId` tuples.
    pub fn observed_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.member_pairs(&self.observed)
    }

    /// Input pairs restricted to front members.
    pub fn input_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.member_pairs(&self.input)
    }

    fn member_pairs(&self, g: &ChunkedBitGraph) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in self.members.iter() {
            g.row(u).for_each_masked(Some(&self.members), None, |v| {
                out.push((NodeId(u as u32), NodeId(v as u32)));
            });
        }
        out
    }

    /// Conflicting (generalized) pairs among front members, normalized and
    /// sorted: the declared conflicts of a common container, plus the
    /// observed pairs between members with no common container.
    pub fn conflict_pairs(&self, sys: &CompositeSystem) -> Vec<(NodeId, NodeId)> {
        let mut by_container = Vec::new();
        self.members_by_container(sys, &mut by_container);
        let mut out: Vec<(NodeId, NodeId)> = self
            .declared_conflicts(sys, &by_container)
            .map(|(_, a, b)| (a, b))
            .collect();
        for (a, b) in self.observed_pairs() {
            if a != b && sys.common_container(a, b).is_none() {
                out.push((a.min(b), a.max(b)));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Renders the front as Graphviz DOT: solid edges for observed-order
    /// pairs, dashed edges for input orders, bold red edges where the pair
    /// is also a generalized conflict.
    pub fn to_dot(&self, sys: &CompositeSystem) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "digraph \"front-{}\" {{", self.level).unwrap();
        writeln!(out, "  rankdir=LR; label=\"level-{} front\";", self.level).unwrap();
        for n in self.members() {
            writeln!(out, "  n{} [label=\"{}\"];", n.0, dot_escape(sys.name(n))).unwrap();
        }
        let conflicts: BTreeSet<(NodeId, NodeId)> = self.conflict_pairs(sys).into_iter().collect();
        for (a, b) in self.observed_pairs() {
            let hot = conflicts.contains(&(a.min(b), a.max(b)));
            writeln!(
                out,
                "  n{} -> n{}{};",
                a.0,
                b.0,
                if hot { " [color=red, penwidth=2]" } else { "" }
            )
            .unwrap();
        }
        for (a, b) in self.input_pairs() {
            writeln!(out, "  n{} -> n{} [style=dashed];", a.0, b.0).unwrap();
        }
        out.push_str("}\n");
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
        assert_eq!(f.level(), 0);
        assert!(f.members.contains(o1.index()) && f.members.contains(o2.index()));
        assert_eq!(f.member_count(), 2);
    }

    #[test]
    fn level0_observed_follows_schedule_order() {
        let (sys, o1, o2) = flat();
        let f = Front::level0(&sys);
        assert!(f.has_observed(o1, o2));
        assert!(!f.has_observed(o2, o1));
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
        assert!(f.has_observed(o1, o2));
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

    #[test]
    fn to_dot_renders_nodes_and_edge_styles() {
        let (sys, _, _) = flat();
        let dot = Front::level0(&sys).to_dot(&sys);
        assert!(dot.contains("level-0 front"));
        assert!(dot.contains("[label=\"o1\"]"));
        assert!(dot.contains("color=red"), "conflicting pair rendered hot");
    }

    #[test]
    fn to_dot_escapes_backslashes_and_quotes() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t = b.root("T", s);
        b.leaf("q\"x\\", t);
        let sys = b.build().unwrap();
        let dot = Front::level0(&sys).to_dot(&sys);
        assert!(dot.contains(r#"[label="q\"x\\"];"#), "{dot}");
    }
}
