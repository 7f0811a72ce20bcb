//! Composite systems (Definitions 4–9).

use crate::builder::homed_ops;
use crate::error::ModelError;
use crate::ids::{NodeId, SchedId};
use crate::orders::{OrderKind, OrderPair};
use crate::schedule::{Schedule, Transaction};
use crate::semantics::OpSpec;
use compc_graph::{find_cycle, longest_path_lengths, DiGraph};

/// The role a node plays in the computational forest: the sets `R`, `I`, `L`
/// of Definition 4 (points 3–5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// A root transaction (element of `R`): not an operation of anything.
    Root,
    /// An internal node (element of `I`): an operation of some transaction
    /// that is itself a transaction of another schedule.
    Internal,
    /// A leaf operation (element of `L`): an operation that is not a
    /// transaction anywhere.
    Leaf,
}

/// Per-node bookkeeping: where the node sits in the forest and in the
/// schedule topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's identity.
    pub id: NodeId,
    /// Display name used in traces, DOT output and error messages.
    pub name: String,
    /// The transaction this node is an operation of (`None` for roots).
    pub parent: Option<NodeId>,
    /// The schedule this node is a *transaction* of (`None` for leaves).
    pub home: Option<SchedId>,
    /// The schedule whose operation set contains this node — always the
    /// home schedule of `parent` (`None` for roots).
    pub container: Option<SchedId>,
    /// Leaf semantics, if declared.
    pub spec: Option<OpSpec>,
}

impl NodeInfo {
    /// The node's Definition-4 role.
    pub fn role(&self) -> NodeRole {
        match (self.parent, self.home) {
            (None, _) => NodeRole::Root,
            (Some(_), None) => NodeRole::Leaf,
            (Some(_), Some(_)) => NodeRole::Internal,
        }
    }
}

/// A validated composite system `CS = {S_1, …, S_n}` (Definition 4) together
/// with its computational forest.
///
/// Construct via [`crate::SystemBuilder`]; the builder's `build()` runs
/// [`CompositeSystem::validate`] so every value of this type satisfies
/// Definitions 2–4.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompositeSystem {
    pub(crate) nodes: Vec<NodeInfo>,
    pub(crate) schedules: Vec<Schedule>,
    /// Children of each node (its operation list if it is a transaction).
    pub(crate) children: Vec<Vec<NodeId>>,
    /// level[s] = Definition-9 level of schedule `s` (1-based).
    pub(crate) levels: Vec<usize>,
}

impl CompositeSystem {
    /// Assembles a system from raw parts and validates it.
    ///
    /// `nodes` must be dense in id order; `schedules` dense in id order.
    pub fn assemble(nodes: Vec<NodeInfo>, schedules: Vec<Schedule>) -> Result<Self, ModelError> {
        let mut children = vec![Vec::new(); nodes.len()];
        for s in &schedules {
            for t in &s.transactions {
                children[t.id.index()] = t.ops.clone();
            }
        }
        let mut sys = CompositeSystem {
            nodes,
            schedules,
            children,
            levels: Vec::new(),
        };
        sys.levels = sys.compute_levels()?;
        sys.validate()?;
        Ok(sys)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of nodes in the forest.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Per-node info.
    pub fn node(&self, n: NodeId) -> &NodeInfo {
        &self.nodes[n.index()]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter()
    }

    /// The schedule with the given id.
    pub fn schedule(&self, s: SchedId) -> &Schedule {
        &self.schedules[s.index()]
    }

    /// All schedules in id order.
    pub fn schedules(&self) -> impl Iterator<Item = &Schedule> {
        self.schedules.iter()
    }

    /// Number of schedules.
    pub fn schedule_count(&self) -> usize {
        self.schedules.len()
    }

    /// The transaction struct for a node that is a transaction somewhere.
    pub fn transaction(&self, n: NodeId) -> Option<&Transaction> {
        let home = self.nodes[n.index()].home?;
        self.schedule(home).transaction(n)
    }

    /// The node's operations (empty slice for leaves).
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.children[n.index()]
    }

    /// The root transactions `R`.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.role() == NodeRole::Root)
            .map(|n| n.id)
    }

    /// The leaf operations `L` (the level-0 front's node set).
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.role() == NodeRole::Leaf)
            .map(|n| n.id)
    }

    /// `Act(T)`: all proper descendants of `n` in the forest (Definition 4.6).
    pub fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.children(n).to_vec();
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend_from_slice(self.children(c));
        }
        out.sort_unstable();
        out
    }

    /// The composite transaction (execution tree, Definition 6) rooted at a
    /// root node: the root plus all its descendants.
    pub fn composite_transaction(&self, root: NodeId) -> Vec<NodeId> {
        let mut out = vec![root];
        out.extend(self.descendants(root));
        out.sort_unstable();
        out
    }

    /// The invocation graph (Definition 8): edge `S_i -> S_j` iff some
    /// operation of `S_i` is a transaction of `S_j`.
    pub fn invocation_graph(&self) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.schedules.len());
        for n in &self.nodes {
            if let (Some(container), Some(home)) = (n.container, n.home) {
                if container != home {
                    g.add_edge(container.index(), home.index());
                }
            }
        }
        g
    }

    /// Definition-9 level of a schedule (1-based: leaf schedules are 1).
    pub fn level(&self, s: SchedId) -> usize {
        self.levels[s.index()]
    }

    /// The order `N` of the system: the highest schedule level.
    pub fn order(&self) -> usize {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// Schedules of a given level, in id order.
    pub fn schedules_at_level(&self, level: usize) -> impl Iterator<Item = &Schedule> {
        self.schedules
            .iter()
            .filter(move |s| self.levels[s.id.index()] == level)
    }

    /// Whether two nodes are operations of a common schedule, and which.
    pub fn common_container(&self, a: NodeId, b: NodeId) -> Option<SchedId> {
        match (
            self.nodes[a.index()].container,
            self.nodes[b.index()].container,
        ) {
            (Some(x), Some(y)) if x == y => Some(x),
            _ => None,
        }
    }

    /// Display name of a node.
    pub fn name(&self, n: NodeId) -> &str {
        &self.nodes[n.index()].name
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    pub(crate) fn compute_levels(&self) -> Result<Vec<usize>, ModelError> {
        let ig = self.invocation_graph();
        if let Some(cycle) = find_cycle(&ig) {
            return Err(ModelError::RecursiveInvocation {
                cycle: cycle.nodes.into_iter().map(|i| SchedId(i as u32)).collect(),
            });
        }
        Ok(longest_path_lengths(&ig)
            .into_iter()
            .map(|l| l + 1)
            .collect())
    }

    /// Validates Definitions 3 and 4 over the whole system.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.validate_where(|_| true)
    }

    /// Validates Definitions 3 and 4 for the schedules `check` selects.
    pub(crate) fn validate_where(&self, check: impl Fn(SchedId) -> bool) -> Result<(), ModelError> {
        let checked = || self.schedules.iter().filter(|s| check(s.id));
        // Definition 3 per schedule.
        for s in checked() {
            s.validate()?;
        }
        // Definition 4.6 second clause: no descendant of a transaction is a
        // transaction of the same schedule. (The IG acyclicity check in
        // `compute_levels` already covers most cases; this catches a
        // transaction invoking its own schedule through an intermediate.)
        for s in checked() {
            for t in &s.transactions {
                for d in self.descendants(t.id) {
                    if self.nodes[d.index()].home == Some(s.id) {
                        return Err(ModelError::DescendantInSameSchedule {
                            sched: s.id,
                            ancestor: t.id,
                            descendant: d,
                        });
                    }
                }
            }
        }
        // Definition 4.7: output orders of S_i between two operations that
        // are both transactions of S_j must be passed to S_j as input orders.
        // Per operation `a` homed at S_j, its output rows masked by the
        // operations homed there, minus S_j's input rows of `a`; among
        // several violations the one reported is the first in declaration
        // order over `O_S`.
        for s in checked() {
            let homed = homed_ops(&self.nodes, s.ops());
            if homed.is_empty() {
                continue;
            }
            for a in s.ops() {
                let Some((to, same)) = self.nodes[a.index()]
                    .home
                    .and_then(|h| homed.iter().find(|(x, _)| *x == h))
                else {
                    continue;
                };
                let input = &self.schedule(*to).input;
                let mut missing = Vec::new();
                s.output.weak().above_row(a.index()).for_each_masked(
                    Some(same),
                    Some(input.weak().above_row(a.index())),
                    |b| missing.push((NodeId(b as u32), OrderKind::Weak)),
                );
                s.output.strong().above_row(a.index()).for_each_masked(
                    Some(same),
                    Some(input.strong().above_row(a.index())),
                    |b| {
                        if input.weak_lt(a, NodeId(b as u32)) {
                            missing.push((NodeId(b as u32), OrderKind::Strong));
                        }
                    },
                );
                if missing.is_empty() {
                    continue;
                }
                let pos = s.op_positions();
                let (b, kind) = missing
                    .into_iter()
                    .min_by_key(|(b, _)| pos.get(*b))
                    .expect("nonempty");
                return Err(ModelError::OrderNotPropagated {
                    from: s.id,
                    to: *to,
                    a,
                    b,
                    kind,
                });
            }
        }
        Ok(())
    }

    /// Renders the computational forest as DOT (roots at the left).
    pub fn forest_dot(&self) -> String {
        let mut g = DiGraph::with_nodes(self.node_count());
        for n in &self.nodes {
            if let Some(p) = n.parent {
                g.add_edge(p.index(), n.id.index());
            }
        }
        compc_graph::dot_string(&g, "forest", |i| {
            let n = &self.nodes[i];
            match n.role() {
                NodeRole::Root => format!("{} (root@{})", n.name, fmt_sched(n.home)),
                NodeRole::Internal => format!("{} (tx@{})", n.name, fmt_sched(n.home)),
                NodeRole::Leaf => n.name.clone(),
            }
        })
    }
}

fn fmt_sched(s: Option<SchedId>) -> String {
    s.map_or_else(|| "-".to_string(), |s| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;

    /// A 2-level stack: root T at S_top, ops o1, o2 leaves at... in the
    /// composite model a root's ops live in its home schedule's op set.
    fn tiny() -> CompositeSystem {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t = b.root("T", s);
        let _o1 = b.leaf("o1", t);
        let _o2 = b.leaf("o2", t);
        b.build().unwrap()
    }

    #[test]
    fn roles_classified() {
        let sys = tiny();
        let roles: Vec<NodeRole> = sys.nodes().map(NodeInfo::role).collect();
        assert_eq!(roles, vec![NodeRole::Root, NodeRole::Leaf, NodeRole::Leaf]);
    }

    #[test]
    fn single_schedule_is_level_one() {
        let sys = tiny();
        assert_eq!(sys.level(SchedId(0)), 1);
        assert_eq!(sys.order(), 1);
    }

    #[test]
    fn composite_transaction_is_root_plus_descendants() {
        let sys = tiny();
        assert_eq!(
            sys.composite_transaction(NodeId(0)),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn levels_of_a_stack() {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_bot = b.schedule("bot");
        let t = b.root("T", s_top);
        let u = b.subtx("u", t, s_bot);
        let _o = b.leaf("o", u);
        let sys = b.build().unwrap();
        assert_eq!(sys.level(s_top), 2);
        assert_eq!(sys.level(s_bot), 1);
        assert_eq!(sys.order(), 2);
        let ig = sys.invocation_graph();
        assert!(ig.has_edge(s_top.index(), s_bot.index()));
    }

    #[test]
    fn common_container_detection() {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_bot = b.schedule("bot");
        let t = b.root("T", s_top);
        let u1 = b.subtx("u1", t, s_bot);
        let u2 = b.subtx("u2", t, s_bot);
        let o1 = b.leaf("o1", u1);
        let o2 = b.leaf("o2", u2);
        let sys = b.build().unwrap();
        // u1, u2 are both ops of s_top (container = home of parent T).
        assert_eq!(sys.common_container(u1, u2), Some(s_top));
        // o1, o2 are ops of s_bot.
        assert_eq!(sys.common_container(o1, o2), Some(s_bot));
        // A root has no container.
        assert_eq!(sys.common_container(t, u1), None);
    }

    #[test]
    fn forest_dot_mentions_names() {
        let dot = tiny().forest_dot();
        assert!(dot.contains("T (root@S0)"));
        assert!(dot.contains("o1"));
    }
}

impl CompositeSystem {
    /// Projects the system onto a subset of its composite transactions:
    /// keeps only the execution trees of the given roots, restricting every
    /// schedule's transactions, conflicts and orders accordingly.
    ///
    /// Projection preserves validity (removing transactions can only remove
    /// obligations), so the result is checkable; the counterexample
    /// minimizer in `compc-core` uses it to shrink incorrect executions.
    pub fn project_roots(&self, keep: &[NodeId]) -> Result<CompositeSystem, ModelError> {
        use std::collections::BTreeSet;
        let mut kept: BTreeSet<NodeId> = BTreeSet::new();
        for &r in keep {
            kept.extend(self.composite_transaction(r));
        }
        let mut nodes = Vec::new();
        // Old id -> new id (dense renumbering).
        let mut remap = vec![None; self.node_count()];
        for (new_idx, &old) in kept.iter().enumerate() {
            remap[old.index()] = Some(NodeId(new_idx as u32));
            let info = self.node(old);
            nodes.push(NodeInfo {
                id: NodeId(new_idx as u32),
                name: info.name.clone(),
                parent: info.parent, // remapped below
                home: info.home,
                container: info.container,
                spec: info.spec,
            });
        }
        for n in &mut nodes {
            n.parent = n
                .parent
                .map(|p| remap[p.index()].expect("parents are kept"));
        }
        // The kept pairs of a closed order pair, renumbered and closed once.
        let restrict = |orders: &OrderPair| {
            let pairs: Vec<_> = orders
                .weak_pairs()
                .filter_map(|(a, b)| {
                    let strong = orders.strong_lt(a, b);
                    Some((remap[a.index()]?, remap[b.index()]?, strong))
                })
                .collect();
            let mut out = OrderPair::new();
            out.extend_closing_once(&pairs)
                .expect("restriction stays valid");
            out
        };
        let schedules = self
            .schedules()
            .map(|s| {
                let mut out = Schedule::new(s.id, s.name.clone());
                for t in &s.transactions {
                    if !kept.contains(&t.id) {
                        continue;
                    }
                    let mut nt = Transaction::new(remap[t.id.index()].expect("kept"));
                    nt.ops = t
                        .ops
                        .iter()
                        .map(|o| remap[o.index()].expect("ops of kept txs are kept"))
                        .collect();
                    nt.intra = restrict(&t.intra);
                    out.transactions.push(nt);
                }
                for (a, b) in s.conflicts.iter() {
                    if kept.contains(&a) && kept.contains(&b) {
                        out.conflicts.insert(
                            remap[a.index()].expect("kept"),
                            remap[b.index()].expect("kept"),
                        );
                    }
                }
                out.input = restrict(&s.input);
                out.output = restrict(&s.output);
                out
            })
            .collect();
        CompositeSystem::assemble(nodes, schedules)
    }
}

#[cfg(test)]
mod projection_tests {
    use super::*;
    use crate::builder::SystemBuilder;

    #[test]
    fn projection_keeps_selected_trees_only() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        let sys = b.build().unwrap();
        let proj = sys.project_roots(&[t1]).unwrap();
        assert_eq!(proj.roots().count(), 1);
        assert_eq!(proj.node_count(), 2);
        assert_eq!(proj.schedule(SchedId(0)).conflicts.len(), 0);
    }

    #[test]
    fn projection_preserves_internal_structure() {
        let mut b = SystemBuilder::new();
        let top = b.schedule("top");
        let bot = b.schedule("bot");
        let t1 = b.root("T1", top);
        let t2 = b.root("T2", top);
        let u1 = b.subtx("u1", t1, bot);
        let _u2 = b.subtx("u2", t2, bot);
        let o1 = b.leaf("o1", u1);
        let o1b = b.leaf("o1b", u1);
        b.tx_weak_order(o1, o1b).unwrap();
        b.output_weak(o1, o1b).unwrap();
        let sys = b.build().unwrap();
        let proj = sys.project_roots(&[t1]).unwrap();
        assert_eq!(proj.node_count(), 4);
        assert_eq!(proj.order(), 2);
        // The intra order survived the renumbering.
        let bot_sched = proj.schedules().find(|s| s.name == "bot").unwrap();
        let tx = &bot_sched.transactions[0];
        assert_eq!(tx.ops.len(), 2);
        assert!(tx.intra.weak_lt(tx.ops[0], tx.ops[1]));
    }

    #[test]
    fn projection_of_everything_is_identity_sized() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        b.leaf("o1", t1);
        b.leaf("o2", t2);
        let sys = b.build().unwrap();
        let proj = sys.project_roots(&[t1, t2]).unwrap();
        assert_eq!(proj.node_count(), sys.node_count());
    }
}
