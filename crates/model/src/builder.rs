//! Ergonomic construction of composite systems.

use crate::error::ModelError;
use crate::ids::{NodeId, SchedId};
use crate::orders::OrderPair;
use crate::schedule::{Schedule, Transaction};
use crate::semantics::{CommutativityTable, OpSpec};
use crate::system::{CompositeSystem, NodeInfo};
use std::collections::BTreeSet;

/// Incremental builder for a [`CompositeSystem`].
///
/// The builder lets you declare the forest first (schedules, roots,
/// subtransactions, leaves) and the relational data second (conflicts,
/// input/output orders); `build()` assembles and validates everything against
/// Definitions 2–4.
///
/// [`CompositeSystem::into_builder`] reopens a built system for extension
/// in place: the builder then records which schedules the new items touch,
/// and `build()` re-validates only those.
///
/// ```
/// use compc_model::SystemBuilder;
///
/// let mut b = SystemBuilder::new();
/// let s_top = b.schedule("middleware");
/// let s_db = b.schedule("db");
/// let t1 = b.root("T1", s_top);
/// let u1 = b.subtx("u1", t1, s_db);
/// let o1 = b.leaf("r(x)", u1);
/// let o2 = b.leaf("w(x)", u1);
/// b.tx_weak_order(o1, o2).unwrap();
/// b.output_weak(o1, o2).unwrap();
/// let sys = b.build().unwrap();
/// assert_eq!(sys.order(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SystemBuilder {
    nodes: Vec<NodeInfo>,
    schedules: Vec<Schedule>,
    /// Parallel to `schedules`: transactions under construction.
    txs: Vec<Vec<Transaction>>,
    /// Set when reopened from a built (hence valid) system.
    reopened: Option<Reopened>,
}

/// The state a reopened builder keeps about the system it extends.
#[derive(Clone, Debug, Default)]
struct Reopened {
    /// Nodes the system had when it was reopened.
    base_nodes: usize,
    /// The system's children lists, extended by the new nodes on build.
    children: Vec<Vec<NodeId>>,
    /// Schedules that are new or whose value changed since the reopen.
    touched: BTreeSet<SchedId>,
}

impl SystemBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reopens a built system's parts; see [`CompositeSystem::into_builder`].
    pub(crate) fn reopen(
        nodes: Vec<NodeInfo>,
        mut schedules: Vec<Schedule>,
        children: Vec<Vec<NodeId>>,
    ) -> Self {
        let txs = schedules
            .iter_mut()
            .map(|s| std::mem::take(&mut s.transactions))
            .collect();
        SystemBuilder {
            reopened: Some(Reopened {
                base_nodes: nodes.len(),
                children,
                touched: BTreeSet::new(),
            }),
            nodes,
            schedules,
            txs,
        }
    }

    /// Declares a new schedule (scheduler component) and returns its id.
    pub fn schedule(&mut self, name: impl Into<String>) -> SchedId {
        let id = SchedId(self.schedules.len() as u32);
        self.schedules.push(Schedule::new(id, name));
        self.txs.push(Vec::new());
        self.touch(id);
        id
    }

    /// Declares a root transaction homed at `home`.
    pub fn root(&mut self, name: impl Into<String>, home: SchedId) -> NodeId {
        let id = self.push_node(name, None, Some(home), None);
        self.txs[home.index()].push(Transaction::new(id));
        self.touch(home);
        id
    }

    /// Declares a subtransaction: an operation of `parent` that is itself a
    /// transaction of schedule `home`.
    ///
    /// # Panics
    /// Panics if `parent` is unknown or is a leaf. (Misuse is a programming
    /// error in scenario construction, not a recoverable condition.)
    pub fn subtx(&mut self, name: impl Into<String>, parent: NodeId, home: SchedId) -> NodeId {
        let container = self.home_of(parent);
        let id = self.push_node(name, Some(parent), Some(home), Some(container));
        self.txs[home.index()].push(Transaction::new(id));
        self.touch(home);
        self.attach_op(parent, id);
        id
    }

    /// Declares a leaf operation of `parent`.
    ///
    /// # Panics
    /// Panics if `parent` is unknown or is a leaf.
    pub fn leaf(&mut self, name: impl Into<String>, parent: NodeId) -> NodeId {
        let container = self.home_of(parent);
        let id = self.push_node(name, Some(parent), None, Some(container));
        self.attach_op(parent, id);
        id
    }

    /// Declares a leaf operation with item/mode semantics; its display name
    /// is derived from the spec (e.g. `r(x3)`).
    pub fn leaf_spec(&mut self, parent: NodeId, spec: OpSpec) -> NodeId {
        let container = self.home_of(parent);
        let id = self.push_node(spec.to_string(), Some(parent), None, Some(container));
        self.nodes[id.index()].spec = Some(spec);
        self.attach_op(parent, id);
        id
    }

    /// Records the weak intra-transaction order `a ≺_t b`; `a` and `b` must
    /// share a parent transaction.
    pub fn tx_weak_order(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        self.tx_order(a, b, false)
    }

    /// Records the strong intra-transaction order `a ≪_t b`.
    pub fn tx_strong_order(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        self.tx_order(a, b, true)
    }

    /// Declares a conflict `CON_S(a, b)`; the schedule is inferred from the
    /// (common) container of the two operations.
    pub fn conflict(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        let s = self.shared_container(a, b)?;
        self.add_conflict(s, a, b);
        Ok(())
    }

    /// Records the weak output order `a ≺_S b` on the common container
    /// schedule.
    pub fn output_weak(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        let s = self.shared_container(a, b)?;
        self.order_pair(s, |s| &mut s.output, a, b, false)
    }

    /// Records the strong output order `a ≪_S b` on the common container
    /// schedule.
    pub fn output_strong(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        let s = self.shared_container(a, b)?;
        self.order_pair(s, |s| &mut s.output, a, b, true)
    }

    /// Records the weak input order `t → t'` on the common home schedule of
    /// two transactions.
    pub fn input_weak(&mut self, t: NodeId, t2: NodeId) -> Result<(), ModelError> {
        let s = self.shared_home(t, t2)?;
        self.order_pair(s, |s| &mut s.input, t, t2, false)
    }

    /// Records the strong input order `t →→ t'`.
    pub fn input_strong(&mut self, t: NodeId, t2: NodeId) -> Result<(), ModelError> {
        let s = self.shared_home(t, t2)?;
        self.order_pair(s, |s| &mut s.input, t, t2, true)
    }

    /// Derives each schedule's conflict predicate from leaf [`OpSpec`]s via a
    /// commutativity table. Only pairs with both specs present are touched;
    /// hand-declared conflicts are kept.
    pub fn derive_conflicts(&mut self, table: &CommutativityTable) {
        for s_idx in 0..self.schedules.len() {
            let ops: Vec<(NodeId, OpSpec)> = self
                .nodes
                .iter()
                .filter(|n| n.container == Some(SchedId(s_idx as u32)))
                .filter_map(|n| n.spec.map(|sp| (n.id, sp)))
                .collect();
            for (i, &(a, sa)) in ops.iter().enumerate() {
                for &(b, sb) in &ops[i + 1..] {
                    if table.conflicts(sa, sb) {
                        self.add_conflict(SchedId(s_idx as u32), a, b);
                    }
                }
            }
        }
    }

    /// Applies Definition 4.7 automatically: copies every output-order pair
    /// whose endpoints are both transactions of one schedule into that
    /// schedule's input orders. Call after declaring output orders to avoid
    /// spelling the propagation out by hand. A reopened builder reads only
    /// the schedules the extension touched: the system it was reopened from
    /// was valid, so every other schedule's pairs are already propagated.
    pub fn propagate_orders(&mut self) -> Result<(), ModelError> {
        // Collect first to appease the borrow checker; volumes are small.
        let mut weak = Vec::new();
        let mut strong = Vec::new();
        for s in &self.schedules {
            if let Some(r) = &self.reopened {
                if !r.touched.contains(&s.id) {
                    continue;
                }
            }
            for (a, b) in s.output.weak_pairs() {
                if let Some(home) = self.common_home(a, b) {
                    weak.push((home, a, b));
                }
            }
            for (a, b) in s.output.strong_pairs() {
                if let Some(home) = self.common_home(a, b) {
                    strong.push((home, a, b));
                }
            }
        }
        for (home, a, b) in weak {
            self.order_pair(home, |s| &mut s.input, a, b, false)?;
        }
        for (home, a, b) in strong {
            self.order_pair(home, |s| &mut s.input, a, b, true)?;
        }
        Ok(())
    }

    /// Finalizes and validates the system. A reopened builder re-validates
    /// only the schedules the extension touched (an untouched schedule of a
    /// valid system stays valid: its relations are unchanged and the input
    /// orders it propagates into only grew).
    pub fn build(mut self) -> Result<CompositeSystem, ModelError> {
        for (s_idx, txs) in self.txs.into_iter().enumerate() {
            self.schedules[s_idx].transactions = txs;
        }
        let Some(Reopened {
            base_nodes,
            mut children,
            touched,
        }) = self.reopened
        else {
            return CompositeSystem::assemble(self.nodes, self.schedules);
        };
        children.resize(self.nodes.len(), Vec::new());
        for n in &self.nodes[base_nodes..] {
            if let Some(p) = n.parent {
                children[p.index()].push(n.id);
            }
        }
        CompositeSystem::assemble_extension(self.nodes, self.schedules, children, &touched)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn push_node(
        &mut self,
        name: impl Into<String>,
        parent: Option<NodeId>,
        home: Option<SchedId>,
        container: Option<SchedId>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            id,
            name: name.into(),
            parent,
            home,
            container,
            spec: None,
        });
        id
    }

    /// Marks schedule `s` changed (only a reopened builder keeps track).
    fn touch(&mut self, s: SchedId) {
        if let Some(r) = &mut self.reopened {
            r.touched.insert(s);
        }
    }

    fn add_conflict(&mut self, s: SchedId, a: NodeId, b: NodeId) {
        if self.schedules[s.index()].conflicts.insert(a, b) {
            self.touch(s);
        }
    }

    fn tx_order(&mut self, a: NodeId, b: NodeId, strong: bool) -> Result<(), ModelError> {
        let tx = self.shared_parent(a, b)?;
        if self.tx_mut(tx)?.intra.insert(a, b, strong)? {
            let home = self.nodes[tx.index()]
                .home
                .expect("tx_mut found a transaction");
            self.touch(home);
        }
        Ok(())
    }

    /// Adds `a < b` (and `a ≪ b` when `strong`) to the output or input
    /// orders of schedule `s`, as `orders` selects.
    fn order_pair(
        &mut self,
        s: SchedId,
        orders: fn(&mut Schedule) -> &mut OrderPair,
        a: NodeId,
        b: NodeId,
        strong: bool,
    ) -> Result<(), ModelError> {
        if orders(&mut self.schedules[s.index()]).insert(a, b, strong)? {
            self.touch(s);
        }
        Ok(())
    }

    fn home_of(&self, parent: NodeId) -> SchedId {
        let info = self
            .nodes
            .get(parent.index())
            .unwrap_or_else(|| panic!("unknown parent {parent}"));
        info.home
            .unwrap_or_else(|| panic!("{parent} is a leaf and cannot have children"))
    }

    fn attach_op(&mut self, parent: NodeId, op: NodeId) {
        let home = self.home_of(parent);
        // Newest first: an operation usually joins a recent transaction.
        let tx = self.txs[home.index()]
            .iter_mut()
            .rev()
            .find(|t| t.id == parent)
            .expect("parent transaction registered with its home schedule");
        tx.ops.push(op);
        self.touch(home);
    }

    fn tx_mut(&mut self, tx: NodeId) -> Result<&mut Transaction, ModelError> {
        let home = self.nodes[tx.index()]
            .home
            .ok_or(ModelError::ParentIsLeaf { parent: tx })?;
        self.txs[home.index()]
            .iter_mut()
            .rev()
            .find(|t| t.id == tx)
            .ok_or(ModelError::UnknownNode(tx))
    }

    fn shared_parent(&self, a: NodeId, b: NodeId) -> Result<NodeId, ModelError> {
        let pa = self.info(a)?.parent;
        let pb = self.info(b)?.parent;
        match (pa, pb) {
            (Some(x), Some(y)) if x == y => Ok(x),
            _ => Err(ModelError::PairOutsideSchedule {
                sched: SchedId(u32::MAX),
                a,
                b,
            }),
        }
    }

    fn shared_container(&self, a: NodeId, b: NodeId) -> Result<SchedId, ModelError> {
        let ca = self.info(a)?.container;
        let cb = self.info(b)?.container;
        match (ca, cb) {
            (Some(x), Some(y)) if x == y => Ok(x),
            (Some(x), _) | (_, Some(x)) => Err(ModelError::PairOutsideSchedule { sched: x, a, b }),
            _ => Err(ModelError::UnknownNode(a)),
        }
    }

    fn shared_home(&self, a: NodeId, b: NodeId) -> Result<SchedId, ModelError> {
        let ha = self.info(a)?.home;
        let hb = self.info(b)?.home;
        match (ha, hb) {
            (Some(x), Some(y)) if x == y => Ok(x),
            (Some(x), _) | (_, Some(x)) => {
                Err(ModelError::InputPairOutsideSchedule { sched: x, a, b })
            }
            _ => Err(ModelError::UnknownNode(a)),
        }
    }

    fn common_home(&self, a: NodeId, b: NodeId) -> Option<SchedId> {
        match (
            self.nodes.get(a.index()).and_then(|n| n.home),
            self.nodes.get(b.index()).and_then(|n| n.home),
        ) {
            (Some(x), Some(y)) if x == y => Some(x),
            _ => None,
        }
    }

    fn info(&self, n: NodeId) -> Result<&NodeInfo, ModelError> {
        self.nodes.get(n.index()).ok_or(ModelError::UnknownNode(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::orders::OrderKind;

    #[test]
    fn build_minimal_system() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t = b.root("T", s);
        b.leaf("o", t);
        let sys = b.build().unwrap();
        assert_eq!(sys.node_count(), 2);
        assert_eq!(sys.schedule_count(), 1);
    }

    #[test]
    fn conflict_requires_common_container() {
        let mut b = SystemBuilder::new();
        let s1 = b.schedule("S1");
        let s2 = b.schedule("S2");
        let t1 = b.root("T1", s1);
        let t2 = b.root("T2", s2);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        assert!(matches!(
            b.conflict(o1, o2),
            Err(ModelError::PairOutsideSchedule { .. })
        ));
    }

    #[test]
    fn unordered_conflict_fails_validation() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        b.conflict(o1, o2).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::ConflictUnordered { .. }));
    }

    #[test]
    fn ordered_conflict_builds() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn derive_conflicts_from_specs() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let r = b.leaf_spec(t1, OpSpec::read(ItemId(0)));
        let w = b.leaf_spec(t2, OpSpec::write(ItemId(0)));
        let r2 = b.leaf_spec(t2, OpSpec::read(ItemId(1)));
        b.derive_conflicts(&CommutativityTable::read_write());
        b.output_weak(r, w).unwrap();
        let sys = b.build().unwrap();
        assert!(sys.schedule(s).conflicts.conflicts(r, w));
        assert!(!sys.schedule(s).conflicts.conflicts(r, r2));
    }

    #[test]
    fn propagate_orders_fills_def47() {
        // Top schedule orders two subtransactions homed at the same lower
        // schedule; propagation must copy that pair to the lower input.
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_bot = b.schedule("bot");
        let t = b.root("T", s_top);
        let u1 = b.subtx("u1", t, s_bot);
        let u2 = b.subtx("u2", t, s_bot);
        let o1 = b.leaf("o1", u1);
        let o2 = b.leaf("o2", u2);
        b.output_weak(u1, u2).unwrap();
        // Without propagation the system violates Def 4.7.
        let b2 = b.clone();
        let err = b2.build().unwrap_err();
        assert!(matches!(
            err,
            ModelError::OrderNotPropagated {
                kind: OrderKind::Weak,
                ..
            }
        ));
        b.propagate_orders().unwrap();
        // Also order the leaves when a conflict exists; here none declared.
        let _ = (o1, o2);
        let sys = b.build().unwrap();
        assert!(sys.schedule(s_bot).input.weak_lt(u1, u2));
    }

    #[test]
    fn recursion_rejected() {
        // S1 invokes S2 and S2 invokes S1 through different trees.
        let mut b = SystemBuilder::new();
        let s1 = b.schedule("S1");
        let s2 = b.schedule("S2");
        let t1 = b.root("T1", s1);
        let _u1 = b.subtx("u1", t1, s2); // S1 -> S2
        let t2 = b.root("T2", s2);
        let _u2 = b.subtx("u2", t2, s1); // S2 -> S1
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::RecursiveInvocation { .. }));
    }

    #[test]
    fn intra_tx_orders_checked_against_output() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t = b.root("T", s);
        let o1 = b.leaf("o1", t);
        let o2 = b.leaf("o2", t);
        b.tx_strong_order(o1, o2).unwrap();
        let mut ok = b.clone();
        ok.output_strong(o1, o2).unwrap();
        assert!(ok.build().is_ok());
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::IntraTxOrderNotHonored { .. }));
    }

    #[test]
    fn tx_order_rejects_cross_parent_pairs() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        assert!(b.tx_weak_order(o1, o2).is_err());
    }

    #[test]
    fn builder_doc_example_compiles() {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("middleware");
        let s_db = b.schedule("db");
        let t1 = b.root("T1", s_top);
        let u1 = b.subtx("u1", t1, s_db);
        let o1 = b.leaf("r(x)", u1);
        let o2 = b.leaf("w(x)", u1);
        b.tx_weak_order(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.order(), 2);
    }
}
