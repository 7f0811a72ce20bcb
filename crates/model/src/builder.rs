//! Ergonomic construction of composite systems.

use crate::error::ModelError;
use crate::ids::{NodeId, SchedId};
use crate::orders::OrderPair;
use crate::schedule::{Schedule, Transaction};
use crate::semantics::{CommutativityTable, OpSpec};
use crate::system::{CompositeSystem, NodeInfo};
use compc_graph::ChunkedRow;
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
/// A builder from [`SystemBuilder::new`] closes each order relation on
/// every pair; one from [`SystemBuilder::bulk`] declares all pairs first
/// and closes each relation once.
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
    /// Per node, its index in its home schedule's `txs` (0 for leaves).
    slot: Vec<u32>,
    /// Set when reopened from a built (hence valid) system.
    reopened: Option<Reopened>,
    /// Set for a [`SystemBuilder::bulk`] builder: the order pairs declared
    /// and not closed yet, in declaration order.
    pending: Option<Vec<Declared>>,
}

/// An order relation of the system under construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Relation {
    /// A schedule's output orders.
    Output(SchedId),
    /// A schedule's input orders.
    Input(SchedId),
    /// A transaction's intra-transaction orders.
    Intra(NodeId),
}

/// A declared order pair `a < b` (also `a ≪ b` when `strong`).
#[derive(Clone, Copy, Debug)]
struct Declared {
    rel: Relation,
    a: NodeId,
    b: NodeId,
    strong: bool,
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

    /// A fresh, empty builder that closes each order relation once: the
    /// order methods record their pairs, and [`SystemBuilder::close_orders`]
    /// (which [`SystemBuilder::build`] calls) closes every relation with
    /// one sweep (the output orders close earlier, when
    /// [`SystemBuilder::propagate_orders`] reads them).
    ///
    /// The pair methods then report only structural errors (unknown
    /// nodes, pairs outside a schedule). A reflexive or contradictory pair
    /// fails `close_orders` instead, naming some offending pair: which one
    /// is unspecified. A caller that must name the pair a
    /// [`SystemBuilder::new`] builder rejects first declares again into
    /// such a builder when declaring or closing fails. Once `close_orders`
    /// succeeds, the builder holds the relations a `new` builder would, so
    /// `build` reports the same validation errors.
    pub fn bulk() -> Self {
        SystemBuilder {
            pending: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Reopens a built system's parts; see [`CompositeSystem::into_builder`].
    pub(crate) fn reopen(
        nodes: Vec<NodeInfo>,
        mut schedules: Vec<Schedule>,
        children: Vec<Vec<NodeId>>,
    ) -> Self {
        let txs: Vec<Vec<Transaction>> = schedules
            .iter_mut()
            .map(|s| std::mem::take(&mut s.transactions))
            .collect();
        let mut slot = vec![0; nodes.len()];
        for list in &txs {
            for (i, t) in (0..).zip(list) {
                slot[t.id.index()] = i;
            }
        }
        SystemBuilder {
            reopened: Some(Reopened {
                base_nodes: nodes.len(),
                children,
                touched: BTreeSet::new(),
            }),
            nodes,
            schedules,
            txs,
            slot,
            pending: None,
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
        self.push_tx(id, home);
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
        self.push_tx(id, home);
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
        self.order_pair(Relation::Output(s), a, b, false)
    }

    /// Records the strong output order `a ≪_S b` on the common container
    /// schedule.
    pub fn output_strong(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        let s = self.shared_container(a, b)?;
        self.order_pair(Relation::Output(s), a, b, true)
    }

    /// Records the weak input order `t → t'` on the common home schedule of
    /// two transactions.
    pub fn input_weak(&mut self, t: NodeId, t2: NodeId) -> Result<(), ModelError> {
        let s = self.shared_home(t, t2)?;
        self.order_pair(Relation::Input(s), t, t2, false)
    }

    /// Records the strong input order `t →→ t'`.
    pub fn input_strong(&mut self, t: NodeId, t2: NodeId) -> Result<(), ModelError> {
        let s = self.shared_home(t, t2)?;
        self.order_pair(Relation::Input(s), t, t2, true)
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
        self.close_pending(|rel| matches!(rel, Relation::Output(_)))?;
        // Collect first to appease the borrow checker. Each row is read
        // masked by the operations homed where its own operation is, so
        // the pairs come out lexicographically.
        let mut weak = Vec::new();
        let mut strong = Vec::new();
        for (s, txs) in self.schedules.iter().zip(&self.txs) {
            if let Some(r) = &self.reopened {
                if !r.touched.contains(&s.id) {
                    continue;
                }
            }
            let homed = homed_ops(&self.nodes, txs.iter().flat_map(|t| &t.ops).copied());
            if homed.is_empty() {
                continue;
            }
            for (rel, out) in [
                (s.output.weak(), &mut weak),
                (s.output.strong(), &mut strong),
            ] {
                for (a, row) in rel.rows() {
                    let Some(home) = self.nodes[a].home else {
                        continue;
                    };
                    let Some((_, same)) = homed.iter().find(|(h, _)| *h == home) else {
                        continue;
                    };
                    let a = NodeId(a as u32);
                    row.for_each_masked(Some(same), None, |b| {
                        out.push((home, a, NodeId(b as u32)));
                    });
                }
            }
        }
        for (home, a, b) in weak {
            self.order_pair(Relation::Input(home), a, b, false)?;
        }
        for (home, a, b) in strong {
            self.order_pair(Relation::Input(home), a, b, true)?;
        }
        Ok(())
    }

    /// Closes every order relation declared so far: a no-op except for a
    /// [`SystemBuilder::bulk`] builder, whose contradictions fail here.
    pub fn close_orders(&mut self) -> Result<(), ModelError> {
        self.close_pending(|_| true)
    }

    /// Finalizes and validates the system. A reopened builder re-validates
    /// only the schedules the extension touched (an untouched schedule of a
    /// valid system stays valid: its relations are unchanged and the input
    /// orders it propagates into only grew).
    pub fn build(mut self) -> Result<CompositeSystem, ModelError> {
        self.close_orders()?;
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

    /// Closes the pending pairs of the relations `which` selects, each
    /// relation once; the others stay pending.
    fn close_pending(&mut self, which: fn(Relation) -> bool) -> Result<(), ModelError> {
        let Some(pending) = &mut self.pending else {
            return Ok(());
        };
        let (mut closing, rest): (Vec<Declared>, Vec<Declared>) =
            pending.drain(..).partition(|d| which(d.rel));
        *pending = rest;
        // Stable: each relation's pairs stay in declaration order.
        closing.sort_by_key(|d| d.rel);
        let mut pairs = Vec::new();
        for (i, d) in closing.iter().enumerate() {
            pairs.push((d.a, d.b, d.strong));
            if closing.get(i + 1).is_some_and(|next| next.rel == d.rel) {
                continue;
            }
            self.relation_mut(d.rel).extend_closing_once(&pairs)?;
            pairs.clear();
        }
        Ok(())
    }

    fn relation_mut(&mut self, rel: Relation) -> &mut OrderPair {
        match rel {
            Relation::Output(s) => &mut self.schedules[s.index()].output,
            Relation::Input(s) => &mut self.schedules[s.index()].input,
            Relation::Intra(tx) => {
                let home = self.nodes[tx.index()]
                    .home
                    .expect("intra orders belong to a transaction");
                &mut self.txs[home.index()][self.slot[tx.index()] as usize].intra
            }
        }
    }

    fn push_tx(&mut self, id: NodeId, home: SchedId) {
        self.slot[id.index()] = self.txs[home.index()].len() as u32;
        self.txs[home.index()].push(Transaction::new(id));
        self.touch(home);
    }

    fn push_node(
        &mut self,
        name: impl Into<String>,
        parent: Option<NodeId>,
        home: Option<SchedId>,
        container: Option<SchedId>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.slot.push(0);
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
        self.order_pair(Relation::Intra(tx), a, b, strong)
    }

    /// Adds `a < b` (and `a ≪ b` when `strong`) to relation `rel`, or
    /// declares it for a bulk builder.
    fn order_pair(
        &mut self,
        rel: Relation,
        a: NodeId,
        b: NodeId,
        strong: bool,
    ) -> Result<(), ModelError> {
        if let Some(pending) = &mut self.pending {
            pending.push(Declared { rel, a, b, strong });
            return Ok(());
        }
        if self.relation_mut(rel).insert(a, b, strong)? {
            let s = match rel {
                Relation::Output(s) | Relation::Input(s) => s,
                Relation::Intra(tx) => self.nodes[tx.index()].home.expect("a transaction"),
            };
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
        self.txs[home.index()][self.slot[parent.index()] as usize]
            .ops
            .push(op);
        self.touch(home);
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

    fn info(&self, n: NodeId) -> Result<&NodeInfo, ModelError> {
        self.nodes.get(n.index()).ok_or(ModelError::UnknownNode(n))
    }
}

/// Per home schedule, the operations among `ops` that are transactions of
/// it (in order of first appearance), as rows over node ids.
pub(crate) fn homed_ops(
    nodes: &[NodeInfo],
    ops: impl Iterator<Item = NodeId>,
) -> Vec<(SchedId, ChunkedRow)> {
    let mut homed: Vec<(SchedId, ChunkedRow)> = Vec::new();
    for o in ops {
        let Some(home) = nodes[o.index()].home else {
            continue;
        };
        let at = match homed.iter().position(|(h, _)| *h == home) {
            Some(at) => at,
            None => {
                homed.push((home, ChunkedRow::new()));
                homed.len() - 1
            }
        };
        homed[at].1.insert(o.index(), nodes.len());
    }
    homed
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
