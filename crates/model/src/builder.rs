//! Ergonomic construction of composite systems.
//!
//! A [`SystemBuilder`] has one mode: its order methods record pairs, and
//! each order relation closes once over all of them, in one sweep
//! (`compc_graph::PartialOrderRel::extend`), whether the builder is fresh
//! or holds a validated system that a session append extends in place,
//! recording each change so that it can be undone.

use crate::error::ModelError;
use crate::ids::{NodeId, SchedId};
use crate::orders::OrderPair;
use crate::schedule::{Schedule, Transaction};
use crate::semantics::{CommutativityTable, OpSpec};
use crate::system::{CompositeSystem, NodeInfo};
use compc_graph::{Added, ChunkedRow, Gain};

/// Incremental builder for a [`CompositeSystem`].
///
/// The builder lets you declare the forest first (schedules, roots,
/// subtransactions, leaves) and the relational data second (conflicts,
/// input/output orders); `build()` assembles and validates everything against
/// Definitions 2–4.
///
/// The system grows in place, and [`SystemBuilder::validate`] checks the
/// schedules declared or changed since the last validation. A fresh
/// builder records nothing; once told to [`SystemBuilder::forget`], it
/// records every change it makes, for [`SystemBuilder::undo_to`].
///
/// The order methods record their pairs, and [`SystemBuilder::close_orders`]
/// (which [`SystemBuilder::propagate_orders`] and [`SystemBuilder::build`]
/// call) closes each relation once over the pairs it already holds. So the
/// order methods report only structural errors (unknown nodes, pairs
/// outside a schedule); a reflexive or contradictory pair fails the close,
/// naming the first pair in declaration order that closing on every pair
/// would have rejected.
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
    /// The system under construction; its levels are computed by
    /// [`SystemBuilder::validate`].
    sys: CompositeSystem,
    /// Per node, its index in its home schedule's transactions (0 for
    /// leaves).
    slot: Vec<u32>,
    /// Per schedule, whether it was declared or changed since the last
    /// validation.
    touched: Vec<bool>,
    /// The order pairs declared and not closed yet.
    pending: Vec<Declared>,
    /// How many order pairs were declared since the last validation,
    /// closed or not.
    declared: usize,
    /// The changes made, oldest first, once the builder records them.
    undo: Option<Vec<Change>>,
    /// The words the recorded order extensions added to rows.
    gains: Vec<Gain>,
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

/// A declared order pair `a < b` (also `a ≪ b` when `strong`), and how
/// many order pairs were declared before it.
#[derive(Clone, Copy, Debug)]
struct Declared {
    rel: Relation,
    a: NodeId,
    b: NodeId,
    strong: bool,
    at: usize,
}

/// One change a recording builder made to its system.
#[derive(Clone, Debug)]
enum Change {
    /// A schedule was declared.
    Schedule,
    /// The last node was declared, into its parent and its home.
    Node,
    /// A conflict pair was inserted into a schedule.
    Conflict(SchedId, NodeId, NodeId),
    /// An order relation's weak and strong orders grew.
    Order(Relation, [Added; 2]),
}

impl SystemBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new schedule (scheduler component) and returns its id.
    pub fn schedule(&mut self, name: impl Into<String>) -> SchedId {
        let id = SchedId(self.sys.schedules.len() as u32);
        self.sys.schedules.push(Schedule::new(id, name));
        self.touched.push(true);
        self.record(Change::Schedule);
        id
    }

    /// Declares a root transaction homed at `home`.
    pub fn root(&mut self, name: impl Into<String>, home: SchedId) -> NodeId {
        self.push_node(name.into(), None, Some(home), None)
    }

    /// Declares a subtransaction: an operation of `parent` that is itself a
    /// transaction of schedule `home`.
    ///
    /// # Panics
    /// Panics if `parent` is unknown or is a leaf. (Misuse is a programming
    /// error in scenario construction, not a recoverable condition.)
    pub fn subtx(&mut self, name: impl Into<String>, parent: NodeId, home: SchedId) -> NodeId {
        self.push_node(name.into(), Some(parent), Some(home), None)
    }

    /// Declares a leaf operation of `parent`.
    ///
    /// # Panics
    /// Panics if `parent` is unknown or is a leaf.
    pub fn leaf(&mut self, name: impl Into<String>, parent: NodeId) -> NodeId {
        self.push_node(name.into(), Some(parent), None, None)
    }

    /// Declares a leaf operation with item/mode semantics; its display name
    /// is derived from the spec (e.g. `r(x3)`).
    pub fn leaf_spec(&mut self, parent: NodeId, spec: OpSpec) -> NodeId {
        self.push_node(spec.to_string(), Some(parent), None, Some(spec))
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
        self.order_pair(Relation::Output(s), a, b, false);
        Ok(())
    }

    /// Records the strong output order `a ≪_S b` on the common container
    /// schedule.
    pub fn output_strong(&mut self, a: NodeId, b: NodeId) -> Result<(), ModelError> {
        let s = self.shared_container(a, b)?;
        self.order_pair(Relation::Output(s), a, b, true);
        Ok(())
    }

    /// Records the weak input order `t → t'` on the common home schedule of
    /// two transactions.
    pub fn input_weak(&mut self, t: NodeId, t2: NodeId) -> Result<(), ModelError> {
        let s = self.shared_home(t, t2)?;
        self.order_pair(Relation::Input(s), t, t2, false);
        Ok(())
    }

    /// Records the strong input order `t →→ t'`.
    pub fn input_strong(&mut self, t: NodeId, t2: NodeId) -> Result<(), ModelError> {
        let s = self.shared_home(t, t2)?;
        self.order_pair(Relation::Input(s), t, t2, true);
        Ok(())
    }

    /// Derives each schedule's conflict predicate from leaf [`OpSpec`]s via a
    /// commutativity table. Only pairs with both specs present are touched;
    /// hand-declared conflicts are kept.
    pub fn derive_conflicts(&mut self, table: &CommutativityTable) {
        for s_idx in 0..self.sys.schedules.len() {
            let ops: Vec<(NodeId, OpSpec)> = self
                .sys
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
    /// spelling the propagation out by hand. Only the schedules declared or
    /// changed since the last validation are read: every other schedule's
    /// pairs were propagated when it was validated.
    ///
    /// Closes the orders declared so far first, and the copied pairs after.
    pub fn propagate_orders(&mut self) -> Result<(), ModelError> {
        self.close_orders().map_err(|(_, e)| e)?;
        // Collect first to appease the borrow checker. Each row is read
        // masked by the operations homed where its own operation is, so
        // the pairs come out lexicographically.
        let mut weak = Vec::new();
        let mut strong = Vec::new();
        for s in &self.sys.schedules {
            if !self.touched[s.id.index()] {
                continue;
            }
            let homed = homed_ops(&self.sys.nodes, s.ops());
            if homed.is_empty() {
                continue;
            }
            for (rel, out) in [
                (s.output.weak(), &mut weak),
                (s.output.strong(), &mut strong),
            ] {
                for (a, row) in rel.rows() {
                    let Some(home) = self.sys.nodes[a].home else {
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
            self.order_pair(Relation::Input(home), a, b, false);
        }
        for (home, a, b) in strong {
            self.order_pair(Relation::Input(home), a, b, true);
        }
        self.close_orders().map_err(|(_, e)| e)
    }

    /// Closes every order pair declared so far, each relation once
    /// ([`OrderPair::extend_closing_once`]).
    ///
    /// On a reflexive or contradictory pair it fails with the error of the
    /// first pair, in declaration order across all relations, that
    /// closing on every declared pair would have rejected, and with that
    /// pair's position: how many order pairs were declared into this
    /// builder before it since its last validation (or since
    /// [`SystemBuilder::new`]). The relations that failed keep their pairs
    /// pending, so the error recurs until the builder is dropped or undone.
    pub fn close_orders(&mut self) -> Result<(), (usize, ModelError)> {
        let mut pending = std::mem::take(&mut self.pending);
        // Stable: each relation's pairs stay in declaration order.
        pending.sort_by_key(|d| d.rel);
        let mut first: Option<(usize, ModelError)> = None;
        let mut gains = std::mem::take(&mut self.gains);
        for group in pending.chunk_by(|x, y| x.rel == y.rel) {
            let rel = group[0].rel;
            let pairs: Vec<_> = group.iter().map(|d| (d.a, d.b, d.strong)).collect();
            let recording = self.undo.is_some().then_some(&mut gains);
            match self.relation_mut(rel).extend(&pairs, recording) {
                Ok(added) => {
                    self.touch(self.schedule_of(rel));
                    self.record(Change::Order(rel, added));
                }
                Err((i, e)) => {
                    self.pending.extend_from_slice(group);
                    if first.as_ref().is_none_or(|(at, _)| group[i].at < *at) {
                        first = Some((group[i].at, e));
                    }
                }
            }
        }
        self.gains = gains;
        first.map_or(Ok(()), Err)
    }

    /// Closes the pending order pairs, computes the levels and validates
    /// the schedules declared or changed since the last validation (an
    /// unchanged schedule of a valid system stays valid: its relations are
    /// unchanged and the input orders it propagates into only grew).
    pub fn validate(&mut self) -> Result<&CompositeSystem, ModelError> {
        self.close_orders().map_err(|(_, e)| e)?;
        self.sys.levels = self.sys.compute_levels()?;
        let touched = &self.touched;
        self.sys.validate_where(|s| touched[s.index()])?;
        self.touched.fill(false);
        self.declared = 0;
        Ok(&self.sys)
    }

    /// Finalizes and validates the system ([`SystemBuilder::validate`]).
    pub fn build(mut self) -> Result<CompositeSystem, ModelError> {
        self.validate()?;
        Ok(self.sys)
    }

    /// The system as it stands: valid from a successful
    /// [`SystemBuilder::validate`] to the next declaration.
    pub fn system(&self) -> &CompositeSystem {
        &self.sys
    }

    /// How many changes the builder has recorded: a mark for
    /// [`SystemBuilder::undo_to`].
    pub fn changes(&self) -> usize {
        self.undo.as_ref().map_or(0, Vec::len)
    }

    /// Drops the recorded changes, keeping what they made, and records
    /// every change from here on.
    pub fn forget(&mut self) {
        self.undo = Some(Vec::new());
        self.gains = Vec::new();
    }

    /// Takes back, newest first, every change recorded after `mark` (a
    /// [`SystemBuilder::changes`] count taken when no declaration was
    /// pending), and drops the pairs not closed yet: the system is then
    /// `==` the one the builder held at the mark.
    pub fn undo_to(&mut self, mark: usize) {
        let mut undo = self.undo.take().unwrap_or_default();
        let mut gains = std::mem::take(&mut self.gains);
        for change in undo.drain(mark..).rev() {
            match change {
                Change::Schedule => {
                    self.sys.schedules.pop();
                    self.touched.pop();
                }
                Change::Node => self.pop_node(),
                Change::Conflict(s, a, b) => {
                    self.sys.schedules[s.index()].conflicts.remove(a, b);
                }
                Change::Order(rel, added) => self.relation_mut(rel).undo(added, &mut gains),
            }
        }
        (self.undo, self.gains) = (Some(undo), gains);
        self.pending.clear();
        self.declared = 0;
        self.touched.fill(false);
        self.sys.levels = (self.sys.compute_levels()).expect("a marked system has levels");
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn record(&mut self, change: Change) {
        if let Some(undo) = &mut self.undo {
            undo.push(change);
        }
    }

    /// Declares a node: an operation of `parent`'s transaction (if any)
    /// and a transaction of `home` (if any). Panics before any change if
    /// `parent` is unknown or a leaf, or `home` unknown.
    fn push_node(
        &mut self,
        name: String,
        parent: Option<NodeId>,
        home: Option<SchedId>,
        spec: Option<OpSpec>,
    ) -> NodeId {
        let container = parent.map(|p| self.home_of(p));
        let slot = home.map_or(0, |h| {
            self.sys.schedules[h.index()].transactions.len() as u32
        });
        let id = NodeId(self.sys.nodes.len() as u32);
        self.sys.nodes.push(NodeInfo {
            id,
            name,
            parent,
            home,
            container,
            spec,
        });
        self.sys.children.push(Vec::new());
        self.slot.push(slot);
        if let Some(home) = home {
            self.sys.schedules[home.index()]
                .transactions
                .push(Transaction::new(id));
            self.touch(home);
        }
        if let (Some(parent), Some(container)) = (parent, container) {
            self.sys.children[parent.index()].push(id);
            self.transaction_mut(parent).ops.push(id);
            self.touch(container);
        }
        self.record(Change::Node);
        id
    }

    /// Takes the last node back out of its parent and its home.
    fn pop_node(&mut self) {
        let n = self.sys.nodes.pop().expect("a recorded node");
        self.sys.children.pop();
        self.slot.pop();
        if let Some(home) = n.home {
            self.sys.schedules[home.index()].transactions.pop();
        }
        if let Some(parent) = n.parent {
            self.sys.children[parent.index()].pop();
            self.transaction_mut(parent).ops.pop();
        }
    }

    /// Marks schedule `s` changed since the last validation.
    fn touch(&mut self, s: SchedId) {
        self.touched[s.index()] = true;
    }

    fn add_conflict(&mut self, s: SchedId, a: NodeId, b: NodeId) {
        if self.sys.schedules[s.index()].conflicts.insert(a, b) {
            self.touch(s);
            self.record(Change::Conflict(s, a, b));
        }
    }

    fn tx_order(&mut self, a: NodeId, b: NodeId, strong: bool) -> Result<(), ModelError> {
        let tx = self.shared_parent(a, b)?;
        self.order_pair(Relation::Intra(tx), a, b, strong);
        Ok(())
    }

    /// Declares `a < b` (and `a ≪ b` when `strong`) in relation `rel`.
    fn order_pair(&mut self, rel: Relation, a: NodeId, b: NodeId, strong: bool) {
        let at = self.declared;
        self.declared += 1;
        self.pending.push(Declared {
            rel,
            a,
            b,
            strong,
            at,
        });
    }

    /// The schedule whose value a change to `rel` changes.
    fn schedule_of(&self, rel: Relation) -> SchedId {
        match rel {
            Relation::Output(s) | Relation::Input(s) => s,
            Relation::Intra(tx) => self.sys.nodes[tx.index()].home.expect("a transaction"),
        }
    }

    fn home_of(&self, parent: NodeId) -> SchedId {
        let info = self
            .sys
            .nodes
            .get(parent.index())
            .unwrap_or_else(|| panic!("unknown parent {parent}"));
        info.home
            .unwrap_or_else(|| panic!("{parent} is a leaf and cannot have children"))
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

    /// The order relation `rel` of the system.
    fn relation_mut(&mut self, rel: Relation) -> &mut OrderPair {
        match rel {
            Relation::Output(s) => &mut self.sys.schedules[s.index()].output,
            Relation::Input(s) => &mut self.sys.schedules[s.index()].input,
            Relation::Intra(tx) => &mut self.transaction_mut(tx).intra,
        }
    }

    /// The transaction of node `tx`.
    fn transaction_mut(&mut self, tx: NodeId) -> &mut Transaction {
        let home = self.sys.nodes[tx.index()].home.expect("a transaction");
        &mut self.sys.schedules[home.index()].transactions[self.slot[tx.index()] as usize]
    }

    fn info(&self, n: NodeId) -> Result<&NodeInfo, ModelError> {
        self.sys
            .nodes
            .get(n.index())
            .ok_or(ModelError::UnknownNode(n))
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

    /// A validated builder closes new pairs over the rows it holds: `o0`
    /// reaches `o2` only through the closed row of `o0` reaching `o1`.
    #[test]
    fn an_extension_closes_over_existing_rows() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t0 = b.root("T0", s);
        let t1 = b.root("T1", s);
        let o0 = b.leaf("o0", t0);
        let o1 = b.leaf("o1", t1);
        b.output_weak(o0, o1).unwrap();
        b.validate().unwrap();
        let t2 = b.root("T2", s);
        let o2 = b.leaf("o2", t2);
        b.output_weak(o1, o2).unwrap();
        b.conflict(o0, o2).unwrap();
        let sys = b.validate().unwrap();
        assert!(sys.schedule(s).output.weak_lt(o0, o2));
        // And a pair closing a cycle through them is rejected at the close.
        b.output_weak(o2, o0).unwrap();
        assert!(matches!(b.build(), Err(ModelError::OrderViolation { .. })));
    }

    /// Two roots of `top`, each with a subtransaction at `bot` holding a
    /// leaf; the leaves conflict and are ordered. `extra` adds a second
    /// leaf under each subtransaction, conflicting and ordered the other
    /// way.
    fn stack(extra: bool) -> CompositeSystem {
        stack_builder(extra).build().unwrap()
    }

    /// The builder of [`stack`], before its build.
    fn stack_builder(extra: bool) -> SystemBuilder {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_bot = b.schedule("bot");
        let t1 = b.root("T1", s_top);
        let t2 = b.root("T2", s_top);
        let u1 = b.subtx("u1", t1, s_bot);
        let u2 = b.subtx("u2", t2, s_bot);
        let o1 = b.leaf("o1", u1);
        let o2 = b.leaf("o2", u2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        if extra {
            let o3 = b.leaf("o3", u1);
            let o4 = b.leaf("o4", u2);
            b.conflict(o3, o4).unwrap();
            b.output_weak(o4, o3).unwrap();
        }
        assert_eq!(b.changes(), 0, "a fresh builder records nothing");
        b
    }

    /// A validated system extended in place is the system a fresh builder
    /// builds from all the declarations, and undoing the extension, or a
    /// failed one, gives back the system as it was validated.
    #[test]
    fn extension_in_place_matches_a_whole_build_and_undoes() {
        let mut b = stack_builder(false);
        b.validate().unwrap();
        b.forget();
        let mark = b.changes();
        let (u1, u2) = (NodeId(2), NodeId(3));
        let o3 = b.leaf("o3", u1);
        let o4 = b.leaf("o4", u2);
        b.conflict(o3, o4).unwrap();
        b.output_weak(o4, o3).unwrap();
        assert_eq!(
            b.validate().unwrap(),
            &stack(true),
            "in place == whole build"
        );
        b.undo_to(mark);
        assert_eq!(b.system(), &stack(false));
        // A new schedule and root, new pairs in both orders of `bot`, one
        // of them closing a cycle: the close fails and the undo takes
        // back what the other relations gained.
        let s = b.schedule("side");
        let t3 = b.root("T3", s);
        let o5 = b.leaf("o5", t3);
        let (o1, o2) = (NodeId(4), NodeId(5));
        b.tx_weak_order(o1, o1).unwrap();
        b.input_weak(u1, u2).unwrap();
        b.output_weak(o2, o1).unwrap();
        assert!(b.conflict(o5, o1).is_err());
        assert!(b.validate().is_err());
        assert!(b.changes() > mark);
        b.undo_to(mark);
        assert_eq!(b.system(), &stack(false));
        assert_eq!(
            b.validate().unwrap(),
            &stack(false),
            "nothing stays pending"
        );
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
