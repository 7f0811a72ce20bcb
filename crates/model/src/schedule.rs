//! Transactions (Definition 2) and schedules (Definition 3).

use crate::conflict::ConflictRel;
use crate::error::ModelError;
use crate::ids::{NodeId, SchedId};
use crate::orders::{OrderKind, OrderPair};
use std::collections::HashMap;

/// A transaction `t = (O_t, ≺_t, ≪_t)` (Definition 2).
///
/// `ops` is the operation set `O_t` in declaration order; `intra` carries the
/// weak and strong intra-transaction orders with `≪_t ⊆ ≺_t` enforced
/// structurally by [`OrderPair`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// The node representing this transaction in the computational forest.
    pub id: NodeId,
    /// The operation set `O_t`.
    pub ops: Vec<NodeId>,
    /// Weak (`≺_t`) and strong (`≪_t`) intra-transaction orders.
    pub intra: OrderPair,
}

impl Transaction {
    /// A transaction with no operations or orders yet.
    pub fn new(id: NodeId) -> Self {
        Transaction {
            id,
            ops: Vec::new(),
            intra: OrderPair::new(),
        }
    }
}

/// A schedule `S = (T, →, →→, ≺, ≪, CON_S)` (Definition 3).
///
/// The schedule abstracts one scheduler component: `T` is the set of
/// transactions submitted to it, the *input* orders `→`/`→→` are the
/// requirements it receives, and the *output* orders `≺`/`≪` describe the
/// execution it produced over its operation set `O_S = ⋃ O_t`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// This schedule's identity.
    pub id: SchedId,
    /// Human-readable name (used in traces and DOT output).
    pub name: String,
    /// The transactions `T_S` assigned to this schedule.
    pub transactions: Vec<Transaction>,
    /// The conflict predicate `CON_S` over `O_S`.
    pub conflicts: ConflictRel,
    /// Weak (`→`) and strong (`→→`) input orders over `T_S`.
    pub input: OrderPair,
    /// Weak (`≺`) and strong (`≪`) output orders over `O_S`.
    pub output: OrderPair,
}

impl Schedule {
    /// An empty schedule.
    pub fn new(id: SchedId, name: impl Into<String>) -> Self {
        Schedule {
            id,
            name: name.into(),
            transactions: Vec::new(),
            conflicts: ConflictRel::new(),
            input: OrderPair::new(),
            output: OrderPair::new(),
        }
    }

    /// All operations `O_S`, grouped by transaction, in declaration order.
    pub fn ops(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.transactions.iter().flat_map(|t| t.ops.iter().copied())
    }

    /// Looks up a transaction of this schedule by node id.
    pub fn transaction(&self, id: NodeId) -> Option<&Transaction> {
        self.transactions.iter().find(|t| t.id == id)
    }

    /// Validates the four Definition-3 axioms for this schedule in
    /// isolation. Structural containment (conflicts/orders staying inside
    /// `O_S`/`T_S`) is the builder's job; this checks the semantic axioms:
    ///
    /// 1. conflicting operations of input-ordered transactions follow the
    ///    input order, and conflicting operations of unrelated transactions
    ///    are output-ordered some way (axioms 1a–1c);
    /// 2. intra-transaction orders are honored (axiom 2);
    /// 3. strong input orders force strong output orders on all operation
    ///    pairs (axiom 3);
    /// 4. `≪ ⊆ ≺` — guaranteed structurally by [`OrderPair`].
    ///
    /// Axioms 1 and 3 walk the declared conflicts and strong input pairs,
    /// and axiom 2 the intra orders' rows against the output's, so
    /// validation costs O(pairs + ops), not O(ops²). Among several
    /// violations the one reported is the first in declaration order
    /// (transactions, then their operations).
    pub fn validate(&self) -> Result<(), ModelError> {
        let pos = self.op_positions();
        // Axiom 1 over the conflicting cross-transaction operation pairs,
        // oriented so the earlier-declared transaction comes first.
        let mut first: Option<((usize, usize, usize, usize), ModelError)> = None;
        for (x, y) in self.conflicts.iter() {
            let (Some(px), Some(py)) = (pos.get(x), pos.get(y)) else {
                continue;
            };
            let ((p, o), (p2, o2)) = if px < py {
                ((px, x), (py, y))
            } else {
                ((py, y), (px, x))
            };
            let key = (p.0, p2.0, p.1, p2.1);
            if p.0 == p2.0 || first.as_ref().is_some_and(|(k, _)| *k < key) {
                continue;
            }
            let (t, t2) = (self.transactions[p.0].id, self.transactions[p2.0].id);
            if let Err(e) = self.check_axiom1(t, t2, o, o2) {
                first = Some((key, e));
            }
        }
        if let Some((_, e)) = first {
            return Err(e);
        }
        // Axiom 2: intra-transaction orders reflected in the output. Per
        // intra row, the first element the output row of the same
        // operation lacks: the lexicographically first unhonored pair.
        for t in &self.transactions {
            let kinds = [
                (OrderKind::Weak, t.intra.weak(), self.output.weak()),
                (OrderKind::Strong, t.intra.strong(), self.output.strong()),
            ];
            for (kind, intra, output) in kinds {
                for (a, row) in intra.rows() {
                    let mut missing = None;
                    row.for_each_masked(None, Some(output.above_row(a)), |b| {
                        missing.get_or_insert(b);
                    });
                    if let Some(b) = missing {
                        return Err(ModelError::IntraTxOrderNotHonored {
                            sched: self.id,
                            tx: t.id,
                            a: NodeId(a as u32),
                            b: NodeId(b as u32),
                            kind,
                        });
                    }
                }
            }
        }
        // Axiom 3: strong input order means total strong output order
        // between the two transactions' operations.
        let tx_index: HashMap<NodeId, usize> = self
            .transactions
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, i))
            .collect();
        let mut strong: Vec<(usize, usize)> = self
            .input
            .strong_pairs()
            .filter_map(|(a, b)| Some((*tx_index.get(&a)?, *tx_index.get(&b)?)))
            .collect();
        strong.sort_unstable();
        for (i, j) in strong {
            let (t, t2) = (&self.transactions[i], &self.transactions[j]);
            for &a in &t.ops {
                for &b in &t2.ops {
                    if !self.output.strong_lt(a, b) {
                        return Err(ModelError::StrongInputNotHonored {
                            sched: self.id,
                            first_tx: t.id,
                            second_tx: t2.id,
                            a,
                            b,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Each operation's `(transaction index, index within the
    /// transaction)`: ordering by it is declaration order over `O_S`.
    pub(crate) fn op_positions(&self) -> OpPositions {
        let mut pos = Vec::with_capacity(self.transactions.iter().map(|t| t.ops.len()).sum());
        for (i, t) in self.transactions.iter().enumerate() {
            for (j, &o) in t.ops.iter().enumerate() {
                pos.push((o, (i, j)));
            }
        }
        // Operations are mostly declared in id order: a nearly sorted sort.
        pos.sort_unstable_by_key(|&(o, _)| o);
        OpPositions(pos)
    }

    fn check_axiom1(&self, t: NodeId, t2: NodeId, o: NodeId, o2: NodeId) -> Result<(), ModelError> {
        if self.input.weak_lt(t, t2) {
            if !self.output.weak_lt(o, o2) {
                return Err(ModelError::InputOrderNotHonored {
                    sched: self.id,
                    first_tx: t,
                    second_tx: t2,
                    o_first: o,
                    o_second: o2,
                });
            }
        } else if self.input.weak_lt(t2, t) {
            if !self.output.weak_lt(o2, o) {
                return Err(ModelError::InputOrderNotHonored {
                    sched: self.id,
                    first_tx: t2,
                    second_tx: t,
                    o_first: o2,
                    o_second: o,
                });
            }
        } else if !self.output.weak_lt(o, o2) && !self.output.weak_lt(o2, o) {
            return Err(ModelError::ConflictUnordered {
                sched: self.id,
                a: o,
                b: o2,
            });
        }
        Ok(())
    }

    /// The schedule's *serialization order*: transaction pairs `(T, T')`
    /// such that some conflicting operation pair was executed `o ≺ o'` with
    /// `o ∈ O_T`, `o' ∈ O_T'`. This is the classical serialization graph of
    /// the schedule and the source of Definition 10's rule 2.
    pub fn serialization_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let pos = self.op_positions();
        let tx = |o: NodeId| pos.get(o).map(|(i, _)| self.transactions[i].id);
        let mut out = Vec::new();
        for (o, o2) in self.conflicts.iter() {
            let (Some(t), Some(t2)) = (tx(o), tx(o2)) else {
                continue;
            };
            if t == t2 {
                continue;
            }
            if self.output.weak_lt(o, o2) {
                out.push((t, t2));
            }
            if self.output.weak_lt(o2, o) {
                out.push((t2, t));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Schedule-level *conflict consistency* (the per-schedule CC notion of
    /// \[ABFS97\]/\[AFPS99\] used by SCC/FCC/JCC): the union of the weak input
    /// order `→` and the serialization order is acyclic over `T_S`.
    ///
    /// Intuitively: the schedule's execution can be abstracted to a serial
    /// order of its transactions that both honors the input requirements and
    /// is conflict-equivalent to what actually ran.
    pub fn is_conflict_consistent(&self) -> bool {
        let mut g = compc_graph::DiGraph::new();
        for (a, b) in self.input.weak_pairs() {
            g.add_edge(a.index(), b.index());
        }
        for (a, b) in self.serialization_pairs() {
            g.add_edge(a.index(), b.index());
        }
        compc_graph::find_cycle(&g).is_none()
    }
}

/// [`Schedule::op_positions`]: each operation's position, sorted by
/// operation id (a binary search, no hashing).
pub(crate) struct OpPositions(Vec<(NodeId, (usize, usize))>);

impl OpPositions {
    /// The position of operation `o`, if it is one of the schedule's.
    pub(crate) fn get(&self, o: NodeId) -> Option<(usize, usize)> {
        let i = self.0.binary_search_by_key(&o, |&(x, _)| x).ok()?;
        Some(self.0[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Two transactions t0 = {o2, o3}, t1 = {o4, o5} on one schedule.
    fn two_tx_schedule() -> Schedule {
        let mut s = Schedule::new(SchedId(0), "S");
        let mut t0 = Transaction::new(n(0));
        t0.ops = vec![n(2), n(3)];
        let mut t1 = Transaction::new(n(1));
        t1.ops = vec![n(4), n(5)];
        s.transactions = vec![t0, t1];
        s
    }

    #[test]
    fn empty_schedule_is_valid_and_cc() {
        let s = Schedule::new(SchedId(0), "empty");
        assert!(s.validate().is_ok());
        assert!(s.is_conflict_consistent());
    }

    #[test]
    fn axiom1c_unordered_conflict_rejected() {
        let mut s = two_tx_schedule();
        s.conflicts.insert(n(2), n(4));
        let err = s.validate().unwrap_err();
        assert!(matches!(err, ModelError::ConflictUnordered { .. }));
    }

    #[test]
    fn axiom1c_satisfied_by_either_direction() {
        let mut s = two_tx_schedule();
        s.conflicts.insert(n(2), n(4));
        s.output.add_weak(n(4), n(2)).unwrap();
        assert!(s.validate().is_ok());
    }

    #[test]
    fn axiom1a_input_order_forces_output_direction() {
        let mut s = two_tx_schedule();
        s.conflicts.insert(n(2), n(4));
        s.input.add_weak(n(0), n(1)).unwrap(); // t0 → t1
        s.output.add_weak(n(4), n(2)).unwrap(); // but executed o4 before o2
        let err = s.validate().unwrap_err();
        assert!(matches!(err, ModelError::InputOrderNotHonored { .. }));
    }

    #[test]
    fn axiom2_intra_order_must_be_respected() {
        let mut s = two_tx_schedule();
        s.transactions[0].intra.add_weak(n(2), n(3)).unwrap();
        let err = s.validate().unwrap_err();
        assert!(matches!(err, ModelError::IntraTxOrderNotHonored { .. }));
        s.output.add_weak(n(2), n(3)).unwrap();
        assert!(s.validate().is_ok());
    }

    #[test]
    fn axiom2_strong_intra_needs_strong_output() {
        let mut s = two_tx_schedule();
        s.transactions[0].intra.add_strong(n(2), n(3)).unwrap();
        s.output.add_weak(n(2), n(3)).unwrap(); // weak is not enough
        let err = s.validate().unwrap_err();
        assert!(matches!(
            err,
            ModelError::IntraTxOrderNotHonored {
                kind: OrderKind::Strong,
                ..
            }
        ));
    }

    #[test]
    fn axiom3_strong_input_needs_total_strong_output() {
        let mut s = two_tx_schedule();
        s.input.add_strong(n(0), n(1)).unwrap();
        let err = s.validate().unwrap_err();
        assert!(matches!(err, ModelError::StrongInputNotHonored { .. }));
        for &a in &[n(2), n(3)] {
            for &b in &[n(4), n(5)] {
                s.output.add_strong(a, b).unwrap();
            }
        }
        assert!(s.validate().is_ok());
    }

    #[test]
    fn serialization_pairs_follow_conflicting_output() {
        let mut s = two_tx_schedule();
        s.conflicts.insert(n(3), n(4));
        s.output.add_weak(n(3), n(4)).unwrap();
        assert_eq!(s.serialization_pairs(), vec![(n(0), n(1))]);
    }

    #[test]
    fn non_conflicting_output_produces_no_serialization() {
        let mut s = two_tx_schedule();
        s.output.add_weak(n(3), n(4)).unwrap();
        assert!(s.serialization_pairs().is_empty());
    }

    #[test]
    fn cc_detects_input_vs_serialization_cycle() {
        let mut s = two_tx_schedule();
        s.conflicts.insert(n(3), n(4));
        s.output.add_weak(n(3), n(4)).unwrap(); // serializes t0 before t1
        s.input.add_weak(n(1), n(0)).unwrap(); // but input demands t1 → t0
        assert!(!s.is_conflict_consistent());
    }

    #[test]
    fn cc_holds_when_orders_agree() {
        let mut s = two_tx_schedule();
        s.conflicts.insert(n(3), n(4));
        s.output.add_weak(n(3), n(4)).unwrap();
        s.input.add_weak(n(0), n(1)).unwrap();
        assert!(s.is_conflict_consistent());
    }
}
