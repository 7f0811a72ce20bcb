//! The validation and reduction scans walk declared pairs (conflicts, order
//! pairs, one order row) instead of testing every member pair. This file
//! keeps the all-pairs versions of those scans as references — they live
//! nowhere else — and pins the pair-driven code to them on random systems
//! of every shape and conflict density:
//!
//! * `Schedule::serialization_pairs`, `Front::conflict_pairs`,
//!   `Front::constraint_graph` and the level-0 observed order;
//! * every front snapshot of a reduction, stepped one level at a time
//!   against a reference step built from the all-pairs scans (this covers
//!   the entry pairs a transaction adds when it enters the front);
//! * validation with planted axiom-1, axiom-3 and Definition-4.7
//!   violations, which must return the same `ModelError` as the all-pairs
//!   validation, including which violation is reported first.

use compc::core::{Front, Reducer};
use compc::graph::{transitive_closure, DiGraph};
use compc::model::{CompositeSystem, ModelError, NodeId, NodeRole, OrderKind, OrderPair, Schedule};
use compc::workload::random::{generate, GenParams, Shape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn shape(pick: u8) -> Shape {
    match pick % 4 {
        0 => Shape::General {
            levels: 3,
            scheds_per_level: 2,
        },
        1 => Shape::Stack { depth: 3 },
        2 => Shape::Fork { branches: 2 },
        _ => Shape::Join { branches: 2 },
    }
}

/// A random valid system; `pick` chooses the shape and whether conflict
/// declarations are closed upward (sound abstractions).
fn system(pick: u8, roots: usize, density: u8, seed: u64) -> CompositeSystem {
    generate(&GenParams {
        shape: shape(pick),
        roots,
        ops_per_tx: (1, 3),
        conflict_density: density as f64 / 100.0,
        sequential_tx_prob: 0.6,
        client_input_prob: 0.3,
        strong_input_prob: 0.3,
        sound_abstractions: pick >= 4,
        seed,
    })
}

fn edges(g: &DiGraph) -> Vec<(usize, usize)> {
    g.edges().collect()
}

fn n(i: usize) -> NodeId {
    NodeId(i as u32)
}

// ---------------------------------------------------------------------
// All-pairs references
// ---------------------------------------------------------------------

fn ref_serialization_pairs(s: &Schedule) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for (i, t) in s.transactions.iter().enumerate() {
        for t2 in &s.transactions[i + 1..] {
            for &o in &t.ops {
                for &o2 in &t2.ops {
                    if !s.conflicts.conflicts(o, o2) {
                        continue;
                    }
                    if s.output.weak_lt(o, o2) {
                        out.push((t.id, t2.id));
                    }
                    if s.output.weak_lt(o2, o) {
                        out.push((t2.id, t.id));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn ref_conflict_pairs(front: &Front, sys: &CompositeSystem) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = front.nodes.iter().copied().collect();
    let mut out = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            if front.gen_con(sys, a, b) {
                out.push((a, b));
            }
        }
    }
    out
}

fn ref_constraint_graph(front: &Front, sys: &CompositeSystem) -> DiGraph {
    let mut g = front.input.clone();
    g.ensure_node(sys.node_count().saturating_sub(1));
    for (u, v) in front.observed.edges() {
        let (a, b) = (n(u), n(v));
        if front.nodes.contains(&a) && front.nodes.contains(&b) && front.gen_con(sys, a, b) {
            g.add_edge(u, v);
        }
    }
    let members: Vec<NodeId> = front.nodes.iter().copied().collect();
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            let Some(sched) = sys.common_container(a, b) else {
                continue;
            };
            let s = sys.schedule(sched);
            if !s.conflicts.conflicts(a, b) {
                continue;
            }
            if s.output.weak_lt(a, b) {
                g.add_edge(a.index(), b.index());
            }
            if s.output.weak_lt(b, a) {
                g.add_edge(b.index(), a.index());
            }
        }
    }
    g
}

fn ref_level0_observed(sys: &CompositeSystem) -> DiGraph {
    let mut observed = DiGraph::with_nodes(sys.node_count());
    let leaves: BTreeSet<NodeId> = sys.leaves().collect();
    for s in sys.schedules() {
        let ops: Vec<NodeId> = s.ops().filter(|o| leaves.contains(o)).collect();
        for &a in &ops {
            for &b in &ops {
                if a != b && s.output.weak_lt(a, b) {
                    observed.add_edge(a.index(), b.index());
                }
            }
        }
    }
    transitive_closure(&observed)
}

fn ref_entry_pairs(
    sys: &CompositeSystem,
    t: NodeId,
    members: &BTreeSet<NodeId>,
    observed: &mut DiGraph,
) {
    let Some(container) = sys.node(t).container else {
        return;
    };
    let s = sys.schedule(container);
    for other in s.ops() {
        if other == t || !members.contains(&other) || sys.node(other).role() != NodeRole::Leaf {
            continue;
        }
        if s.output.weak_lt(t, other) {
            observed.add_edge(t.index(), other.index());
        }
        if s.output.weak_lt(other, t) {
            observed.add_edge(other.index(), t.index());
        }
    }
}

/// Definition 16 steps 2–6 from `front` for the level-`level` schedules,
/// from the all-pairs scans; the caller has already seen step 1 succeed.
fn ref_step(sys: &CompositeSystem, front: &Front, level: usize) -> Front {
    let scheds: Vec<&Schedule> = sys.schedules_at_level(level).collect();
    let mut replaced: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut new_txs = Vec::new();
    for s in &scheds {
        for t in &s.transactions {
            new_txs.push(t.id);
            for &o in &t.ops {
                replaced.insert(o, t.id);
            }
        }
    }
    let mut nodes: BTreeSet<NodeId> = front
        .nodes
        .iter()
        .filter(|m| !replaced.contains_key(m))
        .copied()
        .collect();
    nodes.extend(new_txs.iter().copied());
    let map = |x: NodeId| replaced.get(&x).copied().unwrap_or(x);
    let mut observed = DiGraph::with_nodes(sys.node_count());
    for (u, v) in front.observed.edges() {
        let (a, b) = (n(u), n(v));
        if !front.nodes.contains(&a) || !front.nodes.contains(&b) {
            continue;
        }
        let (big_a, big_b) = (map(a), map(b));
        let pushed = big_a != a || big_b != b;
        if big_a != big_b && (!pushed || sys.common_container(a, b).is_none()) {
            observed.add_edge(big_a.index(), big_b.index());
        }
    }
    for s in &scheds {
        for (t, t2) in ref_serialization_pairs(s) {
            observed.add_edge(t.index(), t2.index());
        }
    }
    for &t in &new_txs {
        ref_entry_pairs(sys, t, &nodes, &mut observed);
    }
    let mut input = front.input.clone();
    input.ensure_node(sys.node_count().saturating_sub(1));
    for s in &scheds {
        for (a, b) in s.input.weak_pairs() {
            input.add_edge(a.index(), b.index());
        }
    }
    Front {
        level,
        nodes,
        observed: transitive_closure(&observed),
        input,
    }
}

type Pairs = Vec<(NodeId, NodeId)>;

/// A front's level, members, member observed pairs, conflict pairs and
/// member input pairs.
type FrontFields = (usize, Vec<NodeId>, Pairs, Pairs, Pairs);

/// [`FrontFields`] from the front's own pair methods.
fn fields(sys: &CompositeSystem, front: &Front) -> FrontFields {
    (
        front.level,
        front.nodes.iter().copied().collect(),
        front.observed_pairs(),
        front.conflict_pairs(sys),
        front.input_pairs(),
    )
}

/// [`FrontFields`] recomputed from the front's graphs and the all-pairs
/// conflict reference.
fn ref_fields(sys: &CompositeSystem, front: &Front) -> FrontFields {
    let member_pairs = |g: &DiGraph| -> Pairs {
        g.edges()
            .map(|(u, v)| (n(u), n(v)))
            .filter(|(a, b)| front.nodes.contains(a) && front.nodes.contains(b))
            .collect()
    };
    (
        front.level,
        front.nodes.iter().copied().collect(),
        member_pairs(&front.observed),
        ref_conflict_pairs(front, sys),
        member_pairs(&front.input),
    )
}

/// Definition 3 axioms 1–3 over every pair of operations.
fn ref_validate_schedule(s: &Schedule) -> Result<(), ModelError> {
    for (i, t) in s.transactions.iter().enumerate() {
        for t2 in &s.transactions[i + 1..] {
            for &o in &t.ops {
                for &o2 in &t2.ops {
                    if !s.conflicts.conflicts(o, o2) {
                        continue;
                    }
                    if s.input.weak_lt(t.id, t2.id) {
                        if !s.output.weak_lt(o, o2) {
                            return Err(ModelError::InputOrderNotHonored {
                                sched: s.id,
                                first_tx: t.id,
                                second_tx: t2.id,
                                o_first: o,
                                o_second: o2,
                            });
                        }
                    } else if s.input.weak_lt(t2.id, t.id) {
                        if !s.output.weak_lt(o2, o) {
                            return Err(ModelError::InputOrderNotHonored {
                                sched: s.id,
                                first_tx: t2.id,
                                second_tx: t.id,
                                o_first: o2,
                                o_second: o,
                            });
                        }
                    } else if !s.output.weak_lt(o, o2) && !s.output.weak_lt(o2, o) {
                        return Err(ModelError::ConflictUnordered {
                            sched: s.id,
                            a: o,
                            b: o2,
                        });
                    }
                }
            }
        }
    }
    for t in &s.transactions {
        for (a, b) in t.intra.weak_pairs() {
            if !s.output.weak_lt(a, b) {
                return Err(ModelError::IntraTxOrderNotHonored {
                    sched: s.id,
                    tx: t.id,
                    a,
                    b,
                    kind: OrderKind::Weak,
                });
            }
        }
        for (a, b) in t.intra.strong_pairs() {
            if !s.output.strong_lt(a, b) {
                return Err(ModelError::IntraTxOrderNotHonored {
                    sched: s.id,
                    tx: t.id,
                    a,
                    b,
                    kind: OrderKind::Strong,
                });
            }
        }
    }
    for t in &s.transactions {
        for t2 in &s.transactions {
            if t.id == t2.id || !s.input.strong_lt(t.id, t2.id) {
                continue;
            }
            for &a in &t.ops {
                for &b in &t2.ops {
                    if !s.output.strong_lt(a, b) {
                        return Err(ModelError::StrongInputNotHonored {
                            sched: s.id,
                            first_tx: t.id,
                            second_tx: t2.id,
                            a,
                            b,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Definition 3 for every schedule, then Definition 4.7 over every pair of
/// operations. (Definition 4.6 is left out: the plants below never change
/// the forest, so it cannot fire.)
fn ref_validate(sys: &CompositeSystem, schedules: &[Schedule]) -> Result<(), ModelError> {
    for s in schedules {
        ref_validate_schedule(s)?;
    }
    for s in schedules {
        let ops: Vec<NodeId> = s.ops().collect();
        for &a in &ops {
            for &b in &ops {
                let (Some(ha), Some(hb)) = (sys.node(a).home, sys.node(b).home) else {
                    continue;
                };
                if a == b || ha != hb {
                    continue;
                }
                let target = &schedules[ha.index()];
                for kind in [OrderKind::Weak, OrderKind::Strong] {
                    let (out, inp) = match kind {
                        OrderKind::Weak => (s.output.weak_lt(a, b), target.input.weak_lt(a, b)),
                        _ => (s.output.strong_lt(a, b), target.input.strong_lt(a, b)),
                    };
                    if out && !inp {
                        return Err(ModelError::OrderNotPropagated {
                            from: s.id,
                            to: ha,
                            a,
                            b,
                            kind,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Planted violations
// ---------------------------------------------------------------------

fn unordered(orders: &OrderPair, a: NodeId, b: NodeId) -> bool {
    !orders.weak_lt(a, b) && !orders.weak_lt(b, a)
}

/// Axiom 1: declare a conflict between two output-unordered operations of
/// different transactions.
fn axiom1_candidates(schedules: &[Schedule]) -> Vec<(usize, NodeId, NodeId)> {
    let mut candidates = Vec::new();
    for (si, s) in schedules.iter().enumerate() {
        for (i, t) in s.transactions.iter().enumerate() {
            for t2 in &s.transactions[i + 1..] {
                for &o in &t.ops {
                    for &o2 in &t2.ops {
                        if unordered(&s.output, o, o2) {
                            candidates.push((si, o, o2));
                        }
                    }
                }
            }
        }
    }
    candidates
}

/// Axiom 3: a strong input order between two input-unrelated transactions
/// whose operations are not all strongly output-ordered, and whose
/// conflicting operations already run in that direction (so axiom 1 keeps
/// holding).
fn axiom3_candidates(schedules: &[Schedule]) -> Vec<(usize, NodeId, NodeId)> {
    let mut candidates = Vec::new();
    for (si, s) in schedules.iter().enumerate() {
        for (i, t) in s.transactions.iter().enumerate() {
            for (j, t2) in s.transactions.iter().enumerate() {
                if i == j
                    || t.ops.is_empty()
                    || t2.ops.is_empty()
                    || s.input.weak_lt(t.id, t2.id)
                    || s.input.weak_lt(t2.id, t.id)
                {
                    continue;
                }
                let pairs = || {
                    t.ops
                        .iter()
                        .flat_map(|&a| t2.ops.iter().map(move |&b| (a, b)))
                };
                let total = pairs().all(|(a, b)| s.output.strong_lt(a, b));
                let consistent =
                    pairs().all(|(a, b)| !s.conflicts.conflicts(a, b) || s.output.weak_lt(a, b));
                if !total && consistent {
                    candidates.push((si, t.id, t2.id));
                }
            }
        }
    }
    candidates
}

/// Definition 4.7: order two output-unordered operations that are
/// transactions of one schedule, without passing the pair down.
fn def47_candidates(sys: &CompositeSystem, schedules: &[Schedule]) -> Vec<(usize, NodeId, NodeId)> {
    let mut candidates = Vec::new();
    for (si, s) in schedules.iter().enumerate() {
        let ops: Vec<NodeId> = s.ops().collect();
        for &a in &ops {
            for &b in &ops {
                let (Some(ha), Some(hb)) = (sys.node(a).home, sys.node(b).home) else {
                    continue;
                };
                if a != b
                    && ha == hb
                    && unordered(&s.output, a, b)
                    && !schedules[ha.index()].input.weak_lt(a, b)
                {
                    candidates.push((si, a, b));
                }
            }
        }
    }
    candidates
}

/// Plants up to `count` violations of one kind, all in one schedule so
/// the report must pick the first of several, after shuffling every
/// schedule's transactions and their operations so declaration order
/// differs from node-id order. Returns how many were planted.
fn plant(
    sys: &CompositeSystem,
    schedules: &mut [Schedule],
    kind: Plant,
    count: usize,
    rng: &mut StdRng,
) -> usize {
    for s in schedules.iter_mut() {
        s.transactions.shuffle(rng);
        for t in &mut s.transactions {
            t.ops.shuffle(rng);
        }
    }
    let mut target = None;
    let mut planted = 0;
    for _ in 0..count {
        let candidates: Vec<_> = match kind {
            Plant::Axiom1 => axiom1_candidates(schedules),
            Plant::Axiom3 => axiom3_candidates(schedules),
            Plant::Def47 => def47_candidates(sys, schedules),
        }
        .into_iter()
        .filter(|&(si, _, _)| target.unwrap_or(si) == si)
        .collect();
        if candidates.is_empty() {
            break;
        }
        let (si, a, b) = candidates[rng.gen_range(0..candidates.len())];
        target = Some(si);
        let s = &mut schedules[si];
        let ok = match kind {
            Plant::Axiom1 => s.conflicts.insert(a, b),
            Plant::Axiom3 => s.input.add_strong(a, b).is_ok(),
            Plant::Def47 => s.output.add_weak(a, b).is_ok(),
        };
        planted += usize::from(ok);
    }
    planted
}

#[derive(Clone, Copy, Debug)]
enum Plant {
    Axiom1,
    Axiom3,
    Def47,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Serialization pairs, level 0, and per level the constraint graph,
    /// the conflict pairs and the next front all equal their all-pairs
    /// references.
    #[test]
    fn pair_driven_scans_match_all_pairs_references(
        pick in 0u8..8,
        roots in 2usize..9,
        density in 0u8..=60,
        seed in 0u64..100_000,
    ) {
        let sys = system(pick, roots, density, seed);
        for s in sys.schedules() {
            prop_assert_eq!(s.serialization_pairs(), ref_serialization_pairs(s));
        }
        let mut red = Reducer::new(&sys);
        prop_assert_eq!(edges(&red.front().observed), edges(&ref_level0_observed(&sys)));
        for level in 1..=sys.order() {
            let front = red.front().clone();
            prop_assert_eq!(fields(&sys, &front), ref_fields(&sys, &front));
            prop_assert_eq!(
                edges(&front.constraint_graph(&sys)),
                edges(&ref_constraint_graph(&front, &sys)),
                "constraint graph at level {}", level
            );
            if red.step(level).is_err() {
                break;
            }
            let expected = ref_fields(&sys, &ref_step(&sys, &front, level));
            prop_assert_eq!(fields(&sys, red.front()), expected, "front {} differs", level);
        }
    }

    /// Planted violations: the pair-driven validation reports exactly the
    /// error the all-pairs validation reports first.
    #[test]
    fn planted_violations_match_all_pairs_validation(
        pick in 0u8..8,
        roots in 2usize..9,
        density in 0u8..=60,
        seed in 0u64..100_000,
        kind in 0u8..3,
        count in 1usize..=3,
    ) {
        let sys = system(pick, roots, density, seed);
        let kind = [Plant::Axiom1, Plant::Axiom3, Plant::Def47][kind as usize];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut schedules: Vec<Schedule> = sys.schedules().cloned().collect();
        let planted = plant(&sys, &mut schedules, kind, count, &mut rng);
        prop_assume!(planted > 0);
        let expected = ref_validate(&sys, &schedules);
        prop_assert!(expected.is_err(), "a {:?} plant must be a violation", kind);
        let got = CompositeSystem::assemble(sys.nodes().cloned().collect(), schedules).map(drop);
        prop_assert_eq!(got, expected);
    }
}
