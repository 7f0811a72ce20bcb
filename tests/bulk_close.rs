//! `SystemSpec::build` declares every pair first and closes each order
//! relation once, and names an order error by bisection instead of by
//! closing pair by pair. These properties pin it to a pair-by-pair
//! reference that shares no closing code with it (a brute-force closure
//! per relation, taking one pair at a time):
//!
//! * specs with planted faults — contradictions whose cycle closes across
//!   declaration order, pairs outside a schedule, unknown names, reflexive
//!   pairs, and dropped pairs whose absence validation finds after the
//!   close — fail with exactly the same `SpecError`;
//! * on valid specs, the system built fresh equals the reference's, and
//!   the system a session reaches append by append.

use compc::graph::OrderError;
use compc::model::{
    CompositeSystem, ModelError, NodeId, NodeInfo, OrderKind, OrderPair, SchedId, Schedule,
    Transaction,
};
use compc::spec::{SpecError, SystemSpec};
use compc::workload::random::{generate, GenParams, Shape};
use compc::SpecSession;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

fn generated(pick: u8, roots: usize, density: u8, seed: u64) -> CompositeSystem {
    let shape = match pick % 4 {
        0 => Shape::General {
            levels: 3,
            scheds_per_level: 2,
        },
        1 => Shape::Stack { depth: 3 },
        2 => Shape::Fork { branches: 2 },
        _ => Shape::Join { branches: 2 },
    };
    generate(&GenParams {
        shape,
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

/// An order relation of the reference: whose orders a pair extends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Relation {
    Intra(NodeId),
    Output(SchedId),
    Input(SchedId),
}

/// A weak and a strong order, closed by brute force after every pair.
#[derive(Default)]
struct Closed {
    weak: BTreeSet<(NodeId, NodeId)>,
    strong: BTreeSet<(NodeId, NodeId)>,
}

impl Closed {
    /// Adds `a < b` (and `a ≪ b` when `strong`) as a builder closing on
    /// every pair would: reflexive and contradicting pairs are rejected.
    fn add(&mut self, a: NodeId, b: NodeId, strong: bool) -> Result<(), OrderError> {
        if a == b {
            return Err(OrderError::Reflexive(a.index()));
        }
        if self.weak.contains(&(b, a)) {
            let attempted = (a.index(), b.index());
            return Err(OrderError::Contradiction { attempted });
        }
        close(&mut self.weak, a, b);
        if strong {
            close(&mut self.strong, a, b);
        }
        Ok(())
    }

    /// The orders as an [`OrderPair`], checked pair for pair against the
    /// brute-force sets.
    fn order_pair(&self) -> OrderPair {
        let pairs: Vec<_> = (self.weak.iter())
            .map(|&(a, b)| (a, b, self.strong.contains(&(a, b))))
            .collect();
        let mut orders = OrderPair::new();
        orders.extend_closing_once(&pairs).unwrap();
        assert!(orders.weak_pairs().eq(self.weak.iter().copied()));
        assert!(orders.strong_pairs().eq(self.strong.iter().copied()));
        orders
    }
}

/// Adds `a < b` to the closed `set`: everything up to `a` precedes
/// everything from `b`.
fn close(set: &mut BTreeSet<(NodeId, NodeId)>, a: NodeId, b: NodeId) {
    let below: Vec<NodeId> = set.iter().filter(|p| p.1 == a).map(|p| p.0).collect();
    let above: Vec<NodeId> = set.iter().filter(|p| p.0 == b).map(|p| p.1).collect();
    for &x in below.iter().chain([&a]) {
        for &y in above.iter().chain([&b]) {
            set.insert((x, y));
        }
    }
}

/// The pair-by-pair reference: the spec's entries taken in declaration
/// order, each checked as a builder closing on every pair checks it, with
/// the entry contexts `SystemSpec::build` reports; then the system
/// assembled from the closed relations and validated. The nodes of these
/// specs are valid (faults are planted in relations only), so the forest
/// needs no checks. Errors compare by their `Debug` rendering.
fn reference(spec: &SystemSpec) -> Result<CompositeSystem, String> {
    let model = |context: String, source| format!("{:?}", SpecError::Model { context, source });
    let sched_ids: HashMap<&str, SchedId> = (0..)
        .zip(&spec.schedules)
        .map(|(i, s)| (s.as_str(), SchedId(i)))
        .collect();
    let mut schedules: Vec<Schedule> = (0..)
        .zip(&spec.schedules)
        .map(|(i, s)| Schedule::new(SchedId(i), s.clone()))
        .collect();
    let mut ids: HashMap<&str, NodeId> = HashMap::new();
    let mut nodes: Vec<NodeInfo> = Vec::new();
    for (i, n) in (0..).zip(&spec.nodes) {
        let id = NodeId(i);
        let home = n.home.as_deref().map(|h| sched_ids[h]);
        let parent = n.parent.as_deref().map(|p| ids[p]);
        let container = parent.map(|p| nodes[p.index()].home.unwrap());
        if let Some(home) = home {
            schedules[home.index()]
                .transactions
                .push(Transaction::new(id));
        }
        if let (Some(p), Some(c)) = (parent, container) {
            let txs = &mut schedules[c.index()].transactions;
            txs.iter_mut().find(|t| t.id == p).unwrap().ops.push(id);
        }
        let name = n.name.clone();
        let spec = None;
        nodes.push(NodeInfo {
            id,
            name,
            parent,
            home,
            container,
            spec,
        });
        ids.insert(&n.name, id);
    }
    // The structural checks of the builder's pair methods.
    let shared = |a: NodeId, b: NodeId, of: fn(&NodeInfo) -> Option<SchedId>, input: bool| match (
        of(&nodes[a.index()]),
        of(&nodes[b.index()]),
    ) {
        (Some(x), Some(y)) if x == y => Ok(x),
        (Some(sched), _) | (_, Some(sched)) if input => {
            Err(ModelError::InputPairOutsideSchedule { sched, a, b })
        }
        (Some(sched), _) | (_, Some(sched)) => Err(ModelError::PairOutsideSchedule { sched, a, b }),
        _ => Err(ModelError::UnknownNode(a)),
    };
    let mut closed: BTreeMap<Relation, Closed> = BTreeMap::new();
    let relations = [
        ("conflicts", &spec.conflicts),
        ("tx_weak", &spec.tx_weak),
        ("tx_strong", &spec.tx_strong),
        ("output_weak", &spec.output_weak),
        ("output_strong", &spec.output_strong),
        ("input_weak", &spec.input_weak),
        ("input_strong", &spec.input_strong),
    ];
    for (r, (key, pairs)) in relations.into_iter().enumerate() {
        for (i, (x, y)) in pairs.iter().enumerate() {
            let context = format!("{key}[{i}] [{x}, {y}]");
            let look = |name: &String| {
                ids.get(name.as_str()).copied().ok_or_else(|| {
                    let (name, context) = (name.clone(), context.clone());
                    format!("{:?}", SpecError::UnknownName { name, context })
                })
            };
            let (a, b) = (look(x)?, look(y)?);
            let relation = match r {
                0 => {
                    let s = shared(a, b, |n| n.container, false);
                    let s = s.map_err(|e| model(context, e))?;
                    schedules[s.index()].conflicts.insert(a, b);
                    continue;
                }
                1 | 2 => match (nodes[a.index()].parent, nodes[b.index()].parent) {
                    (Some(p), Some(q)) if p == q => Relation::Intra(p),
                    _ => {
                        let sched = SchedId(u32::MAX);
                        let e = ModelError::PairOutsideSchedule { sched, a, b };
                        return Err(model(context, e));
                    }
                },
                3 | 4 => Relation::Output(
                    shared(a, b, |n| n.container, false).map_err(|e| model(context.clone(), e))?,
                ),
                _ => Relation::Input(
                    shared(a, b, |n| n.home, true).map_err(|e| model(context.clone(), e))?,
                ),
            };
            let strong = r % 2 == 0;
            closed
                .entry(relation)
                .or_default()
                .add(a, b, strong)
                .map_err(|source| {
                    let kind = OrderKind::Weak;
                    model(context, ModelError::OrderViolation { a, b, kind, source })
                })?;
        }
    }
    assert!(
        !spec.auto_propagate,
        "specs from systems carry their propagation"
    );
    for (relation, orders) in &closed {
        let orders = orders.order_pair();
        match *relation {
            Relation::Intra(tx) => {
                let home = nodes[tx.index()].home.unwrap();
                let txs = &mut schedules[home.index()].transactions;
                txs.iter_mut().find(|t| t.id == tx).unwrap().intra = orders;
            }
            Relation::Output(s) => schedules[s.index()].output = orders,
            Relation::Input(s) => schedules[s.index()].input = orders,
        }
    }
    CompositeSystem::assemble(nodes, schedules).map_err(|e| model("build".into(), e))
}

/// Inserts `pair` into `list` at a random position, unless already there
/// (a session merge would drop the duplicate and shift later indices).
fn plant(list: &mut Vec<(String, String)>, pair: (String, String), rng: &mut StdRng) {
    if !list.contains(&pair) {
        let at = rng.gen_range(0..=list.len());
        list.insert(at, pair);
    }
}

/// Plants `count` faults of random kinds into `spec`, the spec of `sys`.
fn plant_faults(sys: &CompositeSystem, spec: &mut SystemSpec, count: usize, rng: &mut StdRng) {
    let name = |n: NodeId| spec.nodes[n.index()].name.clone();
    let leaves: Vec<NodeId> = sys.leaves().collect();
    for _ in 0..count {
        match rng.gen_range(0..8) {
            // A reversed closure pair of an output, input or intra order:
            // the pairs that imply the original may be declared after the
            // plant, so the cycle closes at a later entry.
            kind @ 0..=2 => {
                let mut closures = Vec::new();
                for s in sys.schedules() {
                    let rel = if kind == 0 { &s.output } else { &s.input };
                    if kind < 2 {
                        closures.extend(rel.weak_pairs());
                    } else {
                        for t in &s.transactions {
                            closures.extend(t.intra.weak_pairs());
                        }
                    }
                }
                if closures.is_empty() {
                    continue;
                }
                let (a, b) = closures[rng.gen_range(0..closures.len())];
                let list = match kind {
                    0 => &mut spec.output_weak,
                    1 => &mut spec.input_strong,
                    _ => &mut spec.tx_weak,
                };
                let pair = (name(b), name(a));
                plant(list, pair, rng);
            }
            // An output pair between leaves of two schedules.
            3 => {
                let (a, b) = (
                    leaves[rng.gen_range(0..leaves.len())],
                    leaves[rng.gen_range(0..leaves.len())],
                );
                if sys.node(a).container != sys.node(b).container {
                    let pair = (name(a), name(b));
                    plant(&mut spec.output_weak, pair, rng);
                }
            }
            // An unknown name.
            4 => {
                let a = leaves[rng.gen_range(0..leaves.len())];
                let pair = (name(a), "no-such-node".to_string());
                plant(&mut spec.output_strong, pair, rng);
            }
            // A dropped output or input pair: the relations close, and
            // validation may find a conflict, intra order or propagated
            // pair the remaining ones no longer cover.
            kind @ 6..=7 => {
                let list = if kind == 6 {
                    &mut spec.output_weak
                } else {
                    &mut spec.input_weak
                };
                if !list.is_empty() {
                    list.remove(rng.gen_range(0..list.len()));
                }
            }
            // A reflexive pair.
            _ => {
                let a = leaves[rng.gen_range(0..leaves.len())];
                let pair = (name(a), name(a));
                plant(&mut spec.output_weak, pair, rng);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planted faults fail the build with exactly the error the
    /// pair-by-pair reference reports first, and a spec without faults
    /// builds the reference's system.
    #[test]
    fn bulk_build_errors_match_pair_by_pair(
        pick in 0u8..8,
        roots in 2usize..8,
        density in 0u8..=60,
        seed in 0u64..100_000,
        count in 1usize..=3,
    ) {
        let sys = generated(pick, roots, density, seed);
        let mut spec = SystemSpec::from_system(&sys);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb01c);
        plant_faults(&sys, &mut spec, count, &mut rng);
        let got = spec.build().map_err(|e| format!("{e:?}"));
        let want = reference(&spec);
        prop_assert_eq!(got, want);
    }

    /// A valid spec built fresh (each relation closed once over nothing)
    /// equals the system a session reaches by appending its fragments one
    /// by one (each fragment's pairs closed once over the reopened
    /// system's relations).
    #[test]
    fn fresh_build_equals_append_by_append(
        pick in 0u8..8,
        roots in 2usize..8,
        density in 0u8..=60,
        seed in 0u64..100_000,
    ) {
        let spec = SystemSpec::from_system(&generated(pick, roots, density, seed));
        let mut session = SpecSession::new();
        let mut merged = SystemSpec {
            auto_propagate: false,
            ..SystemSpec::default()
        };
        for fragment in spec.into_appends() {
            prop_assert!(session.append(&fragment).is_ok());
            merged.merge(&fragment).unwrap();
        }
        let fresh = merged.build().unwrap();
        prop_assert_eq!(session.system().unwrap(), &fresh);
    }
}
