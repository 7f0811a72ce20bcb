//! `SystemSpec::build` declares every pair first and closes each order
//! relation once; if declaring or closing fails it declares the spec again
//! pair by pair.
//! These properties pin it to a pair-by-pair reference (a
//! `SystemBuilder::new` builder, which closes on every pair):
//!
//! * specs with planted faults — contradictions whose cycle closes across
//!   declaration order, pairs outside a schedule, unknown names, reflexive
//!   pairs, and dropped pairs whose absence validation finds after the
//!   close — fail with exactly the same `SpecError`;
//! * on valid specs, the system built fresh equals the system a session
//!   reaches append by append.

use compc::model::{CompositeSystem, ModelError, NodeId, SchedId, SystemBuilder};
use compc::spec::{SpecError, SystemSpec};
use compc::workload::random::{generate, GenParams, Shape};
use compc::SpecSession;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

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

/// The pair-by-pair reference: the spec declared into a
/// [`SystemBuilder::new`] builder, which closes every relation on every
/// pair, with the entry contexts `SystemSpec::build` reports. The nodes of
/// these specs are valid (faults are planted in relations only), so the
/// forest needs no checks. Errors compare by their `Debug` rendering.
fn reference(spec: &SystemSpec) -> Result<CompositeSystem, String> {
    let mut b = SystemBuilder::new();
    let scheds: HashMap<&str, SchedId> = spec
        .schedules
        .iter()
        .map(|s| (s.as_str(), b.schedule(s.clone())))
        .collect();
    let mut nodes: HashMap<&str, NodeId> = HashMap::new();
    for n in &spec.nodes {
        let home = n.home.as_deref().map(|h| scheds[h]);
        let parent = n.parent.as_deref().map(|p| nodes[p]);
        let id = match n.kind.as_str() {
            "root" => b.root(n.name.clone(), home.unwrap()),
            "subtx" => b.subtx(n.name.clone(), parent.unwrap(), home.unwrap()),
            _ => b.leaf(n.name.clone(), parent.unwrap()),
        };
        nodes.insert(&n.name, id);
    }
    type Apply = fn(&mut SystemBuilder, NodeId, NodeId) -> Result<(), ModelError>;
    type Relation<'s> = (&'s str, &'s Vec<(String, String)>, Apply);
    let relations: [Relation; 7] = [
        ("conflicts", &spec.conflicts, SystemBuilder::conflict),
        ("tx_weak", &spec.tx_weak, SystemBuilder::tx_weak_order),
        ("tx_strong", &spec.tx_strong, SystemBuilder::tx_strong_order),
        ("output_weak", &spec.output_weak, SystemBuilder::output_weak),
        (
            "output_strong",
            &spec.output_strong,
            SystemBuilder::output_strong,
        ),
        ("input_weak", &spec.input_weak, SystemBuilder::input_weak),
        (
            "input_strong",
            &spec.input_strong,
            SystemBuilder::input_strong,
        ),
    ];
    for (key, pairs, apply) in relations {
        for (i, (x, y)) in pairs.iter().enumerate() {
            let context = format!("{key}[{i}] [{x}, {y}]");
            let look = |name: &String| {
                nodes.get(name.as_str()).copied().ok_or_else(|| {
                    format!(
                        "{:?}",
                        SpecError::UnknownName {
                            name: name.clone(),
                            context: context.clone(),
                        }
                    )
                })
            };
            let (a, c) = (look(x)?, look(y)?);
            apply(&mut b, a, c)
                .map_err(|source| format!("{:?}", SpecError::Model { context, source }))?;
        }
    }
    assert!(
        !spec.auto_propagate,
        "specs from systems carry their propagation"
    );
    b.build().map_err(|source| {
        format!(
            "{:?}",
            SpecError::Model {
                context: "build".into(),
                source,
            }
        )
    })
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

    /// Planted faults fail the bulk build with exactly the error the
    /// pair-by-pair reference reports first.
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

    /// A valid spec built fresh (each relation closed once) equals the
    /// system a session reaches by appending its fragments one by one
    /// (every relation closed pair by pair, in reopened builders).
    #[test]
    fn fresh_build_equals_append_by_append(
        pick in 0u8..8,
        roots in 2usize..8,
        density in 0u8..=60,
        seed in 0u64..100_000,
    ) {
        let spec = SystemSpec::from_system(&generated(pick, roots, density, seed));
        let mut session = SpecSession::new();
        for fragment in spec.into_appends() {
            prop_assert!(session.append(&fragment).is_ok());
        }
        let fresh = session.spec().build().unwrap();
        prop_assert_eq!(session.system().unwrap(), &fresh);
    }
}
