//! The paper's theorems as property tests.
//!
//! * **Theorem 1** — reduction success ⟺ Comp-C, with the serial witness as
//!   a checkable certificate.
//! * **Theorem 2** — SCC ⟺ Comp-C on stacks.
//! * **Theorem 3** — FCC ⟺ Comp-C on forks.
//! * **Theorem 4** — JCC ⟺ Comp-C on joins.
//! * Flat embedding — CSR ⟺ Comp-C on one-level systems.
//! * The contraction-based calculation check ⟺ the brute-force
//!   linearization search (Definition 14/16 cross-validation).

use compc::configs::{is_fcc, is_jcc, is_scc};
use compc::core::{calculations_exist_bruteforce, check, Checker, FailurePhase, Reducer};
use compc::model::NodeId;
use compc::workload::random::{generate, GenParams, Shape};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn params(shape: Shape, roots: usize, density: f64, seed: u64) -> GenParams {
    GenParams {
        shape,
        roots,
        ops_per_tx: (1, 3),
        conflict_density: density,
        sequential_tx_prob: 0.7,
        client_input_prob: 0.0,
        strong_input_prob: 0.0,
        sound_abstractions: false,
        seed,
    }
}

fn params_sound(shape: Shape, roots: usize, density: f64, seed: u64) -> GenParams {
    GenParams {
        sound_abstractions: true,
        ..params(shape, roots, density, seed)
    }
}

fn params_with_orders(
    shape: Shape,
    roots: usize,
    density: f64,
    client: f64,
    strong: f64,
    seed: u64,
) -> GenParams {
    GenParams {
        client_input_prob: client,
        strong_input_prob: strong,
        ..params(shape, roots, density, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Theorem 2: on stack configurations the direct SCC criterion and the
    /// general reduction agree, for every depth, contention level and seed.
    #[test]
    fn thm2_scc_iff_comp_c(
        seed in 0u64..100_000,
        depth in 2usize..=4,
        roots in 2usize..=5,
        density in 0u8..=90,
    ) {
        let sys = generate(&params(
            Shape::Stack { depth },
            roots,
            density as f64 / 100.0,
            seed,
        ));
        let scc = is_scc(&sys);
        let comp_c = check(&sys).is_correct();
        prop_assert_eq!(scc, comp_c, "SCC={} Comp-C={} seed={}", scc, comp_c, seed);
    }

    /// Theorem 3: FCC ⟺ Comp-C on forks.
    #[test]
    fn thm3_fcc_iff_comp_c(
        seed in 0u64..100_000,
        branches in 2usize..=4,
        roots in 2usize..=5,
        density in 0u8..=90,
    ) {
        let sys = generate(&params_sound(
            Shape::Fork { branches },
            roots,
            density as f64 / 100.0,
            seed,
        ));
        let fcc = is_fcc(&sys).expect("generator produces fork shapes");
        let comp_c = check(&sys).is_correct();
        prop_assert_eq!(fcc, comp_c, "FCC={} Comp-C={} seed={}", fcc, comp_c, seed);
    }

    /// Theorem 4: JCC ⟺ Comp-C on joins.
    #[test]
    fn thm4_jcc_iff_comp_c(
        seed in 0u64..100_000,
        branches in 2usize..=4,
        roots in 2usize..=6,
        density in 0u8..=90,
    ) {
        let sys = generate(&params_sound(
            Shape::Join { branches },
            roots,
            density as f64 / 100.0,
            seed,
        ));
        let jcc = is_jcc(&sys).expect("generator produces join shapes");
        let comp_c = check(&sys).is_correct();
        prop_assert_eq!(jcc, comp_c, "JCC={} Comp-C={} seed={}", jcc, comp_c, seed);
    }

    /// Theorem 1 (constructive direction): a successful reduction yields a
    /// serial witness — a permutation of the roots extending every observed
    /// and input pair of the final front.
    #[test]
    fn thm1_serial_witness_is_a_certificate(
        seed in 0u64..100_000,
        density in 0u8..=90,
    ) {
        let sys = generate(&params(
            Shape::General { levels: 3, scheds_per_level: 2 },
            4,
            density as f64 / 100.0,
            seed,
        ));
        if let Some(proof) = check(&sys).proof() {
            let mut roots: Vec<NodeId> = sys.roots().collect();
            let mut witness = proof.serial_witness.clone();
            let pos: BTreeMap<NodeId, usize> = witness
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, i))
                .collect();
            witness.sort_unstable();
            roots.sort_unstable();
            prop_assert_eq!(&witness, &roots, "witness must be a permutation of the roots");
            // The level-N front, by stepping the reduction.
            let mut reducer = Checker::new().reducer(&sys);
            for level in 1..=sys.order() {
                prop_assert!(reducer.step(level).is_ok(), "a Comp-C system reduces level {}", level);
            }
            let last = reducer.front();
            for (a, b) in last.observed_pairs().into_iter().chain(last.input_pairs()) {
                prop_assert!(
                    pos[&a] < pos[&b],
                    "witness violates required order {:?} < {:?}",
                    a, b
                );
            }
        }
    }

    /// The verdict is deterministic.
    #[test]
    fn verdicts_are_deterministic(seed in 0u64..100_000) {
        let sys = generate(&params(
            Shape::General { levels: 3, scheds_per_level: 2 },
            4,
            0.5,
            seed,
        ));
        prop_assert_eq!(check(&sys).is_correct(), check(&sys).is_correct());
    }

    /// Definition 14/16 cross-validation: at every reduction step the
    /// contraction verdict matches an exhaustive search for simultaneous
    /// isolated execution sequences.
    #[test]
    fn calculation_contraction_matches_bruteforce(
        seed in 0u64..100_000,
        density in 0u8..=90,
    ) {
        // Small systems: the brute force is exponential in front size.
        let sys = generate(&GenParams {
            shape: Shape::General { levels: 3, scheds_per_level: 2 },
            roots: 3,
            ops_per_tx: (1, 2),
            conflict_density: density as f64 / 100.0,
            sequential_tx_prob: 0.5,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
            seed,
        });
        let mut red = Reducer::new(&sys);
        for level in 1..=sys.order() {
            let groups: BTreeMap<NodeId, NodeId> = sys
                .schedules_at_level(level)
                .flat_map(|s| {
                    s.transactions
                        .iter()
                        .flat_map(|t| t.ops.iter().map(move |&o| (o, t.id)))
                })
                .collect();
            let front = red.front();
            let nodes: Vec<NodeId> = front.nodes.iter().copied().collect();
            prop_assume!(nodes.len() <= 14); // keep the search tractable
            let constraint = front.constraint_graph(&sys);
            let expected = calculations_exist_bruteforce(&nodes, &constraint, &groups);
            match red.step(level) {
                Ok(()) => prop_assert!(
                    expected,
                    "contraction passed level {} but brute force finds no calculation",
                    level
                ),
                Err(cex) if cex.phase == FailurePhase::Calculation => {
                    prop_assert!(
                        !expected,
                        "contraction failed level {} but a calculation exists",
                        level
                    );
                    break;
                }
                Err(_) => {
                    // Conflict-consistency failure after replacement: the
                    // calculations themselves existed.
                    prop_assert!(expected);
                    break;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 2 under the full Definition-1 order spectrum: stacks with
    /// client-imposed weak AND strong input orders still satisfy
    /// SCC ⟺ Comp-C.
    #[test]
    fn thm2_holds_with_client_and_strong_orders(
        seed in 0u64..100_000,
        density in 0u8..=90,
        client in 0u8..=80,
        strong in 0u8..=80,
    ) {
        let sys = generate(&params_with_orders(
            Shape::Stack { depth: 3 },
            4,
            density as f64 / 100.0,
            client as f64 / 100.0,
            strong as f64 / 100.0,
            seed,
        ));
        sys.validate().expect("generator output must validate");
        prop_assert_eq!(is_scc(&sys), check(&sys).is_correct());
    }

    /// Strong input orders are honored end to end: every generated system
    /// with strong client orders validates Definition 3 axiom 3, and in
    /// correct systems the serial witness places strongly ordered roots in
    /// the required direction.
    #[test]
    fn strong_orders_respected_in_witness(
        seed in 0u64..100_000,
        density in 0u8..=60,
    ) {
        let sys = generate(&params_with_orders(
            Shape::General { levels: 3, scheds_per_level: 2 },
            4,
            density as f64 / 100.0,
            0.6,
            1.0, // all client orders strong
            seed,
        ));
        sys.validate().expect("valid");
        if let Some(proof) = check(&sys).proof() {
            let pos: BTreeMap<NodeId, usize> = proof
                .serial_witness
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, i))
                .collect();
            for s in sys.schedules() {
                for (a, b) in s.input.strong_pairs() {
                    // Strong pairs between roots must appear in witness
                    // order (others have been reduced away).
                    if let (Some(&pa), Some(&pb)) = (pos.get(&a), pos.get(&b)) {
                        prop_assert!(pa < pb, "strong order {a} ≪ {b} violated by witness");
                    }
                }
            }
        }
    }
}

/// The equivalences must not be vacuous: both verdicts appear in each
/// population.
#[test]
fn populations_are_nonvacuous() {
    for shape in [
        Shape::Stack { depth: 3 },
        Shape::Fork { branches: 3 },
        Shape::Join { branches: 3 },
    ] {
        let mut correct = 0;
        let mut incorrect = 0;
        for seed in 0..200 {
            let sys = generate(&params(shape, 4, 0.6, seed));
            if check(&sys).is_correct() {
                correct += 1;
            } else {
                incorrect += 1;
            }
        }
        assert!(correct > 0, "{shape:?}: no correct executions");
        assert!(incorrect > 0, "{shape:?}: no incorrect executions");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Minimized counterexamples are still incorrect and 1-minimal.
    #[test]
    fn minimizer_produces_1_minimal_cores(
        seed in 0u64..100_000,
        density in 30u8..=90,
    ) {
        use compc::core::minimize;
        let sys = generate(&params(
            Shape::General { levels: 3, scheds_per_level: 2 },
            5,
            density as f64 / 100.0,
            seed,
        ));
        if let Some(min) = minimize(&sys) {
            prop_assert!(!check(&min.system).is_correct());
            // Note: a SINGLE composite transaction can violate Comp-C all by
            // itself — its unordered sibling subtrees may interleave
            // inconsistently across shared lower schedules, so no
            // calculation for it exists. The minimizer legitimately returns
            // singletons in that case.
            prop_assert!(!min.roots.is_empty());
            // 1-minimality: removing any single root makes it correct.
            for i in 0..min.roots.len() {
                let mut fewer = min.roots.clone();
                fewer.remove(i);
                if fewer.is_empty() { continue; }
                let proj = sys.project_roots(&fewer).expect("projection builds");
                prop_assert!(
                    check(&proj).is_correct(),
                    "dropping {:?} should fix a 1-minimal core",
                    min.roots[i]
                );
            }
        }
    }
}

/// The fine print of Theorem 4: the JCC ⟺ Comp-C equivalence relies on the
/// upper schedules' conflict declarations *soundly abstracting* the join
/// schedule's real conflicts. With an unsound population (conflicts
/// sprinkled independently per level), a same-branch pair can interact at
/// the join while its upper schedule claims commutativity; the pulled-up
/// order is forgotten at the top, but Definition 10's transitivity routes
/// the dependency across branches and the reduction (rightly) rejects,
/// while JCC — whose ghost graph only sees cross-branch pairs — accepts.
/// This pins the concrete divergent instance as a regression anchor.
#[test]
fn thm4_fine_print_unsound_abstractions_diverge() {
    let mut found_divergence = false;
    for seed in 0..4000 {
        let sys = generate(&GenParams {
            shape: Shape::Join { branches: 4 },
            roots: 5,
            ops_per_tx: (1, 3),
            conflict_density: 0.03,
            sequential_tx_prob: 0.7,
            client_input_prob: 0.0,
            strong_input_prob: 0.0,
            sound_abstractions: false, // the crucial bit
            seed,
        });
        let jcc = compc::configs::is_jcc(&sys).expect("join shaped");
        let comp_c = check(&sys).is_correct();
        if jcc != comp_c {
            // The divergence must be one-sided: JCC trusting an unsound
            // abstraction accepts; the reduction rejects.
            assert!(jcc && !comp_c, "seed {seed}: unexpected direction");
            found_divergence = true;
            break;
        }
    }
    assert!(
        found_divergence,
        "the unsound-abstraction divergence should be reproducible"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Comp-C is downward closed under transaction removal: projecting a
    /// correct system onto any root subset stays correct (constraints only
    /// shrink). The converse direction is exactly what the minimizer
    /// exploits: projections of incorrect systems may become correct.
    #[test]
    fn correctness_is_downward_closed(
        seed in 0u64..100_000,
        density in 0u8..=60,
        drop_idx in 0usize..8,
    ) {
        let sys = generate(&params(
            Shape::General { levels: 3, scheds_per_level: 2 },
            5,
            density as f64 / 100.0,
            seed,
        ));
        if check(&sys).is_correct() {
            let roots: Vec<_> = sys.roots().collect();
            prop_assume!(roots.len() > 1);
            let mut keep = roots.clone();
            keep.remove(drop_idx % keep.len());
            let proj = sys.project_roots(&keep).expect("projection builds");
            prop_assert!(
                check(&proj).is_correct(),
                "removing a transaction cannot break correctness (seed {})",
                seed
            );
        }
    }
}
