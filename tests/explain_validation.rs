//! Validation of explainable verdicts: an [`Explanation`] is not just
//! prose — its witness cycle must be a real cycle in the definitional
//! relations of the failing front, and its minimal root set must actually
//! be 1-minimal. These tests recompute both claims from the system itself,
//! across random incorrect systems of both failure phases.

use compc::core::{check, FailurePhase};
use compc::model::{CompositeSystem, NodeId, SystemBuilder};
use compc::workload::random::{generate, GenParams, Shape};

fn node_by_name(sys: &CompositeSystem, name: &str) -> NodeId {
    sys.nodes()
        .find(|n| sys.name(n.id) == name)
        .unwrap_or_else(|| panic!("no node named {name}"))
        .id
}

/// Whether `n` is `anc` or a forest descendant of `anc`.
fn within(sys: &CompositeSystem, anc: NodeId, n: NodeId) -> bool {
    n == anc || sys.descendants(anc).contains(&n)
}

/// Recomputes every consecutive edge of the explanation's witness cycle
/// from the failing front and the system, per the failing phase:
///
/// * conflict-consistency failures: the cycle lives in the front's
///   `observed ∪ input` relation (Definition 13), so each edge must be one
///   of those pairs directly;
/// * calculation failures: the cycle lives in the *contracted* constraint
///   graph of the pre-step front (Definition 16 step 1), so each edge
///   `A -> B` must be witnessed by front members `a ∈ A`, `b ∈ B` with
///   `(a, b)` an input pair, a generalized-conflicting observed pair, or a
///   same-schedule declared-conflicting pair in the executed direction.
fn validate_cycle(sys: &CompositeSystem, ex: &compc::core::Explanation) {
    assert!(!ex.cycle.is_empty(), "a failure must carry a witness cycle");
    if ex.cycle.len() > 1 {
        assert_eq!(
            ex.cycle.first(),
            ex.cycle.last(),
            "multi-node cycles are closed"
        );
    }
    let front = &ex.failing_front;
    let (observed, conflicts, input) = (
        front.observed_pairs(),
        front.conflict_pairs(sys),
        front.input_pairs(),
    );
    let edges: Vec<(NodeId, NodeId)> = ex.cycle[..ex.cycle.len().saturating_sub(1)]
        .iter()
        .zip(&ex.cycle[1..])
        .map(|(a, b)| (node_by_name(sys, a), node_by_name(sys, b)))
        .collect();
    // Self-loop rendering (a single-name "cycle") only happens degenerately;
    // every real counterexample here has at least two nodes.
    assert!(!edges.is_empty(), "cycle {:?} has no edges", ex.cycle);
    match ex.phase {
        FailurePhase::ConflictConsistency => {
            for &(a, b) in &edges {
                assert!(
                    observed.contains(&(a, b)) || input.contains(&(a, b)),
                    "cycle edge {} -> {} is in neither the observed nor the input \
                     relation of the failing front",
                    sys.name(a),
                    sys.name(b)
                );
            }
        }
        FailurePhase::Calculation => {
            for &(big_a, big_b) in &edges {
                let witnessed = front.members().any(|a| {
                    front.members().any(|b| {
                        if !within(sys, big_a, a) || !within(sys, big_b, b) {
                            return false;
                        }
                        let norm = if a < b { (a, b) } else { (b, a) };
                        let gen_con = conflicts.contains(&norm);
                        if input.contains(&(a, b)) {
                            return true;
                        }
                        if gen_con && observed.contains(&(a, b)) {
                            return true;
                        }
                        // Same-schedule declared conflict, executed a-then-b.
                        sys.schedules()
                            .any(|s| s.conflicts.conflicts(a, b) && s.output.weak_lt(a, b))
                    })
                });
                assert!(
                    witnessed,
                    "contracted cycle edge {} -> {} has no witnessing constraint pair \
                     in the pre-step front",
                    sys.name(big_a),
                    sys.name(big_b)
                );
            }
        }
    }
}

/// Recomputes 1-minimality of the explanation's minimal root set: its
/// projection is still incorrect, and dropping any single root from it
/// yields a correct projection.
fn validate_minimal_roots(sys: &CompositeSystem, ex: &compc::core::Explanation) {
    assert!(
        !ex.minimal_roots.is_empty(),
        "minimization applies to every incorrect system"
    );
    let roots: Vec<NodeId> = ex
        .minimal_roots
        .iter()
        .map(|n| node_by_name(sys, n))
        .collect();
    let proj = sys
        .project_roots(&roots)
        .expect("minimal roots project to a valid system");
    assert!(
        !check(&proj).is_correct(),
        "projection onto the minimal root set must still be incorrect"
    );
    for drop in 0..roots.len() {
        let keep: Vec<NodeId> = roots
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, &r)| r)
            .collect();
        if keep.is_empty() {
            continue; // a single root cannot be dropped further
        }
        let sub = sys
            .project_roots(&keep)
            .expect("sub-projection of a valid projection");
        assert!(
            check(&sub).is_correct(),
            "dropping {} from the minimal set must make the projection correct \
             — the set was not 1-minimal",
            ex.minimal_roots[drop]
        );
    }
}

fn validate(sys: &CompositeSystem) {
    let cex = check(sys).counterexample().cloned().expect("incorrect");
    let ex = cex.explain(sys);
    validate_cycle(sys, &ex);
    validate_minimal_roots(sys, &ex);
}

/// Sweep random general systems, validating every incorrect one. The sweep
/// must encounter both failure phases, so the cycle check is exercised
/// against both the contracted constraint graph and the front relations.
#[test]
fn random_explanations_validate_against_the_definitions() {
    let mut incorrect = 0;
    let mut phases = (0, 0);
    for seed in 0..120u64 {
        let sys = generate(&GenParams {
            shape: Shape::General {
                levels: 3,
                scheds_per_level: 2,
            },
            roots: 3,
            ops_per_tx: (1, 2),
            conflict_density: 0.5,
            sequential_tx_prob: 0.7,
            client_input_prob: 0.2,
            strong_input_prob: 0.1,
            sound_abstractions: false,
            seed,
        });
        let Some(cex) = check(&sys).counterexample().cloned() else {
            continue;
        };
        incorrect += 1;
        match cex.phase {
            FailurePhase::Calculation => phases.0 += 1,
            FailurePhase::ConflictConsistency => phases.1 += 1,
        }
        validate(&sys);
    }
    assert!(
        incorrect >= 20,
        "population too tame to validate anything: {incorrect} incorrect"
    );
    assert!(
        phases.0 > 0,
        "no calculation failures seen in {incorrect} incorrect systems"
    );
}

/// A hand-built conflict-consistency failure (the mixed input/serialization
/// cycle of Definition 13), so the observed ∪ input cycle check always runs
/// even if the random sweep happens to produce only calculation failures.
#[test]
fn conflict_consistency_cycle_validates() {
    let mut b = SystemBuilder::new();
    let s = b.schedule("S");
    let t1 = b.root("T1", s);
    let t2 = b.root("T2", s);
    let t3 = b.root("T3", s);
    let t4 = b.root("T4", s);
    let o1 = b.leaf("o1", t1);
    let o2 = b.leaf("o2", t2);
    let o3 = b.leaf("o3", t3);
    let o4 = b.leaf("o4", t4);
    b.conflict(o1, o2).unwrap();
    b.output_weak(o1, o2).unwrap();
    b.conflict(o3, o4).unwrap();
    b.output_weak(o3, o4).unwrap();
    b.input_weak(t2, t3).unwrap();
    b.input_weak(t4, t1).unwrap();
    let sys = b.build().unwrap();
    let cex = check(&sys).counterexample().cloned().expect("incorrect");
    assert_eq!(cex.phase, FailurePhase::ConflictConsistency);
    validate(&sys);
}

/// Figure 3 (the paper's canonical incorrect configuration) explains with a
/// validated cycle and a validated minimal set.
#[test]
fn figure3_explanation_validates() {
    validate(&compc::workload::figures::figure3_incorrect().system);
}
