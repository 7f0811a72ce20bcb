//! Kitchen-sink integration: every public surface in one pipeline —
//! generate → spec round trip → check → minimize → visualize → simulate →
//! export → replay.

use compc::core::{check, minimize, Checker, Verdict};
use compc::sim::{Engine, LockScope, Protocol, SimConfig};
use compc::spec::SystemSpec;
use compc::workload::random::{generate, GenParams, Shape};
use compc::workload::random_sim::{generate_sim, SimGenParams};

#[test]
fn full_pipeline_on_static_systems() {
    let mut correct = 0;
    let mut incorrect = 0;
    for seed in 0..30 {
        let sys = generate(&GenParams {
            shape: Shape::General {
                levels: 3,
                scheds_per_level: 2,
            },
            roots: 4,
            ops_per_tx: (1, 3),
            conflict_density: 0.5,
            sequential_tx_prob: 0.7,
            client_input_prob: 0.2,
            strong_input_prob: 0.2,
            sound_abstractions: seed % 2 == 0,
            seed,
        });

        // JSON round trip preserves the verdict.
        let spec = SystemSpec::from_system(&sys);
        let json = spec.to_json().to_compact();
        let back = SystemSpec::parse(&json).unwrap();
        let rebuilt = back.build().expect("extracted specs rebuild");
        assert_eq!(
            check(&sys).is_correct(),
            check(&rebuilt).is_correct(),
            "seed {seed}"
        );

        match check(&sys) {
            Verdict::Correct(_) => {
                correct += 1;
                // Every front renders to DOT.
                let mut reducer = Checker::new().reducer(&sys);
                for level in 0..=sys.order() {
                    if level > 0 {
                        reducer
                            .step(level)
                            .expect("a Comp-C system reduces every level");
                    }
                    assert!(reducer.front().to_dot(&sys).starts_with("digraph"));
                }
            }
            Verdict::Incorrect(cex) => {
                incorrect += 1;
                assert!(!cex.cycle.is_empty());
                assert!(!cex.to_string().is_empty());
                // Minimization yields a smaller-or-equal, still-broken core.
                let min = minimize(&sys).expect("incorrect systems minimize");
                assert!(min.roots.len() <= sys.roots().count());
                assert!(!check(&min.system).is_correct());
            }
        }
        // Forest DOT always renders.
        assert!(sys.forest_dot().contains("digraph"));
    }
    assert!(correct > 0 && incorrect > 0, "population must be mixed");
}

#[test]
fn full_pipeline_on_simulated_systems() {
    for seed in 0..10 {
        let (topo, templates) = generate_sim(
            &SimGenParams {
                seed,
                clients: 8,
                ..SimGenParams::default()
            },
            Protocol::TwoPhase {
                scope: LockScope::Composite,
            },
        );
        let report = Engine::new(
            topo,
            templates,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .run();
        let (sys, roots) = report.export_with_roots().expect("valid export");

        // Spec round trip of a *simulated* system.
        let spec = SystemSpec::from_system(&sys);
        let rebuilt = spec.build().expect("sim exports rebuild from spec");
        assert_eq!(sys.node_count(), rebuilt.node_count());

        // Verdict + replay.
        let proof = match check(&sys) {
            Verdict::Correct(p) => p,
            Verdict::Incorrect(c) => panic!("closed 2PL must be Comp-C: {c}"),
        };
        let order: Vec<u32> = proof.serial_witness.iter().map(|n| roots[n]).collect();
        assert_eq!(report.replay_serially(&order), report.stores, "seed {seed}");
    }
}
