//! Criterion bench: cost of the Comp-C reduction (E10's timing companion).

use compc_bench::bench_check;
use compc_model::CompositeSystem;
use compc_sim::{Engine, Protocol, SimConfig};
use compc_workload::random::{generate, GenParams, Shape};
use compc_workload::random_sim::{generate_sim, SimGenParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction");
    for (label, params) in [
        (
            "general-small",
            GenParams {
                shape: Shape::General {
                    levels: 2,
                    scheds_per_level: 2,
                },
                roots: 4,
                ops_per_tx: (1, 2),
                conflict_density: 0.3,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
                seed: 1,
            },
        ),
        (
            "general-medium",
            GenParams {
                shape: Shape::General {
                    levels: 3,
                    scheds_per_level: 2,
                },
                roots: 12,
                ops_per_tx: (1, 3),
                conflict_density: 0.3,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
                seed: 2,
            },
        ),
        (
            "general-large",
            GenParams {
                shape: Shape::General {
                    levels: 4,
                    scheds_per_level: 3,
                },
                roots: 32,
                ops_per_tx: (1, 3),
                conflict_density: 0.2,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
                seed: 3,
            },
        ),
        (
            "stack-deep",
            GenParams {
                shape: Shape::Stack { depth: 5 },
                roots: 8,
                ops_per_tx: (1, 2),
                conflict_density: 0.3,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
                seed: 4,
            },
        ),
        (
            "join-wide",
            GenParams {
                shape: Shape::Join { branches: 6 },
                roots: 12,
                ops_per_tx: (1, 3),
                conflict_density: 0.3,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
                seed: 5,
            },
        ),
    ] {
        let sys = generate(&params);
        group.bench_with_input(
            BenchmarkId::new("check", format!("{label}/{}n", sys.node_count())),
            &sys,
            |b, sys| b.iter(|| bench_check(std::hint::black_box(sys))),
        );
    }
    group.finish();
}

/// A Timestamp-ordering simulator export of `clients` composite
/// transactions (Comp-C by construction), from the first seed at or after
/// `seed` whose run exports.
fn timestamp_export(clients: usize, seed: u64) -> CompositeSystem {
    (seed..seed + 64)
        .find_map(|seed| {
            let params = SimGenParams {
                seed,
                clients,
                ..SimGenParams::default()
            };
            let (topo, templates) = generate_sim(&params, Protocol::Timestamp);
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            Engine::new(topo, templates, config)
                .run()
                .export_system()
                .ok()
        })
        .expect("a Timestamp run exports within 64 seeds")
}

/// Whole checks of Timestamp simulator exports: one of 165 nodes, the
/// size `grow` sessions reach, and one of 1,241 nodes, where the per-level
/// phases around the closure dominate.
fn bench_timestamp_export(c: &mut Criterion) {
    let mut group = c.benchmark_group("timestamp-export");
    for (clients, seed) in [(28, 1), (300, 5)] {
        let sys = timestamp_export(clients, seed);
        assert!(bench_check(&sys), "a Timestamp export is Comp-C");
        group.bench_with_input(
            BenchmarkId::new("check", format!("{clients}c/{}n", sys.node_count())),
            &sys,
            |b, sys| b.iter(|| bench_check(std::hint::black_box(sys))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reduction, bench_timestamp_export);
criterion_main!(benches);
