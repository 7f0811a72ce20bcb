//! Criterion bench: order-maintenance strategies (DESIGN.md §5.1 ablation)
//! and the per-step front evolution.

use compc_bench::bench_reduce_steps;
use compc_graph::{transitive_closure, DiGraph, PartialOrderRel};
use compc_workload::random::{generate, GenParams, Shape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random DAG edges over n nodes (u < v).
fn dag_edges(n: usize, m: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let a = rng.gen_range(0..n - 1);
            let b = rng.gen_range(a + 1..n);
            (a, b)
        })
        .collect()
}

fn bench_order_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("order-maintenance");
    for &(n, m) in &[(32usize, 64usize), (64, 192), (128, 512)] {
        let edges = dag_edges(n, m, 9);
        // Strategy A (production): every pair first, closed in one sweep.
        group.bench_with_input(
            BenchmarkId::new("close-once", format!("{n}n/{m}e")),
            &edges,
            |b, edges| {
                b.iter(|| {
                    let rel = PartialOrderRel::from_pairs(edges.iter().copied()).unwrap();
                    std::hint::black_box(rel.pair_count())
                })
            },
        );
        // Strategy A' (ablation): the same sweep run once per pair.
        group.bench_with_input(
            BenchmarkId::new("extend-each", format!("{n}n/{m}e")),
            &edges,
            |b, edges| {
                b.iter(|| {
                    let mut rel = PartialOrderRel::with_elements(n);
                    for &pair in edges {
                        rel.extend(&[pair], None).unwrap();
                    }
                    std::hint::black_box(rel.pair_count())
                })
            },
        );
        // Strategy B (ablation): batch insert then one closure pass.
        group.bench_with_input(
            BenchmarkId::new("batch-closure", format!("{n}n/{m}e")),
            &edges,
            |b, edges| {
                b.iter(|| {
                    let mut g = DiGraph::with_nodes(n);
                    for &(u, v) in edges {
                        g.add_edge(u, v);
                    }
                    std::hint::black_box(transitive_closure(&g).edge_count())
                })
            },
        );
    }
    group.finish();
}

fn bench_front_steps(c: &mut Criterion) {
    let sys = generate(&GenParams {
        shape: Shape::General {
            levels: 3,
            scheds_per_level: 2,
        },
        roots: 16,
        ops_per_tx: (1, 3),
        conflict_density: 0.3,
        sequential_tx_prob: 0.7,
        client_input_prob: 0.0,
        strong_input_prob: 0.0,
        sound_abstractions: false,
        seed: 11,
    });
    c.bench_function("front-evolution/steps", |b| {
        b.iter(|| bench_reduce_steps(std::hint::black_box(&sys)))
    });
}

criterion_group!(benches, bench_order_strategies, bench_front_steps);
criterion_main!(benches);
