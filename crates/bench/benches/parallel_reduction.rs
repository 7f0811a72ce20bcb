//! Criterion bench: scaling of the parallel checking engine.
//!
//! Two sweeps over `1..=cores` workers:
//!
//! * `check-jobs` — within-system parallelism (`CheckOptions::jobs`) on one big
//!   system, where the per-level closure and conflict scans dominate;
//! * `batch-workers` — across-system parallelism (`Batch::workers`) on a
//!   corpus of medium systems, the batch engine's home turf.
//!
//! Run with `cargo bench --bench parallel_reduction`; each line is one
//! worker count, so the scaling curve reads straight off the report.

use compc_core::{CheckOptions, Checker};
use compc_engine::{Batch, BatchItem};
use compc_workload::random::{generate, GenParams, Shape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Sweep ceiling: the machine's cores, but at least 4 so the curve always
/// shows multi-worker behaviour (on starved machines that's the
/// oversubscription overhead, which is the honest number to report there).
fn sweep_max() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(4)
}

/// One deliberately large system: deep general shape, many roots, long
/// transactions, so each level carries a big front and the closure dominates.
fn big_system() -> compc_model::CompositeSystem {
    generate(&GenParams {
        shape: Shape::General {
            levels: 4,
            scheds_per_level: 3,
        },
        roots: 48,
        ops_per_tx: (2, 4),
        conflict_density: 0.25,
        sequential_tx_prob: 0.7,
        client_input_prob: 0.0,
        strong_input_prob: 0.0,
        sound_abstractions: false,
        seed: 11,
    })
}

fn corpus(n: u64) -> Vec<BatchItem> {
    (0..n)
        .map(|seed| {
            let sys = generate(&GenParams {
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
                seed,
            });
            BatchItem::new(format!("seed-{seed}"), sys)
        })
        .collect()
}

fn bench_jobs_sweep(c: &mut Criterion) {
    let sys = big_system();
    let mut group = c.benchmark_group("parallel_reduction");
    for jobs in 1..=sweep_max() {
        let checker = Checker::with_options(CheckOptions::new().jobs(jobs));
        group.bench_with_input(
            BenchmarkId::new("check-jobs", format!("{jobs}j/{}n", sys.node_count())),
            &sys,
            |b, sys| b.iter(|| checker.check(std::hint::black_box(sys)).is_correct()),
        );
    }
    group.finish();
}

fn bench_batch_sweep(c: &mut Criterion) {
    let items = corpus(64);
    let mut group = c.benchmark_group("parallel_reduction");
    for workers in 1..=sweep_max() {
        let batch = Batch::new().workers(workers);
        group.bench_with_input(
            BenchmarkId::new("batch-workers", format!("{workers}w/64sys")),
            &items,
            |b, items| b.iter(|| batch.check_all(items.clone()).stats.correct),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_jobs_sweep, bench_batch_sweep);
criterion_main!(benches);
