//! Criterion bench: scaling of the parallel checking engine.
//!
//! One sweep over `1..=cores` workers: `batch-workers` — across-system
//! parallelism (`Batch::workers`) on a corpus of medium systems. Each check
//! runs sequentially on its worker, so this is the only parallel axis.
//!
//! Run with `cargo bench --bench parallel_reduction`; each line is one
//! worker count, so the scaling curve reads straight off the report.

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

criterion_group!(benches, bench_batch_sweep);
criterion_main!(benches);
