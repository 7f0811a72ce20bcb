//! Criterion bench: cost of the tracing layer on the reduction hot path.
//!
//! Three variants per workload:
//!
//! * `disabled` — `Checker::check`, no sink installed. This is the default
//!   path every non-observing caller takes; the PR's contract is that it
//!   stays within noise (<2%) of the pre-tracing reduction numbers
//!   (EXPERIMENTS.md E18 records the comparison).
//! * `stats` — `Checker::try_check` into a [`compc_trace::TraceStats`]
//!   aggregate sink (histograms only, no formatting or I/O).
//! * `memory` — `Checker::try_check` into a [`compc_trace::MemorySink`],
//!   the per-item event capture the batch engine's `tracing(true)` uses.
//!
//! Every variant runs in the bench thread's check buffers, as
//! `Checker::check` does, so they differ only in the sink.

use compc_core::{CheckCtx, Checker};
use compc_model::CompositeSystem;
use compc_trace::{MemorySink, TraceSink, TraceStats};
use compc_workload::random::{generate, GenParams, Shape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn traced_check(checker: Checker, sys: &CompositeSystem, sink: &mut dyn TraceSink) -> bool {
    checker
        .try_check(sys, &mut CheckCtx::new().traced(sink))
        .expect("no deadline set")
        .is_correct()
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    let checker = Checker::new();
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
    ] {
        let sys = generate(&params);
        let nodes = sys.node_count();
        group.bench_with_input(
            BenchmarkId::new("disabled", format!("{label}/{nodes}n")),
            &sys,
            |b, sys| b.iter(|| checker.check(std::hint::black_box(sys)).is_correct()),
        );
        group.bench_with_input(
            BenchmarkId::new("stats", format!("{label}/{nodes}n")),
            &sys,
            |b, sys| {
                b.iter(|| {
                    let mut stats = TraceStats::default();
                    traced_check(checker, std::hint::black_box(sys), &mut stats)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("memory", format!("{label}/{nodes}n")),
            &sys,
            |b, sys| {
                b.iter(|| {
                    let mut sink = MemorySink::new();
                    traced_check(checker, std::hint::black_box(sys), &mut sink)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
