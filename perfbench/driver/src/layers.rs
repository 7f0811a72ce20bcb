//! Per-layer accumulators for the traced run: timers wrapped around calls
//! into each layer's public functions, plus counts, keyed by the metric
//! names `BENCHMARK.json` lists under `per_layer`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric with its unit, in report order. A layer that a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("json.parse.ms", "ms"),
    ("json.parse.bytes", "bytes"),
    ("spec.from_json.ms", "ms"),
    ("spec.build.ms", "ms"),
    ("spec.merge.ms", "ms"),
    ("spec.nodes", "count"),
    ("session.append.ms", "ms"),
    ("session.snapshot.ms", "ms"),
    ("session.from_checkpoint.ms", "ms"),
    ("core.session.append.ms", "ms"),
    ("core.session.levels_reused", "count"),
    ("core.session.rows_recomputed", "count"),
    ("core.session.rows_spliced", "count"),
    ("core.check.ms", "ms"),
    ("core.check.sparse.ms", "ms"),
    ("core.check.dense.ms", "ms"),
    ("core.check.compressed.ms", "ms"),
    ("core.level.ms", "ms"),
    ("engine.wall_ms", "ms"),
    ("engine.busy_ms", "ms"),
    ("engine.utilization", "ratio"),
    ("journal.fsyncs_per_append", "ratio"),
    ("journal.batch_mean", "count"),
    ("journal.bytes_per_append", "bytes"),
    ("dispatch.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.internal_faults", "count"),
    ("serve.unattributed_ms", "ms"),
    ("recover.records", "count"),
    ("recover.replay.ms", "ms"),
    ("trace.covered_share", "ratio"),
    ("trace.overhead", "ratio"),
];

#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, adding its wall time in milliseconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64() * 1e3);
        out
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, 0.0);
        self.add(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The largest of `candidates` (by value), for the "which layer
    /// dominates" summary.
    pub fn dominant(&self, candidates: &[&'static str]) -> &'static str {
        candidates
            .iter()
            .copied()
            .max_by(|a, b| self.get(a).total_cmp(&self.get(b)))
            .unwrap_or("none")
    }
}
