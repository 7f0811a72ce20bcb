//! Batch-checking engine: run Comp-C checks over many composite systems
//! concurrently on a worker pool, reusing per-worker scratch buffers and
//! reporting aggregate throughput.
//!
//! Two axes of parallelism compose here:
//!
//! * **across systems** — [`Batch`] distributes whole systems over
//!   `workers` OS threads (one [`compc_core::CheckScratch`] per worker, kept
//!   across systems so graph buffers amortize);
//! * **within a system** — the [`compc_core::Checker`]'s `jobs` knob
//!   parallelizes the per-level closure and conflict scans *inside* one
//!   check.
//!
//! For many small systems use `workers = cores, jobs = 1` (the default); for
//! a few large systems invert it. Both settings are deterministic: verdicts
//! are independent of worker and job counts, and the report preserves input
//! order.
//!
//! **Fault isolation:** a check that panics (a corrupted input, a bug in a
//! custom work function) is caught per item — the panicking item reports a
//! [`BatchFault`], its worker replaces its scratch buffers and moves on, and
//! every other item still completes. A batch is never poisoned by one bad
//! system.
//!
//! **Observability:** [`Batch::tracing`] records the reduction's structured
//! events per item (see [`compc_trace`]), and every report carries
//! [`BatchMetrics`] — histograms of per-check latency, system size, and
//! levels completed — on top of the flat [`BatchStats`].
//!
//! ```
//! use compc_engine::{Batch, BatchItem};
//! # use compc_model::SystemBuilder;
//! # let mut b = SystemBuilder::new();
//! # let s = b.schedule("S");
//! # let _t = b.root("T", s);
//! # let sys = b.build().unwrap();
//! let report = Batch::new()
//!     .workers(2)
//!     .check_all(vec![BatchItem::new("only", sys)]);
//! assert_eq!(report.stats.correct, 1);
//! println!("{}", report.stats);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use compc_core::{
    effective_jobs, CheckCtx, CheckOptions, CheckScratch, Checker, Interrupted, Verdict,
};
use compc_model::CompositeSystem;
use compc_trace::{replay, Histogram, MemorySink, TraceEvent, TraceStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One unit of batch work: a labelled composite system.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Where the system came from (file name, generator seed, report id…).
    pub label: String,
    /// The system to check.
    pub system: CompositeSystem,
}

impl BatchItem {
    /// A labelled item.
    pub fn new(label: impl Into<String>, system: CompositeSystem) -> Self {
        BatchItem {
            label: label.into(),
            system,
        }
    }
}

/// Why an item produced no verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchFault {
    /// The check panicked (or its worker was lost). The message is the
    /// panic payload when one was recoverable.
    Panic {
        /// The panic message (or a generic description).
        message: String,
    },
    /// The check was cooperatively interrupted by [`CheckOptions::deadline`]
    /// before reaching a verdict. The item is neither proven Comp-C nor
    /// refuted; the rest of the batch is unaffected.
    Timeout {
        /// The reduction level whose step did not run.
        level: usize,
    },
}

impl BatchFault {
    /// Whether this fault is a deadline timeout (as opposed to a panic).
    pub fn is_timeout(&self) -> bool {
        matches!(self, BatchFault::Timeout { .. })
    }
}

impl std::fmt::Display for BatchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchFault::Panic { message } => write!(f, "check failed: {message}"),
            BatchFault::Timeout { level } => {
                write!(f, "deadline exceeded before level {level}")
            }
        }
    }
}

impl std::error::Error for BatchFault {}

/// The checked result for one [`BatchItem`], in input order.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The item's label.
    pub label: String,
    /// The verdict — or the fault that prevented one.
    pub result: Result<Verdict, BatchFault>,
    /// Wall-clock time this one check took on its worker.
    pub elapsed: Duration,
    /// Node count of the system (for throughput normalization).
    pub nodes: usize,
    /// Structured reduction events, when [`Batch::tracing`] is on (empty
    /// otherwise, and after a fault).
    pub events: Vec<TraceEvent>,
    /// Transitive closures this check ran on the dense bitset backend
    /// (snapshot of the worker scratch's counters around the item).
    pub dense_closures: u64,
    /// Transitive closures this check ran on the sparse DFS backend.
    pub sparse_closures: u64,
    /// Transitive closures this check ran on the compressed
    /// (chunked + SCC-condensed) backend.
    pub compressed_closures: u64,
}

impl BatchOutcome {
    /// The verdict, if the check completed.
    pub fn verdict(&self) -> Option<&Verdict> {
        self.result.as_ref().ok()
    }

    /// Which closure backend this item's check used: `"dense"`, `"sparse"`,
    /// `"compressed"`, `"mixed"` (fronts straddled a crossover), or `"-"`
    /// (no closure ran, e.g. the check faulted before level 0).
    pub fn backend(&self) -> &'static str {
        match (
            self.dense_closures,
            self.sparse_closures,
            self.compressed_closures,
        ) {
            (0, 0, 0) => "-",
            (_, 0, 0) => "dense",
            (0, _, 0) => "sparse",
            (0, 0, _) => "compressed",
            _ => "mixed",
        }
    }

    /// Whether the check completed with a Comp-C verdict.
    pub fn is_correct(&self) -> bool {
        matches!(&self.result, Ok(v) if v.is_correct())
    }

    /// The fault, if the check did not complete.
    pub fn fault(&self) -> Option<&BatchFault> {
        self.result.as_ref().err()
    }
}

/// Aggregate statistics for a batch run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Systems submitted (correct + incorrect + faults).
    pub systems: usize,
    /// How many were Comp-C.
    pub correct: usize,
    /// How many were not.
    pub incorrect: usize,
    /// How many produced no verdict because their check panicked.
    pub faults: usize,
    /// How many produced no verdict because their check exceeded the
    /// [`CheckOptions::deadline`].
    pub timeouts: usize,
    /// Total nodes across all systems.
    pub nodes: usize,
    /// Wall-clock time for the whole batch (pool start to pool end).
    pub wall: Duration,
    /// Summed per-check time across workers (≥ `wall` when the pool is
    /// busy; `busy / wall / workers` approximates pool utilization).
    pub busy: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl BatchStats {
    /// Systems checked per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.systems as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Nodes processed per second of wall-clock time.
    pub fn node_throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.nodes as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Folds another batch's counters into this one — for aggregating
    /// sequential chunked runs (e.g. a checkpointed corpus check) into one
    /// summary. Wall and busy times add (the chunks ran back to back);
    /// the worker count takes the max.
    pub fn merge(&mut self, other: &BatchStats) {
        self.systems += other.systems;
        self.correct += other.correct;
        self.incorrect += other.incorrect;
        self.faults += other.faults;
        self.timeouts += other.timeouts;
        self.nodes += other.nodes;
        self.wall += other.wall;
        self.busy += other.busy;
        self.workers = self.workers.max(other.workers);
    }

    /// Fraction of the pool's capacity that was doing check work (0..=1).
    pub fn utilization(&self) -> f64 {
        let cap = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        if cap > 0.0 {
            (self.busy.as_secs_f64() / cap).min(1.0)
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} systems ({} correct, {} incorrect{}), {} nodes in {:.3}s on {} workers: {:.1} systems/s, {:.0} nodes/s, {:.0}% utilization",
            self.systems,
            self.correct,
            self.incorrect,
            {
                let mut extra = String::new();
                if self.faults > 0 {
                    extra.push_str(&format!(", {} faults", self.faults));
                }
                if self.timeouts > 0 {
                    extra.push_str(&format!(", {} timeouts", self.timeouts));
                }
                extra
            },
            self.nodes,
            self.wall.as_secs_f64(),
            self.workers,
            self.throughput(),
            self.node_throughput(),
            self.utilization() * 100.0,
        )
    }
}

/// Distribution metrics for a batch run — the histogram companion to the
/// flat [`BatchStats`] counters.
#[derive(Clone, Debug, Default)]
pub struct BatchMetrics {
    /// Per-check wall time in nanoseconds.
    pub check_ns: Histogram,
    /// Node count per system.
    pub nodes: Histogram,
    /// Reduction levels completed per checked system.
    pub levels_completed: Histogram,
    /// Per-level aggregates from the reduction's own trace events
    /// (populated only when [`Batch::tracing`] is on).
    pub trace: TraceStats,
}

impl BatchMetrics {
    /// Folds another batch's distributions into this one — the histogram
    /// companion to [`BatchStats::merge`] for chunked runs.
    pub fn merge(&mut self, other: &BatchMetrics) {
        self.check_ns.merge(&other.check_ns);
        self.nodes.merge(&other.nodes);
        self.levels_completed.merge(&other.levels_completed);
        self.trace.merge(&other.trace);
    }
}

impl std::fmt::Display for BatchMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "check time (ns):  {}", self.check_ns)?;
        writeln!(f, "system nodes:     {}", self.nodes)?;
        write!(f, "levels completed: {}", self.levels_completed)?;
        if self.trace.checks > 0 {
            write!(f, "\nper-level trace:\n{}", self.trace)?;
        }
        Ok(())
    }
}

/// A full batch report: per-item outcomes (input order) plus aggregates.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One outcome per input item, in input order.
    pub outcomes: Vec<BatchOutcome>,
    /// Aggregate statistics.
    pub stats: BatchStats,
    /// Aggregate distributions (latency, size, depth, trace).
    pub metrics: BatchMetrics,
}

impl BatchReport {
    /// Labels of the systems that were checked and were *not* Comp-C.
    pub fn incorrect_labels(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| matches!(&o.result, Ok(v) if !v.is_correct()))
            .map(|o| o.label.as_str())
            .collect()
    }

    /// Labels of the items whose check faulted (panicked).
    pub fn fault_labels(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| matches!(&o.result, Err(BatchFault::Panic { .. })))
            .map(|o| o.label.as_str())
            .collect()
    }

    /// Labels of the items whose check exceeded the [`CheckOptions::deadline`].
    pub fn timeout_labels(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| matches!(&o.result, Err(BatchFault::Timeout { .. })))
            .map(|o| o.label.as_str())
            .collect()
    }
}

/// A configured batch-checking session — the across-systems counterpart of
/// [`compc_core::Checker`].
///
/// `workers = 0` (the default) means one worker per available core — the
/// same normalization as [`CheckOptions::jobs`], via
/// [`compc_core::effective_jobs`]; `workers = 1` checks sequentially on the
/// calling thread (no pool spun up). Work is distributed by atomic index
/// claiming, so stragglers don't serialize the tail; each worker keeps one
/// `CheckScratch` for its whole lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct Batch {
    options: CheckOptions,
    workers: usize,
    tracing: bool,
}

impl Batch {
    /// A batch session with default settings (auto workers, default
    /// [`CheckOptions`], tracing off).
    pub fn new() -> Self {
        Batch::default()
    }

    /// A batch session whose every check runs with the given options — the
    /// same [`CheckOptions`] accepted by [`Checker::with_options`] and
    /// [`compc_core::Session::with_options`].
    pub fn with_options(options: CheckOptions) -> Self {
        Batch {
            options,
            ..Batch::default()
        }
    }

    /// The per-check options this batch runs with.
    pub fn options(&self) -> CheckOptions {
        self.options
    }

    /// Worker threads for distributing systems: `0` auto (default), `1`
    /// sequential, `n` exactly `n`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Record the reduction's structured trace events for every item (in
    /// [`BatchOutcome::events`]) and aggregate them into
    /// [`BatchMetrics::trace`].
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Checks every item, returning outcomes in input order plus aggregate
    /// stats. Verdicts are identical to checking each item alone; a
    /// panicking check yields a per-item [`BatchFault`] and the rest of the
    /// batch completes.
    pub fn check_all(&self, items: Vec<BatchItem>) -> BatchReport {
        let tracing = self.tracing;
        self.run(items, move |checker, item, scratch| {
            let mut sink = MemorySink::new();
            let mut ctx = CheckCtx::new(scratch);
            if tracing {
                ctx = ctx.traced(&mut sink);
            }
            // A timed-out item keeps its partial trace (check_start and the
            // completed levels, no check_end).
            let result = checker
                .try_check(&item.system, &mut ctx)
                .map_err(timeout_fault);
            (result, sink.events)
        })
    }

    /// [`Batch::check_all`] with a custom per-item work function — the seam
    /// for callers that wrap the check (extra validation, timeouts, fault
    /// injection in tests). The function runs under the same panic
    /// isolation as the built-in check. A [`CheckOptions::deadline`]
    /// reaches the function through its `Checker` argument; call
    /// [`Checker::try_check`] there to honor it ([`Checker::check`] panics
    /// on expiry, which the batch then reports as [`BatchFault::Panic`]).
    pub fn check_all_with<F>(&self, items: Vec<BatchItem>, f: F) -> BatchReport
    where
        F: Fn(Checker, &BatchItem, &mut CheckScratch) -> Verdict + Sync,
    {
        self.run(items, move |checker, item, scratch| {
            (Ok(f(checker, item, scratch)), Vec::new())
        })
    }

    fn run<F>(&self, items: Vec<BatchItem>, work: F) -> BatchReport
    where
        F: Fn(
                Checker,
                &BatchItem,
                &mut CheckScratch,
            ) -> (Result<Verdict, BatchFault>, Vec<TraceEvent>)
            + Sync,
    {
        let workers = effective_jobs(self.workers).min(items.len().max(1));
        let item_checker = Checker::with_options(self.options);
        let start = Instant::now();
        let mut slots: Vec<Option<BatchOutcome>> = Vec::new();
        slots.resize_with(items.len(), || None);

        if workers <= 1 {
            let mut scratch = CheckScratch::new();
            for (item, slot) in items.iter().zip(slots.iter_mut()) {
                *slot = Some(guarded_check(item_checker, item, &mut scratch, &work));
            }
        } else {
            let next = AtomicUsize::new(0);
            let items = &items;
            let work = &work;
            let mut worker_results: Vec<(usize, BatchOutcome)> = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let checker = item_checker;
                        s.spawn(move || {
                            let mut scratch = CheckScratch::new();
                            let mut done: Vec<(usize, BatchOutcome)> = Vec::new();
                            loop {
                                let idx = next.fetch_add(1, Ordering::Relaxed);
                                let Some(item) = items.get(idx) else {
                                    break;
                                };
                                done.push((idx, guarded_check(checker, item, &mut scratch, work)));
                            }
                            done
                        })
                    })
                    .collect();
                for h in handles {
                    // Per-item panic isolation makes a worker-level panic
                    // unreachable in practice; if one happens anyway, its
                    // claimed-but-unreported items become faults below
                    // instead of aborting the batch.
                    if let Ok(results) = h.join() {
                        worker_results.extend(results);
                    }
                }
            });
            for (idx, outcome) in worker_results {
                slots[idx] = Some(outcome);
            }
        }

        let wall = start.elapsed();
        let outcomes: Vec<BatchOutcome> = slots
            .into_iter()
            .zip(&items)
            .map(|(slot, item)| {
                slot.unwrap_or_else(|| BatchOutcome {
                    label: item.label.clone(),
                    result: Err(BatchFault::Panic {
                        message: "batch worker terminated unexpectedly".into(),
                    }),
                    elapsed: Duration::ZERO,
                    nodes: item.system.node_count(),
                    events: Vec::new(),
                    dense_closures: 0,
                    sparse_closures: 0,
                    compressed_closures: 0,
                })
            })
            .collect();

        let busy = outcomes.iter().map(|o| o.elapsed).sum();
        let correct = outcomes.iter().filter(|o| o.is_correct()).count();
        let timeouts = outcomes
            .iter()
            .filter(|o| matches!(&o.result, Err(f) if f.is_timeout()))
            .count();
        let faults = outcomes.iter().filter(|o| o.result.is_err()).count() - timeouts;
        let nodes = outcomes.iter().map(|o| o.nodes).sum();
        let stats = BatchStats {
            systems: outcomes.len(),
            correct,
            incorrect: outcomes.len() - correct - faults - timeouts,
            faults,
            timeouts,
            nodes,
            wall,
            busy,
            workers,
        };
        let metrics = collect_metrics(&outcomes);
        BatchReport {
            outcomes,
            stats,
            metrics,
        }
    }
}

fn collect_metrics(outcomes: &[BatchOutcome]) -> BatchMetrics {
    let mut metrics = BatchMetrics::default();
    for o in outcomes {
        metrics.check_ns.record(o.elapsed.as_nanos() as u64);
        metrics.nodes.record(o.nodes as u64);
        if let Ok(verdict) = &o.result {
            let levels = match verdict {
                Verdict::Correct(p) => p.fronts.len().saturating_sub(1),
                Verdict::Incorrect(c) => c.level.saturating_sub(1),
            };
            metrics.levels_completed.record(levels as u64);
        }
        replay(&o.events, &mut metrics.trace);
    }
    metrics
}

/// Runs one item's work under panic isolation. On a panic the scratch is
/// discarded (its buffers may be mid-update) and the item reports a
/// [`BatchFault`] carrying the panic message.
fn guarded_check<F>(
    checker: Checker,
    item: &BatchItem,
    scratch: &mut CheckScratch,
    work: &F,
) -> BatchOutcome
where
    F: Fn(Checker, &BatchItem, &mut CheckScratch) -> (Result<Verdict, BatchFault>, Vec<TraceEvent>)
        + Sync,
{
    let nodes = item.system.node_count();
    let counts0 = scratch.backend_counts();
    let t0 = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| work(checker, item, scratch))) {
        Ok((result, events)) => {
            let counts1 = scratch.backend_counts();
            BatchOutcome {
                label: item.label.clone(),
                result,
                elapsed: t0.elapsed(),
                nodes,
                events,
                dense_closures: counts1.dense - counts0.dense,
                sparse_closures: counts1.sparse - counts0.sparse,
                compressed_closures: counts1.compressed - counts0.compressed,
            }
        }
        Err(payload) => {
            *scratch = CheckScratch::new();
            BatchOutcome {
                label: item.label.clone(),
                result: Err(BatchFault::Panic {
                    message: panic_message(payload),
                }),
                elapsed: t0.elapsed(),
                nodes,
                events: Vec::new(),
                dense_closures: 0,
                sparse_closures: 0,
                compressed_closures: 0,
            }
        }
    }
}

fn timeout_fault(i: Interrupted) -> BatchFault {
    BatchFault::Timeout { level: i.level }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "check panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compc_model::SystemBuilder;

    fn serializable(tag: usize) -> CompositeSystem {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root(format!("T1-{tag}"), s);
        let t2 = b.root(format!("T2-{tag}"), s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        b.build().unwrap()
    }

    fn lost_update() -> CompositeSystem {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let a1 = b.leaf("r1(x)", t1);
        let b1 = b.leaf("w1(y)", t1);
        let a2 = b.leaf("w2(x)", t2);
        let b2 = b.leaf("r2(y)", t2);
        b.conflict(a1, a2).unwrap();
        b.conflict(b1, b2).unwrap();
        b.output_weak(a1, a2).unwrap();
        b.output_weak(b2, b1).unwrap();
        b.build().unwrap()
    }

    fn batch_items() -> Vec<BatchItem> {
        let mut items: Vec<BatchItem> = (0..17)
            .map(|i| BatchItem::new(format!("ok-{i}"), serializable(i)))
            .collect();
        items.insert(5, BatchItem::new("bad", lost_update()));
        items
    }

    #[test]
    fn sequential_batch_reports_everything_in_order() {
        let report = Batch::new().workers(1).check_all(batch_items());
        assert_eq!(report.stats.systems, 18);
        assert_eq!(report.stats.correct, 17);
        assert_eq!(report.stats.incorrect, 1);
        assert_eq!(report.stats.faults, 0);
        assert_eq!(report.stats.workers, 1);
        assert_eq!(report.incorrect_labels(), vec!["bad"]);
        assert_eq!(report.outcomes[5].label, "bad");
        assert_eq!(report.outcomes[0].label, "ok-0");
        assert!(report.stats.nodes > 0);
        assert!(report.stats.throughput() > 0.0);
    }

    #[test]
    fn parallel_batch_matches_sequential_verdicts() {
        let seq = Batch::new().workers(1).check_all(batch_items());
        for workers in [2, 4, 8] {
            let par = Batch::new().workers(workers).check_all(batch_items());
            assert_eq!(par.stats.systems, seq.stats.systems);
            assert_eq!(par.stats.correct, seq.stats.correct);
            let verdicts: Vec<(String, bool)> = par
                .outcomes
                .iter()
                .map(|o| (o.label.clone(), o.is_correct()))
                .collect();
            let expect: Vec<(String, bool)> = seq
                .outcomes
                .iter()
                .map(|o| (o.label.clone(), o.is_correct()))
                .collect();
            assert_eq!(verdicts, expect, "workers={workers}");
        }
    }

    #[test]
    fn inner_jobs_compose_with_outer_workers() {
        let report = Batch::with_options(CheckOptions::new().jobs(2))
            .workers(2)
            .check_all(batch_items());
        assert_eq!(report.stats.incorrect, 1);
        assert_eq!(report.incorrect_labels(), vec!["bad"]);
    }

    #[test]
    fn forgetting_toggle_reaches_the_checker() {
        // The ablation is stricter; on these flat systems verdicts coincide,
        // so just assert it still classifies and counts consistently.
        let report = Batch::with_options(CheckOptions::new().forgetting(false))
            .workers(2)
            .check_all(batch_items());
        assert_eq!(report.stats.systems, 18);
        assert_eq!(
            report.stats.correct + report.stats.incorrect,
            report.stats.systems
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = Batch::new().check_all(Vec::new());
        assert_eq!(report.stats.systems, 0);
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.metrics.check_ns.count(), 0);
    }

    #[test]
    fn stats_display_is_humane() {
        let report = Batch::new().workers(1).check_all(batch_items());
        let line = report.stats.to_string();
        assert!(line.contains("18 systems"), "{line}");
        assert!(line.contains("systems/s"), "{line}");
        assert!(!line.contains("faults"), "no faults, no mention: {line}");
    }

    /// Regression (ISSUE 2): a panicking check must not poison the batch —
    /// the panicking item reports a fault, everything else completes, and
    /// this holds for sequential and parallel pools alike.
    #[test]
    fn panicking_item_does_not_poison_the_batch() {
        for workers in [1, 2, 4] {
            let report = Batch::new().workers(workers).check_all_with(
                batch_items(),
                |checker, item, scratch| {
                    if item.label == "ok-9" {
                        panic!("deliberate test panic in {}", item.label);
                    }
                    checker
                        .try_check(&item.system, &mut CheckCtx::new(scratch))
                        .expect("no deadline set")
                },
            );
            assert_eq!(report.stats.systems, 18, "workers={workers}");
            assert_eq!(report.stats.faults, 1, "workers={workers}");
            assert_eq!(report.stats.correct, 16, "workers={workers}");
            assert_eq!(report.stats.incorrect, 1, "workers={workers}");
            assert_eq!(report.fault_labels(), vec!["ok-9"]);
            assert_eq!(report.incorrect_labels(), vec!["bad"]);
            let faulted = report.outcomes.iter().find(|o| o.label == "ok-9").unwrap();
            let fault = faulted.fault().expect("ok-9 must carry a fault");
            assert!(!fault.is_timeout());
            assert!(
                fault.to_string().contains("deliberate test panic"),
                "fault message preserves the panic payload: {fault}"
            );
            // Input order is preserved around the fault.
            assert_eq!(report.outcomes[5].label, "bad");
            let line = report.stats.to_string();
            assert!(line.contains("1 faults"), "{line}");
        }
    }

    /// Every worker keeps checking after a fault (scratch replacement does
    /// not lose items): many panics, interleaved, all non-panicking items
    /// still complete.
    #[test]
    fn repeated_faults_still_complete_everything_else() {
        let report =
            Batch::new()
                .workers(3)
                .check_all_with(batch_items(), |checker, item, scratch| {
                    if item.label.ends_with('2') {
                        panic!("boom");
                    }
                    checker
                        .try_check(&item.system, &mut CheckCtx::new(scratch))
                        .expect("no deadline set")
                });
        // ok-2 and ok-12 panic.
        assert_eq!(report.stats.faults, 2);
        assert_eq!(report.stats.correct + report.stats.incorrect, 16);
    }

    /// A deadline-exceeding check reports `BatchFault::Timeout` without
    /// poisoning the batch: counted apart from panics, the pool keeps
    /// running, and a generous deadline changes nothing.
    #[test]
    fn zero_deadline_times_out_items_without_poisoning() {
        for workers in [1, 3] {
            let report = Batch::with_options(CheckOptions::new().deadline(Duration::ZERO))
                .workers(workers)
                .check_all(batch_items());
            assert_eq!(report.stats.systems, 18, "workers={workers}");
            assert_eq!(report.stats.timeouts, 18, "workers={workers}");
            assert_eq!(report.stats.faults, 0, "workers={workers}");
            assert_eq!(report.stats.correct + report.stats.incorrect, 0);
            assert_eq!(report.timeout_labels().len(), 18);
            assert!(report.fault_labels().is_empty());
            for o in &report.outcomes {
                assert_eq!(o.fault(), Some(&BatchFault::Timeout { level: 1 }));
            }
            let line = report.stats.to_string();
            assert!(line.contains("18 timeouts"), "{line}");
            assert!(!line.contains("faults"), "{line}");
        }
        let generous = Batch::with_options(CheckOptions::new().deadline(Duration::from_secs(3600)))
            .workers(2)
            .check_all(batch_items());
        assert_eq!(generous.stats.timeouts, 0);
        assert_eq!(generous.stats.correct, 17);
        assert_eq!(generous.stats.incorrect, 1);
    }

    /// With tracing on, a timed-out item keeps its partial event stream:
    /// `check_start` but no `check_end`.
    #[test]
    fn timed_out_items_keep_partial_traces() {
        let report = Batch::with_options(CheckOptions::new().deadline(Duration::ZERO))
            .workers(1)
            .tracing(true)
            .check_all(batch_items());
        for o in &report.outcomes {
            assert!(o.fault().is_some_and(BatchFault::is_timeout));
            assert_eq!(o.events.first().map(|e| e.kind()), Some("check_start"));
            assert!(o.events.iter().all(|e| e.kind() != "check_end"));
        }
    }

    #[test]
    fn tracing_collects_per_item_events_and_aggregates() {
        let report = Batch::new()
            .workers(2)
            .tracing(true)
            .check_all(batch_items());
        for o in &report.outcomes {
            assert!(
                !o.events.is_empty(),
                "{} should carry trace events",
                o.label
            );
            assert_eq!(o.events.first().unwrap().kind(), "check_start");
            assert_eq!(o.events.last().unwrap().kind(), "check_end");
        }
        assert_eq!(report.metrics.trace.checks, 18);
        assert_eq!(report.metrics.trace.correct, 17);
        // Untraced runs carry no events but still fill the histograms.
        let untraced = Batch::new().workers(2).check_all(batch_items());
        assert!(untraced.outcomes.iter().all(|o| o.events.is_empty()));
        assert_eq!(untraced.metrics.trace.checks, 0);
        assert_eq!(untraced.metrics.check_ns.count(), 18);
    }

    #[test]
    fn metrics_histograms_cover_all_items() {
        let report = Batch::new().workers(1).check_all(batch_items());
        assert_eq!(report.metrics.check_ns.count(), 18);
        assert_eq!(report.metrics.nodes.count(), 18);
        assert_eq!(report.metrics.levels_completed.count(), 18);
        assert!(report.metrics.nodes.max() >= 6);
        let text = report.metrics.to_string();
        assert!(text.contains("levels completed"), "{text}");
    }

    /// `workers(0)` means one per core — same normalization as
    /// `CheckOptions::jobs(0)` — and still produces identical verdicts.
    #[test]
    fn auto_workers_normalize_like_checker_jobs() {
        let auto = Batch::new().workers(0).check_all(batch_items());
        let seq = Batch::new().workers(1).check_all(batch_items());
        assert_eq!(auto.stats.workers, effective_jobs(0).min(18));
        assert_eq!(auto.stats.correct, seq.stats.correct);
        assert_eq!(auto.stats.incorrect, seq.stats.incorrect);
    }
}
