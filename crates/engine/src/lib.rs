//! Batch-checking engine: run Comp-C checks over many composite systems
//! concurrently, one pipeline per item, reusing per-worker scratch buffers
//! and reporting aggregate throughput.
//!
//! Every item is a [`BatchJob`]: a label, a size and a source. A worker
//! claims the largest unclaimed job, loads its system from the source,
//! checks it, hands system and outcome to the caller's finishing step
//! (rendering, explanation, oracle cross-check) and drops the system. So
//! loading overlaps checking, only the systems in flight are alive, and the
//! long items start first. [`Batch::pipeline`] is that loop;
//! [`Batch::check_all`] is the case where every system is already built.
//! Outcomes come back in input order whatever the claim order.
//!
//! A batch runs on `workers` threads, the calling thread being one of
//! them, and each check runs sequentially on its worker's thread with one
//! [`compc_core::CheckScratch`] kept across systems; verdicts are
//! independent of the worker count.
//!
//! **Fault isolation:** an item whose load fails reports a
//! [`BatchFault::Invalid`]; an item whose load, check or finishing step
//! panics reports a [`BatchFault::Panic`], its worker replaces its scratch
//! buffers and moves on, and every other item still completes. A batch is
//! never poisoned by one bad system.
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

use compc_core::{CheckCtx, CheckOptions, CheckScratch, Checker, Interrupted, Verdict};
use compc_model::CompositeSystem;
use compc_trace::{replay, Histogram, MemorySink, TraceEvent, TraceStats};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of batch work whose system is already built.
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

/// One unit of [`Batch::pipeline`] work: a labelled source that the
/// pipeline's loader turns into a system on a worker.
#[derive(Clone, Debug)]
pub struct BatchJob<S> {
    /// Where the system comes from (file name, NDJSON line, run id…).
    pub label: String,
    /// The job's expected cost (byte length, node count…). Workers claim
    /// the largest jobs first; equal sizes are claimed in input order.
    pub size: u64,
    /// What the loader reads the system from.
    pub source: S,
}

impl<S> BatchJob<S> {
    /// A labelled job.
    pub fn new(label: impl Into<String>, size: u64, source: S) -> Self {
        BatchJob {
            label: label.into(),
            size,
            source,
        }
    }
}

/// Why an item produced no verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchFault {
    /// The item's loader failed (an unreadable file, a malformed spec, a
    /// model violation); no check ran.
    Invalid {
        /// The loader's error, rendered.
        message: String,
    },
    /// The load, check or finishing step panicked. The message is the
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
    /// Whether this fault is a deadline timeout (as opposed to a panic or
    /// a loader error).
    pub fn is_timeout(&self) -> bool {
        matches!(self, BatchFault::Timeout { .. })
    }
}

impl std::fmt::Display for BatchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchFault::Invalid { message } => write!(f, "invalid input: {message}"),
            BatchFault::Panic { message } => write!(f, "check failed: {message}"),
            BatchFault::Timeout { level } => {
                write!(f, "deadline exceeded before level {level}")
            }
        }
    }
}

impl std::error::Error for BatchFault {}

/// The checked result for one item, in input order.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The item's label.
    pub label: String,
    /// The verdict — or the fault that prevented one.
    pub result: Result<Verdict, BatchFault>,
    /// Wall-clock time the check alone took on its worker (not the load).
    pub elapsed: Duration,
    /// Wall-clock time the loader took (near zero for built items).
    pub load: Duration,
    /// Node count of the system (for throughput normalization; 0 when the
    /// load failed).
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
    /// Reduction levels the check completed: the system's order `N` for a
    /// Comp-C verdict, one less than the failing level otherwise.
    levels_completed: usize,
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
    /// Systems loaded and submitted to the checker (correct + incorrect +
    /// faults + timeouts); items whose load failed count in `invalid`.
    pub systems: usize,
    /// How many were Comp-C.
    pub correct: usize,
    /// How many were not.
    pub incorrect: usize,
    /// How many produced no verdict because their load or check panicked.
    pub faults: usize,
    /// How many produced no verdict because their check exceeded the
    /// [`CheckOptions::deadline`].
    pub timeouts: usize,
    /// How many items' loaders failed.
    pub invalid: usize,
    /// Total nodes across all systems.
    pub nodes: usize,
    /// Wall-clock time for the whole batch, loads included.
    pub wall: Duration,
    /// Summed per-item load and check time across workers (≥ `wall` when
    /// the pool is busy; `busy / wall / workers` approximates utilization).
    pub busy: Duration,
    /// Worker threads used (the calling thread included).
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

    /// Fraction of the pool's capacity that was loading or checking (0..=1).
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
/// flat [`BatchStats`] counters. Items whose load failed are not recorded.
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

/// A configured batch-checking session — the across-systems counterpart of
/// [`compc_core::Checker`].
///
/// `workers = 0` (the default) means one worker per available core;
/// `workers = 1` checks sequentially on the calling thread (no thread
/// spawned). Each worker keeps one `CheckScratch` for its whole lifetime.
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

    /// A batch session whose checks run with the given options — the same
    /// [`CheckOptions`] accepted by [`Checker::with_options`] and
    /// [`compc_core::Session::with_options`].
    pub fn with_options(options: CheckOptions) -> Self {
        Batch {
            options,
            ..Batch::default()
        }
    }

    /// The options this batch runs with.
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

    /// Checks every built item, largest first, returning outcomes in input
    /// order plus aggregate stats. Verdicts are identical to checking each
    /// item alone; a panicking check yields a per-item [`BatchFault`] and
    /// the rest of the batch completes.
    pub fn check_all(&self, items: Vec<BatchItem>) -> BatchReport {
        let jobs = items
            .into_iter()
            .map(|it| BatchJob::new(it.label, it.system.node_count() as u64, it.system))
            .collect();
        self.pipeline(
            jobs,
            Ok::<_, std::convert::Infallible>,
            |_, _, _| (),
            |_, _, _| {},
        )
    }

    /// Runs one pipeline per job on the worker pool: `load` turns the
    /// job's source into a system, the checker checks it, and `finish`
    /// sees the system (or the load error) with the outcome before the
    /// system is dropped; what `finish` returns goes to `on_done`.
    ///
    /// Jobs are claimed largest first. `on_done(input index, outcome,
    /// finished)` runs once per job, in completion order, one call at a
    /// time, before this returns — the hook for streaming progress (a
    /// checkpoint line, output in input order). `finished` is `None` when
    /// the item panicked. The returned outcomes are in input order.
    ///
    /// A load error becomes that item's [`BatchFault::Invalid`] and is not
    /// counted in [`BatchStats::systems`]. A panic in `load`, the check or
    /// `finish` becomes its [`BatchFault::Panic`]; a panic in `on_done`
    /// propagates to the caller. [`CheckOptions::deadline`] bounds the
    /// check only, not the load.
    pub fn pipeline<S, E, R, L, F, D>(
        &self,
        jobs: Vec<BatchJob<S>>,
        load: L,
        finish: F,
        on_done: D,
    ) -> BatchReport
    where
        S: Send,
        E: std::fmt::Display,
        L: Fn(S) -> Result<CompositeSystem, E> + Sync,
        F: Fn(Checker, Result<&CompositeSystem, E>, &BatchOutcome) -> R + Sync,
        D: FnMut(usize, &BatchOutcome, Option<R>) + Send,
    {
        let n = jobs.len();
        let workers = effective_jobs(self.workers).min(n.max(1));
        let checker = Checker::with_options(self.options);
        let tracing = self.tracing;
        let mut queue: Vec<(usize, BatchJob<S>)> = jobs.into_iter().enumerate().collect();
        queue.sort_by_key(|(_, job)| std::cmp::Reverse(job.size));
        let queue = Mutex::new(queue.into_iter());
        let on_done = Mutex::new(on_done);

        let work = || {
            let mut scratch = CheckScratch::new();
            let mut done: Vec<(usize, BatchOutcome)> = Vec::new();
            loop {
                let next = queue.lock().expect("claiming a job cannot panic").next();
                let Some((idx, job)) = next else {
                    break;
                };
                let (outcome, finished) =
                    run_item(checker, tracing, job, &load, &finish, &mut scratch);
                let mut on_done = on_done.lock().expect("the completion hook panicked");
                on_done(idx, &outcome, finished);
                done.push((idx, outcome));
            }
            done
        };

        // The calling thread is the first worker; with one worker nothing
        // is spawned.
        let start = Instant::now();
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut done = work();
            for h in helpers {
                match h.join() {
                    Ok(more) => done.extend(more),
                    Err(payload) => resume_unwind(payload),
                }
            }
            done
        });
        let wall = start.elapsed();

        done.sort_unstable_by_key(|(idx, _)| *idx);
        let outcomes: Vec<BatchOutcome> = done.into_iter().map(|(_, o)| o).collect();
        let stats = collect_stats(&outcomes, wall, workers);
        let metrics = collect_metrics(&outcomes);
        BatchReport {
            outcomes,
            stats,
            metrics,
        }
    }
}

fn collect_stats(outcomes: &[BatchOutcome], wall: Duration, workers: usize) -> BatchStats {
    let mut stats = BatchStats {
        wall,
        workers,
        ..BatchStats::default()
    };
    for o in outcomes {
        stats.busy += o.load + o.elapsed;
        stats.nodes += o.nodes;
        match &o.result {
            Ok(v) if v.is_correct() => stats.correct += 1,
            Ok(_) => stats.incorrect += 1,
            Err(BatchFault::Invalid { .. }) => stats.invalid += 1,
            Err(BatchFault::Panic { .. }) => stats.faults += 1,
            Err(BatchFault::Timeout { .. }) => stats.timeouts += 1,
        }
    }
    stats.systems = outcomes.len() - stats.invalid;
    stats
}

fn collect_metrics(outcomes: &[BatchOutcome]) -> BatchMetrics {
    let mut metrics = BatchMetrics::default();
    for o in outcomes {
        if matches!(o.result, Err(BatchFault::Invalid { .. })) {
            continue;
        }
        metrics.check_ns.record(o.elapsed.as_nanos() as u64);
        metrics.nodes.record(o.nodes as u64);
        if o.result.is_ok() {
            metrics.levels_completed.record(o.levels_completed as u64);
        }
        replay(&o.events, &mut metrics.trace);
    }
    metrics
}

/// One item's pipeline — load, check, finish — under panic isolation. On a
/// panic the scratch is discarded (its buffers may be mid-update) and the
/// item reports a [`BatchFault::Panic`] carrying the panic message.
fn run_item<S, E, R, L, F>(
    checker: Checker,
    tracing: bool,
    job: BatchJob<S>,
    load: &L,
    finish: &F,
    scratch: &mut CheckScratch,
) -> (BatchOutcome, Option<R>)
where
    E: std::fmt::Display,
    L: Fn(S) -> Result<CompositeSystem, E>,
    F: Fn(Checker, Result<&CompositeSystem, E>, &BatchOutcome) -> R,
{
    let BatchJob { label, source, .. } = job;
    let mut outcome = BatchOutcome {
        label,
        result: Err(BatchFault::Panic {
            message: String::new(),
        }),
        elapsed: Duration::ZERO,
        load: Duration::ZERO,
        nodes: 0,
        events: Vec::new(),
        dense_closures: 0,
        sparse_closures: 0,
        compressed_closures: 0,
        levels_completed: 0,
    };
    let finished = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let loaded = load(source);
        outcome.load = t0.elapsed();
        let system = match loaded {
            Ok(system) => system,
            Err(e) => {
                outcome.result = Err(BatchFault::Invalid {
                    message: e.to_string(),
                });
                return finish(checker, Err(e), &outcome);
            }
        };
        outcome.nodes = system.node_count();
        let counts0 = scratch.backend_counts();
        let mut sink = MemorySink::new();
        let mut ctx = CheckCtx::new(scratch);
        if tracing {
            ctx = ctx.traced(&mut sink);
        }
        // A timed-out item keeps its partial trace (check_start and the
        // completed levels, no check_end).
        let t1 = Instant::now();
        outcome.result = checker.try_check(&system, &mut ctx).map_err(timeout_fault);
        outcome.elapsed = t1.elapsed();
        outcome.levels_completed = match &outcome.result {
            Ok(Verdict::Correct(_)) => system.order(),
            Ok(Verdict::Incorrect(c)) => c.level.saturating_sub(1),
            Err(_) => 0,
        };
        outcome.events = sink.events;
        let counts1 = scratch.backend_counts();
        outcome.dense_closures = counts1.dense - counts0.dense;
        outcome.sparse_closures = counts1.sparse - counts0.sparse;
        outcome.compressed_closures = counts1.compressed - counts0.compressed;
        finish(checker, Ok(&system), &outcome)
    }));
    match finished {
        Ok(r) => (outcome, Some(r)),
        Err(payload) => {
            *scratch = CheckScratch::new();
            outcome.result = Err(BatchFault::Panic {
                message: panic_message(payload),
            });
            outcome.events.clear();
            outcome.dense_closures = 0;
            outcome.sparse_closures = 0;
            outcome.compressed_closures = 0;
            (outcome, None)
        }
    }
}

/// Resolves a worker count (`--jobs`, [`Batch::workers`]): `0` means one per
/// available core.
fn effective_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
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

    /// Labels of the systems that were checked and were not Comp-C.
    fn incorrect_labels(report: &BatchReport) -> Vec<&str> {
        report
            .outcomes
            .iter()
            .filter(|o| matches!(&o.result, Ok(v) if !v.is_correct()))
            .map(|o| o.label.as_str())
            .collect()
    }

    #[test]
    fn sequential_batch_reports_everything_in_order() {
        let report = Batch::new().workers(1).check_all(batch_items());
        assert_eq!(report.stats.systems, 18);
        assert_eq!(report.stats.correct, 17);
        assert_eq!(report.stats.incorrect, 1);
        assert_eq!(report.stats.faults, 0);
        assert_eq!(report.stats.workers, 1);
        assert_eq!(incorrect_labels(&report), vec!["bad"]);
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
            assert_eq!(par.stats.workers, workers);
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

    /// Built items as pipeline jobs whose loader panics on the labels
    /// `panics` picks.
    fn panicking_run(workers: usize, panics: impl Fn(&str) -> bool + Sync) -> BatchReport {
        let jobs = batch_items()
            .into_iter()
            .map(|it| BatchJob::new(it.label.clone(), 1, it))
            .collect();
        Batch::new().workers(workers).pipeline(
            jobs,
            |item: BatchItem| {
                if panics(&item.label) {
                    panic!("deliberate test panic in {}", item.label);
                }
                Ok::<_, String>(item.system)
            },
            |_, _, _| (),
            |_, _, _| {},
        )
    }

    /// A panicking item must not poison the batch: it reports a fault,
    /// everything else completes, and this holds for sequential and
    /// parallel pools alike.
    #[test]
    fn panicking_item_does_not_poison_the_batch() {
        for workers in [1, 2, 4] {
            let report = panicking_run(workers, |label| label == "ok-9");
            assert_eq!(report.stats.systems, 18, "workers={workers}");
            assert_eq!(report.stats.faults, 1, "workers={workers}");
            assert_eq!(report.stats.correct, 16, "workers={workers}");
            assert_eq!(report.stats.incorrect, 1, "workers={workers}");
            let faulted: Vec<&str> = report
                .outcomes
                .iter()
                .filter(|o| matches!(o.fault(), Some(BatchFault::Panic { .. })))
                .map(|o| o.label.as_str())
                .collect();
            assert_eq!(faulted, vec!["ok-9"]);
            assert_eq!(incorrect_labels(&report), vec!["bad"]);
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
        // ok-2 and ok-12 panic.
        let report = panicking_run(3, |label| label.ends_with('2'));
        assert_eq!(report.stats.faults, 2);
        assert_eq!(report.stats.correct + report.stats.incorrect, 16);
    }

    /// A panic anywhere in an item's pipeline replaces the worker's
    /// scratch: buffers that may be mid-update are never reused.
    #[test]
    fn a_panicking_loader_replaces_the_worker_scratch() {
        let mut scratch = CheckScratch::new();
        let checker =
            Checker::with_options(CheckOptions::new().backend(compc_core::Backend::Sparse));
        checker
            .try_check(&serializable(0), &mut CheckCtx::new(&mut scratch))
            .expect("no deadline set");
        assert!(scratch.backend_counts().sparse > 0);
        let (outcome, finished) = run_item(
            checker,
            false,
            BatchJob::new("boom", 1, ()),
            &|()| -> Result<CompositeSystem, String> { panic!("loader panic") },
            &|_, _, _| (),
            &mut scratch,
        );
        assert!(finished.is_none());
        assert!(
            matches!(outcome.fault(), Some(BatchFault::Panic { message }) if message == "loader panic")
        );
        assert_eq!(
            scratch.backend_counts(),
            compc_core::BackendCounts::default()
        );
    }

    /// Jobs sized smallest first in input order are claimed in reverse, yet
    /// outcomes come back in input order at every worker count, and the
    /// completion hook sees each item exactly once before the call returns.
    #[test]
    fn claim_order_differs_from_output_order() {
        for workers in [1, 2, 4] {
            let jobs: Vec<BatchJob<BatchItem>> = batch_items()
                .into_iter()
                .enumerate()
                .map(|(i, it)| BatchJob::new(it.label.clone(), i as u64, it))
                .collect();
            let mut completed: Vec<usize> = Vec::new();
            let report = Batch::new().workers(workers).pipeline(
                jobs,
                |it: BatchItem| Ok::<_, String>(it.system),
                |_, _, o| o.label.clone(),
                |idx, o, finished| {
                    assert_eq!(finished.as_deref(), Some(o.label.as_str()));
                    completed.push(idx);
                },
            );
            let labels: Vec<&str> = report.outcomes.iter().map(|o| o.label.as_str()).collect();
            let expect: Vec<String> = batch_items().into_iter().map(|it| it.label).collect();
            assert_eq!(labels, expect, "workers={workers}");
            let mut seen = completed.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..18).collect::<Vec<_>>(), "workers={workers}");
            if workers == 1 {
                // One inline worker claims (and completes) largest first.
                assert_eq!(completed, (0..18).rev().collect::<Vec<_>>());
            }
            assert_eq!(report.stats.workers, workers);
        }
    }

    /// A loader error is that item's invalid outcome: the finishing step
    /// gets the typed error, the item is not counted as a checked system,
    /// and the rest of the batch is unaffected.
    #[test]
    fn a_loader_error_becomes_an_invalid_outcome() {
        for workers in [1, 2] {
            let jobs: Vec<BatchJob<BatchItem>> = batch_items()
                .into_iter()
                .map(|it| BatchJob::new(it.label.clone(), 1, it))
                .collect();
            let mut invalid_seen = Vec::new();
            let report = Batch::new().workers(workers).pipeline(
                jobs,
                |it: BatchItem| {
                    if it.label == "ok-3" {
                        Err(format!("{} is unreadable", it.label))
                    } else {
                        Ok(it.system)
                    }
                },
                |_, system, _| system.err(),
                |_, o, finished| {
                    if let Some(Some(e)) = finished {
                        invalid_seen.push((o.label.clone(), e));
                    }
                },
            );
            assert_eq!(
                invalid_seen,
                vec![("ok-3".to_string(), "ok-3 is unreadable".to_string())]
            );
            let o = &report.outcomes[3];
            assert_eq!(
                o.fault(),
                Some(&BatchFault::Invalid {
                    message: "ok-3 is unreadable".into()
                })
            );
            assert_eq!(o.nodes, 0);
            assert_eq!(report.stats.invalid, 1);
            assert_eq!(report.stats.systems, 17);
            assert_eq!(report.stats.correct, 16);
            assert_eq!(report.stats.incorrect, 1);
            assert_eq!(report.stats.faults, 0);
            assert_eq!(report.metrics.check_ns.count(), 17);
        }
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

    #[test]
    fn effective_jobs_resolves_auto() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    /// `workers(0)` means one per core — same normalization as
    /// `compc-check --jobs 0` — and still produces identical verdicts.
    #[test]
    fn auto_workers_normalize_like_checker_jobs() {
        let auto = Batch::new().workers(0).check_all(batch_items());
        let seq = Batch::new().workers(1).check_all(batch_items());
        assert_eq!(auto.stats.workers, effective_jobs(0).min(18));
        assert_eq!(auto.stats.correct, seq.stats.correct);
        assert_eq!(auto.stats.incorrect, seq.stats.incorrect);
    }
}
