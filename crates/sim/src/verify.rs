//! Batch verification of simulator runs.
//!
//! A sweep produces many [`SimReport`]s; verifying them is embarrassingly
//! parallel. [`Verifier`] exports each committed execution to a
//! [`compc_model::CompositeSystem`] and checks it on the
//! [`compc_engine::Batch`] worker pool: each worker exports, checks,
//! explains and cross-checks the runs it claims, so scratch buffers are
//! reused across runs, only the systems in flight are alive, and the sweep
//! scales with cores. Runs whose executions violate
//! Definition 3/4 (a component ignored an obligation) are flagged *before*
//! reduction as model violations, exactly like the sequential path; a run
//! whose check panics is reported as a per-run [`RunVerdict::Fault`] without
//! aborting the sweep. With [`Verifier::explain`] every non-Comp-C run also
//! carries a rendered [`Explanation`] of its failing reduction.
//!
//! [`Verifier::chaos`] is the robustness harness: it sweeps a fault-injected
//! scenario across seeds and asserts the paper's recovery invariant — every
//! faulted run still exports a valid composite schedule of its *committed*
//! work, and that schedule is Comp-C. Injected fault events flow into the
//! sweep's trace aggregates so CI can assert each fault kind actually fired.

use crate::engine::{Engine, SimMetrics, SimReport};
use crate::export::ExportError;
use crate::faults::FaultStats;
use compc_core::{CheckOptions, Checker, Explanation};
use compc_engine::{Batch, BatchFault, BatchJob, BatchMetrics, BatchOutcome, BatchStats};
use compc_model::CompositeSystem;
use compc_trace::TraceSink;

/// The verification outcome of one simulated run.
#[derive(Debug)]
pub enum RunVerdict {
    /// The execution exported cleanly and was checked.
    Checked(compc_core::Verdict),
    /// The committed execution violates the model (Definition 3/4).
    ModelViolation(ExportError),
    /// The check itself panicked or exceeded the [`CheckOptions::deadline`];
    /// the rest of the sweep still completed.
    Fault(BatchFault),
}

impl RunVerdict {
    /// Whether the run was proven Comp-C.
    pub fn is_comp_c(&self) -> bool {
        matches!(self, RunVerdict::Checked(v) if v.is_correct())
    }
}

/// What a run's worker hands back besides the batch outcome.
enum Finished {
    /// The export failed: the committed execution violates the model.
    ModelViolation(ExportError),
    /// The run was checked (or timed out): its explanation, and its
    /// oracle cross-check — `Some(None)` when over the node cap,
    /// `Some(Some(agrees))` when decided.
    Checked {
        explanation: Option<Explanation>,
        oracle: Option<Option<bool>>,
    },
}

/// Batch verification results, in input order.
#[derive(Debug)]
pub struct VerifyReport {
    /// One verdict per input report.
    pub runs: Vec<RunVerdict>,
    /// Runs proven Comp-C.
    pub comp_c: usize,
    /// Runs with a reduction counterexample.
    pub not_comp_c: usize,
    /// Runs that violated the model before reduction.
    pub violations: usize,
    /// Runs whose check faulted (panicked).
    pub faults: usize,
    /// Runs whose check exceeded the [`CheckOptions::deadline`].
    pub timeouts: usize,
    /// Simulator counters summed across the input runs: commits, aborts by
    /// reason, and — crucially for robustness audits — `failed`, the
    /// transactions that exhausted [`crate::SimConfig::max_attempts`] and
    /// gave up (distinct from any abort count).
    pub sim_metrics: SimMetrics,
    /// Injected-fault counters summed across the input runs.
    pub fault_stats: FaultStats,
    /// Pool statistics for the checked (exported) runs; model violations
    /// count in its `invalid`.
    pub stats: BatchStats,
    /// Latency/size/depth distributions for the checked runs (and per-level
    /// trace aggregates when [`Verifier::tracing`] is on).
    pub metrics: BatchMetrics,
    /// `(run index, explanation)` for each non-Comp-C checked run, when
    /// [`Verifier::explain`] is on.
    pub explanations: Vec<(usize, Explanation)>,
    /// Checked runs additionally cross-checked against the brute-force
    /// oracle, when [`CheckOptions::oracle`] is on.
    pub oracle_checked: usize,
    /// Checked runs skipped by the oracle (over its node cap).
    pub oracle_skipped: usize,
    /// Run indices where the engine and the oracle disagreed — an engine
    /// bug; empty on a healthy build.
    pub oracle_disagreements: Vec<usize>,
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs: {} Comp-C, {} not Comp-C, {} model violations, {} faults, {} timeouts",
            self.runs.len(),
            self.comp_c,
            self.not_comp_c,
            self.violations,
            self.faults,
            self.timeouts,
        )?;
        let m = &self.sim_metrics;
        write!(
            f,
            "\nsimulated: {} committed, {} gave up after max attempts, {} aborted attempts",
            m.committed, m.failed, m.aborts
        )?;
        if m.aborts > 0 {
            write!(
                f,
                " ({} deadlock, {} wound, {} protocol, {} fault)",
                m.deadlock_aborts, m.wound_aborts, m.protocol_aborts, m.fault_aborts
            )?;
        }
        if self.oracle_checked + self.oracle_skipped > 0 {
            write!(
                f,
                "\noracle: {} cross-checked, {} skipped, {} disagreement(s)",
                self.oracle_checked,
                self.oracle_skipped,
                self.oracle_disagreements.len()
            )?;
        }
        if self.fault_stats.total() > 0 {
            let s = &self.fault_stats;
            write!(
                f,
                "\nfaults injected: {} (crash={}, restart={}, op_fail={}, stall={}, \
                 drop_release={}, lease_expiry={})",
                s.total(),
                s.crashes,
                s.restarts,
                s.op_failures,
                s.stalls,
                s.dropped_releases,
                s.lease_expiries
            )?;
        }
        Ok(())
    }
}

/// The outcome of a [`Verifier::chaos`] sweep: the underlying verification
/// plus the pass/fail of the recovery invariant.
#[derive(Debug)]
pub struct ChaosReport {
    /// Verification of every faulted run, in seed order.
    pub verify: VerifyReport,
    /// The swept seeds whose runs failed the invariant (export error, a
    /// non-Comp-C verdict, or a checker fault).
    pub failing_seeds: Vec<u64>,
    /// The recovery invariant: every faulted run exported a valid composite
    /// schedule of its committed work, and every schedule checked Comp-C.
    pub invariant_holds: bool,
}

/// A configured batch verifier for simulator sweeps.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verifier {
    options: CheckOptions,
    workers: usize,
    tracing: bool,
    explain: bool,
}

impl Verifier {
    /// A verifier with default settings (auto workers, default
    /// [`CheckOptions`]).
    pub fn new() -> Self {
        Verifier::default()
    }

    /// A verifier whose every check runs with the given options — the same
    /// [`CheckOptions`] accepted by [`compc_engine::Batch::with_options`].
    /// [`CheckOptions::oracle`] turns on the brute-force cross-check here.
    pub fn with_options(options: CheckOptions) -> Self {
        Verifier {
            options,
            ..Verifier::default()
        }
    }

    /// The per-check options this verifier runs with.
    pub fn options(&self) -> CheckOptions {
        self.options
    }

    /// Worker threads distributing runs: `0` auto, `1` sequential.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Record structured reduction trace events for every checked run and
    /// aggregate them into [`VerifyReport::metrics`].
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Render an [`Explanation`] for every run that checks as not Comp-C.
    pub fn explain(mut self, on: bool) -> Self {
        self.explain = on;
        self
    }

    /// Verifies every report: export, check, classify — one pipeline per
    /// run on the batch pool, so each run is exported, checked, explained
    /// and oracle-checked by the worker that claimed it and its system is
    /// dropped there. Order and verdicts are identical to verifying each
    /// run alone, and a run whose export or check faults does not stop the
    /// others.
    pub fn verify<'r>(&self, reports: impl IntoIterator<Item = &'r SimReport>) -> VerifyReport {
        let mut jobs = Vec::new();
        let mut sim_metrics = SimMetrics::default();
        let mut fault_stats = FaultStats::default();
        let mut fault_trace: Vec<compc_trace::TraceEvent> = Vec::new();
        for (idx, report) in reports.into_iter().enumerate() {
            sim_metrics.merge(&report.metrics);
            fault_stats.merge(&report.fault_stats);
            fault_trace.extend(report.faults.iter().map(|e| e.to_trace()));
            let size = report.logs.iter().map(Vec::len).sum::<usize>() as u64;
            jobs.push(BatchJob::new(format!("run-{idx}"), size, report));
        }
        let mut finished: Vec<Option<Finished>> = Vec::new();
        finished.resize_with(jobs.len(), || None);
        let batch_report = Batch::with_options(self.options)
            .workers(self.workers)
            .tracing(self.tracing)
            .pipeline(
                jobs,
                |report: &SimReport| report.export_system(),
                |checker, system, outcome| self.finish(checker, system, outcome),
                |idx, _, done| finished[idx] = done,
            );
        let stats = batch_report.stats;
        let mut metrics = batch_report.metrics;
        // Injected-fault events share the sweep's trace aggregates, so one
        // stream answers both "what did the checker do" and "what went
        // wrong in the execution".
        for ev in &fault_trace {
            metrics.trace.emit(ev);
        }
        let mut explanations = Vec::new();
        let mut oracle_checked = 0usize;
        let mut oracle_skipped = 0usize;
        let mut oracle_disagreements = Vec::new();
        let mut runs = Vec::with_capacity(finished.len());
        for (idx, (outcome, finished)) in
            batch_report.outcomes.into_iter().zip(finished).enumerate()
        {
            let (explanation, oracle) = match finished {
                Some(Finished::ModelViolation(e)) => {
                    runs.push(RunVerdict::ModelViolation(e));
                    continue;
                }
                Some(Finished::Checked {
                    explanation,
                    oracle,
                }) => (explanation, oracle),
                None => (None, None),
            };
            explanations.extend(explanation.map(|ex| (idx, ex)));
            match oracle {
                None => {}
                Some(None) => oracle_skipped += 1,
                Some(Some(agrees)) => {
                    oracle_checked += 1;
                    if !agrees {
                        oracle_disagreements.push(idx);
                    }
                }
            }
            runs.push(match outcome.result {
                Ok(v) => RunVerdict::Checked(v),
                Err(fault) => RunVerdict::Fault(fault),
            });
        }
        let comp_c = runs.iter().filter(|r| r.is_comp_c()).count();
        let violations = runs
            .iter()
            .filter(|r| matches!(r, RunVerdict::ModelViolation(_)))
            .count();
        let timeouts = runs
            .iter()
            .filter(|r| matches!(r, RunVerdict::Fault(f) if f.is_timeout()))
            .count();
        let faults = runs
            .iter()
            .filter(|r| matches!(r, RunVerdict::Fault(_)))
            .count()
            - timeouts;
        VerifyReport {
            not_comp_c: runs.len() - comp_c - violations - faults - timeouts,
            comp_c,
            violations,
            faults,
            timeouts,
            sim_metrics,
            fault_stats,
            runs,
            stats,
            metrics,
            explanations,
            oracle_checked,
            oracle_skipped,
            oracle_disagreements,
        }
    }

    /// A run's worker-side finish: its explanation and oracle cross-check,
    /// computed while the exported system is alive.
    fn finish(
        &self,
        checker: Checker,
        system: Result<&CompositeSystem, ExportError>,
        outcome: &BatchOutcome,
    ) -> Finished {
        let system = match system {
            Ok(system) => system,
            Err(e) => return Finished::ModelViolation(e),
        };
        let Ok(verdict) = &outcome.result else {
            return Finished::Checked {
                explanation: None,
                oracle: None,
            };
        };
        let explanation = match (self.explain, verdict.counterexample()) {
            (true, Some(cex)) => Some(cex.explain_with(system, checker.options())),
            _ => None,
        };
        let oracle = self.options.oracle.then(|| {
            (system.node_count() <= compc_oracle::RECOMMENDED_NODE_CAP)
                .then(|| compc_oracle::decide(system).accepted() == verdict.is_correct())
        });
        Finished::Checked {
            explanation,
            oracle,
        }
    }

    /// Sweeps a fault-injected scenario across `seeds` and verifies the
    /// recovery invariant on every run: the committed work still exports a
    /// valid composite schedule, and that schedule is Comp-C. `scenario`
    /// builds the engine for each seed — typically wiring the seed into
    /// both [`crate::SimConfig`] and a [`crate::FaultPlan`] so the sweep is
    /// reproducible run by run. Injected fault events land in the report's
    /// trace aggregates ([`BatchMetrics::trace`]), so callers can assert
    /// each fault kind actually fired.
    pub fn chaos<F>(&self, seeds: impl IntoIterator<Item = u64>, mut scenario: F) -> ChaosReport
    where
        F: FnMut(u64) -> Engine,
    {
        let seeds: Vec<u64> = seeds.into_iter().collect();
        let reports: Vec<SimReport> = seeds.iter().map(|&s| scenario(s).run()).collect();
        let verify = self.verify(&reports);
        let failing_seeds: Vec<u64> = verify
            .runs
            .iter()
            .zip(&seeds)
            .filter(|(r, _)| !r.is_comp_c())
            .map(|(_, &s)| s)
            .collect();
        ChaosReport {
            invariant_holds: failing_seeds.is_empty(),
            failing_seeds,
            verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, LockScope, Protocol, SimConfig, Topology, TxNode, TxTemplate};
    use compc_model::{CommutativityTable, ItemId, OpSpec};

    fn run_once(protocol: Protocol, seed: u64, clients: usize) -> SimReport {
        let mut topo = Topology::new();
        let db = topo.add("db", protocol, CommutativityTable::read_write());
        let templates: Vec<TxTemplate> = (0..clients)
            .map(|i| TxTemplate {
                name: format!("w{i}"),
                home: db,
                body: vec![
                    TxNode::data(OpSpec::read(ItemId(0))),
                    TxNode::data(OpSpec::write(ItemId(0))),
                ],
            })
            .collect();
        Engine::new(
            topo,
            templates,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .run()
    }

    #[test]
    fn locked_runs_all_verify_comp_c() {
        let reports: Vec<SimReport> = (0..6)
            .map(|seed| {
                run_once(
                    Protocol::TwoPhase {
                        scope: LockScope::Composite,
                    },
                    seed,
                    4,
                )
            })
            .collect();
        let report = Verifier::new().workers(2).verify(&reports);
        assert_eq!(report.runs.len(), 6);
        assert_eq!(report.comp_c, 6, "2PL runs must be Comp-C");
        assert_eq!(report.not_comp_c + report.violations + report.faults, 0);
        assert_eq!(report.stats.systems, 6);
        assert_eq!(report.metrics.check_ns.count(), 6);
    }

    #[test]
    fn parallel_verification_matches_sequential() {
        let reports: Vec<SimReport> = (0..8)
            .map(|seed| run_once(Protocol::None, seed, 5))
            .collect();
        let seq = Verifier::new().workers(1).verify(&reports);
        let par = Verifier::with_options(CheckOptions::new().jobs(2))
            .workers(4)
            .verify(&reports);
        assert_eq!(seq.runs.len(), par.runs.len());
        for (a, b) in seq.runs.iter().zip(par.runs.iter()) {
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "classification must not depend on worker count"
            );
            assert_eq!(a.is_comp_c(), b.is_comp_c());
        }
        assert_eq!(seq.comp_c, par.comp_c);
        assert_eq!(seq.violations, par.violations);
    }

    #[test]
    fn chaos_sweep_holds_recovery_invariant_under_2pl() {
        use crate::FaultPlan;
        let report = Verifier::new().workers(2).chaos(0..12, |seed| {
            let mut topo = Topology::new();
            let db = topo.add(
                "db",
                Protocol::TwoPhase {
                    scope: LockScope::Composite,
                },
                CommutativityTable::read_write(),
            );
            let templates: Vec<TxTemplate> = (0..4)
                .map(|i| TxTemplate {
                    name: format!("w{i}"),
                    home: db,
                    body: vec![
                        TxNode::data(OpSpec::read(ItemId(i))),
                        TxNode::data(OpSpec::write(ItemId(0))),
                    ],
                })
                .collect();
            Engine::new(
                topo,
                templates,
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .faults(FaultPlan::random(seed, 1, 120))
        });
        assert!(
            report.invariant_holds,
            "failing seeds: {:?}\n{}",
            report.failing_seeds, report.verify
        );
        assert_eq!(report.verify.runs.len(), 12);
        // The sweep provably injected faults, visible both in the counters
        // and in the shared trace aggregates.
        assert!(report.verify.fault_stats.total() > 0);
        assert!(report.verify.metrics.trace.faults_injected > 0);
        assert_eq!(
            report.verify.fault_stats.total(),
            report.verify.metrics.trace.faults_injected
        );
        // The summary narrates robustness counters.
        let text = report.verify.to_string();
        assert!(text.contains("Comp-C"), "{text}");
        assert!(text.contains("gave up after max attempts"), "{text}");
        assert!(text.contains("faults injected"), "{text}");
    }

    #[test]
    fn oracle_cross_check_agrees_on_simulated_sweeps() {
        // Unprotected runs mix Comp-C and non-Comp-C verdicts; the
        // brute-force oracle must agree with the engine on every exported
        // execution (they are small enough to never skip).
        let reports: Vec<SimReport> = (0..10)
            .map(|seed| run_once(Protocol::None, seed, 4))
            .collect();
        let report = Verifier::with_options(CheckOptions::new().oracle(true))
            .workers(2)
            .verify(&reports);
        let checked = report.comp_c + report.not_comp_c;
        assert!(checked > 0);
        assert_eq!(report.oracle_checked, checked);
        assert_eq!(report.oracle_skipped, 0);
        assert!(
            report.oracle_disagreements.is_empty(),
            "engine/oracle disagreement on runs {:?}",
            report.oracle_disagreements
        );
        assert!(report.to_string().contains("oracle: "), "{report}");
        // Off by default: no counters, no summary line.
        let off = Verifier::new().workers(2).verify(&reports);
        assert_eq!(off.oracle_checked + off.oracle_skipped, 0);
        assert!(!off.to_string().contains("oracle: "));
    }

    #[test]
    fn verify_deadline_times_out_runs_without_poisoning_sweep() {
        let reports: Vec<SimReport> = (0..4)
            .map(|seed| {
                run_once(
                    Protocol::TwoPhase {
                        scope: LockScope::Composite,
                    },
                    seed,
                    4,
                )
            })
            .collect();
        let report =
            Verifier::with_options(CheckOptions::new().deadline(std::time::Duration::ZERO))
                .workers(2)
                .verify(&reports);
        assert_eq!(report.timeouts, 4);
        assert_eq!(report.faults, 0);
        assert_eq!(report.comp_c + report.not_comp_c, 0);
        assert!(report.to_string().contains("4 timeouts"));
    }

    #[test]
    fn tracing_and_explanations_cover_unlocked_sweeps() {
        // Unprotected concurrent read-modify-write runs produce a mix of
        // Comp-C and non-Comp-C executions across seeds; with tracing and
        // explanations on, every checked run aggregates into the trace
        // stats and every non-Comp-C run gets a story.
        let reports: Vec<SimReport> = (0..10)
            .map(|seed| run_once(Protocol::None, seed, 5))
            .collect();
        let report = Verifier::new()
            .workers(2)
            .tracing(true)
            .explain(true)
            .verify(&reports);
        let checked = report.comp_c + report.not_comp_c;
        assert_eq!(report.metrics.trace.checks, checked as u64);
        assert_eq!(report.explanations.len(), report.not_comp_c);
        for (idx, ex) in &report.explanations {
            assert!(matches!(report.runs[*idx], RunVerdict::Checked(_)));
            assert!(!report.runs[*idx].is_comp_c());
            assert!(ex.level >= 1);
            assert!(
                ex.story.iter().any(|l| l.contains("FAILED")),
                "run {idx} explanation must narrate the failure: {:?}",
                ex.story
            );
        }
    }
}
