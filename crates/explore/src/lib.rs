//! Exhaustive exploration of small composite-system programs.
//!
//! Random fuzzing (`compc-fuzz`) samples the schedule space; this crate
//! *covers* it. [`enumerate_skeletons`] walks every bounded program
//! skeleton (component topology, transaction forest, read/write leaf
//! accesses); for each schedule of each skeleton, the execution space is
//! enumerated **one representative per Mazurkiewicz trace class** with a
//! sleep-set DFS ([`trace::ScheduleProgram::trace_classes`]); the
//! per-schedule representatives are combined into composite schedules; and
//! every composite runs through the full differential stack —
//!
//! * the reduction engine on all three closure backends, demanding
//!   **bit-identical** verdicts (full `Debug` structure),
//! * the brute-force definitional oracle ([`compc_oracle::decide`]),
//!   including failing level/phase agreement,
//! * the incremental [`compc::session::SpecSession`] replay, bit-identical
//!   after every appended fragment,
//!
//! via [`compc_fuzz::diff::differential_check`]. A `naive` mode
//! additionally enumerates **all** interleavings and (a) cross-checks the
//! pruned class count against grouping the naive enumeration by trace key,
//! and (b) asserts the engine verdict is *constant within each trace
//! class* — the empirical soundness gate for the pruning itself (the
//! paper's forgetting semantics makes commuted non-conflicting pairs
//! unobservable; this gate verifies that claim on every explored program
//! instead of assuming it). Any disagreement is minimized with the
//! fuzzer's shrinker and written as a corpus-format reproducer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod skeleton;
pub mod trace;

pub use skeleton::{enumerate_skeletons, Bounds, LeafSkel, Shape, Skeleton};
pub use trace::ScheduleProgram;

use compc::spec::SystemSpec;
use compc_core::{check, CheckOptions, Checker};
use compc_fuzz::diff::{differential_check, DiffConfig};
use compc_fuzz::{corpus, shrink, Disagreement};
use compc_model::{CompositeSystem, ModelError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What to explore and how hard.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Skeleton bounds.
    pub bounds: Bounds,
    /// Also enumerate all interleavings and run the counting/constancy
    /// gates (cost: the full naive product instead of one representative
    /// per class).
    pub naive: bool,
    /// Wall-clock budget in seconds; `0` means no limit (the same
    /// sentinel `compc-fuzz` uses). An exhausted budget stops the sweep
    /// with `completed = false`.
    pub seconds: u64,
    /// Node cap above which the exponential oracle is skipped (bounded
    /// programs stay far below [`compc_oracle::RECOMMENDED_NODE_CAP`]).
    pub max_oracle_nodes: usize,
    /// Where to write shrunk reproducers (`None` = don't write).
    pub repro_dir: Option<PathBuf>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            bounds: Bounds::default(),
            naive: false,
            seconds: 0,
            max_oracle_nodes: compc_oracle::RECOMMENDED_NODE_CAP,
            repro_dir: None,
        }
    }
}

/// Counters and findings of one sweep.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Skeletons enumerated (including over-budget ones).
    pub skeletons: u64,
    /// Skeletons skipped for exceeding [`Bounds::max_nodes`].
    pub over_budget: u64,
    /// Composite trace-class representatives fully differentially checked.
    pub composites: u64,
    /// Composite order combinations rejected as infeasible executions
    /// (Definition 3 axiom 1: an upper schedule's propagated input order
    /// contradicts a lower schedule's chosen direction for a conflicting
    /// pair). Not errors — not every point of the per-schedule class
    /// product is an execution.
    pub infeasible: u64,
    /// Per-schedule trace classes, summed over all skeleton schedules.
    pub schedule_classes: u64,
    /// Naive mode: per-schedule interleavings enumerated (summed).
    pub naive_linearizations: u64,
    /// Naive mode: composite interleavings checked for verdict constancy.
    pub naive_composites: u64,
    /// Representatives the engine accepted.
    pub correct: u64,
    /// Representatives the engine rejected.
    pub incorrect: u64,
    /// Representatives additionally decided by the oracle.
    pub oracle_checked: u64,
    /// Session replays that exercised more than one fragment.
    pub session_multi: u64,
    /// Whether the sweep covered the whole space (false = time budget
    /// exhausted first).
    pub completed: bool,
    /// Violations of the pruning/counting gates (distinct-class check,
    /// naive/pruned agreement, within-class verdict constancy).
    pub gate_failures: Vec<String>,
    /// Differential disagreements, shrunk (same shape the fuzzer emits).
    pub disagreements: Vec<Disagreement>,
}

impl ExploreReport {
    /// Whether the sweep finished with every gate and cross-check clean.
    pub fn clean(&self) -> bool {
        self.completed && self.gate_failures.is_empty() && self.disagreements.is_empty()
    }

    /// The human-readable summary the CLI prints and commits as the
    /// `docs/results/` artifact.
    pub fn render(&self, cfg: &ExploreConfig) -> String {
        let b = &cfg.bounds;
        let shapes: Vec<String> = b.shapes.iter().map(Shape::label).collect();
        let mut out = String::new();
        out.push_str(&format!(
            "compc-explore sweep\n\
             bounds: txns<={} ops<={} subtxs<={} items<={} nodes<={} shapes={}\n\
             skeletons: {} enumerated, {} over node budget\n\
             trace classes: {} per-schedule, {} composite representatives checked, \
             {} infeasible combinations\n",
            b.max_txns,
            b.max_ops,
            b.max_subtxs,
            b.max_items,
            b.max_nodes,
            shapes.join(","),
            self.skeletons,
            self.over_budget,
            self.schedule_classes,
            self.composites,
            self.infeasible,
        ));
        if cfg.naive {
            out.push_str(&format!(
                "naive cross-check: {} per-schedule interleavings, {} composite \
                 interleavings, counts agree with sleep-set classes\n",
                self.naive_linearizations, self.naive_composites,
            ));
        }
        out.push_str(&format!(
            "verdicts: {} correct / {} incorrect | oracle {} | multi-fragment replays {}\n",
            self.correct, self.incorrect, self.oracle_checked, self.session_multi,
        ));
        for g in &self.gate_failures {
            out.push_str(&format!("GATE FAILURE: {g}\n"));
        }
        for d in &self.disagreements {
            out.push_str(&format!(
                "DISAGREEMENT [{}] {}: {} (shrunk {} -> {} nodes)\n",
                d.kind, d.label, d.detail, d.nodes_before, d.nodes_after
            ));
        }
        out.push_str(if !self.completed {
            "INCOMPLETE: time budget exhausted before the bounds were covered\n"
        } else if self.clean() {
            "clean sweep: all trace-inequivalent schedules up to the bounds agree\n"
        } else {
            "sweep completed WITH FINDINGS\n"
        });
        out
    }
}

/// Engine verdict summary used for the within-class constancy gate:
/// acceptance plus, when rejecting, the failing level and phase.
type VerdictSummary = (bool, Option<(usize, String)>);

fn summarize(sys: &CompositeSystem) -> VerdictSummary {
    let v = check(sys);
    (
        v.is_correct(),
        v.counterexample()
            .map(|c| (c.level, format!("{:?}", c.phase))),
    )
}

/// Runs the exhaustive sweep with the real engine stack.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    explore_with_engine(cfg, None)
}

/// Like [`explore`], but when `engine` is given, the supplied acceptance
/// function replaces the engine stack and is compared against the oracle
/// alone on every representative. This is the mutation-catch hook: tests
/// inject a deliberately broken engine (a dropped conflict edge, the
/// no-forgetting ablation) and assert the sweep reports disagreements —
/// i.e. that exhaustive exploration has the power the clean artifact
/// claims. Naive constancy gates are skipped in this mode (the mutant's
/// verdict need not be trace-invariant).
pub fn explore_with_engine(
    cfg: &ExploreConfig,
    engine: Option<&dyn Fn(&CompositeSystem) -> bool>,
) -> ExploreReport {
    let start = Instant::now();
    let mut report = ExploreReport {
        completed: true,
        ..ExploreReport::default()
    };
    let out_of_time = || cfg.seconds != 0 && start.elapsed().as_secs() >= cfg.seconds;
    'skeletons: for (ordinal, sk) in enumerate_skeletons(&cfg.bounds).iter().enumerate() {
        report.skeletons += 1;
        if sk.node_count() > cfg.bounds.max_nodes {
            report.over_budget += 1;
            continue;
        }
        if out_of_time() {
            report.completed = false;
            break;
        }
        let label = format!("{}-{}", sk.shape.label(), ordinal);
        let programs = sk.programs();

        // Per-schedule classes + the distinct-key gate.
        let mut classes: Vec<Vec<trace::Linearization>> = Vec::with_capacity(programs.len());
        for (si, p) in programs.iter().enumerate() {
            let cs = p.trace_classes();
            let keys: std::collections::BTreeSet<trace::TraceKey> =
                cs.iter().map(|l| p.trace_key(l)).collect();
            if keys.len() != cs.len() {
                report.gate_failures.push(format!(
                    "{label} schedule {si}: sleep-set enumeration visited {} runs \
                     but only {} distinct trace classes",
                    cs.len(),
                    keys.len()
                ));
                continue 'skeletons;
            }
            report.schedule_classes += cs.len() as u64;
            classes.push(cs);
        }

        // Pruned pass: the product of per-schedule representatives, each
        // fully differentially checked. Remember each composite class's
        // verdict summary (`None` = infeasible) for the naive constancy
        // gate.
        let mut rep_summaries: BTreeMap<Vec<usize>, Option<VerdictSummary>> = BTreeMap::new();
        let radix: Vec<usize> = classes.iter().map(Vec::len).collect();
        let mut idx = vec![0usize; radix.len()];
        loop {
            let orders: Vec<trace::Linearization> = idx
                .iter()
                .enumerate()
                .map(|(s, &i)| classes[s][i].clone())
                .collect();
            let rep_label = format!("{label}-c{}", join_idx(&idx));
            match sk.realize(&orders) {
                Ok(sys) => {
                    report.composites += 1;
                    if check_representative(cfg, engine, &sys, &rep_label, &mut report) {
                        rep_summaries.insert(idx.clone(), Some(summarize(&sys)));
                    }
                }
                // Not every point of the class product is an execution:
                // the upper schedule's subtx order propagates (Def. 4.7)
                // into the lower schedule's input order, which binds the
                // direction of conflicting pairs there (Def. 3 axiom 1).
                // Both directions involved are dependence edges, so
                // feasibility is constant per composite class — gated
                // empirically by the naive pass below.
                Err(e) if infeasible(&e) => {
                    report.infeasible += 1;
                    rep_summaries.insert(idx.clone(), None);
                }
                Err(e) => report
                    .gate_failures
                    .push(format!("{rep_label}: realization failed to build: {e}")),
            }
            if out_of_time() {
                report.completed = false;
                break 'skeletons;
            }
            if !advance(&mut idx, &radix) {
                break;
            }
        }

        // Naive pass: enumerate ALL interleavings, re-derive the class
        // structure by trace key (counting gate), and demand the verdict
        // is constant within every composite class (constancy gate).
        if cfg.naive && engine.is_none() {
            let mut lin_classes: Vec<Vec<(trace::Linearization, usize)>> = Vec::new();
            let mut naive_ok = true;
            for (si, p) in programs.iter().enumerate() {
                let key_to_class: BTreeMap<trace::TraceKey, usize> = classes[si]
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (p.trace_key(l), i))
                    .collect();
                let lins = p.linearizations();
                report.naive_linearizations += lins.len() as u64;
                let mut seen = vec![0u64; classes[si].len()];
                let mut entries = Vec::with_capacity(lins.len());
                for lin in lins {
                    match key_to_class.get(&p.trace_key(&lin)) {
                        Some(&c) => {
                            seen[c] += 1;
                            entries.push((lin, c));
                        }
                        None => {
                            report.gate_failures.push(format!(
                                "{label} schedule {si}: naive enumeration found a trace \
                                 class the sleep-set pass missed"
                            ));
                            naive_ok = false;
                        }
                    }
                }
                if seen.contains(&0) {
                    report.gate_failures.push(format!(
                        "{label} schedule {si}: a sleep-set class has no naive witness"
                    ));
                    naive_ok = false;
                }
                lin_classes.push(entries);
            }
            if naive_ok {
                let radix: Vec<usize> = lin_classes.iter().map(Vec::len).collect();
                let mut idx = vec![0usize; radix.len()];
                loop {
                    let mut orders = Vec::with_capacity(idx.len());
                    let mut class_idx = Vec::with_capacity(idx.len());
                    for (s, &i) in idx.iter().enumerate() {
                        orders.push(lin_classes[s][i].0.clone());
                        class_idx.push(lin_classes[s][i].1);
                    }
                    match sk.realize(&orders) {
                        Err(e) if !infeasible(&e) => report
                            .gate_failures
                            .push(format!("{label}: naive realization failed to build: {e}")),
                        realized => {
                            let got = match &realized {
                                Ok(sys) => {
                                    report.naive_composites += 1;
                                    Some(summarize(sys))
                                }
                                Err(_) => None,
                            };
                            if let Some(expected) = rep_summaries.get(&class_idx) {
                                if got != *expected {
                                    report.gate_failures.push(format!(
                                        "{label}: verdict/feasibility not constant within \
                                         trace class {}: representative {expected:?}, \
                                         member {got:?}",
                                        join_idx(&class_idx)
                                    ));
                                    if let (Some(dir), Ok(sys)) = (&cfg.repro_dir, &realized) {
                                        let stem =
                                            format!("constancy-{label}-c{}", join_idx(&class_idx));
                                        let json =
                                            SystemSpec::from_system(sys).to_json().to_pretty();
                                        let _ = corpus::write_reproducer(dir, &stem, &json);
                                    }
                                }
                            }
                        }
                    }
                    if out_of_time() {
                        report.completed = false;
                        break 'skeletons;
                    }
                    if !advance(&mut idx, &radix) {
                        break;
                    }
                }
            }
        }
    }
    report
}

/// Checks one representative; returns whether a summary was recorded
/// (false = a disagreement was already filed, keep the naive gate quiet).
fn check_representative(
    cfg: &ExploreConfig,
    engine: Option<&dyn Fn(&CompositeSystem) -> bool>,
    sys: &CompositeSystem,
    label: &str,
    report: &mut ExploreReport,
) -> bool {
    if let Some(engine) = engine {
        // Mutation-catch mode: the injected engine against the oracle.
        if sys.node_count() > cfg.max_oracle_nodes {
            return false;
        }
        report.oracle_checked += 1;
        let got = engine(sys);
        let want = compc_oracle::decide(sys).accepted();
        if got == want {
            report.composite_verdict(want);
            return true;
        }
        let shrunk = shrink::shrink_system(sys, &|s| {
            s.node_count() <= cfg.max_oracle_nodes
                && engine(s) != compc_oracle::decide(s).accepted()
        });
        record(
            cfg,
            report,
            label,
            "mutant",
            &format!("injected engine says {got}, oracle says {want}"),
            sys,
            &shrunk,
        );
        return false;
    }

    // Real stack. First the strengthened backend gate: the three closure
    // backends must be *bit-identical* (full Debug structure of the verdict
    // and of every stepped front), not merely agree on acceptance.
    let diverges = |s: &CompositeSystem| {
        let rendered: Vec<String> = corpus::BACKENDS
            .iter()
            .map(|&(_, b)| {
                let options = CheckOptions::new().backend(b);
                format!(
                    "{:?} {:?}",
                    Checker::with_options(options).check(s),
                    corpus::stepped_fronts(s, options)
                )
            })
            .collect();
        rendered.iter().any(|r| *r != rendered[0])
    };
    if diverges(sys) {
        let labels: Vec<&str> = corpus::BACKENDS.iter().map(|&(l, _)| l).collect();
        let shrunk = shrink::shrink_system(sys, &diverges);
        record(
            cfg,
            report,
            label,
            "backend",
            &format!("backend verdicts not bit-identical across {labels:?}"),
            sys,
            &shrunk,
        );
        return false;
    }

    let dcfg = DiffConfig {
        max_oracle_nodes: cfg.max_oracle_nodes,
        trust_abstractions: false,
    };
    match differential_check(sys, &dcfg) {
        Ok(out) => {
            report.oracle_checked += out.oracle_ran as u64;
            report.session_multi += out.session_multi as u64;
            report.composite_verdict(out.correct);
            true
        }
        Err(mismatch) => {
            let kind = mismatch.kind();
            let shrunk = shrink::shrink_system(sys, &|candidate| {
                differential_check(candidate, &dcfg)
                    .err()
                    .is_some_and(|m| m.kind() == kind)
            });
            record(
                cfg,
                report,
                label,
                kind,
                &format!("{mismatch}"),
                sys,
                &shrunk,
            );
            false
        }
    }
}

impl ExploreReport {
    fn composite_verdict(&mut self, correct: bool) {
        if correct {
            self.correct += 1;
        } else {
            self.incorrect += 1;
        }
    }
}

fn record(
    cfg: &ExploreConfig,
    report: &mut ExploreReport,
    label: &str,
    kind: &str,
    detail: &str,
    sys: &CompositeSystem,
    shrunk: &CompositeSystem,
) {
    let dis = Disagreement {
        label: label.to_string(),
        kind: kind.to_string(),
        detail: detail.to_string(),
        nodes_before: sys.node_count(),
        nodes_after: shrunk.node_count(),
        shrunk_spec: SystemSpec::from_system(shrunk).to_json().to_pretty(),
    };
    if let Some(dir) = &cfg.repro_dir {
        let stem = format!("disagreement-{kind}-{label}");
        let _ = corpus::write_reproducer(dir, &stem, &dis.shrunk_spec);
    }
    report.disagreements.push(dis);
}

/// Every composite trace-class representative within `bounds`, realized.
/// Test-facing: the prefix-replay and mutation suites iterate exactly the
/// population the sweep checks.
pub fn representatives(bounds: &Bounds) -> Vec<CompositeSystem> {
    let mut out = Vec::new();
    for sk in enumerate_skeletons(bounds) {
        if sk.node_count() > bounds.max_nodes {
            continue;
        }
        let classes: Vec<Vec<trace::Linearization>> = sk
            .programs()
            .iter()
            .map(ScheduleProgram::trace_classes)
            .collect();
        let radix: Vec<usize> = classes.iter().map(Vec::len).collect();
        let mut idx = vec![0usize; radix.len()];
        loop {
            let orders: Vec<trace::Linearization> = idx
                .iter()
                .enumerate()
                .map(|(s, &i)| classes[s][i].clone())
                .collect();
            if let Ok(sys) = sk.realize(&orders) {
                out.push(sys);
            }
            if !advance(&mut idx, &radix) {
                break;
            }
        }
    }
    out
}

/// Whether a build rejection means "this order combination is not an
/// execution" (Definition 3's axioms over the chosen orders) as opposed to
/// a bug in skeleton construction.
fn infeasible(e: &ModelError) -> bool {
    matches!(
        e,
        ModelError::InputOrderNotHonored { .. }
            | ModelError::StrongInputNotHonored { .. }
            | ModelError::ConflictUnordered { .. }
    )
}

/// Mixed-radix increment; false when the counter wrapped (product done).
fn advance(idx: &mut [usize], radix: &[usize]) -> bool {
    for (i, r) in idx.iter_mut().zip(radix.iter()).rev() {
        *i += 1;
        if *i < *r {
            return true;
        }
        *i = 0;
    }
    false
}

fn join_idx(idx: &[usize]) -> String {
    idx.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bounds() -> Bounds {
        Bounds {
            max_txns: 2,
            max_ops: 2,
            max_subtxs: 1,
            max_items: 1,
            max_nodes: 8,
            shapes: vec![Shape::Flat],
        }
    }

    #[test]
    fn tiny_flat_sweep_is_clean_with_naive_gates() {
        let cfg = ExploreConfig {
            bounds: tiny_bounds(),
            naive: true,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg);
        assert!(
            report.clean(),
            "{:?}\n{:?}",
            report.gate_failures,
            report.disagreements
        );
        assert!(report.composites > 0);
        assert!(report.naive_composites >= report.composites);
        assert!(report.correct + report.incorrect == report.composites);
        assert!(
            report.incorrect > 0,
            "lost-update programs must be rejected"
        );
    }

    #[test]
    fn stack_sweep_exercises_multi_fragment_replays() {
        let cfg = ExploreConfig {
            bounds: Bounds {
                max_txns: 2,
                max_ops: 1,
                max_subtxs: 2,
                max_items: 1,
                max_nodes: 10,
                shapes: vec![Shape::Stack { bottoms: 1 }],
            },
            ..ExploreConfig::default()
        };
        let report = explore(&cfg);
        assert!(
            report.clean(),
            "{:?}\n{:?}",
            report.gate_failures,
            report.disagreements
        );
        assert!(
            report.session_multi > 0,
            "two-root stacks replay in fragments"
        );
        assert!(
            report.infeasible > 0,
            "stacks must hit Def. 3-infeasible order combinations"
        );
    }

    #[test]
    fn zero_seconds_means_no_limit_and_completes() {
        let cfg = ExploreConfig {
            bounds: tiny_bounds(),
            seconds: 0,
            ..ExploreConfig::default()
        };
        assert!(explore(&cfg).completed);
    }

    #[test]
    fn representatives_match_the_sweep_population() {
        let cfg = ExploreConfig {
            bounds: tiny_bounds(),
            ..ExploreConfig::default()
        };
        let report = explore(&cfg);
        assert_eq!(representatives(&cfg.bounds).len() as u64, report.composites);
    }
}
