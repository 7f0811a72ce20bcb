//! Differential fuzzing of the Comp-C decision stack.
//!
//! The harness generates composite systems — random valid-by-construction
//! populations plus structure-aware mutants of them and of the paper's
//! figures ([`compc_workload::mutate`]) — and cross-checks every
//! implementation that claims to decide (or bound) Comp-C:
//!
//! * the reduction engine on its **sparse** graph backend,
//! * the reduction engine on its **dense** bitset backend,
//! * the brute-force **oracle** ([`compc_oracle::decide`]), on systems small
//!   enough for exhaustive search,
//! * the classic criteria where a shape recognizer fires: **SCC** on stacks
//!   (Theorem 2, unconditional), **FCC**/**JCC** on forks/joins generated
//!   with sound abstractions and left unmutated (Theorems 3–4 require the
//!   upper conflict declarations to soundly abstract the lower ones —
//!   mutation voids that fine print, see
//!   `thm4_fine_print_unsound_abstractions_diverge`), and **CSR** on flat
//!   embeddings of classic read/write histories.
//!
//! Any disagreement is minimized by a delta-debugging shrinker
//! ([`shrink::shrink_system`]) that greedily projects roots away while the
//! disagreement reproduces, and the smallest reproducer is written as a
//! versioned-spec JSON corpus file (see `tests/corpus/` and TESTING.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod shrink;

use compc::spec::SystemSpec;
use std::path::PathBuf;
use std::time::Instant;

/// How long to fuzz.
///
/// Both variants treat `0` as a sentinel for "no limit": `Count(0)` and
/// `Seconds(0)` never exhaust, turning the run into a soak that only an
/// external signal stops. The two sentinels are deliberately consistent —
/// see [`Budget::exhausted`].
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Check exactly this many generated systems (`0` = unlimited).
    Count(u64),
    /// Keep generating for this many seconds (`0` = unlimited).
    Seconds(u64),
}

impl Budget {
    /// The stop condition given work done so far. `Count(0)` and
    /// `Seconds(0)` both mean "no limit" and are never exhausted.
    pub fn exhausted(&self, systems: u64, elapsed: std::time::Duration) -> bool {
        match *self {
            Budget::Count(0) | Budget::Seconds(0) => false,
            Budget::Count(n) => systems >= n,
            Budget::Seconds(s) => elapsed.as_secs() >= s,
        }
    }
}

/// Fuzzer configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; the whole run is a deterministic function of it under
    /// [`Budget::Count`].
    pub seed: u64,
    /// Stop condition.
    pub budget: Budget,
    /// Node-count cap above which the exponential oracle is skipped.
    pub max_oracle_nodes: usize,
    /// Where to write shrunk reproducers (`None` = don't write).
    pub out_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            budget: Budget::Count(100),
            max_oracle_nodes: 26,
            out_dir: None,
        }
    }
}

/// Counters for one fuzzing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzStats {
    /// Systems cross-checked (sparse vs dense at minimum).
    pub systems: u64,
    /// Systems that were mutants (vs pristine generator output).
    pub mutants: u64,
    /// Systems additionally checked by the brute-force oracle.
    pub oracle_checked: u64,
    /// Systems the oracle skipped as too large.
    pub oracle_skipped: u64,
    /// SCC cross-checks on recognized stacks.
    pub scc_checked: u64,
    /// FCC cross-checks on sound unmutated forks.
    pub fcc_checked: u64,
    /// JCC cross-checks on sound unmutated joins.
    pub jcc_checked: u64,
    /// CSR cross-checks on flat history embeddings.
    pub csr_checked: u64,
    /// Incremental-session replays that exercised a genuine append order
    /// (more than one root-subtree fragment); every system is replayed.
    pub session_multi: u64,
    /// Verdicts that were Comp-C.
    pub correct: u64,
    /// Verdicts that were not Comp-C.
    pub incorrect: u64,
}

/// A cross-check disagreement, with its shrunk reproducer.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Which generated case produced it (seed/iteration label).
    pub label: String,
    /// Mismatch kind (stable string, see [`diff::Mismatch::kind`]).
    pub kind: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
    /// Node count before/after shrinking.
    pub nodes_before: usize,
    /// Node count of the shrunk reproducer.
    pub nodes_after: usize,
    /// Versioned-spec JSON of the shrunk reproducer.
    pub shrunk_spec: String,
}

/// Result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Counters.
    pub stats: FuzzStats,
    /// All disagreements found (empty on a clean run).
    pub disagreements: Vec<Disagreement>,
}

/// Runs the differential fuzzer.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut report = FuzzReport::default();
    let mut iter: u64 = 0;
    loop {
        if cfg.budget.exhausted(report.stats.systems, start.elapsed()) {
            break;
        }
        let case = gen::generate_case(cfg.seed, iter);
        iter += 1;
        fuzz_one(cfg, &case, &mut report);
        // Every few systems, also differential-check a flat classic history
        // (CSR ⟺ Comp-C on flat embeddings).
        if iter.is_multiple_of(4) {
            csr_one(cfg, iter, &mut report);
        }
    }
    report
}

fn fuzz_one(cfg: &FuzzConfig, case: &gen::GeneratedCase, report: &mut FuzzReport) {
    let dcfg = diff::DiffConfig {
        max_oracle_nodes: cfg.max_oracle_nodes,
        trust_abstractions: case.sound && !case.mutated,
    };
    report.stats.systems += 1;
    if case.mutated {
        report.stats.mutants += 1;
    }
    match diff::differential_check(&case.system, &dcfg) {
        Ok(out) => {
            report.stats.oracle_checked += out.oracle_ran as u64;
            report.stats.oracle_skipped += !out.oracle_ran as u64;
            report.stats.scc_checked += out.scc_ran as u64;
            report.stats.fcc_checked += out.fcc_ran as u64;
            report.stats.jcc_checked += out.jcc_ran as u64;
            report.stats.session_multi += out.session_multi as u64;
            if out.correct {
                report.stats.correct += 1;
            } else {
                report.stats.incorrect += 1;
            }
        }
        Err(mismatch) => {
            record_disagreement(cfg, &case.label, &case.system, &dcfg, mismatch, report);
        }
    }
}

fn csr_one(cfg: &FuzzConfig, iter: u64, report: &mut FuzzReport) {
    let h = gen::random_history(cfg.seed, iter);
    let Ok(sys) = h.to_composite() else {
        return;
    };
    report.stats.csr_checked += 1;
    let dcfg = diff::DiffConfig {
        max_oracle_nodes: cfg.max_oracle_nodes,
        trust_abstractions: false,
    };
    if let Err(m) = diff::csr_differential(&h, &sys, &dcfg) {
        record_disagreement(cfg, &format!("csr-{iter}"), &sys, &dcfg, m, report);
    }
}

fn record_disagreement(
    cfg: &FuzzConfig,
    label: &str,
    sys: &compc_model::CompositeSystem,
    dcfg: &diff::DiffConfig,
    mismatch: diff::Mismatch,
    report: &mut FuzzReport,
) {
    let kind = mismatch.kind();
    let nodes_before = sys.node_count();
    let shrunk = shrink::shrink_system(sys, &|candidate| {
        diff::differential_check(candidate, dcfg)
            .err()
            .is_some_and(|m| m.kind() == kind)
    });
    let spec = SystemSpec::from_system(&shrunk).to_json().to_pretty();
    let dis = Disagreement {
        label: label.to_string(),
        kind: kind.to_string(),
        detail: format!("{mismatch}"),
        nodes_before,
        nodes_after: shrunk.node_count(),
        shrunk_spec: spec,
    };
    if let Some(dir) = &cfg.out_dir {
        let stem = format!("disagreement-{}-{}", kind, label);
        let _ = corpus::write_reproducer(dir, &stem, &dis.shrunk_spec);
    }
    report.disagreements.push(dis);
}

#[cfg(test)]
mod tests {
    use super::Budget;
    use std::time::Duration;

    #[test]
    fn zero_budgets_are_unlimited_sentinels() {
        // Both `--count 0` and `--seconds 0` mean "no limit", consistently.
        for b in [Budget::Count(0), Budget::Seconds(0)] {
            assert!(!b.exhausted(0, Duration::ZERO));
            assert!(!b.exhausted(u64::MAX, Duration::from_secs(u64::MAX)));
        }
    }

    #[test]
    fn nonzero_budgets_exhaust_at_their_bound() {
        let count = Budget::Count(3);
        assert!(!count.exhausted(2, Duration::from_secs(u64::MAX)));
        assert!(count.exhausted(3, Duration::ZERO));

        let secs = Budget::Seconds(5);
        assert!(!secs.exhausted(u64::MAX, Duration::from_secs(4)));
        assert!(secs.exhausted(0, Duration::from_secs(5)));
    }
}
