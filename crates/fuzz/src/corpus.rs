//! Corpus files: versioned-spec JSON systems with the expected verdict
//! encoded in the filename (`<stem>.correct.json` / `<stem>.incorrect.json`),
//! deterministic replay, and harvesting of shrunk adversarial entries.

use crate::shrink;
use compc::spec::SystemSpec;
use compc_core::{check, Backend, CheckOptions, Checker, FailurePhase};
use compc_model::{CompositeSystem, NodeId};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The three closure backends with stable labels — the single table every
/// replay loop iterates, so adding a backend cannot silently skip the
/// corpus (per-backend copies of the loop used to drift).
pub const BACKENDS: [(&str, Backend); 3] = [
    ("sparse", Backend::Sparse),
    ("dense", Backend::Dense),
    ("compressed", Backend::Compressed),
];

type Pairs = Vec<(NodeId, NodeId)>;

/// One front, as comparable data: level, members, member observed pairs,
/// conflict pairs and member input pairs.
pub type FrontFields = (usize, Vec<NodeId>, Pairs, Pairs, Pairs);

/// Every front a reduction of `sys` under `options` reaches, by stepping
/// it: level 0, then the front after each step, up to and including the
/// first failing one. Backend comparisons use it to compare complete
/// fronts, not only verdicts.
pub fn stepped_fronts(sys: &CompositeSystem, options: CheckOptions) -> Vec<FrontFields> {
    let mut reducer = Checker::with_options(options).reducer(sys);
    let fields = |f: &compc_core::Front| -> FrontFields {
        (
            f.level(),
            f.members().collect(),
            f.observed_pairs(),
            f.conflict_pairs(sys),
            f.input_pairs(),
        )
    };
    let mut fronts = vec![fields(reducer.front())];
    for level in 1..=sys.order() {
        let stepped = reducer.step(level);
        fronts.push(fields(reducer.front()));
        if stepped.is_err() {
            break;
        }
    }
    fronts
}

/// The expected Comp-C verdict encoded in a corpus filename, if any.
pub fn expected_from_name(name: &str) -> Option<bool> {
    if name.ends_with(".correct.json") {
        Some(true)
    } else if name.ends_with(".incorrect.json") {
        Some(false)
    } else {
        None
    }
}

/// Replay counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Corpus files replayed.
    pub files: u64,
    /// Files whose expected verdict was Comp-C.
    pub correct: u64,
    /// Files whose expected verdict was not Comp-C.
    pub incorrect: u64,
    /// Files additionally cross-checked by the oracle.
    pub oracle_checked: u64,
}

/// Replays every `*.correct.json` / `*.incorrect.json` under `dir` (sorted,
/// so deterministically): each must parse, build, and get the expected
/// verdict from the sparse engine, the dense engine, and (within the node
/// cap) the oracle. Returns the failures as messages.
pub fn replay_dir(dir: &Path, max_oracle_nodes: usize) -> Result<ReplayStats, Vec<String>> {
    let mut entries: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(expected_from_name)
                    .is_some()
            })
            .collect(),
        Err(e) => {
            return Err(vec![format!(
                "cannot read corpus dir {}: {e}",
                dir.display()
            )])
        }
    };
    entries.sort();
    let mut stats = ReplayStats::default();
    let mut failures = Vec::new();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let expected = expected_from_name(&name).expect("filtered above");
        match replay_file(&path, expected, max_oracle_nodes) {
            Ok(oracle_ran) => {
                stats.files += 1;
                stats.correct += expected as u64;
                stats.incorrect += !expected as u64;
                stats.oracle_checked += oracle_ran as u64;
            }
            Err(msg) => failures.push(format!("{name}: {msg}")),
        }
    }
    if failures.is_empty() {
        Ok(stats)
    } else {
        Err(failures)
    }
}

fn replay_file(path: &Path, expected: bool, max_oracle_nodes: usize) -> Result<bool, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let spec = SystemSpec::parse(&text).map_err(|e| format!("parse failed: {e}"))?;
    let sys = spec.build().map_err(|e| format!("build failed: {e}"))?;
    for (label, backend) in BACKENDS {
        let verdict = Checker::with_options(CheckOptions::new().backend(backend)).check(&sys);
        if verdict.is_correct() != expected {
            return Err(format!(
                "{label} engine says {}, file expects {expected}",
                verdict.is_correct()
            ));
        }
    }
    let oracle_ran = sys.node_count() <= max_oracle_nodes;
    if oracle_ran {
        let oracle = compc_oracle::decide(&sys);
        if oracle.accepted() != expected {
            return Err(format!(
                "oracle says {}, file expects {expected}",
                oracle.accepted()
            ));
        }
    }
    Ok(oracle_ran)
}

/// Writes a shrunk disagreement reproducer (no expected verdict — the
/// disagreement *is* the finding; triage per TESTING.md, then commit the
/// fixed expectation as `.correct.json`/`.incorrect.json`).
pub fn write_reproducer(dir: &Path, stem: &str, spec_json: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.json"));
    fs::write(&path, spec_json)?;
    Ok(path)
}

/// Writes a corpus entry with its expected verdict in the filename.
pub fn write_corpus_entry(
    dir: &Path,
    stem: &str,
    sys: &CompositeSystem,
    correct: bool,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let suffix = if correct { "correct" } else { "incorrect" };
    let path = dir.join(format!("{stem}.{suffix}.json"));
    fs::write(&path, SystemSpec::from_system(sys).to_pretty())?;
    Ok(path)
}

/// Harvests corpus entries: the paper's Figures 1–4 (with their known
/// verdicts) plus `want` shrunk adversarial entries from the fuzzing
/// population — shrunk incorrect mutants (diverse in failing level and
/// phase) and forgetting-sensitive correct systems (correct under the
/// paper's order-forgetting semantics, incorrect under the no-forgetting
/// ablation — the Figure-4 phenomenon arising in random configurations).
/// Returns `(stem, system, expected_correct)` triples.
pub fn harvest(seed: u64, want: usize) -> Vec<(String, CompositeSystem, bool)> {
    let mut out: Vec<(String, CompositeSystem, bool)> = Vec::new();
    for (stem, fig) in [
        ("figure1", compc_workload::figures::figure1()),
        ("figure2", compc_workload::figures::figure2()),
        ("figure3", compc_workload::figures::figure3_incorrect()),
        ("figure4", compc_workload::figures::figure4_correct()),
    ] {
        let correct = check(&fig.system).is_correct();
        out.push((stem.to_string(), fig.system, correct));
    }
    let mut seen_signatures: Vec<String> = Vec::new();
    let mut iter: u64 = 0;
    let target = out.len() + want;
    while out.len() < target && iter < 50_000 {
        let case = crate::gen::generate_case(seed, iter);
        iter += 1;
        let verdict = check(&case.system);
        if let Some(cex) = verdict.counterexample() {
            // Shrink while the same (level, phase) failure reproduces.
            let (level, phase) = (cex.level, cex.phase);
            let shrunk = shrink::shrink_system(&case.system, &|s| {
                check(s)
                    .counterexample()
                    .is_some_and(|c| c.level == level && c.phase == phase)
            });
            let phase_tag = match phase {
                FailurePhase::Calculation => "calc",
                FailurePhase::ConflictConsistency => "cc",
            };
            let sig = format!("l{level}-{phase_tag}-n{}", shrunk.node_count());
            if seen_signatures.contains(&sig) {
                continue;
            }
            seen_signatures.push(sig.clone());
            out.push((format!("adv-{sig}"), shrunk, false));
        } else if case.mutated {
            // Forgetting-sensitive: rescued by order forgetting.
            let strict =
                Checker::with_options(CheckOptions::new().forgetting(false)).check(&case.system);
            if strict.is_correct() {
                continue;
            }
            let shrunk = shrink::shrink_system(&case.system, &|s| {
                check(s).is_correct()
                    && !Checker::with_options(CheckOptions::new().forgetting(false))
                        .check(s)
                        .is_correct()
            });
            let sig = format!("forget-n{}", shrunk.node_count());
            if seen_signatures.contains(&sig) {
                continue;
            }
            seen_signatures.push(sig.clone());
            out.push((format!("adv-{sig}"), shrunk, true));
        }
    }
    out
}

/// Sanity helper shared by the replay test and the fuzz binary: a corpus
/// entry must survive a spec round-trip with its verdict intact.
pub fn roundtrip_verdict(sys: &CompositeSystem) -> Result<bool, String> {
    let json = SystemSpec::from_system(sys).to_pretty();
    let spec = SystemSpec::parse(&json).map_err(|e| format!("reparse failed: {e}"))?;
    let rebuilt = spec.build().map_err(|e| format!("rebuild failed: {e}"))?;
    let before = check(sys).is_correct();
    let after = check(&rebuilt).is_correct();
    if before != after {
        return Err(format!(
            "verdict changed across round-trip: {before} -> {after}"
        ));
    }
    Ok(after)
}

/// The default corpus directory relative to a repository checkout.
pub fn default_corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"))
}
