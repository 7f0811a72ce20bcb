//! `compc-check` — validate and check composite executions from JSON.
//!
//! Single-system mode:
//!
//! ```sh
//! compc-check system.json             # verdict + witness/counterexample
//! compc-check system.json --trace     # NDJSON reduction events, one per level
//! compc-check system.json --stats     # per-level timing/front histograms
//! compc-check system.json --explain   # narrate a failing reduction
//! compc-check system.json --dot       # also print the forest in DOT
//! compc-check system.json --minimize  # shrink a violation to its core
//! compc-check system.json --jobs 8    # parallelize the within-level checks
//! ```
//!
//! Batch mode — a directory of `*.json` specs, an NDJSON file (one spec per
//! line, `.ndjson`/`.jsonl`), or several paths at once. Systems are checked
//! concurrently on a worker pool and an aggregate throughput line closes the
//! report. `--trace`, `--stats`, `--explain` and `--minimize` apply per item
//! (trace lines carry a `"label"` field naming the item); `--dot` is
//! single-system only and is a usage error in batch mode. A system whose
//! check panics is reported as a per-item fault and the rest of the batch
//! still completes:
//!
//! ```sh
//! compc-check specs/ --jobs 8
//! compc-check corpus.ndjson --jobs 0    # 0 = one worker per core
//! compc-check a.json b.json --trace --explain
//! ```
//!
//! Robustness controls: `--deadline-ms N` bounds each system's check — a
//! check that exceeds the budget is reported as a timeout and the run exits
//! 3 (unless something worse happened). `--checkpoint FILE` (batch mode)
//! appends one `<status>\t<label>` line per finished item so an interrupted
//! corpus run, restarted with the same flag, skips the items already
//! recorded; timeouts and faults are *not* recorded and run again.
//!
//! `--oracle` cross-checks every verdict against the brute-force
//! definitional oracle (`compc::oracle`) on systems within its recommended
//! node cap; a disagreement is an engine bug and exits 2.
//!
//! Exit codes: 0 = all Comp-C, 1 = some system not Comp-C, 2 = invalid
//! input/model, a faulted check, or an engine/oracle disagreement (takes
//! precedence over everything), 3 = some check exceeded `--deadline-ms`
//! (takes precedence over 1).

use compc::cli::parse_check_flag;
use compc::core::{CheckCtx, CheckOptions, CheckScratch, Checker, Verdict};
use compc::engine::{Batch, BatchItem, BatchMetrics, BatchStats};
use compc::spec::SystemSpec;
use compc::trace::{event_to_ndjson_line, replay, MemorySink, TraceStats};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Default)]
struct Flags {
    /// The one [`CheckOptions`] every mode checks with — single systems
    /// ([`Checker::with_options`]), batches ([`Batch::with_options`]) and
    /// explanations all read the same struct, so a flag cannot mean
    /// different things in different modes. `--oracle` cross-checks every
    /// verdict against the brute-force oracle (systems within
    /// `compc::oracle::RECOMMENDED_NODE_CAP` nodes; larger ones are
    /// reported as skipped); a disagreement is an engine bug, exit 2.
    options: CheckOptions,
    trace: bool,
    stats: bool,
    explain: bool,
    dot: bool,
    minimize: bool,
    checkpoint: Option<String>,
}

const USAGE: &str = "usage: compc-check <system.json | dir | corpus.ndjson>... \
[--jobs N] [--backend auto|dense|sparse|compressed] [--trace] [--stats] [--explain] \
[--dot] [--minimize] [--oracle] [--deadline-ms N] [--checkpoint FILE]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    eprintln!("run compc-check --help for details and exit codes");
    ExitCode::from(2)
}

fn help() -> ExitCode {
    println!(
        "compc-check {} — Comp-C checker for composite executions",
        version()
    );
    println!();
    println!("{USAGE}");
    println!();
    println!("options:");
    println!("  --jobs N          parallelism: within-level checks (single mode) or");
    println!("                    worker-pool size (batch mode); 0 = one per core");
    println!("  --backend B       transitive-closure backend: auto (size-based");
    println!("                    crossovers, the default), dense (word-parallel");
    println!("                    bitsets everywhere), sparse (per-source DFS");
    println!("                    everywhere), or compressed (chunked rows +");
    println!("                    SCC-condensed closure everywhere); verdicts are");
    println!("                    identical either way, --stats reports which");
    println!("                    backend each check used");
    println!("  --trace           print NDJSON reduction events, one per level");
    println!("  --stats           print per-level timing/front histograms");
    println!("  --explain         narrate a failing reduction");
    println!("  --dot             also print the forest in DOT (single-system only)");
    println!("  --minimize        shrink a violation to its core transaction set");
    println!("  --oracle          cross-check each verdict against the brute-force");
    println!(
        "                    definitional oracle (systems up to {} nodes —",
        compc::oracle::RECOMMENDED_NODE_CAP
    );
    println!("                    larger ones are reported as skipped); an engine/");
    println!("                    oracle disagreement is an engine bug and exits 2");
    println!("  --deadline-ms N   per-system check budget in milliseconds; a check");
    println!("                    that exceeds it is reported as a timeout without");
    println!("                    poisoning the rest of the batch");
    println!("  --checkpoint FILE batch mode: append each finished item's label to");
    println!("                    FILE and, on restart, skip the items already");
    println!("                    recorded so an interrupted corpus run resumes;");
    println!("                    timeouts and faults are not recorded and re-run");
    println!("  --version, -V     print the version and exit");
    println!("  --help, -h        print this help and exit");
    println!();
    println!("exit codes:");
    println!("  0  every checked system is Comp-C");
    println!("  1  at least one system is not Comp-C");
    println!("  2  invalid input/model, a faulted (panicked) check, an engine/");
    println!("     oracle disagreement under --oracle, or a usage error — takes");
    println!("     precedence over every other code");
    println!("  3  at least one check exceeded --deadline-ms (and none faulted)");
    ExitCode::SUCCESS
}

fn version() -> &'static str {
    option_env!("CARGO_PKG_VERSION").unwrap_or("dev")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        match parse_check_flag(&args, &mut i, &mut flags.options) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(complaint) => {
                eprintln!("{complaint}");
                return usage();
            }
        }
        match args[i].as_str() {
            "--help" | "-h" => return help(),
            "--version" | "-V" => {
                println!("compc-check {}", version());
                return ExitCode::SUCCESS;
            }
            "--trace" => flags.trace = true,
            "--stats" => flags.stats = true,
            "--explain" => flags.explain = true,
            "--dot" => flags.dot = true,
            "--minimize" => flags.minimize = true,
            "--checkpoint" => {
                i += 1;
                flags.checkpoint = match args.get(i) {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("--checkpoint needs a file path");
                        return usage();
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
            path => paths.push(path.to_string()),
        }
        i += 1;
    }
    if paths.is_empty() {
        return usage();
    }

    let single = paths.len() == 1 && {
        let p = Path::new(&paths[0]);
        p.is_file() && !is_ndjson(p)
    };
    if single {
        if flags.checkpoint.is_some() {
            eprintln!("--checkpoint records batch progress and only applies in batch mode");
            return usage();
        }
        check_single(&paths[0], &flags)
    } else {
        if flags.dot {
            eprintln!("--dot renders one system's forest and only applies in single-system mode");
            return usage();
        }
        check_batch(&paths, &flags)
    }
}

fn is_ndjson(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("ndjson") | Some("jsonl")
    )
}

fn load_spec(text: &str) -> Result<compc::model::CompositeSystem, String> {
    let spec = SystemSpec::parse(text).map_err(|e| e.to_string())?;
    spec.build().map_err(|e| e.to_string())
}

/// Prints one item's trace as NDJSON, each line tagged with the item label.
fn print_ndjson(label: &str, events: &[compc::trace::TraceEvent]) {
    for event in events {
        println!("{}", event_to_ndjson_line(event, Some(label)));
    }
}

/// Formats closure-backend counts, e.g. `dense (4 closures)` or
/// `mixed (dense 3, sparse 2, compressed 1)`.
fn backend_line(dense: u64, sparse: u64, compressed: u64) -> String {
    match (dense, sparse, compressed) {
        (0, 0, 0) => "none (no closures ran)".to_string(),
        (d, 0, 0) => format!("dense ({d} closure{})", plural(d)),
        (0, s, 0) => format!("sparse ({s} closure{})", plural(s)),
        (0, 0, c) => format!("compressed ({c} closure{})", plural(c)),
        (d, s, c) => format!("mixed (dense {d}, sparse {s}, compressed {c})"),
    }
}

fn plural(n: u64) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Cross-checks one verdict against the brute-force oracle. Returns `None`
/// if the system exceeds the oracle's node cap (skipped), `Some(false)` on
/// agreement, `Some(true)` on a disagreement — which is an engine bug.
fn oracle_cross_check(
    system: &compc::model::CompositeSystem,
    engine_correct: bool,
    indent: &str,
) -> Option<bool> {
    let cap = compc::oracle::RECOMMENDED_NODE_CAP;
    if system.node_count() > cap {
        println!(
            "{indent}oracle: skipped ({} nodes exceed the {cap}-node cap)",
            system.node_count()
        );
        return None;
    }
    let accepted = compc::oracle::decide(system).accepted();
    if accepted == engine_correct {
        println!(
            "{indent}oracle: agrees ({})",
            if accepted { "Comp-C" } else { "not Comp-C" }
        );
        Some(false)
    } else {
        println!(
            "{indent}ORACLE DISAGREEMENT: engine says {engine_correct}, oracle says {accepted} \
             — this is an engine bug; please report the input"
        );
        Some(true)
    }
}

// ---------------------------------------------------------------------
// Single-system mode
// ---------------------------------------------------------------------

fn check_single(path: &str, flags: &Flags) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let system = match load_spec(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "loaded: {} schedules, {} nodes, order N = {}",
        system.schedule_count(),
        system.node_count(),
        system.order()
    );
    if flags.dot {
        println!("{}", system.forest_dot());
    }
    let mut sink = MemorySink::new();
    let mut scratch = CheckScratch::new();
    let mut ctx = CheckCtx::new(&mut scratch);
    if flags.trace || flags.stats {
        ctx = ctx.traced(&mut sink);
    }
    let result = Checker::with_options(flags.options).try_check(&system, &mut ctx);
    if flags.trace {
        print_ndjson(path, &sink.events);
    }
    if flags.stats {
        let mut stats = TraceStats::default();
        replay(&sink.events, &mut stats);
        println!("{stats}");
        let counts = scratch.backend_counts();
        println!(
            "closure backend: {}",
            backend_line(counts.dense, counts.sparse, counts.compressed)
        );
    }
    match result {
        Ok(Verdict::Correct(proof)) => {
            println!("verdict: Comp-C (correct)");
            let witness: Vec<&str> = proof
                .serial_witness
                .iter()
                .map(|&n| system.name(n))
                .collect();
            println!("serial witness: {}", witness.join(" ; "));
            if flags.options.oracle && oracle_cross_check(&system, true, "") == Some(true) {
                return ExitCode::from(2);
            }
            ExitCode::SUCCESS
        }
        Ok(Verdict::Incorrect(cex)) => {
            println!("verdict: NOT Comp-C");
            println!("{cex}");
            if flags.explain {
                println!("{}", cex.explain_with(&system, flags.options));
            }
            if flags.minimize {
                if let Some(min) = compc::core::minimize(&system) {
                    let names: Vec<&str> = min.roots.iter().map(|&n| system.name(n)).collect();
                    println!(
                        "minimal violating transaction set ({} of {}): {}",
                        min.roots.len(),
                        system.roots().count(),
                        names.join(", ")
                    );
                }
            }
            if flags.options.oracle && oracle_cross_check(&system, false, "") == Some(true) {
                return ExitCode::from(2);
            }
            ExitCode::from(1)
        }
        Err(interrupted) => {
            println!("verdict: TIMEOUT — {interrupted}");
            ExitCode::from(3)
        }
    }
}

// ---------------------------------------------------------------------
// Batch mode
// ---------------------------------------------------------------------

fn check_batch(paths: &[String], flags: &Flags) -> ExitCode {
    let mut items: Vec<BatchItem> = Vec::new();
    let mut invalid = 0usize;
    for path in paths {
        if let Err(e) = collect_items(Path::new(path), &mut items, &mut invalid) {
            eprintln!("{path}: {e}");
            invalid += 1;
        }
    }
    if items.is_empty() {
        eprintln!("no checkable systems found");
        return ExitCode::from(2);
    }

    // A checkpoint file records `<status>\t<label>` per finished item
    // (status `ok` or `violation`). On resume, recorded items are skipped
    // and prior violations still count toward the exit code; timeouts and
    // faults were never recorded, so they run again.
    let mut prior_violations = 0usize;
    if let Some(cp) = &flags.checkpoint {
        let mut done: HashSet<String> = HashSet::new();
        match std::fs::read_to_string(cp) {
            Ok(text) => {
                for (lineno, line) in text.lines().enumerate() {
                    let line = line.trim_end_matches('\r');
                    if line.trim().is_empty() {
                        continue;
                    }
                    match line.split_once('\t') {
                        Some(("ok", label)) => {
                            done.insert(label.to_string());
                        }
                        Some(("violation", label)) => {
                            done.insert(label.to_string());
                            prior_violations += 1;
                        }
                        _ => eprintln!(
                            "{cp}:{}: unrecognized checkpoint line, ignoring",
                            lineno + 1
                        ),
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!("cannot read checkpoint {cp}: {e}");
                return ExitCode::from(2);
            }
        }
        if !done.is_empty() {
            let before = items.len();
            items.retain(|it| !done.contains(&it.label));
            eprintln!(
                "checkpoint: {} of {before} item(s) already recorded in {cp} \
                 ({prior_violations} prior violation(s)), {} left",
                before - items.len(),
                items.len()
            );
        }
    }
    let mut checkpoint_file = match &flags.checkpoint {
        Some(cp) => match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(cp)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("cannot open checkpoint {cp}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    // Explaining, minimizing, or oracle-checking a verdict needs the system
    // after the pool consumed the items, so keep a copy per item.
    let systems: Vec<compc::model::CompositeSystem> =
        if flags.explain || flags.minimize || flags.options.oracle {
            items.iter().map(|it| it.system.clone()).collect()
        } else {
            Vec::new()
        };

    // Without a checkpoint everything goes to the pool at once. With one,
    // items run in chunks so progress lands in the file at chunk
    // granularity and a killed run loses at most one chunk of work.
    let chunk_size = if checkpoint_file.is_some() {
        (flags.options.jobs.max(1) * 4).max(16)
    } else {
        items.len().max(1)
    };
    let mut stats = BatchStats::default();
    let mut metrics = BatchMetrics::default();
    let mut total_dense = 0u64;
    let mut total_sparse = 0u64;
    let mut total_compressed = 0u64;
    let mut oracle_checked = 0u64;
    let mut oracle_skipped = 0u64;
    let mut oracle_disagreements = 0u64;
    let mut remaining = items;
    let mut offset = 0usize;
    while !remaining.is_empty() {
        let rest = remaining.split_off(chunk_size.min(remaining.len()));
        let chunk = std::mem::replace(&mut remaining, rest);
        let chunk_len = chunk.len();
        let batch = Batch::with_options(flags.options)
            .workers(flags.options.jobs)
            .tracing(flags.trace || flags.stats);
        let report = batch.check_all(chunk);
        for (i, o) in report.outcomes.iter().enumerate() {
            let idx = offset + i;
            if flags.trace {
                print_ndjson(&o.label, &o.events);
            }
            // Which closure representation the item's check actually used —
            // only worth a column when the user asked for stats.
            total_dense += o.dense_closures;
            total_sparse += o.sparse_closures;
            total_compressed += o.compressed_closures;
            let backend = if flags.stats {
                format!(" [{}]", o.backend())
            } else {
                String::new()
            };
            match &o.result {
                Ok(Verdict::Correct(_)) => println!("{}: Comp-C{backend}", o.label),
                Ok(Verdict::Incorrect(cex)) => {
                    println!("{}: NOT Comp-C{backend} — {cex}", o.label);
                    if flags.explain {
                        for line in cex
                            .explain_with(&systems[idx], flags.options)
                            .to_string()
                            .lines()
                        {
                            println!("  {line}");
                        }
                    }
                    if flags.minimize {
                        if let Some(min) = compc::core::minimize(&systems[idx]) {
                            let names: Vec<&str> =
                                min.roots.iter().map(|&n| systems[idx].name(n)).collect();
                            println!(
                                "  minimal violating transaction set ({} of {}): {}",
                                min.roots.len(),
                                systems[idx].roots().count(),
                                names.join(", ")
                            );
                        }
                    }
                }
                Err(fault) if fault.is_timeout() => {
                    println!("{}: TIMEOUT — {fault}", o.label)
                }
                Err(fault) => println!("{}: FAULT — {fault}", o.label),
            }
            if flags.options.oracle {
                if let Ok(verdict) = &o.result {
                    match oracle_cross_check(&systems[idx], verdict.is_correct(), "  ") {
                        None => oracle_skipped += 1,
                        Some(false) => oracle_checked += 1,
                        Some(true) => {
                            oracle_checked += 1;
                            oracle_disagreements += 1;
                        }
                    }
                }
            }
            if let Some(f) = checkpoint_file.as_mut() {
                let status = match &o.result {
                    Ok(Verdict::Correct(_)) => Some("ok"),
                    Ok(Verdict::Incorrect(_)) => Some("violation"),
                    Err(_) => None, // re-run on resume
                };
                if let Some(status) = status {
                    if let Err(e) = writeln!(f, "{status}\t{}", o.label) {
                        eprintln!("cannot append to checkpoint: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
        if let Some(f) = checkpoint_file.as_mut() {
            let _ = f.flush();
        }
        stats.merge(&report.stats);
        metrics.merge(&report.metrics);
        offset += chunk_len;
    }
    if stats.systems > 0 {
        println!("{stats}");
        if flags.options.oracle {
            println!(
                "oracle: {oracle_checked} cross-checked, {oracle_skipped} skipped \
                 (over the node cap), {oracle_disagreements} disagreement(s)"
            );
        }
        if flags.stats {
            println!("{metrics}");
            println!(
                "closure backends: {}",
                backend_line(total_dense, total_sparse, total_compressed)
            );
        }
    } else {
        println!("nothing left to check ({prior_violations} prior violation(s) on record)");
    }

    if invalid > 0 || stats.faults > 0 || oracle_disagreements > 0 {
        if invalid > 0 {
            eprintln!("{invalid} input(s) were invalid");
        }
        if stats.faults > 0 {
            eprintln!("{} check(s) faulted", stats.faults);
        }
        if oracle_disagreements > 0 {
            eprintln!("{oracle_disagreements} engine/oracle disagreement(s)");
        }
        ExitCode::from(2)
    } else if stats.timeouts > 0 {
        eprintln!("{} check(s) timed out", stats.timeouts);
        ExitCode::from(3)
    } else if stats.incorrect > 0 || prior_violations > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Expands one path into batch items: directories contribute their `*.json`
/// files (sorted), NDJSON files one item per non-empty line, plain files one
/// item. Invalid specs are reported and counted, not fatal — the remaining
/// lines and files are still checked.
fn collect_items(
    path: &Path,
    items: &mut Vec<BatchItem>,
    invalid: &mut usize,
) -> Result<(), String> {
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| e.to_string())?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
            .collect();
        files.sort();
        for file in files {
            if let Err(e) = collect_items(&file, items, invalid) {
                eprintln!("{}: {e}", file.display());
                *invalid += 1;
            }
        }
        return Ok(());
    }
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let label_base = path.display().to_string();
    if is_ndjson(path) {
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            let label = format!("{label_base}:{}", lineno + 1);
            match load_spec(line) {
                Ok(sys) => items.push(BatchItem::new(label, sys)),
                Err(e) => {
                    eprintln!("{label}: {e}");
                    *invalid += 1;
                }
            }
        }
    } else {
        match load_spec(&text) {
            Ok(sys) => items.push(BatchItem::new(label_base, sys)),
            Err(e) => {
                eprintln!("{label_base}: {e}");
                *invalid += 1;
            }
        }
    }
    Ok(())
}
