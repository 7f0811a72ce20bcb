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
//! ```
//!
//! Batch mode — a directory of `*.json` specs, an NDJSON file (one spec per
//! line, `.ndjson`/`.jsonl`), or several paths at once. Each item runs as
//! one pipeline on a worker: read (directory files), parse, build, check,
//! render, drop. `--jobs N` means N workers and at most N threads; each
//! check runs sequentially on its worker, and a single item (or `--jobs 1`,
//! the default) runs inline on the main thread. Items are claimed largest
//! first (by byte length) and reported in input order;
//! an aggregate throughput line closes the report, its wall time covering
//! loading as well as checking. `--trace`, `--stats`, `--explain`,
//! `--minimize` and `--oracle` apply per item (trace lines carry a
//! `"label"` field naming the item); `--dot` is single-system only and is a
//! usage error in batch mode. A spec that cannot be read or built is named
//! on stderr and counted as invalid, and an item whose check panics is
//! reported as a per-item fault; the rest of the batch still completes:
//!
//! ```sh
//! compc-check specs/ --jobs 8
//! compc-check corpus.ndjson --jobs 0    # 0 = one worker per core
//! compc-check a.json b.json --trace --explain
//! ```
//!
//! Robustness controls: `--deadline-ms N` bounds each system's check (not
//! its load) — a check that exceeds the budget is reported as a timeout and
//! the run exits 3 (unless something worse happened). `--checkpoint FILE`
//! (batch mode) appends and flushes one `<status>\t<label>` line as each
//! item finishes, so a killed run loses at most the items in flight; a run
//! restarted with the same flag drops the recorded items before reading
//! their files. Timeouts and faults are *not* recorded and run again.
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
use compc::core::{CheckCtx, CheckOptions, Checker, Verdict};
use compc::engine::{Batch, BatchFault, BatchJob, BatchOutcome};
use compc::spec::SystemSpec;
use compc::trace::{event_to_ndjson_line, replay, MemorySink, TraceStats};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Default)]
struct Flags {
    /// The one [`CheckOptions`] every mode checks with — single systems
    /// ([`Checker::with_options`]), batches ([`Batch::with_options`]) and
    /// explanations all read the same struct, so a flag cannot mean
    /// different things in different modes.
    /// `--oracle` cross-checks every verdict against the brute-force oracle
    /// (systems within `compc::oracle::RECOMMENDED_NODE_CAP` nodes; larger
    /// ones are reported as skipped); a disagreement is an engine bug, exit
    /// 2.
    options: CheckOptions,
    /// `--jobs N`: batch workers, `0` one per core. Single mode checks on
    /// the main thread whatever it says.
    workers: usize,
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
    println!("  --jobs N          batch workers, 0 = one per core (default 1): each");
    println!("                    reads, builds and checks its own items, largest");
    println!("                    first; the run uses at most N threads in all. Every");
    println!("                    check is sequential, so single mode ignores it");
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
    println!("                    FILE as it finishes and, on restart, skip the items");
    println!("                    already recorded (their files are not read) so an");
    println!("                    interrupted corpus run resumes; timeouts and faults");
    println!("                    are not recorded and re-run");
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
    let mut flags = Flags {
        workers: 1,
        ..Flags::default()
    };
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
            "--jobs" => {
                i += 1;
                let value = args.get(i).map(String::as_str);
                let Some(workers) = value.and_then(|v| v.parse().ok()) else {
                    let got = value.unwrap_or("nothing");
                    eprintln!("--jobs needs a non-negative number (0 = one per core), got {got}");
                    return usage();
                };
                flags.workers = workers;
            }
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

/// One item's trace as NDJSON, each line tagged with the item label.
fn ndjson(label: &str, events: &[compc::trace::TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_to_ndjson_line(event, Some(label)));
        out.push('\n');
    }
    out
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

/// Cross-checks one verdict against the brute-force oracle. Returns the
/// report line and `None` if the system exceeds the oracle's node cap
/// (skipped), `Some(false)` on agreement, `Some(true)` on a disagreement —
/// which is an engine bug.
fn oracle_cross_check(
    system: &compc::model::CompositeSystem,
    engine_correct: bool,
) -> (String, Option<bool>) {
    let cap = compc::oracle::RECOMMENDED_NODE_CAP;
    if system.node_count() > cap {
        let line = format!(
            "oracle: skipped ({} nodes exceed the {cap}-node cap)",
            system.node_count()
        );
        return (line, None);
    }
    let accepted = compc::oracle::decide(system).accepted();
    if accepted == engine_correct {
        let line = format!(
            "oracle: agrees ({})",
            if accepted { "Comp-C" } else { "not Comp-C" }
        );
        (line, Some(false))
    } else {
        let line = format!(
            "ORACLE DISAGREEMENT: engine says {engine_correct}, oracle says {accepted} \
             — this is an engine bug; please report the input"
        );
        (line, Some(true))
    }
}

// ---------------------------------------------------------------------
// Single-system mode
// ---------------------------------------------------------------------

/// Prints the oracle's line for one system; true on a disagreement.
fn single_oracle(system: &compc::model::CompositeSystem, engine_correct: bool) -> bool {
    let (line, disagreement) = oracle_cross_check(system, engine_correct);
    println!("{line}");
    disagreement == Some(true)
}

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
    let mut ctx = CheckCtx::new();
    if flags.trace || flags.stats {
        ctx = ctx.traced(&mut sink);
    }
    let result = Checker::with_options(flags.options).try_check(&system, &mut ctx);
    let counts = ctx.closures;
    if flags.trace {
        print!("{}", ndjson(path, &sink.events));
    }
    if flags.stats {
        let mut stats = TraceStats::default();
        replay(&sink.events, &mut stats);
        println!("{stats}");
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
            if flags.options.oracle && single_oracle(&system, true) {
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
            if flags.options.oracle && single_oracle(&system, false) {
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

/// Where one batch item's spec text comes from.
enum Source {
    /// A spec file, read by the worker that checks it.
    File(PathBuf),
    /// One line of an NDJSON corpus, already in memory.
    Line(String),
}

fn load_source(source: Source) -> Result<compc::model::CompositeSystem, String> {
    match source {
        Source::File(path) => load_spec(&std::fs::read_to_string(path).map_err(|e| e.to_string())?),
        Source::Line(line) => load_spec(&line),
    }
}

/// One item's report, rendered on its worker while its system is alive.
struct Rendered {
    stdout: String,
    /// The `label: error` line of an item that failed to load.
    stderr: Option<String>,
    /// The oracle cross-check as [`oracle_cross_check`] returns it, when
    /// one ran.
    oracle: Option<Option<bool>>,
}

/// Renders one item: its trace, verdict line, explanation, minimal core and
/// oracle cross-check. Without the system (the item panicked) only the
/// trace and the verdict line are rendered.
fn render(
    flags: &Flags,
    options: CheckOptions,
    system: Option<&compc::model::CompositeSystem>,
    o: &BatchOutcome,
) -> Rendered {
    let mut out = String::new();
    let mut stderr = None;
    let mut oracle = None;
    if flags.trace {
        out = ndjson(&o.label, &o.events);
    }
    // Which closure representation the item's check actually used — only
    // worth a column when the user asked for stats.
    let backend = if flags.stats {
        format!(" [{}]", o.backend())
    } else {
        String::new()
    };
    let label = &o.label;
    match &o.result {
        Ok(Verdict::Correct(_)) => out.push_str(&format!("{label}: Comp-C{backend}\n")),
        Ok(Verdict::Incorrect(cex)) => {
            out.push_str(&format!("{label}: NOT Comp-C{backend} — {cex}\n"));
            if let (true, Some(system)) = (flags.explain, system) {
                for line in cex.explain_with(system, options).to_string().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
            if let (true, Some(system)) = (flags.minimize, system) {
                if let Some(min) = compc::core::minimize(system) {
                    let names: Vec<&str> = min.roots.iter().map(|&n| system.name(n)).collect();
                    out.push_str(&format!(
                        "  minimal violating transaction set ({} of {}): {}\n",
                        min.roots.len(),
                        system.roots().count(),
                        names.join(", ")
                    ));
                }
            }
        }
        Err(BatchFault::Invalid { message }) => stderr = Some(format!("{label}: {message}")),
        Err(fault) if fault.is_timeout() => out.push_str(&format!("{label}: TIMEOUT — {fault}\n")),
        Err(fault) => out.push_str(&format!("{label}: FAULT — {fault}\n")),
    }
    if let (true, Some(system), Ok(verdict)) = (flags.options.oracle, system, &o.result) {
        let (line, result) = oracle_cross_check(system, verdict.is_correct());
        out.push_str(&format!("  {line}\n"));
        oracle = Some(result);
    }
    Rendered {
        stdout: out,
        stderr,
        oracle,
    }
}

fn check_batch(paths: &[String], flags: &Flags) -> ExitCode {
    let mut jobs: Vec<BatchJob<Source>> = Vec::new();
    let mut invalid = 0usize;
    for path in paths {
        if let Err(e) = collect_jobs(Path::new(path), &mut jobs, &mut invalid) {
            eprintln!("{path}: {e}");
            invalid += 1;
        }
    }
    if jobs.is_empty() {
        eprintln!("no checkable systems found");
        return ExitCode::from(2);
    }

    // A checkpoint file records `<status>\t<label>` per finished item
    // (status `ok` or `violation`). On resume, recorded items are dropped
    // before their files are read, and prior violations still count toward
    // the exit code; timeouts and faults were never recorded, so they run
    // again.
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
            let before = jobs.len();
            jobs.retain(|job| !done.contains(&job.label));
            eprintln!(
                "checkpoint: {} of {before} item(s) already recorded in {cp} \
                 ({prior_violations} prior violation(s)), {} left",
                before - jobs.len(),
                jobs.len()
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

    // Each worker reads, parses, builds, checks and renders its own items.
    // Finished items reach the hook below in completion order: it appends
    // and flushes their checkpoint lines at once (a killed run loses only
    // the items in flight) and prints their reports in input order.
    let mut pending: BTreeMap<usize, Rendered> = BTreeMap::new();
    let mut next_to_print = 0usize;
    let mut checkpoint_failed = false;
    let mut oracle_checked = 0u64;
    let mut oracle_skipped = 0u64;
    let mut oracle_disagreements = 0u64;
    let report = Batch::with_options(flags.options)
        .workers(flags.workers)
        .tracing(flags.trace || flags.stats)
        .pipeline(
            jobs,
            load_source,
            |checker, system, o| render(flags, checker.options(), system.ok(), o),
            |idx, o, rendered| {
                let rendered = rendered.unwrap_or_else(|| render(flags, flags.options, None, o));
                match rendered.oracle {
                    Some(None) => oracle_skipped += 1,
                    Some(Some(false)) => oracle_checked += 1,
                    Some(Some(true)) => {
                        oracle_checked += 1;
                        oracle_disagreements += 1;
                    }
                    None => {}
                }
                let status = match &o.result {
                    Ok(Verdict::Correct(_)) => Some("ok"),
                    Ok(Verdict::Incorrect(_)) => Some("violation"),
                    Err(_) => None, // re-run on resume
                };
                if let (Some(f), Some(status), false) =
                    (checkpoint_file.as_mut(), status, checkpoint_failed)
                {
                    if let Err(e) = writeln!(f, "{status}\t{}", o.label).and_then(|()| f.flush()) {
                        eprintln!("cannot append to checkpoint: {e}");
                        checkpoint_failed = true;
                    }
                }
                pending.insert(idx, rendered);
                while let Some(r) = pending.remove(&next_to_print) {
                    print!("{}", r.stdout);
                    if let Some(line) = r.stderr {
                        eprintln!("{line}");
                    }
                    next_to_print += 1;
                }
            },
        );

    let stats = report.stats;
    invalid += stats.invalid;
    if stats.systems > 0 {
        println!("{stats}");
        if flags.options.oracle {
            println!(
                "oracle: {oracle_checked} cross-checked, {oracle_skipped} skipped \
                 (over the node cap), {oracle_disagreements} disagreement(s)"
            );
        }
        if flags.stats {
            let total = |f: fn(&BatchOutcome) -> u64| report.outcomes.iter().map(f).sum::<u64>();
            println!("{}", report.metrics);
            println!(
                "closure backends: {}",
                backend_line(
                    total(|o| o.dense_closures),
                    total(|o| o.sparse_closures),
                    total(|o| o.compressed_closures)
                )
            );
        }
    } else {
        println!("nothing left to check ({prior_violations} prior violation(s) on record)");
    }

    if invalid > 0 || stats.faults > 0 || oracle_disagreements > 0 || checkpoint_failed {
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

/// Expands one path into batch jobs, each sized by its byte length:
/// directories contribute their `*.json` files (sorted by name, read later
/// by the worker that checks them), NDJSON files one in-memory job per
/// non-empty line, plain files one job. A file inside a directory whose
/// size cannot be read is reported and counted, not fatal.
fn collect_jobs(
    path: &Path,
    jobs: &mut Vec<BatchJob<Source>>,
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
            if let Err(e) = collect_jobs(&file, jobs, invalid) {
                eprintln!("{}: {e}", file.display());
                *invalid += 1;
            }
        }
        return Ok(());
    }
    let label_base = path.display().to_string();
    if is_ndjson(path) {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if !line.trim().is_empty() {
                let label = format!("{label_base}:{}", lineno + 1);
                jobs.push(BatchJob::new(
                    label,
                    line.len() as u64,
                    Source::Line(line.to_string()),
                ));
            }
        }
    } else {
        let size = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        jobs.push(BatchJob::new(
            label_base,
            size,
            Source::File(path.to_path_buf()),
        ));
    }
    Ok(())
}
