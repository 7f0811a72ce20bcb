//! End-to-end tests for the `compc-check` binary: NDJSON corpus edge cases,
//! the `--trace`/`--stats`/`--explain` observability flags, and flag
//! validation — all through the real executable.

use compc::model::CompositeSystem;
use compc::spec::SystemSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A tiny correct system: two conflicting writes, serialized consistently.
fn correct_system(tag: &str) -> CompositeSystem {
    let mut b = compc::model::SystemBuilder::new();
    let s = b.schedule("db");
    let t1 = b.root(format!("T1{tag}"), s);
    let t2 = b.root(format!("T2{tag}"), s);
    let w1 = b.leaf("w1(x)", t1);
    let w2 = b.leaf("w2(x)", t2);
    b.conflict(w1, w2).unwrap();
    b.output_weak(w1, w2).unwrap();
    b.build().unwrap()
}

/// The classical lost update: not Comp-C.
fn incorrect_system() -> CompositeSystem {
    let mut b = compc::model::SystemBuilder::new();
    let s = b.schedule("db");
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

fn spec_line(sys: &CompositeSystem) -> String {
    SystemSpec::from_system(sys).to_json().to_compact()
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_compc-check"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("compc-check runs")
}

/// A path `name` inside a fresh directory under the temp dir; the directory
/// is removed with its contents on drop.
struct TmpFile {
    dir: PathBuf,
    path: PathBuf,
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl std::ops::Deref for TmpFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TmpFile {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

fn tmpfile(name: &str) -> TmpFile {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "compc-cli-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    TmpFile {
        path: dir.join(name),
        dir,
    }
}

fn figure3_path() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/figure3_incorrect.json"
    )
    .to_string()
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

#[test]
fn ndjson_corpus_tolerates_blank_lines_crlf_and_trailing_newline() {
    // Blank lines (including whitespace-only), CRLF endings, and a trailing
    // newline are all cosmetic; every spec line is still checked.
    let corpus = format!(
        "{}\r\n\r\n   \n{}\r\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system()),
        spec_line(&correct_system("b")),
    );
    let path = tmpfile("edge.ndjsonl.ndjson");
    std::fs::write(&path, corpus).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One system was incorrect, none invalid.
    assert_eq!(exit_code(&out), 1, "stdout: {stdout}");
    assert!(
        stdout.contains("3 systems (2 correct, 1 incorrect)"),
        "{stdout}"
    );
    // Labels point at the original line numbers (1, 4, 5).
    assert!(stdout.contains(":1: Comp-C"), "{stdout}");
    assert!(stdout.contains(":4: NOT Comp-C"), "{stdout}");
    assert!(stdout.contains(":5: Comp-C"), "{stdout}");
}

#[test]
fn ndjson_corpus_reports_invalid_line_but_checks_the_rest() {
    // An invalid spec mid-file exits 2, but the remaining lines are still
    // checked and reported.
    let corpus = format!(
        "{}\n{{\"version\":1,\"nope\":true}}\nnot even json\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system()),
    );
    let path = tmpfile("invalid-mid.ndjson");
    std::fs::write(&path, corpus).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 2, "invalid input wins: {stdout}\n{stderr}");
    assert!(stdout.contains(":1: Comp-C"), "{stdout}");
    assert!(stdout.contains(":4: NOT Comp-C"), "{stdout}");
    assert!(
        stdout.contains("2 systems (1 correct, 1 incorrect)"),
        "{stdout}"
    );
    assert!(stderr.contains(":2:"), "invalid lines are named: {stderr}");
    assert!(stderr.contains(":3:"), "invalid lines are named: {stderr}");
    assert!(stderr.contains("2 input(s) were invalid"), "{stderr}");
}

#[test]
fn trace_emits_valid_ndjson_one_event_per_level() {
    let corpus = format!(
        "{}\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system())
    );
    let path = tmpfile("trace.ndjson");
    std::fs::write(&path, corpus).unwrap();
    let out = run(&[path.to_str().unwrap(), "--trace", "--jobs", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut starts = 0;
    let mut levels = 0;
    let mut ends = 0;
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        let v = compc::json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON {line}: {e}"));
        let kind = v.get("event").and_then(|e| e.as_str()).expect("event kind");
        assert!(
            v.get("label").and_then(|l| l.as_str()).is_some(),
            "batch trace lines carry the item label: {line}"
        );
        match kind {
            "check_start" => starts += 1,
            "level" => {
                levels += 1;
                assert!(v.get("level").and_then(|x| x.as_u64()).is_some(), "{line}");
                assert!(v.get("elapsed_ns").is_some(), "{line}");
                assert!(v.get("front_before").is_some(), "{line}");
            }
            "check_end" => ends += 1,
            other => panic!("unexpected event kind {other}"),
        }
    }
    assert_eq!(starts, 2);
    assert_eq!(ends, 2);
    // Both systems are order-1: exactly one level event each.
    assert_eq!(levels, 2);
}

#[test]
fn single_mode_trace_and_stats_narrate_figure3() {
    let out = run(&[&figure3_path(), "--trace", "--stats"]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let level_events = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .filter_map(|l| compc::json::parse(l).ok())
        .filter(|v| v.get("event").and_then(|e| e.as_str()) == Some("level"))
        .count();
    // Figure 3 fails at level 3: three level events (two ok, one failing).
    assert_eq!(level_events, 3, "{stdout}");
    assert!(
        stdout.contains("level time (ns):"),
        "--stats histograms: {stdout}"
    );
    assert!(stdout.contains("front sizes:"), "{stdout}");
}

#[test]
fn explain_names_failing_level_and_witness_cycle() {
    let out = run(&[&figure3_path(), "--explain"]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("failed at level 3 of 3"), "{stdout}");
    assert!(stdout.contains("witness cycle: T1 -> T2 -> T1"), "{stdout}");
    assert!(
        stdout.contains("minimal violating transaction set (2 of 3 roots): T1, T2"),
        "{stdout}"
    );
}

#[test]
fn batch_mode_honors_explain_per_item() {
    let corpus = format!(
        "{}\n{}\n",
        spec_line(&incorrect_system()),
        spec_line(&correct_system("a"))
    );
    let path = tmpfile("explain.ndjson");
    std::fs::write(&path, corpus).unwrap();
    let out = run(&[path.to_str().unwrap(), "--explain"]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("witness cycle:"), "{stdout}");
    assert!(stdout.contains("failed at level 1 of 1"), "{stdout}");
}

#[test]
fn jobs_flag_rejects_missing_and_negative_arguments() {
    for args in [
        vec![figure3_path(), "--jobs".to_string()],
        vec![figure3_path(), "--jobs".to_string(), "-3".to_string()],
        vec![figure3_path(), "--jobs".to_string(), "lots".to_string()],
        vec!["--jobs".to_string(), "2".to_string()], // jobs but no input
    ] {
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run(&argv);
        assert_eq!(exit_code(&out), 2, "args {args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn version_and_help_exit_zero_and_document_exit_codes() {
    let out = run(&["--version"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("compc-check "), "{stdout}");

    let out = run(&["--help"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "exit codes:",
        "--deadline-ms",
        "--checkpoint",
        "not Comp-C",
        "exceeded --deadline-ms",
    ] {
        assert!(
            stdout.contains(needle),
            "--help mentions {needle}: {stdout}"
        );
    }
}

#[test]
fn zero_deadline_times_out_single_system_with_exit_3() {
    // A zero budget expires at the first level boundary — deterministic
    // timeout without depending on machine speed.
    let out = run(&[&figure3_path(), "--deadline-ms", "0"]);
    assert_eq!(exit_code(&out), 3);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TIMEOUT"), "{stdout}");
    assert!(stdout.contains("before level 1"), "{stdout}");
}

#[test]
fn zero_deadline_times_out_batch_with_exit_3() {
    let corpus = format!(
        "{}\n{}\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system()),
        spec_line(&correct_system("b")),
    );
    let path = tmpfile("deadline.ndjson");
    std::fs::write(&path, corpus).unwrap();
    let out = run(&[path.to_str().unwrap(), "--deadline-ms", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 3, "{stdout}\n{stderr}");
    assert_eq!(stdout.matches("TIMEOUT").count(), 3, "{stdout}");
    assert!(stdout.contains("3 timeouts"), "{stdout}");
    assert!(stderr.contains("3 check(s) timed out"), "{stderr}");
    // A generous budget checks everything; the violation wins over 0.
    let out = run(&[path.to_str().unwrap(), "--deadline-ms", "60000"]);
    assert_eq!(exit_code(&out), 1);
}

#[test]
fn deadline_flag_rejects_missing_and_bad_arguments() {
    for args in [
        vec![figure3_path(), "--deadline-ms".to_string()],
        vec![
            figure3_path(),
            "--deadline-ms".to_string(),
            "soon".to_string(),
        ],
    ] {
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run(&argv);
        assert_eq!(exit_code(&out), 2, "args {args:?} must be a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn checkpoint_resumes_only_unfinished_items() {
    let corpus = format!(
        "{}\n{}\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system()),
        spec_line(&correct_system("b")),
    );
    let corpus_path = tmpfile("resume.ndjson");
    std::fs::write(&corpus_path, corpus).unwrap();
    let cp = tmpfile("resume.checkpoint");
    let _ = std::fs::remove_file(&cp);

    // Simulate an interrupted run: the first two items finished (one was a
    // violation), the third did not make it into the checkpoint.
    std::fs::write(
        &cp,
        format!("ok\t{0}:1\nviolation\t{0}:2\n", corpus_path.display()),
    )
    .unwrap();

    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Only line 3 is rechecked; the recorded violation still drives exit 1.
    assert_eq!(exit_code(&out), 1, "{stdout}\n{stderr}");
    assert!(!stdout.contains(":1: "), "line 1 is skipped: {stdout}");
    assert!(!stdout.contains(":2: "), "line 2 is skipped: {stdout}");
    assert!(stdout.contains(":3: Comp-C"), "{stdout}");
    assert!(
        stdout.contains("1 systems (1 correct, 0 incorrect)"),
        "{stdout}"
    );
    assert!(
        stderr.contains("2 of 3 item(s) already recorded"),
        "{stderr}"
    );
    assert!(stderr.contains("1 prior violation(s)"), "{stderr}");

    // The finished item was appended; a third run has nothing left to do
    // but still reports the recorded violation through the exit code.
    let recorded = std::fs::read_to_string(&cp).unwrap();
    assert!(
        recorded.contains(&format!("ok\t{}:3", corpus_path.display())),
        "{recorded}"
    );
    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("nothing left to check"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn checkpoint_records_a_fresh_run_and_skips_everything_on_rerun() {
    let corpus = format!(
        "{}\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&correct_system("b")),
    );
    let corpus_path = tmpfile("fresh.ndjson");
    std::fs::write(&corpus_path, corpus).unwrap();
    let cp = tmpfile("fresh.checkpoint");
    let _ = std::fs::remove_file(&cp);

    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0);
    let recorded = std::fs::read_to_string(&cp).unwrap();
    assert_eq!(recorded.lines().count(), 2, "{recorded}");
    assert!(
        recorded.lines().all(|l| l.starts_with("ok\t")),
        "{recorded}"
    );

    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("nothing left to check"),
        "everything was recorded"
    );
}

#[test]
fn fully_recorded_directory_still_reports_an_unrecorded_corrupt_file() {
    // Recorded items are skipped before they are parsed, but an unrecorded
    // file is still read, so a corrupt one is named and the run exits 2.
    let dir = tmpfile("recorded-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("a.json");
    let bad = dir.join("b.json");
    std::fs::write(&good, spec_line(&correct_system("a"))).unwrap();
    let cp = tmpfile("recorded-dir.checkpoint");
    std::fs::write(&cp, format!("violation\t{}\n", good.display())).unwrap();
    std::fs::write(&bad, "{\"version\":1,\"nodes\":[").unwrap();

    let out = run(&[dir.to_str().unwrap(), "--checkpoint", cp.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 2, "{stdout}\n{stderr}");
    assert!(
        stdout.contains("nothing left to check (1 prior violation(s) on record)"),
        "{stdout}"
    );
    assert!(
        stderr.contains(&format!("{}: ", bad.display())),
        "the corrupt file is named: {stderr}"
    );
    assert!(stderr.contains("1 input(s) were invalid"), "{stderr}");
    assert!(!stderr.contains("no checkable systems found"), "{stderr}");
    assert!(
        stderr.contains("1 of 2 item(s) already recorded"),
        "{stderr}"
    );
}

#[test]
fn timed_out_items_are_not_checkpointed_and_rerun_on_resume() {
    let corpus = format!("{}\n", spec_line(&correct_system("a")));
    let corpus_path = tmpfile("timeout-cp.ndjson");
    std::fs::write(&corpus_path, corpus).unwrap();
    let cp = tmpfile("timeout-cp.checkpoint");
    let _ = std::fs::remove_file(&cp);

    // Everything times out: the checkpoint stays empty.
    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(exit_code(&out), 3);
    let recorded = std::fs::read_to_string(&cp).unwrap_or_default();
    assert!(
        recorded.trim().is_empty(),
        "timeouts are not recorded: {recorded}"
    );

    // Without the deadline the item runs again and is recorded.
    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0);
    let recorded = std::fs::read_to_string(&cp).unwrap();
    assert!(recorded.starts_with("ok\t"), "{recorded}");
}

#[test]
fn checkpoint_survives_a_timed_out_run_and_resumes_the_rest() {
    // An interrupted-then-timed-out corpus run: item 1 was recorded by an
    // earlier run; the next run times out on everything left (exit 3)
    // without touching the checkpoint; the final run, restarted with a
    // workable budget and the same flag, checks exactly the unrecorded
    // items and folds the recorded state into the exit code.
    let corpus = format!(
        "{}\n{}\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system()),
        spec_line(&correct_system("b")),
    );
    let corpus_path = tmpfile("timeout-resume.ndjson");
    std::fs::write(&corpus_path, corpus).unwrap();
    let cp = tmpfile("timeout-resume.checkpoint");
    let _ = std::fs::remove_file(&cp);
    std::fs::write(&cp, format!("ok\t{}:1\n", corpus_path.display())).unwrap();

    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
        "--deadline-ms",
        "0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 3, "{stdout}\n{stderr}");
    assert!(!stdout.contains(":1: "), "line 1 stays skipped: {stdout}");
    assert_eq!(stdout.matches("TIMEOUT").count(), 2, "{stdout}");
    let recorded = std::fs::read_to_string(&cp).unwrap();
    assert_eq!(
        recorded.lines().count(),
        1,
        "timeouts must not be recorded: {recorded}"
    );

    let out = run(&[
        corpus_path.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
        "--deadline-ms",
        "60000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 1, "the violation on line 2 wins: {stdout}");
    assert!(!stdout.contains(":1: "), "{stdout}");
    assert!(stdout.contains(":2: NOT Comp-C"), "{stdout}");
    assert!(stdout.contains(":3: Comp-C"), "{stdout}");
    let recorded = std::fs::read_to_string(&cp).unwrap();
    assert!(
        recorded.contains(&format!("violation\t{}:2", corpus_path.display())),
        "{recorded}"
    );
    assert!(
        recorded.contains(&format!("ok\t{}:3", corpus_path.display())),
        "{recorded}"
    );
}

#[test]
fn dense_and_sparse_backends_agree_on_batch_verdicts() {
    let corpus = format!(
        "{}\n{}\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system()),
        spec_line(&correct_system("b")),
    );
    let path = tmpfile("backends.ndjson");
    std::fs::write(&path, corpus).unwrap();

    let mut verdict_lines = Vec::new();
    for backend in ["dense", "sparse"] {
        let out = run(&[path.to_str().unwrap(), "--backend", backend, "--stats"]);
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert_eq!(exit_code(&out), 1, "[{backend}] {stdout}");
        assert!(
            stdout.contains(&format!("closure backends: {backend}")),
            "[{backend}] --stats names the forced backend: {stdout}"
        );
        // Per-item verdicts, stripped of the per-item backend tag.
        let mut lines: Vec<String> = stdout
            .lines()
            .filter(|l| l.contains(": Comp-C") || l.contains(": NOT Comp-C"))
            .map(|l| l.replace(&format!(" [{backend}]"), ""))
            .collect();
        lines.sort();
        verdict_lines.push(lines);
    }
    assert_eq!(
        verdict_lines[0], verdict_lines[1],
        "dense and sparse batch verdicts must be identical line for line"
    );

    let out = run(&[path.to_str().unwrap(), "--backend", "fast"]);
    assert_eq!(exit_code(&out), 2, "unknown backends are usage errors");
}

#[test]
fn oracle_flag_cross_checks_single_and_batch_verdicts() {
    // Single mode: the oracle agrees with the engine on Figure 3.
    let out = run(&[&figure3_path(), "--oracle"]);
    assert_eq!(exit_code(&out), 1, "agreement keeps the verdict exit code");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("oracle: agrees (not Comp-C)"), "{stdout}");

    // Batch mode: every verdict is cross-checked and summarized.
    let corpus = format!(
        "{}\n{}\n",
        spec_line(&correct_system("a")),
        spec_line(&incorrect_system()),
    );
    let path = tmpfile("oracle.ndjson");
    std::fs::write(&path, corpus).unwrap();
    let out = run(&[path.to_str().unwrap(), "--oracle"]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("oracle: agrees").count(), 2, "{stdout}");
    assert!(
        stdout.contains("oracle: 2 cross-checked, 0 skipped"),
        "{stdout}"
    );
    assert!(stdout.contains("0 disagreement(s)"), "{stdout}");

    // --help documents the flag and its exit-code semantics.
    let out = run(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--oracle"), "{stdout}");
    assert!(stdout.contains("disagreement"), "{stdout}");
}

#[test]
fn checkpoint_is_a_usage_error_in_single_mode() {
    let out = run(&[&figure3_path(), "--checkpoint", "/tmp/nope.cp"]);
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("batch mode"), "{stderr}");
}

#[test]
fn dot_is_a_usage_error_in_batch_mode() {
    let fig = figure3_path();
    let out = run(&[&fig, &fig, "--dot"]);
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("single-system"), "{stderr}");
    // Single mode still accepts it.
    let out = run(&[&fig, "--dot"]);
    assert_eq!(exit_code(&out), 1, "incorrect system, valid flags");
    assert!(String::from_utf8_lossy(&out.stdout).contains("digraph"));
}

/// A Comp-C system of `roots` transactions writing one item in turn.
fn serial_writers(roots: usize) -> CompositeSystem {
    let mut b = compc::model::SystemBuilder::new();
    let s = b.schedule("db");
    let writes: Vec<_> = (0..roots)
        .map(|i| {
            let t = b.root(format!("T{i}"), s);
            b.leaf(format!("w{i}(x)"), t)
        })
        .collect();
    for pair in writes.windows(2) {
        b.conflict(pair[0], pair[1]).unwrap();
        b.output_weak(pair[0], pair[1]).unwrap();
    }
    b.build().unwrap()
}

/// A fresh directory of spec files whose largest file sorts last by name,
/// with one violating and one invalid file among them.
fn mixed_dir(name: &str) -> TmpFile {
    let dir = tmpfile(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.json"), spec_line(&correct_system("a"))).unwrap();
    std::fs::write(
        dir.join("b-lost-update.json"),
        spec_line(&incorrect_system()),
    )
    .unwrap();
    std::fs::write(dir.join("c-broken.json"), "{\"version\":1,\"nodes\":[").unwrap();
    for i in 0..5 {
        let sys = serial_writers(3 + i);
        std::fs::write(dir.join(format!("d{i}.json")), spec_line(&sys)).unwrap();
    }
    std::fs::write(dir.join("z-largest.json"), spec_line(&serial_writers(60))).unwrap();
    dir
}

#[test]
fn batch_output_is_identical_at_every_jobs_count() {
    // Items are claimed largest first (z-largest.json, last by name, runs
    // first) but printed in input order, so stdout (bar the timing summary),
    // stderr and the exit code do not depend on --jobs.
    let dir = mixed_dir("jobs-invariance");
    let dir = dir.to_str().unwrap();
    for extra in [&[][..], &["--explain", "--minimize"][..], &["--oracle"][..]] {
        let mut runs = Vec::new();
        for jobs in ["1", "2", "0"] {
            let mut args = vec![dir, "--jobs", jobs];
            args.extend_from_slice(extra);
            let out = run(&args);
            let stdout: Vec<String> = String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| !l.contains(" systems ("))
                .map(str::to_string)
                .collect();
            let stderr = String::from_utf8_lossy(&out.stderr).to_string();
            runs.push((jobs, exit_code(&out), stdout, stderr));
        }
        let (_, code, stdout, stderr) = &runs[0];
        assert_eq!(*code, 2, "the broken file wins: {stdout:?}\n{stderr}");
        assert!(stderr.contains("c-broken.json: "), "{stderr}");
        assert!(stderr.contains("1 input(s) were invalid"), "{stderr}");
        let verdicts: Vec<&String> = stdout
            .iter()
            .filter(|l| l.starts_with(dir) && l.contains("Comp-C"))
            .collect();
        assert_eq!(verdicts.len(), 8, "{stdout:?}");
        assert!(verdicts[0].contains("a.json: Comp-C"), "{stdout:?}");
        assert!(
            verdicts[1].contains("b-lost-update.json: NOT Comp-C"),
            "{stdout:?}"
        );
        assert!(verdicts[7].contains("z-largest.json: Comp-C"), "{stdout:?}");
        for (jobs, other_code, other_stdout, other_stderr) in &runs[1..] {
            assert_eq!(other_code, code, "--jobs {jobs} {extra:?}");
            assert_eq!(other_stdout, stdout, "--jobs {jobs} {extra:?}");
            assert_eq!(other_stderr, stderr, "--jobs {jobs} {extra:?}");
        }
    }
}

#[test]
fn recorded_items_are_never_read_on_resume() {
    let dir = mixed_dir("recorded-unread");
    std::fs::remove_file(dir.join("c-broken.json")).unwrap();
    let cp = tmpfile("recorded-unread.checkpoint");
    let _ = std::fs::remove_file(&cp);
    let args = [
        dir.to_str().unwrap(),
        "--checkpoint",
        cp.to_str().unwrap(),
        "--jobs",
        "2",
    ];
    let first = run(&args);
    assert_eq!(exit_code(&first), 1, "the lost update is recorded");
    let recorded = std::fs::read_to_string(&cp).unwrap();
    assert_eq!(recorded.lines().count(), 8, "{recorded}");

    // A recorded file that is no longer even readable text is not read: the
    // rerun has nothing left to check and keeps the recorded exit code.
    std::fs::write(dir.join("z-largest.json"), [0xff, 0xfe, 0x00, 0x80]).unwrap();
    let again = run(&args);
    let stdout = String::from_utf8_lossy(&again.stdout);
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert_eq!(exit_code(&again), 1, "{stdout}\n{stderr}");
    assert!(
        stdout.contains("nothing left to check (1 prior violation(s) on record)"),
        "{stdout}"
    );
    assert!(!stderr.contains("invalid"), "{stderr}");
}
