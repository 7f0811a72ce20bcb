//! `serve-soak` — kill-anywhere crash-recovery soak for `compc-serve`.
//!
//! Proves the daemon's durability contract ("an acked verdict survives any
//! single crash") by doing its best to break it: resilient clients stream
//! random append workloads — one client per session, across multiple
//! dispatch shards, with journal group commit enabled — while this
//! harness SIGKILLs the daemon at uniformly random points, including
//! mid-batch-write, mid-compaction (the workload interleaves
//! `checkpoint` ops), and mid-startup-replay (kills may land before the
//! socket even appears) — then restarts it and asserts, after every
//! single restart and for every session, that no acked append was lost
//! *and* that nothing the clients never delivered materialized
//! (`acked <= recovered <= delivered`). When the workload completes, each
//! session's final verdict is compared field-by-field against a
//! from-scratch batch check of its merged system: recovery must be
//! bit-identical, not merely non-lossy.
//!
//! ```text
//! serve-soak [--kills N] [--seed S] [--roots N] [--clients N]
//!            [--commit-batch N] [--dispatch-shards N] [--daemon PATH] [--keep]
//! ```
//!
//! Exit code 0 = the contract held across all N kills; 2 = a lost acked
//! append, a verdict mismatch, or a harness failure (the daemon's stderr
//! log tail is printed).

use compc::json::Value;
use compc::serve::client::{append_request, stream_requests_observed, BackoffPolicy, Target};
use compc::spec::SystemSpec;
use compc::workload::random::{generate, GenParams, Shape};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    kills: u64,
    seed: u64,
    roots: usize,
    clients: usize,
    commit_batch: u64,
    dispatch_shards: u64,
    daemon: Option<String>,
    keep: bool,
}

const USAGE: &str = "usage: serve-soak [--kills N] [--seed S] [--roots N] [--clients N] \
[--commit-batch N] [--dispatch-shards N] [--daemon PATH] [--keep]";

fn main() -> ExitCode {
    let mut args = Args {
        kills: 200,
        seed: 42,
        roots: 24,
        clients: 2,
        commit_batch: 64,
        dispatch_shards: 2,
        daemon: None,
        keep: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                println!();
                println!("kill-anywhere crash-recovery soak for compc-serve:");
                println!("  --kills N           SIGKILLs to inject across rounds (default 200)");
                println!("  --seed S            workload + kill-timing seed (default 42)");
                println!("  --roots N           root subtrees per round, split across clients");
                println!("                      (default 24)");
                println!("  --clients N         concurrent clients; client 1 drives the default");
                println!("                      session (the legacy protocol), the rest drive");
                println!("                      named sessions (default 2)");
                println!("  --commit-batch N    daemon group-commit batch size (default 64)");
                println!("  --dispatch-shards N daemon dispatch shards (default 2)");
                println!("  --daemon P          compc-serve binary (default: sibling of this one)");
                println!("  --keep              keep the scratch directories for triage");
                return ExitCode::SUCCESS;
            }
            "--kills" => match take_number(&argv, &mut i) {
                Some(n) => args.kills = n,
                None => return usage("--kills needs a number"),
            },
            "--seed" => match take_number(&argv, &mut i) {
                Some(n) => args.seed = n,
                None => return usage("--seed needs a number"),
            },
            "--roots" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.roots = n as usize,
                _ => return usage("--roots needs a positive number"),
            },
            "--clients" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.clients = n as usize,
                _ => return usage("--clients needs a positive number"),
            },
            "--commit-batch" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.commit_batch = n,
                _ => return usage("--commit-batch needs a positive number"),
            },
            "--dispatch-shards" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.dispatch_shards = n,
                _ => return usage("--dispatch-shards needs a positive number"),
            },
            "--daemon" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => args.daemon = Some(p.clone()),
                    None => return usage("--daemon needs a path"),
                }
            }
            "--keep" => args.keep = true,
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    match soak(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve-soak FAILED: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(complaint: &str) -> ExitCode {
    eprintln!("{complaint}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn take_number(argv: &[String], i: &mut usize) -> Option<u64> {
    *i += 1;
    argv.get(*i).and_then(|v| v.parse().ok())
}

/// The daemon binary under test: `--daemon`, or `compc-serve` next to this
/// harness (both live in the same cargo target directory).
fn daemon_binary(args: &Args) -> Result<std::path::PathBuf, String> {
    if let Some(path) = &args.daemon {
        return Ok(std::path::PathBuf::from(path));
    }
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let sibling = me.with_file_name("compc-serve");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "no compc-serve next to {}; pass --daemon PATH",
            me.display()
        ))
    }
}

/// Deterministic xorshift for kill timing — the whole soak replays from
/// one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn soak(args: &Args) -> Result<String, String> {
    let daemon = daemon_binary(args)?;
    let mut rng = Rng(args.seed | 1);
    let mut kills_done: u64 = 0;
    let mut rounds: u64 = 0;
    while kills_done < args.kills {
        rounds += 1;
        let budget = args.kills - kills_done;
        let round_seed = args.seed.wrapping_add(rounds.wrapping_mul(0x9e37_79b9));
        kills_done += run_round(args, &daemon, round_seed, budget, &mut rng)
            .map_err(|e| format!("round {rounds} (seed {round_seed}): {e}"))?;
        eprintln!("round {rounds} complete: {kills_done}/{} kills", args.kills);
    }
    Ok(format!(
        "serve-soak PASSED: {kills_done} kill(s) over {rounds} round(s), {} session(s) per \
         round, commit batch {}, {} shard(s): zero acked-append loss, bit-identical \
         recovered verdicts",
        args.clients, args.commit_batch, args.dispatch_shards
    ))
}

/// One round: a fresh scratch state, one random workload per client driven
/// to completion through up to `budget` kills. Returns the kills injected.
fn run_round(
    args: &Args,
    daemon: &std::path::Path,
    round_seed: u64,
    budget: u64,
    rng: &mut Rng,
) -> Result<u64, String> {
    let dir =
        std::env::temp_dir().join(format!("compc-soak-{}-{round_seed:x}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_round_in(args, daemon, round_seed, budget, rng, &dir);
    if result.is_ok() && !args.keep {
        let _ = std::fs::remove_dir_all(&dir);
    } else if result.is_err() {
        eprintln!("scratch state kept for triage: {}", dir.display());
        print_log_tail(&dir.join("daemon.log"));
    }
    result
}

/// One client's slice of a round: its session, its request lines, and the
/// batch-check ground truth its final verdict must reproduce.
struct Plan {
    /// `None` = the default session, addressed with pre-multi-session
    /// request lines (no `"session"` field at all).
    session: Option<String>,
    lines: Vec<String>,
    /// Which lines are appends (`delivered` counts only these).
    is_append: Vec<bool>,
    last_append_line: String,
    expected: compc::Verdict,
}

/// What the harness observes about one client while it runs.
#[derive(Default)]
struct Tracker {
    /// Highest acked per-session `appends` counter.
    max_acked: AtomicU64,
    /// Append lines handed to a socket write (first sends and re-sends),
    /// the upper bound on what the daemon can have durably applied.
    delivered: AtomicU64,
    done: AtomicBool,
    last_verdict: Mutex<Option<Value>>,
}

fn build_plan(args: &Args, round_seed: u64, client: usize) -> Result<Plan, String> {
    let session = if client == 0 {
        None
    } else {
        Some(format!("s{client}"))
    };
    let params = GenParams {
        shape: Shape::General {
            levels: 3,
            scheds_per_level: 2,
        },
        roots: (args.roots / args.clients.max(1)).max(4),
        conflict_density: 0.5,
        seed: round_seed ^ ((client as u64 + 1).wrapping_mul(0x9e37_79b9)),
        ..GenParams::default()
    };
    let sys = generate(&params);
    let fragments = SystemSpec::from_system(&sys).into_appends();
    let mut lines = Vec::new();
    let mut is_append = Vec::new();
    let mut last_append_line = String::new();
    for (index, fragment) in fragments.iter().enumerate() {
        last_append_line = append_request(session.as_deref(), fragment);
        lines.push(last_append_line.clone());
        is_append.push(true);
        // A compaction op every few appends, so kills can land
        // mid-compaction; sent with the session field so the reader's
        // session routing is exercised on op lines too.
        if index % 5 == 4 {
            lines.push(op_line(session.as_deref(), "checkpoint"));
            is_append.push(false);
        }
    }
    let mut merged = SystemSpec {
        auto_propagate: false,
        ..SystemSpec::default()
    };
    for fragment in &fragments {
        merged
            .merge(fragment)
            .map_err(|e| format!("workload fragments do not merge: {e}"))?;
    }
    let expected = compc::check(
        &merged
            .build()
            .map_err(|e| format!("workload does not build: {e}"))?,
    );
    Ok(Plan {
        session,
        lines,
        is_append,
        last_append_line,
        expected,
    })
}

fn op_line(session: Option<&str>, op: &str) -> String {
    match session {
        None => format!(r#"{{"op": "{op}"}}"#),
        Some(name) => format!(r#"{{"session": "{name}", "op": "{op}"}}"#),
    }
}

fn run_round_in(
    args: &Args,
    daemon: &std::path::Path,
    round_seed: u64,
    budget: u64,
    rng: &mut Rng,
    dir: &std::path::Path,
) -> Result<u64, String> {
    let socket = dir.join("serve.sock").display().to_string();
    let checkpoint = dir.join("state.json").display().to_string();
    let journal = dir.join("journal.ndjson").display().to_string();
    let log = dir.join("daemon.log");

    let plans: Vec<Plan> = (0..args.clients)
        .map(|c| build_plan(args, round_seed, c))
        .collect::<Result<_, _>>()?;
    let trackers: Vec<Arc<Tracker>> = (0..args.clients)
        .map(|_| Arc::new(Tracker::default()))
        .collect();

    // One client thread per session: the same resilient client
    // `compc-serve --send` uses, recording per-session acked and
    // delivered counters and the last verdict response.
    let clients: Vec<_> = plans
        .iter()
        .zip(&trackers)
        .enumerate()
        .map(|(c, (plan, tracker))| {
            let socket = socket.clone();
            let lines = plan.lines.clone();
            let is_append = plan.is_append.clone();
            let tracker = Arc::clone(tracker);
            let policy = BackoffPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(250),
                max_attempts: 2000,
                io_timeout: Duration::from_secs(30),
                seed: round_seed ^ 0xc11e ^ (c as u64),
            };
            std::thread::spawn(move || {
                let report = stream_requests_observed(
                    &Target::Unix(socket),
                    &lines,
                    &policy,
                    |index| {
                        if is_append[index] {
                            tracker.delivered.fetch_add(1, Ordering::SeqCst);
                        }
                    },
                    |_, response| {
                        if response.get("verdict").is_some() {
                            if let Some(appends) = response.get("appends").and_then(Value::as_u64) {
                                tracker.max_acked.fetch_max(appends, Ordering::SeqCst);
                            }
                            *tracker.last_verdict.lock().expect("verdict lock") =
                                Some(response.clone());
                        }
                    },
                );
                tracker.done.store(true, Ordering::SeqCst);
                report
            })
        })
        .collect();
    let all_done =
        |trackers: &[Arc<Tracker>]| trackers.iter().all(|t| t.done.load(Ordering::SeqCst));

    // The kill loop: spawn, pick a uniformly random time-to-kill (which
    // may elapse before the socket appears — killing mid-startup-replay),
    // verify per-session zero loss after each successful startup, kill,
    // repeat. The window grows with each kill so the round always
    // finishes.
    let mut kills: u64 = 0;
    let mut acked_at_kill: Vec<u64> = vec![0; args.clients];
    let mut child = spawn_daemon(args, daemon, &socket, &checkpoint, &journal, &log)?;
    let outcome = loop {
        if kills < budget && !all_done(&trackers) {
            // Small windows so kills land mid-workload (and mid-replay:
            // the window may elapse before the socket appears); growing
            // with each kill so the round always finishes eventually.
            let window_ms = 4 + 8 * kills.min(120) + rng.below(36);
            let deadline = Instant::now() + Duration::from_millis(window_ms);
            let booted = wait_for_socket_until(&socket, deadline);
            if booted {
                // The durability sandwich, per session: everything acked
                // before the last kill must already be recovered in this
                // incarnation, and nothing can be recovered that was
                // never delivered (the delivered counter is read *after*
                // the stats response, so it bounds everything the stats
                // could have seen).
                for (c, plan) in plans.iter().enumerate() {
                    let recovered = session_appends(&socket, plan.session.as_deref(), deadline)?;
                    let session = plan.session.as_deref().unwrap_or("default");
                    if recovered < acked_at_kill[c] {
                        break_err(&mut child);
                        return Err(format!(
                            "LOST ACKED APPENDS after kill {kills}: session {session} \
                             recovered {recovered} append(s) but its client had {} acked",
                            acked_at_kill[c]
                        ));
                    }
                    let delivered = trackers[c].delivered.load(Ordering::SeqCst);
                    if recovered > delivered {
                        break_err(&mut child);
                        return Err(format!(
                            "PHANTOM APPENDS after kill {kills}: session {session} \
                             recovered {recovered} append(s) but its client only ever \
                             delivered {delivered}"
                        ));
                    }
                }
                while Instant::now() < deadline && !all_done(&trackers) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            if all_done(&trackers) {
                continue; // fall through to the completion path below
            }
            let _ = child.kill();
            let _ = child.wait();
            kills += 1;
            for (c, tracker) in trackers.iter().enumerate() {
                acked_at_kill[c] = tracker.max_acked.load(Ordering::SeqCst);
            }
            child = spawn_daemon(args, daemon, &socket, &checkpoint, &journal, &log)?;
            continue;
        }
        // Out of kill budget (or workload already done): let the clients
        // finish against a stable daemon.
        if !wait_for_socket_until(&socket, Instant::now() + Duration::from_secs(20)) {
            break Err("daemon never came up for the completion phase".to_string());
        }
        let join_deadline = Instant::now() + Duration::from_secs(120);
        while !all_done(&trackers) {
            if Instant::now() > join_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !all_done(&trackers) {
            break Err("clients did not finish within 120s of the last kill".to_string());
        }
        break Ok(());
    };

    let mut reports = Vec::new();
    for client in clients {
        reports.push(
            client
                .join()
                .map_err(|_| "client thread panicked".to_string())?,
        );
    }
    outcome?;
    for (c, report) in reports.iter().enumerate() {
        if let Some(reason) = &report.gave_up {
            return Err(format!(
                "client {c} gave up at {}/{} acked: {reason}",
                report.acked,
                plans[c].lines.len()
            ));
        }
    }

    // Bit-identical recovery: one more crash, then the recovered daemon
    // must answer each session's re-sent final fragment with exactly the
    // batch verdict of that session's merged system.
    let _ = child.kill();
    let _ = child.wait();
    let mut child = spawn_daemon(args, daemon, &socket, &checkpoint, &journal, &log)?;
    if !wait_for_socket_until(&socket, Instant::now() + Duration::from_secs(20)) {
        return Err("daemon never came up for the final verdict check".to_string());
    }
    let final_deadline = Instant::now() + Duration::from_secs(30);
    for (c, plan) in plans.iter().enumerate() {
        let session = plan.session.as_deref().unwrap_or("default");
        let response = request_until(&socket, &plan.last_append_line, final_deadline)
            .ok_or_else(|| format!("no response to session {session}'s re-sent final append"))?;
        verify_verdict(
            &format!("recovered daemon, session {session}"),
            &response,
            &plan.expected,
        )?;
        if let Some(last) = trackers[c]
            .last_verdict
            .lock()
            .expect("verdict lock")
            .as_ref()
        {
            verify_verdict(
                &format!("last in-flight ack, session {session}"),
                last,
                &plan.expected,
            )?;
        }
    }
    let _ = request_until(&socket, &op_line(None, "shutdown"), final_deadline);
    let _ = child.wait();
    Ok(kills)
}

/// Kill the daemon before reporting a contract violation, so a failing
/// soak never leaks a live process.
fn break_err(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn spawn_daemon(
    args: &Args,
    daemon: &std::path::Path,
    socket: &str,
    checkpoint: &str,
    journal: &str,
    log: &std::path::Path,
) -> Result<Child, String> {
    let stderr = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
    Command::new(daemon)
        .args([
            "--socket",
            socket,
            "--checkpoint",
            checkpoint,
            "--journal",
            journal,
            "--drain-timeout-ms",
            "2000",
            "--commit-batch",
            &args.commit_batch.to_string(),
            "--dispatch-shards",
            &args.dispatch_shards.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", daemon.display()))
}

fn wait_for_socket_until(socket: &str, deadline: Instant) -> bool {
    loop {
        if UnixStream::connect(socket).is_ok() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One request, one response, on a throwaway connection (retried until
/// `deadline` — the daemon may still be replaying its journal).
fn request_until(socket: &str, line: &str, deadline: Instant) -> Option<Value> {
    loop {
        if let Some(value) = request_once(socket, line) {
            return Some(value);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn request_once(socket: &str, line: &str) -> Option<Value> {
    let mut stream = UnixStream::connect(socket).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).ok()?;
    compc::json::parse(response.trim_end()).ok()
}

/// The recovered per-session `session_appends` counter, for the zero-loss
/// assertion.
fn session_appends(socket: &str, session: Option<&str>, deadline: Instant) -> Result<u64, String> {
    let response = request_until(socket, &op_line(session, "stats"), deadline)
        .ok_or("no stats response after restart")?;
    response
        .get("session_appends")
        .and_then(Value::as_u64)
        .ok_or_else(|| {
            format!(
                "stats response without session_appends: {}",
                response.to_compact()
            )
        })
}

/// Field-by-field comparison of a served verdict response against the
/// batch-check ground truth: verdict string, and for violations the
/// failing level, phase tag, and cycle names.
fn verify_verdict(what: &str, response: &Value, expected: &compc::Verdict) -> Result<(), String> {
    let got = response
        .get("verdict")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: no verdict in {}", response.to_compact()))?;
    let want = if expected.is_correct() {
        "comp-c"
    } else {
        "not-comp-c"
    };
    if got != want {
        return Err(format!("{what}: verdict {got}, batch check says {want}"));
    }
    if let compc::Verdict::Incorrect(cex) = expected {
        let level = response.get("level").and_then(Value::as_u64);
        if level != Some(cex.level as u64) {
            return Err(format!(
                "{what}: failing level {level:?}, batch check says {}",
                cex.level
            ));
        }
        let phase = response.get("phase").and_then(Value::as_str);
        if phase != Some(cex.phase.tag()) {
            return Err(format!(
                "{what}: failing phase {phase:?}, batch check says {}",
                cex.phase.tag()
            ));
        }
        let cycle: Vec<&str> = response
            .get("cycle")
            .and_then(Value::as_array)
            .map(|items| items.iter().filter_map(Value::as_str).collect())
            .unwrap_or_default();
        let want_cycle: Vec<&str> = cex.cycle_names.iter().map(String::as_str).collect();
        if cycle != want_cycle {
            return Err(format!(
                "{what}: cycle {cycle:?}, batch check says {want_cycle:?}"
            ));
        }
    }
    Ok(())
}

fn print_log_tail(log: &std::path::Path) {
    if let Ok(text) = std::fs::read_to_string(log) {
        let lines: Vec<&str> = text.lines().collect();
        let tail = lines.len().saturating_sub(20);
        eprintln!("--- daemon log tail ({}) ---", log.display());
        for line in &lines[tail..] {
            eprintln!("{line}");
        }
    }
}
