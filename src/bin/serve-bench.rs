//! `serve-bench` — open-loop load harness for the `compc-serve` path.
//!
//! Measures what the serve path actually delivers under load: acked
//! appends/sec and ack-latency percentiles through the full daemon stack
//! (socket → reader parse/classify → shard dispatch → session check
//! → journal group commit → fsync → ack). The harness spawns its own
//! journaled daemon per configuration, drives it with pipelining
//! connections spread over named sessions, and emits a machine-readable
//! comparison across `--commit-batch` values (default 1 vs 64 — the
//! group-commit speedup) as `BENCH_9.json`.
//!
//! ```text
//! serve-bench [--connections N] [--sessions N] [--dispatch-shards N]
//!             [--batches LIST] [--rate R] [--arrival poisson|pareto|uniform]
//!             [--duration-ms N] [--warmup-ms N] [--roots N] [--spec FILE]
//!             [--seed S] [--out FILE] [--daemon PATH] [--dir DIR]
//! ```
//!
//! The generator is **open-loop** when `--rate` is positive: each
//! connection schedules sends by a Poisson (or heavy-tailed Pareto)
//! arrival process and does not wait for responses, so queueing delay is
//! measured instead of hidden (a closed-loop generator coordinates with
//! the system under test and under-reports latency). `--rate 0` is
//! saturation mode: each connection pipelines as fast as back-pressure
//! admits, measuring peak throughput.
//!
//! Exit code 0 = all configurations ran and the report was written;
//! 2 = harness failure.

use compc::json::Value;
use compc::serve::client::append_request;
use compc::spec::SystemSpec;
use compc::workload::random::{generate, GenParams, Shape};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Arrival {
    Poisson,
    Pareto,
    Uniform,
}

impl Arrival {
    fn tag(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Pareto => "pareto",
            Arrival::Uniform => "uniform",
        }
    }
}

struct Args {
    connections: usize,
    sessions: usize,
    dispatch_shards: u64,
    batches: Vec<u64>,
    rate: f64,
    arrival: Arrival,
    duration_ms: u64,
    warmup_ms: u64,
    roots: usize,
    spec: Option<String>,
    seed: u64,
    out: String,
    daemon: Option<String>,
    dir: Option<String>,
}

const USAGE: &str = "usage: serve-bench [--connections N] [--sessions N] [--dispatch-shards N] \
[--batches LIST] [--rate R] [--arrival poisson|pareto|uniform] [--duration-ms N] \
[--warmup-ms N] [--roots N] [--spec FILE] [--seed S] [--out FILE] [--daemon PATH] [--dir DIR]";

fn main() -> ExitCode {
    let mut args = Args {
        connections: 8,
        sessions: 4,
        dispatch_shards: 4,
        batches: vec![1, 64],
        rate: 0.0,
        arrival: Arrival::Poisson,
        duration_ms: 3000,
        warmup_ms: 300,
        roots: 64,
        spec: None,
        seed: 99,
        out: "BENCH_9.json".to_string(),
        daemon: None,
        dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                println!();
                println!("open-loop load harness for compc-serve (journal group commit):");
                println!("  --connections N     concurrent client connections (default 8)");
                println!("  --sessions N        named sessions the connections spread over");
                println!("                      (default 4; connection c drives session b<c%N>)");
                println!("  --dispatch-shards N daemon dispatch shards (default 4)");
                println!("  --batches LIST      comma-separated --commit-batch values to compare");
                println!("                      (default 1,64)");
                println!("  --rate R            appends/sec per connection; 0 = saturation");
                println!("                      (pipeline as fast as back-pressure admits)");
                println!("  --arrival A         open-loop inter-arrival law when --rate > 0:");
                println!("                      poisson | pareto (heavy-tailed) | uniform");
                println!("  --duration-ms N     measured window per configuration (default 3000)");
                println!(
                    "  --warmup-ms N       unmeasured lead-in per configuration (default 300)"
                );
                println!("  --roots N           random workload size (root subtrees; default 64)");
                println!("  --spec FILE         drive a spec file's fragments instead of the");
                println!("                      random workload");
                println!("  --seed S            workload + arrival seed (default 99)");
                println!("  --out FILE          report path (default BENCH_9.json)");
                println!("  --daemon P          compc-serve binary (default: sibling of this one)");
                println!("  --dir D             scratch directory for socket/journal/checkpoint");
                println!("                      (default: a fresh temp dir; put it on a real disk");
                println!("                      to measure real fsyncs)");
                return ExitCode::SUCCESS;
            }
            "--connections" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.connections = n as usize,
                _ => return usage("--connections needs a positive number"),
            },
            "--sessions" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.sessions = n as usize,
                _ => return usage("--sessions needs a positive number"),
            },
            "--dispatch-shards" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.dispatch_shards = n,
                _ => return usage("--dispatch-shards needs a positive number"),
            },
            "--batches" => {
                i += 1;
                let parsed: Option<Vec<u64>> = argv.get(i).map(|list| {
                    list.split(',')
                        .filter_map(|part| part.trim().parse().ok())
                        .filter(|&n| n > 0)
                        .collect()
                });
                match parsed {
                    Some(batches) if !batches.is_empty() => args.batches = batches,
                    _ => {
                        return usage("--batches needs a comma-separated list of positive numbers")
                    }
                }
            }
            "--rate" => {
                i += 1;
                match argv.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(r) if r >= 0.0 => args.rate = r,
                    _ => return usage("--rate needs a non-negative number"),
                }
            }
            "--arrival" => {
                i += 1;
                args.arrival = match argv.get(i).map(String::as_str) {
                    Some("poisson") => Arrival::Poisson,
                    Some("pareto") => Arrival::Pareto,
                    Some("uniform") => Arrival::Uniform,
                    _ => return usage("--arrival needs poisson, pareto, or uniform"),
                };
            }
            "--duration-ms" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.duration_ms = n,
                _ => return usage("--duration-ms needs a positive number"),
            },
            "--warmup-ms" => match take_number(&argv, &mut i) {
                Some(n) => args.warmup_ms = n,
                None => return usage("--warmup-ms needs a number"),
            },
            "--roots" => match take_number(&argv, &mut i) {
                Some(n) if n > 0 => args.roots = n as usize,
                _ => return usage("--roots needs a positive number"),
            },
            "--spec" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => args.spec = Some(p.clone()),
                    None => return usage("--spec needs a file path"),
                }
            }
            "--seed" => match take_number(&argv, &mut i) {
                Some(n) => args.seed = n,
                None => return usage("--seed needs a number"),
            },
            "--out" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => args.out = p.clone(),
                    None => return usage("--out needs a file path"),
                }
            }
            "--daemon" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => args.daemon = Some(p.clone()),
                    None => return usage("--daemon needs a path"),
                }
            }
            "--dir" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => args.dir = Some(p.clone()),
                    None => return usage("--dir needs a directory path"),
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    match bench(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve-bench FAILED: {e}");
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

/// Deterministic xorshift; `unit()` yields a double in (0, 1].
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

    fn unit(&mut self) -> f64 {
        (((self.next() >> 11) + 1) as f64) / ((1u64 << 53) as f64)
    }
}

/// The next open-loop inter-arrival gap for a per-connection rate.
fn inter_arrival(arrival: Arrival, rate: f64, rng: &mut Rng) -> Duration {
    let mean_s = 1.0 / rate;
    let gap_s = match arrival {
        // Exponential gaps — a Poisson process.
        Arrival::Poisson => -rng.unit().ln() * mean_s,
        // Pareto with alpha = 1.5 (infinite variance, finite mean),
        // scaled so the mean matches the requested rate: bursts and
        // long gaps, the adversarial case for group commit.
        Arrival::Pareto => {
            let alpha = 1.5;
            let xm = mean_s * (alpha - 1.0) / alpha;
            xm * rng.unit().powf(-1.0 / alpha)
        }
        Arrival::Uniform => mean_s,
    };
    Duration::from_secs_f64(gap_s.clamp(0.0, 60.0))
}

/// One measured configuration's results.
struct RunResult {
    commit_batch: u64,
    acked: u64,
    elapsed_ms: f64,
    appends_per_sec: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    fsyncs: u64,
    fsyncs_saved: u64,
    batch_max: u64,
}

fn bench(args: &Args) -> Result<String, String> {
    let daemon = daemon_binary(args)?;
    let lines = Arc::new(request_lines(args)?);
    let scratch_root = match &args.dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("compc-bench-{}", std::process::id())),
    };
    let mut runs = Vec::new();
    for &batch in &args.batches {
        let dir = scratch_root.join(format!("batch-{batch}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let result = run_config(args, &daemon, &dir, batch, &lines)
            .map_err(|e| format!("commit-batch {batch}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        let run = result?;
        eprintln!(
            "commit-batch {:>4}: {:.0} appends/s, p50 {} us, p95 {} us, p99 {} us, \
             {} fsyncs ({} saved), largest batch {}",
            run.commit_batch,
            run.appends_per_sec,
            run.p50_us,
            run.p95_us,
            run.p99_us,
            run.fsyncs,
            run.fsyncs_saved,
            run.batch_max
        );
        runs.push(run);
    }
    if args.dir.is_none() {
        let _ = std::fs::remove_dir_all(&scratch_root);
    }
    let speedup = speedup_vs_first(&runs);
    write_report(args, &runs, speedup)?;
    let against = runs.first().map_or(0, |r| r.commit_batch);
    Ok(format!(
        "serve-bench: wrote {} ({} configuration(s); last vs --commit-batch {against}: \
         {speedup:.2}x acked appends/sec)",
        args.out,
        runs.len()
    ))
}

/// Throughput of the last configuration over the first (the headline
/// group-commit speedup with the default `--batches 1,64`).
fn speedup_vs_first(runs: &[RunResult]) -> f64 {
    match (runs.first(), runs.last()) {
        (Some(first), Some(last)) if first.appends_per_sec > 0.0 => {
            last.appends_per_sec / first.appends_per_sec
        }
        _ => 0.0,
    }
}

/// The request lines each connection cycles through: the workload spec
/// split into per-root-subtree fragments, one newline-terminated copy per
/// session with its `"session"` field baked in.
fn request_lines(args: &Args) -> Result<Vec<Vec<String>>, String> {
    let fragments = match &args.spec {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --spec {path}: {e}"))?;
            SystemSpec::parse(&text)
                .map_err(|e| format!("--spec {path}: {e}"))?
                .into_appends()
        }
        None => {
            let params = GenParams {
                shape: Shape::General {
                    levels: 3,
                    scheds_per_level: 2,
                },
                roots: args.roots,
                conflict_density: 0.5,
                seed: args.seed,
                ..GenParams::default()
            };
            SystemSpec::from_system(&generate(&params)).into_appends()
        }
    };
    if fragments.is_empty() {
        return Err("the workload produced no append fragments".to_string());
    }
    let mut per_session = Vec::with_capacity(args.sessions);
    for s in 0..args.sessions {
        let session = format!("b{s}");
        let lines = fragments
            .iter()
            .map(|fragment| append_request(Some(&session), fragment) + "\n")
            .collect();
        per_session.push(lines);
    }
    Ok(per_session)
}

/// Shared per-connection instrumentation.
#[derive(Default)]
struct ConnStats {
    acked: AtomicU64,
    /// Ack latencies (µs) of responses that landed inside the measured
    /// window.
    latencies: Mutex<Vec<u64>>,
}

fn run_config(
    args: &Args,
    daemon: &std::path::Path,
    dir: &std::path::Path,
    commit_batch: u64,
    lines: &Arc<Vec<Vec<String>>>,
) -> Result<RunResult, String> {
    let socket = dir.join("serve.sock").display().to_string();
    let log = dir.join("daemon.log");
    let mut child = spawn_daemon(args, daemon, dir, &socket, commit_batch, &log)?;
    if !wait_for_socket(&socket, Duration::from_secs(20)) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("daemon never came up (log: {})", log.display()));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let measuring = Arc::new(AtomicBool::new(false));
    let stats: Vec<Arc<ConnStats>> = (0..args.connections)
        .map(|_| Arc::new(ConnStats::default()))
        .collect();
    let mut handles = Vec::new();
    for c in 0..args.connections {
        let socket = socket.clone();
        let lines = Arc::clone(lines);
        let stop = Arc::clone(&stop);
        let measuring = Arc::clone(&measuring);
        let stats = Arc::clone(&stats[c]);
        let session = c % args.sessions;
        let rate = args.rate;
        let arrival = args.arrival;
        let seed = (args.seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9)) | 1;
        handles.push(std::thread::spawn(move || {
            connection_loop(
                &socket,
                &lines[session],
                rate,
                arrival,
                seed,
                &stop,
                &measuring,
                &stats,
            )
        }));
    }

    std::thread::sleep(Duration::from_millis(args.warmup_ms));
    let acked_before: u64 = stats.iter().map(|s| s.acked.load(Ordering::SeqCst)).sum();
    measuring.store(true, Ordering::SeqCst);
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_millis(args.duration_ms));
    measuring.store(false, Ordering::SeqCst);
    let elapsed = t0.elapsed();
    let acked_after: u64 = stats.iter().map(|s| s.acked.load(Ordering::SeqCst)).sum();
    stop.store(true, Ordering::SeqCst);
    for handle in handles {
        if handle.join().is_err() {
            let _ = child.kill();
            let _ = child.wait();
            return Err("a connection thread panicked".to_string());
        }
    }

    // Daemon-side counters for the report, then a clean shutdown.
    let deadline = Instant::now() + Duration::from_secs(10);
    let gauges = request_until(&socket, r#"{"op": "stats"}"#, deadline)
        .ok_or("no stats response after the run")?;
    let _ = request_until(&socket, r#"{"op": "shutdown"}"#, deadline);
    let _ = child.wait();

    let mut latencies: Vec<u64> = Vec::new();
    for s in &stats {
        latencies.extend(s.latencies.lock().expect("latency lock").iter());
    }
    latencies.sort_unstable();
    let acked = acked_after - acked_before;
    let gauge = |field: &str| gauges.get(field).and_then(Value::as_u64).unwrap_or(0);
    Ok(RunResult {
        commit_batch,
        acked,
        elapsed_ms: elapsed.as_secs_f64() * 1000.0,
        appends_per_sec: acked as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&latencies, 50),
        p95_us: percentile(&latencies, 95),
        p99_us: percentile(&latencies, 99),
        fsyncs: gauge("fsyncs"),
        fsyncs_saved: gauge("fsyncs_saved"),
        batch_max: gauge("batch_max"),
    })
}

/// Nearest-rank percentile over a sorted sample (0 when empty).
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// One pipelining connection: the writer paces sends by the arrival
/// process (or saturates under a bounded pipeline) while a scoped reader
/// thread drains responses, matching ack latencies FIFO — sound because a
/// connection drives exactly one session, so the daemon acks its requests
/// in send order.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    socket: &str,
    lines: &[String],
    rate: f64,
    arrival: Arrival,
    seed: u64,
    stop: &AtomicBool,
    measuring: &AtomicBool,
    stats: &ConnStats,
) {
    let Ok(read_half) = UnixStream::connect(socket) else {
        return;
    };
    let _ = read_half.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(mut write_half) = read_half.try_clone() else {
        return;
    };
    // Send timestamps of in-flight requests, pushed before the write and
    // popped per response line.
    let pending: Mutex<VecDeque<Instant>> = Mutex::new(VecDeque::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut reader = BufReader::new(&read_half);
            let mut response = String::new();
            loop {
                response.clear();
                match reader.read_line(&mut response) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let Some(sent) = pending.lock().expect("pending lock").pop_front() else {
                    break;
                };
                stats.acked.fetch_add(1, Ordering::SeqCst);
                if measuring.load(Ordering::Relaxed) {
                    let us = sent.elapsed().as_micros() as u64;
                    stats.latencies.lock().expect("latency lock").push(us);
                }
            }
        });

        let mut rng = Rng(seed);
        let mut next_at = Instant::now();
        let mut index = 0usize;
        while !stop.load(Ordering::Relaxed) {
            if rate > 0.0 {
                // Open loop: wait out the scheduled gap in small slices so
                // a long heavy-tailed gap still notices `stop`.
                let now = Instant::now();
                if next_at > now {
                    std::thread::sleep((next_at - now).min(Duration::from_millis(20)));
                    continue;
                }
                next_at += inter_arrival(arrival, rate, &mut rng);
            } else {
                // Saturation: keep the pipeline deep but bounded, so
                // memory stays flat and latency reflects daemon queueing
                // rather than an unbounded client-side backlog.
                if pending.lock().expect("pending lock").len() >= 256 {
                    std::thread::sleep(Duration::from_micros(50));
                    continue;
                }
            }
            pending
                .lock()
                .expect("pending lock")
                .push_back(Instant::now());
            if write_half
                .write_all(lines[index % lines.len()].as_bytes())
                .is_err()
            {
                pending.lock().expect("pending lock").pop_back();
                break;
            }
            index += 1;
        }
        // Half-close: the daemon tears the connection down on EOF, which
        // ends its writer and gives our reader EOF in turn.
        let _ = write_half.shutdown(Shutdown::Write);
    });
}

fn spawn_daemon(
    args: &Args,
    daemon: &std::path::Path,
    dir: &std::path::Path,
    socket: &str,
    commit_batch: u64,
    log: &std::path::Path,
) -> Result<Child, String> {
    let stderr = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
    let checkpoint = dir.join("state.json").display().to_string();
    let journal = dir.join("journal.ndjson").display().to_string();
    Command::new(daemon)
        .args([
            "--socket",
            socket,
            "--checkpoint",
            &checkpoint,
            "--journal",
            &journal,
            "--commit-batch",
            &commit_batch.to_string(),
            "--dispatch-shards",
            &args.dispatch_shards.to_string(),
            "--max-conns",
            &(args.connections + 8).to_string(),
            "--idle-timeout-ms",
            "0",
            "--drain-timeout-ms",
            "2000",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", daemon.display()))
}

fn wait_for_socket(socket: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
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

fn write_report(args: &Args, runs: &[RunResult], speedup: f64) -> Result<(), String> {
    let run_objects: Vec<Value> = runs
        .iter()
        .map(|run| {
            Value::Object(vec![
                ("commit_batch".to_string(), Value::from(run.commit_batch)),
                ("acked_appends".to_string(), Value::from(run.acked)),
                ("elapsed_ms".to_string(), Value::from(run.elapsed_ms)),
                (
                    "appends_per_sec".to_string(),
                    Value::from(run.appends_per_sec),
                ),
                ("p50_us".to_string(), Value::from(run.p50_us)),
                ("p95_us".to_string(), Value::from(run.p95_us)),
                ("p99_us".to_string(), Value::from(run.p99_us)),
                ("fsyncs".to_string(), Value::from(run.fsyncs)),
                ("fsyncs_saved".to_string(), Value::from(run.fsyncs_saved)),
                ("batch_max".to_string(), Value::from(run.batch_max)),
            ])
        })
        .collect();
    let report = Value::Object(vec![
        ("bench".to_string(), Value::from("BENCH_9")),
        ("experiment".to_string(), Value::from("E23")),
        ("generated_by".to_string(), Value::from("serve-bench")),
        ("seed".to_string(), Value::from(args.seed)),
        ("connections".to_string(), Value::from(args.connections)),
        ("sessions".to_string(), Value::from(args.sessions)),
        (
            "dispatch_shards".to_string(),
            Value::from(args.dispatch_shards),
        ),
        ("arrival".to_string(), Value::from(args.arrival.tag())),
        ("rate_per_conn".to_string(), Value::from(args.rate)),
        ("duration_ms".to_string(), Value::from(args.duration_ms)),
        ("warmup_ms".to_string(), Value::from(args.warmup_ms)),
        ("journaled".to_string(), Value::from(true)),
        ("runs".to_string(), Value::Array(run_objects)),
        ("speedup_last_vs_first".to_string(), Value::from(speedup)),
    ]);
    std::fs::write(&args.out, report.to_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", args.out))
}
