//! `compc-serve` — long-lived Comp-C checking daemon.
//!
//! This binary is a thin flag parser over [`compc::serve`], which holds
//! the actual serving core: a concurrent accept/reader/writer edge around
//! state-owning dispatch shards (sessions are routed to shards by a
//! stable hash of their name), per-request panic isolation, a write-ahead
//! append journal with group commit, and overload/drain control (see
//! `DESIGN.md` §8 for the architecture and the durability contract).
//!
//! The protocol is NDJSON over a Unix or TCP socket, one response line per
//! request line:
//!
//! ```text
//! → {"append": {<system-spec fragment, same format compc-check reads>}}
//! ← {"ok": true, "verdict": "comp-c", "appends": 1, "nodes": 6, ...}
//! → {"append": {<more nodes/relations — merged into the session>}}
//! ← {"ok": true, "verdict": "not-comp-c", "level": 1, "phase": "...", ...}
//! → {"op": "stats"}        ← {"ok": true, "appends": 2, "connections": 1, ...}
//! → {"op": "checkpoint"}   ← {"ok": true, "checkpoint": "state.json", "saved": true}
//! → {"op": "shutdown"}     ← {"ok": true, "shutdown": true, "saved": false}   (drains, exits)
//! ```
//!
//! Each `append` merges its fragment into the accumulated spec, extends
//! the system in place, and checks it from scratch — verdicts are
//! bit-identical to a `compc-check` run of the merged spec. With
//! `--journal FILE` every accepted append is fsynced to a write-ahead
//! journal before its verdict is acked, so **an acked verdict survives any
//! single crash**; `--checkpoint FILE` adds snapshot/restore and journal
//! compaction on top.
//!
//! Exit codes mirror `compc-check`: 0 = clean shutdown, every verdict
//! Comp-C; 1 = clean shutdown, at least one violation verdict served;
//! 2 = usage/socket/checkpoint error, an engine/oracle disagreement under
//! `--oracle`, or an isolated internal fault (takes precedence); 3 = at
//! least one append was interrupted by `--deadline-ms` (takes precedence
//! over 1).

use compc::cli::parse_check_flag;
use compc::json::Value;
use compc::serve::client::{stream_requests, BackoffPolicy, Target};
use compc::serve::{serve, ServeConfig};
use compc::spec::SystemSpec;
use std::process::ExitCode;

const USAGE: &str = "usage: compc-serve (--socket PATH | --listen ADDR) \
[--backend auto|dense|sparse|compressed] [--deadline-ms N] [--oracle] \
[--checkpoint FILE] [--journal FILE] [--max-conns N] [--idle-timeout-ms N] \
[--max-line-bytes N] [--drain-timeout-ms N] [--commit-batch N] [--dispatch-shards N] \
[--trace] [--once]
       compc-serve --split SYSTEM.json
       compc-serve --send SYSTEM.json (--socket PATH | --connect ADDR)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    eprintln!("run compc-serve --help for the protocol and exit codes");
    ExitCode::from(2)
}

fn help() -> ExitCode {
    println!(
        "compc-serve {} — long-lived Comp-C checking daemon",
        version()
    );
    println!();
    println!("{USAGE}");
    println!();
    println!("options:");
    println!("  --socket PATH     listen on a Unix domain socket at PATH (a stale");
    println!("                    socket is replaced; anything else at PATH is refused)");
    println!("  --listen ADDR     listen on a TCP address, e.g. 127.0.0.1:7878");
    println!("                    (port 0 picks a free port; the chosen address is");
    println!("                    printed on stderr)");
    println!("  --backend B       transitive-closure backend: auto | dense | sparse |");
    println!("                    compressed");
    println!("  --deadline-ms N   per-append budget; an interrupted append keeps its");
    println!("                    merged fragment, and a re-send checks it again");
    println!("  --oracle          cross-check every verdict against the brute-force");
    println!("                    oracle (small systems); a disagreement exits 2");
    println!("  --checkpoint FILE restore the session from FILE at startup; rewritten");
    println!("                    on compaction and shutdown (and, without --journal,");
    println!("                    after each successful append)");
    println!("  --journal FILE    write-ahead append journal: every accepted append is");
    println!("                    fsynced to FILE before its verdict is acked, replayed");
    println!("                    past the checkpoint at startup, and truncated when");
    println!("                    the checkpoint op compacts; requires --checkpoint");
    println!("                    (compaction only truncates checkpointed records)");
    println!("  --max-conns N     connections beyond N are shed with a structured");
    println!("                    \"overloaded\" error (default 64)");
    println!("  --idle-timeout-ms N  close connections idle for N ms with a");
    println!("                    \"timeout\" error; 0 = never (default 30000)");
    println!("  --max-line-bytes N   request lines over N bytes are answered with an");
    println!("                    \"oversize\" error and discarded (default 1048576)");
    println!("  --drain-timeout-ms N how long shutdown keeps serving queued requests");
    println!("                    before abandoning them (default 5000)");
    println!("  --commit-batch N  group commit: one journal fsync may cover up to N");
    println!("                    contiguous queued appends, acked together after it");
    println!("                    (default 64; 1 = fsync per append; never weakens the");
    println!("                    ack-after-fsync durability contract)");
    println!("  --dispatch-shards N  dispatch threads; each session lives on the shard");
    println!("                    a stable hash of its name picks, so per-session order");
    println!("                    and lock-free checking are preserved (default 1;");
    println!("                    >1 requires --journal when a --checkpoint is set)");
    println!("  --trace           mirror each append as compc-trace NDJSON events");
    println!("                    (check_start/check_end, plus serve_gauges) on stdout");
    println!("  --once            exit after the first client disconnects");
    println!("  --split FILE      client helper: split a system spec into one");
    println!("                    NDJSON append request line per root subtree");
    println!("                    (ready to pipe into a running daemon) and exit");
    println!("  --send FILE       resilient client: split FILE as --split does and");
    println!("                    stream the appends to a running daemon (--socket or");
    println!("                    --connect), with exponential-backoff reconnects and");
    println!("                    resume-after-restart; prints each response line");
    println!("  --connect ADDR    TCP target for --send, e.g. 127.0.0.1:7878");
    println!("  --inject-panic TOKEN  testing aid: panic on any request line containing");
    println!("                    TOKEN, exercising the panic-isolation path");
    println!("  --version, -V     print the version and exit");
    println!("  --help, -h        print this help and exit");
    println!();
    println!("protocol (NDJSON over the socket, one response line per request):");
    println!("  {{\"append\": {{<spec fragment>}}}}  merge + check; with");
    println!("                                  --journal, fsynced before the ack");
    println!("  {{\"session\": \"name\", \"append\": ...}}  address a named session: each");
    println!("                                  session is an independent spec/checker;");
    println!("                                  omitting the field means \"default\"");
    println!("  {{\"op\": \"stats\"}}                 session counters and serving gauges");
    println!("                                  (connections, shed, queue_depth, ...)");
    println!("  {{\"op\": \"checkpoint\"}}            write the checkpoint file now and");
    println!("                                  compact (truncate) the journal");
    println!("  {{\"op\": \"shutdown\"}}              save checkpoint (if --checkpoint), drain,");
    println!("                                  and exit; the response's \"saved\" field says");
    println!("                                  whether a checkpoint file was actually written");
    println!("  (SIGTERM/SIGINT likewise stop accepting, drain in-flight requests");
    println!("   under --drain-timeout-ms, save, and exit)");
    println!();
    println!("error kinds ({{\"ok\": false, \"kind\": ..., \"error\": ...}}):");
    println!("  spec | invalid    the fragment was rejected; session unchanged");
    println!("  interrupted       --deadline-ms hit; fragment kept, a re-send checks again");
    println!("  overloaded        shed at --max-conns capacity; retry with backoff");
    println!("  oversize          request line over --max-line-bytes; discarded");
    println!("  timeout           connection idle past --idle-timeout-ms; closed");
    println!("  protocol          not JSON / not UTF-8 / unknown op");
    println!("  journal | checkpoint  durability write failed; append not acked");
    println!("  internal          the handler panicked; isolated, session restored");
    println!();
    println!("exit codes:");
    println!("  0  clean shutdown, every verdict Comp-C");
    println!("  1  clean shutdown, at least one violation verdict served");
    println!("  2  usage, socket, or checkpoint error, an engine/oracle");
    println!("     disagreement under --oracle, or an isolated internal");
    println!("     fault — takes precedence");
    println!("  3  at least one append hit --deadline-ms (and nothing worse)");
    ExitCode::SUCCESS
}

fn version() -> &'static str {
    option_env!("CARGO_PKG_VERSION").unwrap_or("dev")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig::default();
    let mut split_file: Option<String> = None;
    let mut send_file: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match parse_check_flag(&args, &mut i, &mut config.options) {
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
                println!("compc-serve {}", version());
                return ExitCode::SUCCESS;
            }
            "--trace" => config.trace = true,
            "--once" => config.once = true,
            "--socket" => match take(&args, &mut i, "--socket needs a path") {
                Some(p) => config.socket = Some(p),
                None => return usage(),
            },
            "--listen" => match take(
                &args,
                &mut i,
                "--listen needs an address, e.g. 127.0.0.1:7878",
            ) {
                Some(a) => config.listen = Some(a),
                None => return usage(),
            },
            "--checkpoint" => match take(&args, &mut i, "--checkpoint needs a file path") {
                Some(p) => config.checkpoint = Some(p),
                None => return usage(),
            },
            "--journal" => match take(&args, &mut i, "--journal needs a file path") {
                Some(p) => config.journal = Some(p),
                None => return usage(),
            },
            "--split" => match take(&args, &mut i, "--split needs a system spec file") {
                Some(p) => split_file = Some(p),
                None => return usage(),
            },
            "--send" => match take(&args, &mut i, "--send needs a system spec file") {
                Some(p) => send_file = Some(p),
                None => return usage(),
            },
            "--connect" => match take(
                &args,
                &mut i,
                "--connect needs an address, e.g. 127.0.0.1:7878",
            ) {
                Some(a) => connect = Some(a),
                None => return usage(),
            },
            "--inject-panic" => match take(&args, &mut i, "--inject-panic needs a token") {
                Some(t) => config.inject_panic = Some(t),
                None => return usage(),
            },
            "--max-conns" => match take_number(&args, &mut i, "--max-conns") {
                Some(n) if n > 0 => config.max_conns = n as usize,
                _ => {
                    eprintln!("--max-conns needs a positive number");
                    return usage();
                }
            },
            "--idle-timeout-ms" => match take_number(&args, &mut i, "--idle-timeout-ms") {
                Some(n) => config.idle_timeout_ms = n,
                None => return usage(),
            },
            "--max-line-bytes" => match take_number(&args, &mut i, "--max-line-bytes") {
                Some(n) if n > 0 => config.max_line_bytes = n as usize,
                _ => {
                    eprintln!("--max-line-bytes needs a positive number");
                    return usage();
                }
            },
            "--drain-timeout-ms" => match take_number(&args, &mut i, "--drain-timeout-ms") {
                Some(n) => config.drain_timeout_ms = n,
                None => return usage(),
            },
            "--commit-batch" => match take_number(&args, &mut i, "--commit-batch") {
                Some(n) if n > 0 => config.commit_batch = n as usize,
                _ => {
                    eprintln!("--commit-batch needs a positive number");
                    return usage();
                }
            },
            "--dispatch-shards" => match take_number(&args, &mut i, "--dispatch-shards") {
                Some(n) if n > 0 => config.dispatch_shards = n as usize,
                _ => {
                    eprintln!("--dispatch-shards needs a positive number");
                    return usage();
                }
            },
            flag => {
                eprintln!("unknown argument {flag}");
                return usage();
            }
        }
        i += 1;
    }
    if let Some(path) = split_file {
        return split(&path);
    }
    if let Some(path) = send_file {
        let target = match (config.socket, connect) {
            (Some(path), None) => Target::Unix(path),
            (None, Some(addr)) => Target::Tcp(addr),
            _ => {
                eprintln!("--send needs exactly one of --socket PATH or --connect ADDR");
                return usage();
            }
        };
        return send(&path, &target);
    }
    match (&config.socket, &config.listen) {
        (Some(_), Some(_)) => {
            eprintln!("--socket and --listen are mutually exclusive");
            usage()
        }
        (None, None) => {
            eprintln!("one of --socket or --listen is required");
            usage()
        }
        _ => match serve(config) {
            Ok(report) => ExitCode::from(report.exit_code()),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
    }
}

fn take(args: &[String], i: &mut usize, complaint: &str) -> Option<String> {
    *i += 1;
    match args.get(*i) {
        Some(v) => Some(v.clone()),
        None => {
            eprintln!("{complaint}");
            None
        }
    }
}

fn take_number(args: &[String], i: &mut usize, flag: &str) -> Option<u64> {
    *i += 1;
    match args.get(*i).and_then(|v| v.parse().ok()) {
        Some(n) => Some(n),
        None => {
            eprintln!("{flag} needs a non-negative number");
            None
        }
    }
}

/// `--split`: prints one NDJSON `{"append": ...}` request line per root
/// subtree of the given spec, ready to pipe into a running daemon.
fn split(path: &str) -> ExitCode {
    let spec = match load_spec(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for fragment in spec.into_appends() {
        let request = Value::Object(vec![("append".to_string(), fragment.to_json())]);
        println!("{}", request.to_compact());
    }
    ExitCode::SUCCESS
}

/// `--send`: splits like `--split`, then streams the appends to a running
/// daemon through the resilient client (bounded exponential backoff with
/// jitter; after a daemon restart, unacked lines are re-sent).
fn send(path: &str, target: &Target) -> ExitCode {
    let spec = match load_spec(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let lines: Vec<String> = spec
        .into_appends()
        .into_iter()
        .map(|fragment| {
            Value::Object(vec![("append".to_string(), fragment.to_json())]).to_compact()
        })
        .collect();
    let report = stream_requests(target, &lines, &BackoffPolicy::default(), |_, response| {
        println!("{}", response.to_compact());
    });
    if report.reconnects > 0 {
        eprintln!(
            "reconnected {} time(s), re-sent {} line(s)",
            report.reconnects, report.resent
        );
    }
    if let Some(reason) = report.gave_up {
        eprintln!(
            "gave up after acking {}/{} request(s): {reason}",
            report.acked,
            lines.len()
        );
        return ExitCode::from(2);
    }
    if report.violations > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn load_spec(path: &str) -> Result<SystemSpec, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    SystemSpec::parse(&text).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::from(2)
    })
}
