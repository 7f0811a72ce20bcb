//! End-to-end tests for the `compc-serve` daemon: NDJSON append streams
//! over Unix and TCP sockets, one verdict line per append, protocol
//! errors, stats, graceful shutdown exit codes, and a checkpoint restart
//! mid-stream — all through the real executable.

use compc::json::{parse, Value};
use compc::spec::SystemSpec;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Kills the daemon if a test panics before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_compc-serve"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("compc-serve spawns");
        Daemon(child)
    }

    /// Waits for a clean exit and returns the exit code.
    fn wait_code(mut self) -> i32 {
        let status = self.0.wait().expect("compc-serve exits");
        // Disarm the Drop kill: the child is already gone.
        std::mem::forget(self);
        status.code().expect("not signal-killed")
    }
}

/// A fresh directory under the temp dir, removed with its contents on drop.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

fn tmpdir() -> TmpDir {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "compc-serve-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    TmpDir(dir)
}

fn wait_for_socket(path: &PathBuf) -> UnixStream {
    for _ in 0..200 {
        if let Ok(stream) = UnixStream::connect(path) {
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            return stream;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon never opened {}", path.display());
}

/// Sends one NDJSON request line, returns the parsed response line.
fn roundtrip(reader: &mut impl BufRead, writer: &mut impl Write, request: &str) -> Value {
    writeln!(writer, "{request}").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    parse(line.trim()).unwrap_or_else(|e| panic!("response not JSON ({e}): {line}"))
}

fn figure3_fragments() -> Vec<String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/figure3.incorrect.json"
    );
    let spec = SystemSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let fragments = spec.into_appends();
    assert!(fragments.len() >= 2, "figure 3 has several roots");
    fragments
        .iter()
        .map(|f| Value::Object(vec![("append".to_string(), f.to_json())]).to_compact())
        .collect()
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {key}: {}", v.to_compact()))
}

#[test]
fn unix_stream_appends_one_verdict_line_each() {
    let dir = tmpdir();
    let socket = dir.join("a.sock");
    let daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap()]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let fragments = figure3_fragments();
    let mut last = None;
    for (k, request) in fragments.iter().enumerate() {
        let response = roundtrip(&mut reader, &mut writer, request);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "append {k}: {}",
            response.to_compact()
        );
        assert_eq!(
            response.get("appends").and_then(Value::as_u64),
            Some(k as u64 + 1)
        );
        last = Some(response);
    }
    // Figure 3 is the paper's violation example: the full stream must end
    // on a violation verdict naming the failing level.
    let last = last.unwrap();
    assert_eq!(str_field(&last, "verdict"), "not-comp-c");
    assert!(last.get("level").and_then(Value::as_u64).is_some());

    // Protocol errors answer without killing the connection.
    let bad = roundtrip(&mut reader, &mut writer, "{\"op\": \"nope\"}");
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(str_field(&bad, "kind"), "protocol");

    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        stats.get("appends").and_then(Value::as_u64),
        Some(fragments.len() as u64)
    );
    // The violation can already surface at an earlier prefix, so several
    // violating appends may have been served by now.
    assert!(stats.get("violations").and_then(Value::as_u64) >= Some(1));

    let bye = roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    // A violation verdict was served: exit code 1, mirroring compc-check.
    assert_eq!(daemon.wait_code(), 1);
}

#[test]
fn checkpoint_restart_resumes_mid_stream() {
    let dir = tmpdir();
    let socket = dir.join("b.sock");
    let checkpoint = dir.join("b.checkpoint.json");
    let fragments = figure3_fragments();
    let split = fragments.len() / 2;

    // First daemon: stream the first half, then shut down.
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for request in &fragments[..split] {
            let response = roundtrip(&mut reader, &mut writer, request);
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        }
        roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    }
    daemon.wait_code();
    assert!(checkpoint.exists(), "shutdown must leave a checkpoint");

    // Second daemon restores the checkpoint and the stream continues as if
    // never interrupted: append counts include the restored prefix, and
    // the full system still lands on the figure-3 violation.
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut last = None;
    for (k, request) in fragments[split..].iter().enumerate() {
        let response = roundtrip(&mut reader, &mut writer, request);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{}",
            response.to_compact()
        );
        assert_eq!(
            response.get("appends").and_then(Value::as_u64),
            Some((split + k) as u64 + 1),
            "append counter must resume from the checkpointed count"
        );
        last = Some(response);
    }
    let last = last.unwrap();
    assert_eq!(str_field(&last, "verdict"), "not-comp-c");
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}

#[test]
fn tcp_listener_serves_the_same_protocol() {
    let mut daemon = Daemon::spawn(&["--listen", "127.0.0.1:0"]);
    // The daemon prints the picked port as "listening on 127.0.0.1:PORT".
    let stderr = daemon.0.stderr.take().unwrap();
    let mut first_line = String::new();
    BufReader::new(stderr).read_line(&mut first_line).unwrap();
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
        .to_string();
    let stream = std::net::TcpStream::connect(&addr).expect("daemon accepts TCP");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for request in &figure3_fragments() {
        let response = roundtrip(&mut reader, &mut writer, request);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    }
    let bye = roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(daemon.wait_code(), 1);
}

/// Runs `compc-serve args` and returns its exit code. A daemon still
/// running after 10 s is killed and fails the test, so an argument list the
/// daemon wrongly accepts (it would then serve forever) cannot hang the run.
fn exit_code_within_10s(args: &[&str]) -> Option<i32> {
    let mut daemon = Daemon::spawn(args);
    let start = Instant::now();
    loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            return status.code();
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "compc-serve {args:?} still running after 10 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(
        exit_code_within_10s(&[]),
        Some(2),
        "no listener flag is a usage error"
    );
    // Every check is sequential, so the daemon takes no --jobs.
    let dir = tmpdir();
    let socket = dir.join("usage.sock");
    for bad in [["--backend", "bogus"], ["--jobs", "1"]] {
        let mut args = vec!["--socket", socket.to_str().unwrap()];
        args.extend(bad);
        assert_eq!(exit_code_within_10s(&args), Some(2), "{bad:?}");
    }

    // --help documents the protocol and the exit codes.
    let out = Command::new(env!("CARGO_BIN_EXE_compc-serve"))
        .arg("--help")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    for needle in ["append", "shutdown", "exit codes", "checkpoint"] {
        assert!(help.contains(needle), "--help missing {needle}");
    }
    assert!(!help.contains("--jobs"), "--help still offers --jobs");
}

#[test]
fn shutdown_without_checkpoint_reports_saved_false() {
    let dir = tmpdir();
    let socket = dir.join("d.sock");
    let daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap()]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // No --checkpoint configured: both the explicit checkpoint op and the
    // shutdown op must say so instead of implying a save happened.
    let cp = roundtrip(&mut reader, &mut writer, "{\"op\": \"checkpoint\"}");
    assert_eq!(cp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(cp.get("saved").and_then(Value::as_bool), Some(false));

    let bye = roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(bye.get("shutdown").and_then(Value::as_bool), Some(true));
    assert_eq!(
        bye.get("saved").and_then(Value::as_bool),
        Some(false),
        "shutdown without --checkpoint must not claim a save: {}",
        bye.to_compact()
    );
    assert_eq!(daemon.wait_code(), 0);
}

#[test]
fn stale_tmp_from_a_kill_between_write_and_rename_is_harmless() {
    let dir = tmpdir();
    let socket = dir.join("e.sock");
    let checkpoint = dir.join("e.checkpoint.json");
    let fragments = figure3_fragments();
    let split = fragments.len() / 2;

    // First daemon writes a valid checkpoint for the first half.
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for request in &fragments[..split] {
            let response = roundtrip(&mut reader, &mut writer, request);
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        }
        let bye = roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
        assert_eq!(bye.get("saved").and_then(Value::as_bool), Some(true));
    }
    daemon.wait_code();
    let valid = std::fs::read_to_string(&checkpoint).unwrap();
    parse(&valid).expect("checkpoint is valid JSON");

    // Simulate a kill between the temp-file write and the rename: a
    // truncated garbage `.tmp` is left next to the real checkpoint. The
    // save protocol (write tmp, fsync, rename) guarantees restore never
    // reads it and the next save simply overwrites it.
    let tmp = dir.join("e.checkpoint.json.tmp");
    std::fs::write(&tmp, "{\"truncated").unwrap();

    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut last = None;
    for (k, request) in fragments[split..].iter().enumerate() {
        let response = roundtrip(&mut reader, &mut writer, request);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "garbage .tmp must not poison the restore: {}",
            response.to_compact()
        );
        assert_eq!(
            response.get("appends").and_then(Value::as_u64),
            Some((split + k) as u64 + 1),
            "restore must come from the real checkpoint, not the .tmp"
        );
        last = Some(response);
    }
    assert_eq!(str_field(&last.unwrap(), "verdict"), "not-comp-c");

    let bye = roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(bye.get("saved").and_then(Value::as_bool), Some(true));
    assert_eq!(daemon.wait_code(), 1);

    // The rename consumed the temp file and the final checkpoint is whole.
    assert!(!tmp.exists(), "a completed save leaves no .tmp behind");
    let after = std::fs::read_to_string(&checkpoint).unwrap();
    parse(&after).expect("post-restart checkpoint is valid JSON");
}

#[test]
fn hostile_input_answers_structured_errors_and_daemon_keeps_serving() {
    let dir = tmpdir();
    let socket = dir.join("h.sock");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--max-line-bytes",
        "512",
    ]);
    let fragments = figure3_fragments();

    // Invalid UTF-8: a structured protocol error, connection stays usable.
    {
        let mut stream = wait_for_socket(&socket);
        stream.write_all(b"\xff\xfe{\"op\": \"stats\"}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = parse(line.trim()).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(str_field(&response, "kind"), "protocol");
        let ok = roundtrip(&mut reader, &mut stream, "{\"op\": \"stats\"}");
        assert_eq!(ok.get("ok").and_then(Value::as_bool), Some(true));
    }

    // A line over --max-line-bytes: rejected as "oversize", and the next
    // (normal) request on the same connection is still served.
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let huge = format!("{{\"op\": \"{}\"}}", "x".repeat(2048));
        let response = roundtrip(&mut reader, &mut writer, &huge);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(str_field(&response, "kind"), "oversize");
        let ok = roundtrip(&mut reader, &mut writer, &fragments[0]);
        assert_eq!(
            ok.get("ok").and_then(Value::as_bool),
            Some(true),
            "the request after an oversize line must not be corrupted: {}",
            ok.to_compact()
        );
    }

    // An unterminated final line (EOF with no trailing newline) is still a
    // complete request and gets its response before teardown.
    {
        let mut stream = wait_for_socket(&socket);
        stream.write_all(b"{\"op\": \"stats\"}").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let response = parse(line.trim()).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "unterminated final request must be answered: {line}"
        );
    }

    // After all four hostile clients the daemon still serves normally.
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(stats.get("oversize_lines").and_then(Value::as_u64), Some(1));
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 0);
}

/// A 200 KB line of 100,000 `[` then 100,000 `]` fits under the default
/// `--max-line-bytes` and used to overflow the reader thread's stack,
/// aborting the daemon with every session on it. It is now a protocol
/// error naming the nesting limit, and another session's verdict survives.
#[test]
fn deeply_nested_line_is_an_error_and_other_sessions_survive() {
    let dir = tmpdir();
    let socket = dir.join("deep.sock");
    let daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap()]);
    let alpha = corpus_fragments("figure3.incorrect.json", Some("alpha"));
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut before = None;
    for request in &alpha {
        before = Some(roundtrip(&mut reader, &mut writer, request));
    }
    let before = before.unwrap();
    assert_eq!(str_field(&before, "verdict"), "not-comp-c");

    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let response = roundtrip(&mut reader, &mut writer, &deep);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(str_field(&response, "kind"), "protocol");
        assert!(
            str_field(&response, "error").contains("nested deeper than 64"),
            "{}",
            response.to_compact()
        );
    }

    // Re-appending the last fragment merges nothing and reports the same
    // verdict at the same level.
    let after = roundtrip(&mut reader, &mut writer, alpha.last().unwrap());
    assert_eq!(str_field(&after, "verdict"), "not-comp-c");
    assert_eq!(u64_field(&after, "level"), u64_field(&before, "level"));
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    // A violation verdict was served: exit code 1.
    assert_eq!(daemon.wait_code(), 1);
}

/// An 80,000-key object fits one request line. Its keys are ignored
/// envelope keys, found distinct in linear time (a quadratic check held
/// the reader thread for seconds); a duplicate among them makes the line
/// not JSON.
#[test]
fn wide_object_line_is_answered() {
    let dir = tmpdir();
    let socket = dir.join("wide.sock");
    let daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap()]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let keys: Vec<String> = (0..80_000).map(|i| format!("\"k{i}\":1")).collect();
    let wide = format!("{{{}}}", keys.join(","));
    let response = roundtrip(&mut reader, &mut writer, &wide);
    assert_eq!(str_field(&response, "kind"), "protocol");
    assert!(str_field(&response, "error").starts_with("request must be"));
    let twice = format!("{{{},\"k40000\":2}}", keys.join(","));
    let response = roundtrip(&mut reader, &mut writer, &twice);
    assert_eq!(str_field(&response, "kind"), "protocol");
    assert!(
        str_field(&response, "error").ends_with("duplicate object key \"k40000\""),
        "{}",
        response.to_compact()
    );
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 0);
}

#[test]
fn idle_client_is_timed_out_without_stalling_the_daemon() {
    let dir = tmpdir();
    let socket = dir.join("i.sock");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--idle-timeout-ms",
        "200",
    ]);
    // This client never sends anything: it must be told and disconnected.
    let idle = wait_for_socket(&socket);
    let mut line = String::new();
    BufReader::new(idle.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let response = parse(line.trim()).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(str_field(&response, "kind"), "timeout");

    // The daemon itself is unaffected: a prompt client still gets served.
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(stats.get("idle_closed").and_then(Value::as_u64), Some(1));
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 0);
}

#[test]
fn two_concurrent_clients_interleave_while_a_third_idles() {
    let dir = tmpdir();
    let socket = dir.join("j.sock");
    let daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap()]);
    let fragments = figure3_fragments();

    // The idle third connects first and never writes; with per-connection
    // reader threads it cannot head-of-line-block the active two.
    let _idle = wait_for_socket(&socket);
    let a = wait_for_socket(&socket);
    let b = wait_for_socket(&socket);
    let mut a_reader = BufReader::new(a.try_clone().unwrap());
    let mut a_writer = a;
    let mut b_reader = BufReader::new(b.try_clone().unwrap());
    let mut b_writer = b;

    // Alternate appends between the two connections: both feed the same
    // session, so the global append counter must tick up monotonically.
    for (k, request) in fragments.iter().enumerate() {
        let response = if k % 2 == 0 {
            roundtrip(&mut a_reader, &mut a_writer, request)
        } else {
            roundtrip(&mut b_reader, &mut b_writer, request)
        };
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "append {k} via {}: {}",
            if k % 2 == 0 { "A" } else { "B" },
            response.to_compact()
        );
        assert_eq!(
            response.get("appends").and_then(Value::as_u64),
            Some(k as u64 + 1)
        );
    }
    let stats = roundtrip(&mut a_reader, &mut a_writer, "{\"op\": \"stats\"}");
    assert!(
        stats.get("peak_connections").and_then(Value::as_u64) >= Some(3),
        "all three connections were concurrent: {}",
        stats.to_compact()
    );
    roundtrip(&mut b_reader, &mut b_writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}

#[test]
fn injected_panic_is_isolated_to_its_request() {
    let dir = tmpdir();
    let socket = dir.join("k.sock");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--inject-panic",
        "0xDEADPANIC",
    ]);
    let fragments = figure3_fragments();
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // A request that panics the handler: this connection gets a structured
    // internal error, not a dead socket.
    let boom = roundtrip(
        &mut reader,
        &mut writer,
        "{\"op\": \"stats\", \"note\": \"0xDEADPANIC\"}",
    );
    assert_eq!(boom.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(str_field(&boom, "kind"), "internal");

    // The same connection and a second one both keep working.
    let after = roundtrip(&mut reader, &mut writer, &fragments[0]);
    assert_eq!(
        after.get("ok").and_then(Value::as_bool),
        Some(true),
        "the connection survives its own panic: {}",
        after.to_compact()
    );
    let other = wait_for_socket(&socket);
    let mut other_reader = BufReader::new(other.try_clone().unwrap());
    let mut other_writer = other;
    let second = roundtrip(&mut other_reader, &mut other_writer, &fragments[1]);
    assert_eq!(second.get("ok").and_then(Value::as_bool), Some(true));

    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        stats.get("internal_faults").and_then(Value::as_u64),
        Some(1)
    );
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    // An isolated internal fault is still a fault: exit code 2.
    assert_eq!(daemon.wait_code(), 2);
}

#[test]
fn panicking_append_rolls_the_session_back() {
    let dir = tmpdir();
    let socket = dir.join("l.sock");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--inject-panic",
        "0xDEADPANIC",
    ]);
    let fragments = figure3_fragments();
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let first = roundtrip(&mut reader, &mut writer, &fragments[0]);
    assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));

    // An append whose handling panics must not half-apply: the session is
    // restored to its pre-request snapshot...
    let poisoned = fragments[1].replace("\"append\"", "\"comment\": \"0xDEADPANIC\", \"append\"");
    let boom = roundtrip(&mut reader, &mut writer, &poisoned);
    assert_eq!(str_field(&boom, "kind"), "internal");
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        stats.get("appends").and_then(Value::as_u64),
        Some(1),
        "the panicked append must not count: {}",
        stats.to_compact()
    );

    // ...and the same fragment, re-sent cleanly, applies as append #2.
    let retried = roundtrip(&mut reader, &mut writer, &fragments[1]);
    assert_eq!(retried.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(retried.get("appends").and_then(Value::as_u64), Some(2));
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 2);
}

#[test]
fn socket_path_guard_refuses_to_replace_a_regular_file() {
    let dir = tmpdir();
    let path = dir.join("precious.dat");
    std::fs::write(&path, "user data, not a socket").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_compc-serve"))
        .args(["--socket", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "binding over a regular file is refused"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refusing to replace"),
        "stderr names the refusal: {stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "user data, not a socket",
        "the file at the mistyped path is untouched"
    );
}

#[test]
fn fd_exhaustion_drops_connections_but_never_the_daemon() {
    let dir = tmpdir();
    let socket = dir.join("m.sock");
    // A tight fd limit makes accept/try_clone fail under connection
    // pressure — the regression was a `?` on try_clone taking down the
    // whole daemon.
    let child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n 24; exec '{}' --socket '{}' --idle-timeout-ms 1000",
            env!("CARGO_BIN_EXE_compc-serve"),
            socket.to_str().unwrap()
        ))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns under a tight ulimit");
    let daemon = Daemon(child);
    let _first = wait_for_socket(&socket);

    // Pile on connections far past what 24 fds can carry. Some get
    // dropped, shed, or refused — all fine, as long as the daemon lives.
    let mut pile = Vec::new();
    for _ in 0..60 {
        if let Ok(stream) = UnixStream::connect(&socket) {
            pile.push(stream);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(pile);

    // The daemon survived. Right after the pile it may still be churning
    // through dead backlog connections with exhausted fds and drop a few
    // more — the contract is that it *recovers*, so retry until it serves.
    let request = figure3_fragments()[0].clone();
    let mut served = None;
    for _ in 0..200 {
        let attempt = (|| -> std::io::Result<String> {
            let mut stream = UnixStream::connect(&socket)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            writeln!(stream, "{request}")?;
            let mut line = String::new();
            BufReader::new(stream.try_clone()?).read_line(&mut line)?;
            Ok(line)
        })();
        if let Ok(line) = attempt {
            if let Ok(response) = parse(line.trim()) {
                if response.get("ok").and_then(Value::as_bool) == Some(true) {
                    served = Some(response);
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let served = served.expect("daemon must recover and serve after fd pressure");
    assert_eq!(served.get("appends").and_then(Value::as_u64), Some(1));

    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    // Only the (correct) first fragment was served: a clean exit 0.
    assert_eq!(daemon.wait_code(), 0);
}

#[test]
fn journal_replays_acked_appends_after_sigkill() {
    let dir = tmpdir();
    let socket = dir.join("n.sock");
    let checkpoint = dir.join("n.checkpoint.json");
    let journal = dir.join("n.journal.ndjson");
    let fragments = figure3_fragments();
    let serve_args = [
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ];

    // Stream every fragment, all acked (journaled), then SIGKILL: no
    // shutdown, no final checkpoint write.
    let mut daemon = Daemon::spawn(&serve_args);
    let mut last = Value::Null;
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for request in &fragments {
            last = roundtrip(&mut reader, &mut writer, request);
            assert_eq!(last.get("ok").and_then(Value::as_bool), Some(true));
        }
    }
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    std::mem::forget(daemon);
    assert!(journal.exists(), "acked appends are journaled");

    // Simulate a torn trailing record from a crash mid-journal-write: it
    // was never acked, so recovery must drop it and carry on.
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        file.write_all(b"{\"seq\": 99, \"append\": {\"nod").unwrap();
    }

    // The restarted daemon replays the journal: every acked append is
    // there, and the verdict fields match the uninterrupted run exactly.
    let daemon = Daemon::spawn(&serve_args);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        stats.get("appends").and_then(Value::as_u64),
        Some(fragments.len() as u64),
        "all acked appends must survive the SIGKILL: {}",
        stats.to_compact()
    );
    let resent = roundtrip(&mut reader, &mut writer, fragments.last().unwrap());
    for field in ["verdict", "level", "phase"] {
        assert_eq!(
            resent.get(field).map(Value::to_compact),
            last.get(field).map(Value::to_compact),
            "recovered {field} must be bit-identical"
        );
    }
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}

/// Regression: torn tail bytes used to be left in the journal after
/// replay, and the next fsynced append was written directly after them —
/// fusing into one unparseable line that the *following* restart refused
/// as mid-file corruption, losing the acked append. Replay must truncate
/// the torn tail so later appends always start on a fresh line. The
/// checkpoint op before the kill makes the replay see applied == 0 with
/// only the torn tail — the exact case startup compaction never masked.
#[test]
fn torn_journal_tail_cannot_poison_later_acked_appends() {
    let dir = tmpdir();
    let socket = dir.join("p.sock");
    let checkpoint = dir.join("p.checkpoint.json");
    let journal = dir.join("p.journal.ndjson");
    let fragments = figure3_fragments();
    let serve_args = [
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ];

    // Ack one append, compact so the checkpoint covers it, then SIGKILL.
    let mut daemon = Daemon::spawn(&serve_args);
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let first = roundtrip(&mut reader, &mut writer, &fragments[0]);
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        let compacted = roundtrip(&mut reader, &mut writer, "{\"op\": \"checkpoint\"}");
        assert_eq!(compacted.get("saved").and_then(Value::as_bool), Some(true));
    }
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    std::mem::forget(daemon);

    // A crash mid-journal-write leaves torn, never-acked tail bytes.
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        file.write_all(b"{\"seq\": 99, \"append\": {\"nod").unwrap();
    }

    // Restart and ack another append: it must land on a fresh line, not
    // fused onto the torn bytes. SIGKILL again before any compaction.
    let mut daemon = Daemon::spawn(&serve_args);
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let second = roundtrip(&mut reader, &mut writer, &fragments[1]);
        assert_eq!(
            second.get("ok").and_then(Value::as_bool),
            Some(true),
            "append after a torn-tail restart must be served: {}",
            second.to_compact()
        );
        assert_eq!(second.get("appends").and_then(Value::as_u64), Some(2));
    }
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    std::mem::forget(daemon);

    // The decisive restart: with the torn bytes still in the file the
    // acked second append is unparseable and the daemon refuses to start.
    let daemon = Daemon::spawn(&serve_args);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        stats.get("appends").and_then(Value::as_u64),
        Some(2),
        "both acked appends must survive both SIGKILLs: {}",
        stats.to_compact()
    );
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 0);
}

/// A journal can only be compacted against a checkpoint that covers its
/// records; without one it would grow without bound, so the combination
/// is refused at startup.
#[test]
fn journal_without_checkpoint_is_refused_at_startup() {
    use std::io::Read as _;
    let dir = tmpdir();
    let socket = dir.join("q.sock");
    let journal = dir.join("q.journal.ndjson");
    let mut daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    let status = daemon.0.wait().unwrap();
    let mut err = String::new();
    daemon
        .0
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    std::mem::forget(daemon);
    assert_eq!(status.code(), Some(2));
    assert!(
        err.contains("--journal requires --checkpoint"),
        "startup must explain the refusal: {err}"
    );
}

#[test]
fn checkpoint_op_compacts_the_journal() {
    let dir = tmpdir();
    let socket = dir.join("o.sock");
    let checkpoint = dir.join("o.checkpoint.json");
    let journal = dir.join("o.journal.ndjson");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    let fragments = figure3_fragments();
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for request in &fragments {
        roundtrip(&mut reader, &mut writer, request);
    }
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        stats.get("journal_records").and_then(Value::as_u64),
        Some(fragments.len() as u64)
    );
    let compacted = roundtrip(&mut reader, &mut writer, "{\"op\": \"checkpoint\"}");
    assert_eq!(compacted.get("saved").and_then(Value::as_bool), Some(true));
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        stats.get("journal_records").and_then(Value::as_u64),
        Some(0),
        "compaction truncates the journal: {}",
        stats.to_compact()
    );
    assert_eq!(std::fs::metadata(&journal).unwrap().len(), 0);
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}

#[test]
fn sigterm_drains_saves_and_exits_cleanly() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let dir = tmpdir();
    let socket = dir.join("p.sock");
    let checkpoint = dir.join("p.checkpoint.json");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    let fragments = figure3_fragments();
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // Only the first fragment: a correct prefix, so a clean drain exits 0.
    let response = roundtrip(&mut reader, &mut writer, &fragments[0]);
    assert_eq!(str_field(&response, "verdict"), "comp-c");

    let pid = daemon.0.id() as i32;
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "SIGTERM delivered");
    assert_eq!(
        daemon.wait_code(),
        0,
        "SIGTERM is a graceful drain, not a crash"
    );
    assert!(
        checkpoint.exists(),
        "the drain saves the checkpoint before exiting"
    );
    assert!(
        !socket.exists(),
        "the drained daemon unlinks its socket path"
    );
}

#[test]
fn send_mode_streams_a_spec_and_reports_verdicts() {
    let dir = tmpdir();
    let socket = dir.join("q.sock");
    let daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap()]);
    let _ = wait_for_socket(&socket);
    let spec_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/figure3.incorrect.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_compc-serve"))
        .args(["--send", spec_path, "--socket", socket.to_str().unwrap()])
        .output()
        .unwrap();
    // Figure 3 is a violation: the client mirrors compc-check's exit 1.
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("one response per request");
    let response = parse(last).unwrap();
    assert_eq!(str_field(&response, "verdict"), "not-comp-c");

    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}

#[test]
fn deadline_interruption_is_resumable_and_exits_3() {
    let dir = tmpdir();
    let socket = dir.join("c.sock");
    let daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap(), "--deadline-ms", "0"]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let fragments = figure3_fragments();
    let response = roundtrip(&mut reader, &mut writer, &fragments[0]);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(str_field(&response, "kind"), "interrupted");
    assert_eq!(
        response.get("resumable").and_then(Value::as_bool),
        Some(true)
    );
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 3);
}

/// The client backs off on `interrupted` and gives up after its attempt
/// budget: every re-send checks the whole system again, so it must not
/// retry at once and forever.
#[test]
fn client_gives_up_on_a_request_interrupted_every_attempt() {
    use compc::serve::client::{stream_requests, BackoffPolicy, Target};
    let dir = tmpdir();
    let socket = dir.join("c.sock");
    let _daemon = Daemon::spawn(&["--socket", socket.to_str().unwrap(), "--deadline-ms", "0"]);
    let stream = wait_for_socket(&socket);
    let policy = BackoffPolicy {
        base: Duration::from_millis(10),
        cap: Duration::from_secs(1),
        max_attempts: 3,
        ..BackoffPolicy::default()
    };
    let target = Target::Unix(socket.to_str().unwrap().to_string());
    let started = std::time::Instant::now();
    let report = stream_requests(&target, &figure3_fragments(), &policy, |_, _| {});
    // Attempt k sleeps at least base * 2^(k-1): 10 + 20 + 40 ms in all.
    assert!(
        started.elapsed() >= Duration::from_millis(70),
        "no backoff between re-sends: {:?}",
        started.elapsed()
    );
    assert_eq!(report.acked, 0);
    let gave_up = report.gave_up.expect("every attempt is interrupted");
    assert!(gave_up.contains("request 1 "), "{gave_up}");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(
        u64_field(&stats, "interruptions"),
        3,
        "{}",
        stats.to_compact()
    );
}

/// Fragments of a corpus spec as request lines, optionally addressed to a
/// named session.
fn corpus_fragments(file: &str, session: Option<&str>) -> Vec<String> {
    let path = format!("{}/tests/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
    let spec = SystemSpec::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    spec.into_appends()
        .iter()
        .map(|f| {
            let mut entries = Vec::new();
            if let Some(name) = session {
                entries.push(("session".to_string(), Value::from(name)));
            }
            entries.push(("append".to_string(), f.to_json()));
            Value::Object(entries).to_compact()
        })
        .collect()
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing numeric field {key}: {}", v.to_compact()))
}

#[test]
fn group_commit_covers_many_acks_with_one_fsync() {
    let dir = tmpdir();
    let socket = dir.join("gc.sock");
    let checkpoint = dir.join("gc.json");
    let journal = dir.join("gc.ndjson");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--commit-batch",
        "32",
    ]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Pipeline a burst without reading responses: while the first fsync is
    // in flight the rest queue up, so the shard drains them as batches.
    let fragments = figure3_fragments();
    let total: usize = 64;
    let burst: String = (0..total)
        .map(|k| fragments[k % fragments.len()].clone() + "\n")
        .collect();
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();
    for k in 0..total {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = parse(line.trim()).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "append {k}: {}",
            response.to_compact()
        );
        assert_eq!(u64_field(&response, "appends"), k as u64 + 1);
    }

    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    let appends = u64_field(&stats, "appends");
    let fsyncs = u64_field(&stats, "fsyncs");
    let saved = u64_field(&stats, "fsyncs_saved");
    assert_eq!(appends, total as u64);
    assert!(fsyncs >= 1, "journaled appends imply at least one fsync");
    assert!(
        fsyncs < appends,
        "a pipelined burst must form at least one multi-record batch \
         ({fsyncs} fsyncs for {appends} appends)"
    );
    // Every journaled record either started a batch (one fsync) or rode
    // along in one (one fsync saved).
    assert_eq!(fsyncs + saved, appends);
    assert!(u64_field(&stats, "batch_max") >= 2);
    assert_eq!(u64_field(&stats, "commit_batch"), 32);
    assert_eq!(u64_field(&stats, "dispatch_shards"), 1);

    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}

#[test]
fn named_sessions_are_independent_and_survive_a_kill() {
    let dir = tmpdir();
    let socket = dir.join("ns.sock");
    let checkpoint = dir.join("ns.json");
    let journal = dir.join("ns.ndjson");
    let args = [
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--commit-batch",
        "8",
        "--dispatch-shards",
        "2",
    ];
    let daemon = Daemon::spawn(&args);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Interleave two named sessions on one connection: an incorrect spec
    // into "alpha", a correct one into "beta". Each session's append
    // counter advances independently of the other's traffic.
    let alpha = corpus_fragments("figure3.incorrect.json", Some("alpha"));
    let beta = corpus_fragments("adv-forget-n11.correct.json", Some("beta"));
    let mut alpha_seen = 0u64;
    let mut beta_seen = 0u64;
    let mut last_alpha = None;
    for k in 0..alpha.len().max(beta.len()) {
        if let Some(request) = alpha.get(k) {
            let response = roundtrip(&mut reader, &mut writer, request);
            alpha_seen += 1;
            assert_eq!(str_field(&response, "session"), "alpha");
            assert_eq!(u64_field(&response, "appends"), alpha_seen);
            last_alpha = Some(response);
        }
        if let Some(request) = beta.get(k) {
            let response = roundtrip(&mut reader, &mut writer, request);
            beta_seen += 1;
            assert_eq!(str_field(&response, "session"), "beta");
            assert_eq!(u64_field(&response, "appends"), beta_seen);
        }
    }
    let last_alpha = last_alpha.unwrap();
    assert_eq!(str_field(&last_alpha, "verdict"), "not-comp-c");
    let alpha_level = u64_field(&last_alpha, "level");

    let stats = roundtrip(
        &mut reader,
        &mut writer,
        "{\"op\": \"stats\", \"session\": \"alpha\"}",
    );
    assert_eq!(str_field(&stats, "session"), "alpha");
    assert_eq!(u64_field(&stats, "session_appends"), alpha_seen);
    // default (always present) + alpha + beta.
    assert_eq!(u64_field(&stats, "sessions"), 3);

    // Crash hard mid-life (Drop kills the child): acked appends of *both*
    // sessions must replay.
    drop(daemon);

    let daemon = Daemon::spawn(&args);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = roundtrip(
        &mut reader,
        &mut writer,
        "{\"op\": \"stats\", \"session\": \"alpha\"}",
    );
    assert_eq!(u64_field(&stats, "session_appends"), alpha_seen);
    let stats = roundtrip(
        &mut reader,
        &mut writer,
        "{\"op\": \"stats\", \"session\": \"beta\"}",
    );
    assert_eq!(u64_field(&stats, "session_appends"), beta_seen);

    // The recovered alpha session still answers the same violation.
    let response = roundtrip(&mut reader, &mut writer, alpha.last().unwrap());
    assert_eq!(str_field(&response, "session"), "alpha");
    assert_eq!(str_field(&response, "verdict"), "not-comp-c");
    assert_eq!(u64_field(&response, "level"), alpha_level);

    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);

    // The multi-session checkpoint document lists sessions by name.
    let doc = parse(&std::fs::read_to_string(&checkpoint).unwrap()).unwrap();
    let names: Vec<&str> = doc
        .get("sessions")
        .and_then(|s| s.as_array())
        .expect("multi-session checkpoint has a sessions array")
        .iter()
        .map(|s| str_field(s, "session"))
        .collect();
    assert!(names.contains(&"alpha") && names.contains(&"beta"));
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "sessions are name-sorted: {names:?}");
}

#[test]
fn default_only_journal_and_checkpoint_stay_legacy_shaped() {
    let dir = tmpdir();
    let socket = dir.join("lg.sock");
    let checkpoint = dir.join("lg.json");
    let journal = dir.join("lg.ndjson");
    let daemon = Daemon::spawn(&[
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--commit-batch",
        "4",
    ]);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Two session-less appends: the PR 8 protocol, byte-compatible files.
    let fragments = figure3_fragments();
    for request in fragments.iter().take(2) {
        let response = roundtrip(&mut reader, &mut writer, request);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    }

    // Journal records for the default session carry no "session" key —
    // exactly the single-session record shape older daemons replay.
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    let records: Vec<Value> = journal_text
        .lines()
        .map(|line| parse(line).unwrap())
        .collect();
    assert_eq!(records.len(), 2);
    for (k, record) in records.iter().enumerate() {
        assert_eq!(u64_field(record, "seq"), k as u64 + 1);
        assert!(record.get("append").is_some());
        assert!(
            record.get("session").is_none(),
            "default-session records stay legacy-shaped: {}",
            record.to_compact()
        );
    }

    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    daemon.wait_code();

    // And the checkpoint is the legacy single-session document, not the
    // multi-session wrapper.
    let doc = parse(&std::fs::read_to_string(&checkpoint).unwrap()).unwrap();
    assert!(doc.get("sessions").is_none());
    assert!(doc.get("spec").is_some());
    assert_eq!(u64_field(&doc, "appends"), 2);
}

#[test]
fn trace_stream_reports_batching_gauges() {
    let dir = tmpdir();
    let socket = dir.join("tg.sock");
    let checkpoint = dir.join("tg.json");
    let journal = dir.join("tg.ndjson");
    let stdout_path = dir.join("tg.trace");
    let stdout = std::fs::File::create(&stdout_path).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_compc-serve"))
        .args([
            "--socket",
            socket.to_str().unwrap(),
            "--checkpoint",
            checkpoint.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--commit-batch",
            "16",
            "--dispatch-shards",
            "2",
            "--trace",
        ])
        .stdout(Stdio::from(stdout))
        .stderr(Stdio::null())
        .spawn()
        .expect("compc-serve spawns");
    let daemon = Daemon(child);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let lines = corpus_fragments("figure3.incorrect.json", Some("t"));
    let total = 24;
    let burst: String = (0..total)
        .map(|k| lines[k % lines.len()].clone() + "\n")
        .collect();
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();
    for _ in 0..total {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
    }
    // The stats op flushes a serve_gauges event into the trace stream.
    roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    daemon.wait_code();

    let trace = std::fs::read_to_string(&stdout_path).unwrap();
    let gauges = trace
        .lines()
        .map(|line| parse(line).unwrap())
        .find(|event| event.get("event").and_then(Value::as_str) == Some("serve_gauges"))
        .expect("trace stream contains a serve_gauges event");
    assert_eq!(str_field(&gauges, "label"), "serve");
    assert!(u64_field(&gauges, "fsyncs") >= 1);
    // fsyncs + fsyncs_saved accounts for every journaled record.
    assert_eq!(
        u64_field(&gauges, "fsyncs") + u64_field(&gauges, "fsyncs_saved"),
        total as u64
    );
    let buckets = gauges
        .get("batch_buckets")
        .and_then(|b| b.as_array())
        .expect("log2 batch histogram");
    let batches: u64 = buckets.iter().filter_map(Value::as_u64).sum();
    assert_eq!(batches, u64_field(&gauges, "fsyncs"));
    let depths = gauges
        .get("shard_depths")
        .and_then(|d| d.as_array())
        .expect("per-shard queue depths");
    assert_eq!(depths.len(), 2);
}

/// SIGKILLs a daemon (no drain, no final checkpoint).
fn sigkill(mut daemon: Daemon) {
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    std::mem::forget(daemon);
}

/// The verdict fields a from-scratch check of the first `count` Figure 3
/// fragments, merged, must produce.
fn figure3_batch_fields(count: usize) -> Vec<(&'static str, Option<String>)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/figure3.incorrect.json"
    );
    let spec = SystemSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut merged = SystemSpec {
        auto_propagate: false,
        ..SystemSpec::default()
    };
    for fragment in spec.into_appends().iter().take(count) {
        merged.merge(fragment).unwrap();
    }
    let sys = merged.build().unwrap();
    match compc::core::Checker::new().check(&sys) {
        compc::core::Verdict::Correct(_) => vec![("verdict", Some("\"comp-c\"".into()))],
        compc::core::Verdict::Incorrect(cex) => vec![
            ("verdict", Some("\"not-comp-c\"".into())),
            ("level", Some(cex.level.to_string())),
            ("phase", Some(format!("\"{}\"", cex.phase.tag()))),
        ],
    }
}

fn assert_batch_verdict(response: &Value, count: usize) {
    for (field, expected) in figure3_batch_fields(count) {
        assert_eq!(
            response.get(field).map(Value::to_compact),
            expected,
            "{field} after {count} fragments: {}",
            response.to_compact()
        );
    }
}

/// Regression: an interrupted append keeps its merged spec (so a re-send
/// resumes), but used not to be journaled. A later acked append could
/// then depend on state the journal lacked, and the restart hard-errored
/// replaying it (`unknown name "A" in nodes[3].home`). An interrupted
/// re-send that merges nothing changes no state, so it costs no fsync and
/// takes no `seq`: the restart still counts three appends.
#[test]
fn interrupted_appends_are_journaled_and_survive_a_kill() {
    let dir = tmpdir();
    let socket = dir.join("ij.sock");
    let checkpoint = dir.join("ij.checkpoint.json");
    let journal = dir.join("ij.journal.ndjson");
    let fragments = figure3_fragments();
    let durable = [
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ];
    let mut strict = durable.to_vec();
    strict.extend(["--deadline-ms", "0"]);
    let daemon = Daemon::spawn(&strict);
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // The two re-sends of the second fragment merge nothing new, so
        // they are neither journaled nor counted.
        for request in [&fragments[0], &fragments[1], &fragments[1], &fragments[1]] {
            let response = roundtrip(&mut reader, &mut writer, request);
            assert_eq!(
                str_field(&response, "kind"),
                "interrupted",
                "{}",
                response.to_compact()
            );
        }
        let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
        assert_eq!(
            u64_field(&stats, "appends"),
            0,
            "interruptions are not acks"
        );
        assert_eq!(u64_field(&stats, "interruptions"), 4);
        assert_eq!(u64_field(&stats, "journal_records"), 2);
        assert_eq!(u64_field(&stats, "fsyncs"), 2);
    }
    sigkill(daemon);

    let daemon = Daemon::spawn(&durable);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let third = roundtrip(&mut reader, &mut writer, &fragments[2]);
    assert_eq!(
        third.get("ok").and_then(Value::as_bool),
        Some(true),
        "{}",
        third.to_compact()
    );
    assert_eq!(u64_field(&third, "appends"), 3);
    assert_batch_verdict(&third, 3);
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}

/// A handler panic inside a commit batch rolls back only its own request:
/// the batch's earlier appends stay applied, acked and journaled, and a
/// restart recovers exactly them.
#[test]
fn panic_mid_batch_rolls_back_only_its_own_request() {
    let dir = tmpdir();
    let socket = dir.join("pb.sock");
    let checkpoint = dir.join("pb.checkpoint.json");
    let journal = dir.join("pb.journal.ndjson");
    let fragments = figure3_fragments();
    let args = [
        "--socket",
        socket.to_str().unwrap(),
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--commit-batch",
        "8",
        "--inject-panic",
        "0xDEADPANIC",
    ];
    let daemon = Daemon::spawn(&args);
    {
        let stream = wait_for_socket(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Pipelined in one write, so the shard drains them as one batch.
        let poisoned =
            fragments[2].replace("\"append\"", "\"comment\": \"0xDEADPANIC\", \"append\"");
        let burst = format!("{}\n{}\n{poisoned}\n", fragments[0], fragments[1]);
        writer.write_all(burst.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut responses = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            responses.push(parse(line.trim()).unwrap());
        }
        for (k, response) in responses[..2].iter().enumerate() {
            assert_eq!(u64_field(response, "appends"), k as u64 + 1);
        }
        assert_eq!(str_field(&responses[2], "kind"), "internal");
        let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
        assert_eq!(u64_field(&stats, "appends"), 2);
        assert_eq!(u64_field(&stats, "session_appends"), 2);
    }
    let records = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(records.lines().count(), 2, "{records}");
    sigkill(daemon);

    let daemon = Daemon::spawn(&args);
    let stream = wait_for_socket(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = roundtrip(&mut reader, &mut writer, "{\"op\": \"stats\"}");
    assert_eq!(u64_field(&stats, "session_appends"), 2);
    let third = roundtrip(&mut reader, &mut writer, &fragments[2]);
    assert_eq!(u64_field(&third, "appends"), 3);
    assert_batch_verdict(&third, 3);
    roundtrip(&mut reader, &mut writer, "{\"op\": \"shutdown\"}");
    assert_eq!(daemon.wait_code(), 1);
}
