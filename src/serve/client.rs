//! A resilient NDJSON client for the `compc-serve` protocol.
//!
//! [`stream_requests`] sends request lines in order and survives daemon
//! restarts: connect failures and dropped connections are retried under
//! bounded exponential backoff with jitter, and after a reconnect the
//! stream resumes from the first *unacked* line — every line at or past
//! that point is re-sent. Because the stream is sequential, the global
//! first-unacked line is also each named session's first unacked line,
//! and the report tracks the acked counts per session so a caller can
//! audit (or resume) every session independently. Re-sending is safe
//! because spec merges are idempotent (re-appending an already-merged
//! fragment changes nothing), which is exactly what lets the
//! crash-recovery soak use this client as its canonical workload driver.

use crate::session::DEFAULT_SESSION;
use crate::spec::SystemSpec;

use compc_json::{Value, Writer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// The request line `{"session": name, "append": fragment}`, compact and
/// without its newline; `None` leaves the session field out, which
/// addresses the `"default"` session.
pub fn append_request(session: Option<&str>, fragment: &SystemSpec) -> String {
    let mut line = String::new();
    let mut w = Writer::compact(&mut line);
    w.begin_object();
    if let Some(name) = session {
        w.key("session").str(name);
    }
    w.key("append");
    fragment.write(&mut w);
    w.end_object();
    line
}

/// Where the daemon lives.
#[derive(Clone, Debug)]
pub enum Target {
    /// A Unix socket path (the daemon's `--socket`).
    Unix(String),
    /// A TCP address (the daemon's `--listen`).
    Tcp(String),
}

/// Retry behavior for [`stream_requests`].
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// First retry delay; doubles per consecutive failure.
    pub base: Duration,
    /// Delay ceiling.
    pub cap: Duration,
    /// Consecutive failures (on one request) before giving up.
    pub max_attempts: u32,
    /// Per-read socket timeout while waiting for a response.
    pub io_timeout: Duration,
    /// Jitter seed, so a soak run is reproducible.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            max_attempts: 40,
            io_timeout: Duration::from_secs(30),
            seed: 0x5eed,
        }
    }
}

/// What a [`stream_requests`] run accomplished.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Request lines acknowledged with a response line.
    pub acked: usize,
    /// Times a connection was (re-)established after the first.
    pub reconnects: u64,
    /// Lines re-sent after a reconnect (duplicates the daemon merged
    /// idempotently).
    pub resent: u64,
    /// Acked verdicts that were `not-comp-c`.
    pub violations: u64,
    /// Acked lines per session (a line's `"session"` field; absent means
    /// `"default"`), sorted by name — the per-session view of `acked`.
    pub acked_by_session: Vec<(String, usize)>,
    /// Why the client gave up, if it did (all lines acked when `None`).
    pub gave_up: Option<String>,
}

enum ClientStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl ClientStream {
    fn connect(target: &Target, io_timeout: Duration) -> std::io::Result<ClientStream> {
        let stream = match target {
            Target::Unix(path) => ClientStream::Unix(UnixStream::connect(path)?),
            Target::Tcp(addr) => ClientStream::Tcp(TcpStream::connect(addr)?),
        };
        match &stream {
            ClientStream::Unix(s) => s.set_read_timeout(Some(io_timeout))?,
            ClientStream::Tcp(s) => s.set_read_timeout(Some(io_timeout))?,
        }
        Ok(stream)
    }

    fn try_clone(&self) -> std::io::Result<ClientStream> {
        match self {
            ClientStream::Unix(s) => s.try_clone().map(ClientStream::Unix),
            ClientStream::Tcp(s) => s.try_clone().map(ClientStream::Tcp),
        }
    }
}

impl std::io::Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

/// A tiny deterministic xorshift generator for backoff jitter — enough
/// randomness to de-synchronize retrying clients, with zero dependencies.
struct Jitter(u64);

impl Jitter {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Exponential backoff with jitter: doubles `base` per failed attempt up
/// to `cap`, then picks uniformly from the upper half of that window so
/// concurrent clients don't stampede in lockstep.
fn backoff_delay(policy: &BackoffPolicy, attempt: u32, jitter: &mut Jitter) -> Duration {
    let base_ms = policy.base.as_millis().max(1) as u64;
    let cap_ms = policy.cap.as_millis().max(1) as u64;
    let exp_ms = base_ms.saturating_mul(1u64 << attempt.min(20)).min(cap_ms);
    let low = (exp_ms / 2).max(1);
    Duration::from_millis(low + jitter.next() % (exp_ms - low + 1))
}

/// Streams `lines` to the daemon in order, calling `on_response(index,
/// response)` for each acked line, and riding out daemon restarts.
///
/// Never panics and never returns early with lines silently unsent: either
/// every line is acked (`gave_up` is `None`) or the report says how far it
/// got and why it stopped.
pub fn stream_requests(
    target: &Target,
    lines: &[String],
    policy: &BackoffPolicy,
    on_response: impl FnMut(usize, &Value),
) -> ClientReport {
    stream_requests_observed(target, lines, policy, |_| {}, on_response)
}

/// [`stream_requests`] with a delivery observer: `on_send(index)` fires
/// immediately *before* each write of line `index` (first sends and
/// re-sends alike), so a harness can maintain an upper bound on what the
/// daemon can possibly have durably applied — the crash-recovery soak
/// asserts `recovered <= delivered` with it.
pub fn stream_requests_observed(
    target: &Target,
    lines: &[String],
    policy: &BackoffPolicy,
    mut on_send: impl FnMut(usize),
    mut on_response: impl FnMut(usize, &Value),
) -> ClientReport {
    // The session each line addresses, resolved once up front so the ack
    // path does no re-parsing.
    let sessions: Vec<String> = lines.iter().map(|line| session_of(line)).collect();
    let mut acked_by_session: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    let mut report = ClientReport::default();
    let mut jitter = Jitter(policy.seed | 1);
    let mut attempts: u32 = 0;
    let mut connected_once = false;
    let mut connection: Option<(BufReader<ClientStream>, ClientStream)> = None;

    while report.acked < lines.len() {
        if attempts >= policy.max_attempts {
            report.gave_up = Some(format!(
                "request {} failed {} consecutive attempts",
                report.acked + 1,
                attempts
            ));
            return finish(report, acked_by_session);
        }
        let (reader, writer) = match connection.as_mut() {
            Some(pair) => (&mut pair.0, &mut pair.1),
            None => match ClientStream::connect(target, policy.io_timeout) {
                Ok(stream) => match stream.try_clone() {
                    Ok(write_half) => {
                        if connected_once {
                            report.reconnects += 1;
                        }
                        connected_once = true;
                        connection = Some((BufReader::new(stream), write_half));
                        let pair = connection.as_mut().expect("just inserted");
                        (&mut pair.0, &mut pair.1)
                    }
                    Err(_) => {
                        attempts += 1;
                        std::thread::sleep(backoff_delay(policy, attempts, &mut jitter));
                        continue;
                    }
                },
                Err(_) => {
                    attempts += 1;
                    std::thread::sleep(backoff_delay(policy, attempts, &mut jitter));
                    continue;
                }
            },
        };

        let index = report.acked;
        if attempts > 0 {
            report.resent += 1;
        }
        let mut line = lines[index].clone();
        line.push('\n');
        on_send(index);
        let io = writer.write_all(line.as_bytes()).and_then(|_| {
            let mut response = String::new();
            reader.read_line(&mut response).map(|n| (n, response))
        });
        match io {
            Ok((0, _)) | Err(_) => {
                // The daemon went away mid-request (restart, crash, or
                // response timeout): reconnect and re-send from here.
                connection = None;
                attempts += 1;
                std::thread::sleep(backoff_delay(policy, attempts, &mut jitter));
                continue;
            }
            Ok((_, response)) => {
                let value = match compc_json::parse(response.trim_end()) {
                    Ok(v) => v,
                    Err(e) => {
                        report.gave_up = Some(format!(
                            "request {} got a non-JSON response: {e}",
                            index + 1
                        ));
                        return finish(report, acked_by_session);
                    }
                };
                let ok = value.get("ok").and_then(Value::as_bool).unwrap_or(false);
                let kind = value.get("kind").and_then(Value::as_str).unwrap_or("");
                if !ok && kind == "overloaded" {
                    // Shed at the door: back off and reconnect.
                    connection = None;
                    attempts += 1;
                    std::thread::sleep(backoff_delay(policy, attempts, &mut jitter));
                    continue;
                }
                if !ok && kind == "interrupted" {
                    // Deadline interruption: the daemon kept the merged
                    // fragment, so re-sending the line is safe, but the
                    // re-send checks the whole system again. Back off first.
                    attempts += 1;
                    std::thread::sleep(backoff_delay(policy, attempts, &mut jitter));
                    continue;
                }
                if value.get("verdict").and_then(Value::as_str) == Some("not-comp-c") {
                    report.violations += 1;
                }
                on_response(index, &value);
                *acked_by_session.entry(sessions[index].clone()).or_insert(0) += 1;
                report.acked += 1;
                attempts = 0;
            }
        }
    }
    finish(report, acked_by_session)
}

/// The session a request line addresses (`"default"` when the field is
/// absent or the line is not even JSON — matching the daemon's routing of
/// unparseable lines to a catch-all).
fn session_of(line: &str) -> String {
    compc_json::parse(line)
        .ok()
        .and_then(|v| v.get("session").and_then(Value::as_str).map(String::from))
        .unwrap_or_else(|| DEFAULT_SESSION.to_string())
}

fn finish(
    mut report: ClientReport,
    acked: std::collections::HashMap<String, usize>,
) -> ClientReport {
    let mut by_session: Vec<(String, usize)> = acked.into_iter().collect();
    by_session.sort();
    report.acked_by_session = by_session;
    report
}
