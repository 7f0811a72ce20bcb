//! Connection edge of the daemon: the accept loop and the per-connection
//! reader/writer threads.
//!
//! Every per-connection failure — a failed `try_clone`, a write error, a
//! hostile byte stream — is scoped to that connection: the error is
//! logged or answered, the connection is dropped, and the accept loop
//! keeps accepting. Nothing at this layer can take the daemon down.

use super::dispatch::{
    error_object, panic_message, Conns, CtrlMsg, Request, RequestBody, ShardMsg,
};
use super::envelope::Envelope;
use super::{Gauges, ServeConfig};
use crate::session::DEFAULT_SESSION;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// Where a reader sends what it parsed: the per-shard request queues, the
/// control thread, and the connection registry responses come back
/// through.
#[derive(Clone)]
pub(crate) struct Routes {
    pub shards: Vec<SyncSender<ShardMsg>>,
    pub ctrl: Sender<CtrlMsg>,
    pub conns: Conns,
}

/// Per-connection limits, from the `--max-conns`, `--idle-timeout-ms`,
/// and `--max-line-bytes` flags.
#[derive(Clone, Copy)]
pub(crate) struct ConnLimits {
    pub max_conns: usize,
    pub idle_timeout: Option<Duration>,
    pub max_line_bytes: usize,
}

pub(crate) enum Listener {
    Unix(UnixListener, String),
    Tcp(TcpListener, String),
}

impl Listener {
    /// Binds a Unix socket, replacing only a *stale socket* at `path`.
    /// Anything else living there (a regular file, a directory, a
    /// symlink — most likely a mistyped path) is refused rather than
    /// deleted.
    pub fn bind_unix(path: &str) -> Result<Listener, String> {
        use std::os::unix::fs::FileTypeExt;
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.file_type().is_socket() => {
                std::fs::remove_file(path)
                    .map_err(|e| format!("cannot remove stale socket {path}: {e}"))?;
            }
            Ok(meta) => {
                return Err(format!(
                    "refusing to replace {path}: it exists and is {}, not a socket; \
                     pass a fresh --socket path",
                    file_kind(&meta.file_type())
                ));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot stat {path}: {e}")),
        }
        let listener =
            UnixListener::bind(path).map_err(|e| format!("cannot bind socket {path}: {e}"))?;
        Ok(Listener::Unix(listener, path.to_string()))
    }

    pub fn bind_tcp(addr: &str) -> Result<Listener, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let display = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string());
        Ok(Listener::Tcp(listener, display))
    }

    /// What "listening on ..." should print (the resolved TCP address, so
    /// `--listen 127.0.0.1:0` announces the picked port).
    pub fn local_display(&self) -> &str {
        match self {
            Listener::Unix(_, path) => path,
            Listener::Tcp(_, display) => display,
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(on),
            Listener::Tcp(l, _) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l, _) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    /// Waits until a connection is pending or `timeout` passes, whichever
    /// comes first.
    fn wait_pending(&self, timeout: Duration) {
        #[repr(C)]
        struct PollFd {
            fd: std::ffi::c_int,
            events: std::ffi::c_short,
            revents: std::ffi::c_short,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
        }
        const POLLIN: std::ffi::c_short = 1;
        let fd = match self {
            Listener::Unix(l, _) => l.as_raw_fd(),
            Listener::Tcp(l, _) => l.as_raw_fd(),
        };
        let mut pending = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: `pending` is one valid `pollfd` for the whole call.
        let ready = unsafe { poll(&mut pending, 1, timeout.as_millis() as std::ffi::c_int) };
        if ready < 0 && std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            // Without a working poll, wait out the period instead of
            // spinning.
            std::thread::sleep(timeout);
        }
    }
}

fn file_kind(kind: &std::fs::FileType) -> &'static str {
    if kind.is_dir() {
        "a directory"
    } else if kind.is_symlink() {
        "a symlink"
    } else if kind.is_file() {
        "a regular file"
    } else {
        "another kind of file"
    }
}

pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(t),
            Stream::Tcp(s) => s.set_write_timeout(t),
        }
    }

    fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Accepts until `stop` is set: sheds over-capacity connections with an
/// `overloaded` error, spawns a reader and a writer thread per accepted
/// connection, and joins them all (and unlinks a Unix socket path) on the
/// way out.
pub(crate) fn accept_loop(
    listener: Listener,
    routes: Routes,
    config: ServeConfig,
    gauges: Arc<Gauges>,
    stop: Arc<AtomicBool>,
    limits: ConnLimits,
) {
    // Nonblocking accept lets the loop look at the stop flag: it waits
    // for a pending connection at most one period at a time. If the fcntl
    // somehow fails we still serve, just without prompt shutdown.
    const STOP_PERIOD: Duration = Duration::from_millis(15);
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("cannot make the listener pollable: {e}");
    }
    let mut next_conn: u64 = 0;
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                listener.wait_pending(STOP_PERIOD);
                continue;
            }
            Err(e) => {
                eprintln!("accept failed: {e}");
                std::thread::sleep(STOP_PERIOD);
                continue;
            }
        };
        // The accepted socket may inherit the listener's nonblocking mode
        // on some platforms; the reader relies on blocking reads.
        let _ = stream.set_nonblocking(false);
        if gauges.connections.load(Ordering::SeqCst) as usize >= limits.max_conns {
            shed(stream, &gauges, limits.max_conns);
            continue;
        }
        let conn = next_conn;
        next_conn += 1;
        // A failure to clone this one stream drops this one connection —
        // never the daemon (a `?` here once killed the whole process).
        let reader_half = match stream.try_clone() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("connection {conn}: cannot clone stream ({e}); dropping it");
                continue;
            }
        };
        let (resp_tx, resp_rx) = std::sync::mpsc::channel::<String>();
        routes
            .conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(conn, resp_tx);
        gauges.accepted.fetch_add(1, Ordering::SeqCst);
        let active = gauges.connections.fetch_add(1, Ordering::SeqCst) + 1;
        gauges.peak_connections.fetch_max(active, Ordering::SeqCst);
        handlers.retain(|h| !h.is_finished());
        // A thread-spawn failure must undo the registration above, or the
        // connection registry leaks the entry and --max-conns capacity is
        // permanently down one — exactly under the resource exhaustion
        // that makes spawns fail in the first place. Unregistering drops
        // the response sender, which also ends an already-running writer
        // thread and shuts its socket down.
        if !spawn_handler(&mut handlers, format!("conn-{conn}-write"), move || {
            writer_loop(stream, resp_rx)
        }) {
            unregister(&routes, &gauges, conn);
            continue;
        }
        let reader_routes = routes.clone();
        let reader_gauges = Arc::clone(&gauges);
        let inject_panic = config.inject_panic.clone();
        if !spawn_handler(&mut handlers, format!("conn-{conn}-read"), move || {
            reader_loop(
                reader_half,
                conn,
                reader_routes,
                inject_panic,
                &reader_gauges,
                limits,
            )
        }) {
            unregister(&routes, &gauges, conn);
            continue;
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

/// Connection teardown: removes the registry entry (ending the writer),
/// keeps the connection gauge honest, and nudges the control thread for
/// `--once`.
fn unregister(routes: &Routes, gauges: &Gauges, conn: u64) {
    routes
        .conns
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .remove(&conn);
    gauges.connections.fetch_sub(1, Ordering::SeqCst);
    let _ = routes.ctrl.send(CtrlMsg::Disconnected);
}

/// Spawns one connection thread; on failure the closure (and the stream
/// half it owns) is dropped and the caller must unwind the connection's
/// registration. Returns whether the thread is running.
fn spawn_handler(
    handlers: &mut Vec<std::thread::JoinHandle<()>>,
    name: String,
    f: impl FnOnce() + Send + 'static,
) -> bool {
    match std::thread::Builder::new().name(name.clone()).spawn(f) {
        Ok(handle) => {
            handlers.push(handle);
            true
        }
        Err(e) => {
            eprintln!("cannot spawn {name}: {e}; dropping the connection");
            false
        }
    }
}

/// Over `--max-conns`: answer with a structured error and close, bounding
/// both memory and the dispatch queue under connection floods.
fn shed(mut stream: Stream, gauges: &Gauges, max: usize) {
    gauges.shed.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut line = error_object(
        "overloaded",
        format!("server is at its --max-conns capacity ({max}); retry with backoff"),
    )
    .to_compact();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown();
}

/// Reads request lines, parses and classifies them *on the reader thread*
/// (keeping JSON parsing off the serialized checking path), and routes
/// each request to its session's dispatch shard. Owns the connection
/// teardown notification.
///
/// Requests that name no session (or cannot even be parsed far enough to
/// name one) go to the shard of the *previous* request on this
/// connection, so a sequential client's responses stay in request order.
fn reader_loop(
    mut stream: Stream,
    conn: u64,
    routes: Routes,
    inject_panic: Option<String>,
    gauges: &Gauges,
    limits: ConnLimits,
) {
    let _ = stream.set_read_timeout(limits.idle_timeout);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    // After an over-cap line is reported, discard bytes until its newline.
    let mut skipping = false;
    // Where session-less (unparseable) requests go: the shard of this
    // connection's previous request, seeded with the default session's.
    let mut current_shard = super::shard_of(DEFAULT_SESSION, routes.shards.len());
    'read: loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. An unterminated final line is still a complete
                // request — answer it before tearing down.
                if !buf.is_empty() && !skipping {
                    deliver_line(
                        &buf,
                        conn,
                        &routes,
                        &inject_panic,
                        gauges,
                        &mut current_shard,
                    );
                }
                break;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                gauges.idle_closed.fetch_add(1, Ordering::SeqCst);
                let ms = limits.idle_timeout.map_or(0, |t| t.as_millis());
                let _ = send_request(
                    &routes,
                    gauges,
                    conn,
                    current_shard,
                    DEFAULT_SESSION.to_string(),
                    false,
                    RequestBody::Malformed {
                        kind: "timeout",
                        error: format!("idle for more than --idle-timeout-ms ({ms}); closing"),
                    },
                );
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break, // reset/teardown: nothing to answer
        };
        for &byte in &chunk[..n] {
            if byte == b'\n' {
                if skipping {
                    skipping = false;
                } else if !deliver_line(
                    &buf,
                    conn,
                    &routes,
                    &inject_panic,
                    gauges,
                    &mut current_shard,
                ) {
                    break 'read;
                }
                buf.clear();
            } else if !skipping {
                buf.push(byte);
                if buf.len() > limits.max_line_bytes {
                    gauges.oversize_lines.fetch_add(1, Ordering::SeqCst);
                    buf.clear();
                    skipping = true;
                    if !send_request(
                        &routes,
                        gauges,
                        conn,
                        current_shard,
                        DEFAULT_SESSION.to_string(),
                        false,
                        RequestBody::Malformed {
                            kind: "oversize",
                            error: format!(
                                "request line exceeds --max-line-bytes ({}); discarded",
                                limits.max_line_bytes
                            ),
                        },
                    ) {
                        break 'read;
                    }
                }
            }
        }
    }
    unregister(&routes, gauges, conn);
}

/// One complete request line: non-UTF-8 becomes a structured protocol
/// error (routed through the current shard so responses stay in request
/// order), blank lines are tolerated, everything else is classified and
/// routed to its session's shard. Returns false when the serve side is
/// gone.
fn deliver_line(
    buf: &[u8],
    conn: u64,
    routes: &Routes,
    inject_panic: &Option<String>,
    gauges: &Gauges,
    current_shard: &mut usize,
) -> bool {
    let text = match std::str::from_utf8(buf) {
        Ok(t) => t,
        Err(e) => {
            return send_request(
                routes,
                gauges,
                conn,
                *current_shard,
                DEFAULT_SESSION.to_string(),
                false,
                RequestBody::Malformed {
                    kind: "protocol",
                    error: format!("request line is not valid UTF-8: {e}"),
                },
            )
        }
    };
    if text.trim().is_empty() {
        return true;
    }
    // Classification runs real parsers on hostile bytes; a panic in them
    // is confined to this one request, exactly like a panic in the shard's
    // handler (which never got to touch session state here).
    let (session, flagged, body) = match catch_unwind(|| classify(text, inject_panic)) {
        Ok(classified) => classified,
        Err(payload) => {
            gauges.internal_faults.fetch_add(1, Ordering::SeqCst);
            let message = panic_message(payload);
            eprintln!("request handler panicked (session state untouched): {message}");
            (
                None,
                false,
                RequestBody::Malformed {
                    kind: "internal",
                    error: format!("request handler panicked: {message}; session state restored"),
                },
            )
        }
    };
    let shard = match &session {
        Some(name) => super::shard_of(name, routes.shards.len()),
        None => *current_shard,
    };
    *current_shard = shard;
    send_request(
        routes,
        gauges,
        conn,
        shard,
        session.unwrap_or_else(|| DEFAULT_SESSION.to_string()),
        flagged,
        body,
    )
}

/// Parses one request line into `(session, panic-flagged, body)`.
/// `session` is `None` only when the line could not be parsed far enough
/// to name one (route it to the connection's current shard). A request
/// without a `"session"` field is the `"default"` session — the entire
/// pre-multi-session protocol, unchanged.
fn classify(line: &str, inject_panic: &Option<String>) -> (Option<String>, bool, RequestBody) {
    let request = match Envelope::read(line) {
        Ok(request) => request,
        Err(e) => {
            return (
                None,
                false,
                RequestBody::Malformed {
                    kind: "protocol",
                    error: format!("request is not JSON: {e}"),
                },
            )
        }
    };
    // The fault-injection token is checked on the parsed line so that a
    // flagged request still panics *inside the shard's guarded handler*
    // (where the soak can observe recovery), not here.
    let flagged = inject_panic
        .as_ref()
        .is_some_and(|token| !token.is_empty() && line.contains(token.as_str()));
    let session = match request.session {
        None => DEFAULT_SESSION.to_string(),
        Some(Some(name)) => name,
        Some(None) => {
            return (
                None,
                flagged,
                RequestBody::Malformed {
                    kind: "protocol",
                    error: "\"session\" must be a non-empty string".to_string(),
                },
            )
        }
    };
    let body = match request.append {
        Some(Ok(spec)) => RequestBody::Append(Box::new(spec)),
        Some(Err(e)) => RequestBody::Malformed {
            kind: "spec",
            error: e.to_string(),
        },
        None => match request.op.as_deref() {
            Some("stats") => RequestBody::Stats,
            Some("checkpoint") => RequestBody::Checkpoint,
            Some("shutdown") => RequestBody::Shutdown,
            Some(other) => RequestBody::Malformed {
                kind: "protocol",
                error: format!("unknown op {other:?}"),
            },
            None => RequestBody::Malformed {
                kind: "protocol",
                error: "request must be {\"append\": {...}} or {\"op\": \"...\"}".to_string(),
            },
        },
    };
    (Some(session), flagged, body)
}

/// Sends one classified request to its shard, keeping both queue-depth
/// gauges honest. Blocks when the bounded shard queue is full (that is
/// the back-pressure). Returns false when the serve side is gone — also
/// when the connection registry no longer has this connection, which
/// means a drain is abandoning the socket.
fn send_request(
    routes: &Routes,
    gauges: &Gauges,
    conn: u64,
    shard: usize,
    session: String,
    panic_flagged: bool,
    body: RequestBody,
) -> bool {
    let resp = match routes
        .conns
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .get(&conn)
    {
        Some(sender) => sender.clone(),
        None => return false,
    };
    gauges.queue_depth.fetch_add(1, Ordering::SeqCst);
    gauges.shard_depths[shard].fetch_add(1, Ordering::SeqCst);
    match routes.shards[shard].send(ShardMsg::Request(Request {
        resp,
        session,
        panic_flagged,
        body,
    })) {
        Ok(()) => true,
        Err(_) => {
            gauges.queue_depth.fetch_sub(1, Ordering::SeqCst);
            gauges.shard_depths[shard].fetch_sub(1, Ordering::SeqCst);
            false
        }
    }
}

/// Writes response lines until the dispatch side drops the channel or the
/// client stops reading, then shuts the socket down — which also unblocks
/// a reader parked in `read` during daemon shutdown.
fn writer_loop(mut stream: Stream, rx: Receiver<String>) {
    for mut line in rx {
        // One write per response: a client never wakes on a line without
        // its newline.
        line.push('\n');
        let write = stream
            .write_all(line.as_bytes())
            .and_then(|_| stream.flush());
        if write.is_err() {
            break;
        }
    }
    let _ = stream.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How a classified request line reads: its session, whether the
    /// panic token flagged it, and its body.
    fn render(line: &str) -> String {
        let (session, flagged, body) = classify(line, &Some("PANIC-TOKEN".to_string()));
        let body = match body {
            RequestBody::Append(spec) => format!("append {}", spec.to_compact()),
            RequestBody::Stats => "stats".into(),
            RequestBody::Checkpoint => "checkpoint".into(),
            RequestBody::Shutdown => "shutdown".into(),
            RequestBody::Malformed { kind, error } => format!("{kind}: {error}"),
        };
        format!("{session:?} {flagged} {body}")
    }

    /// Every request line's session, kind and error, pinned: not JSON
    /// outranks a bad `"session"`, which outranks a bad `"append"` spec,
    /// which outranks `"op"`; unknown keys are ignored and duplicate keys
    /// are not JSON.
    #[test]
    fn classify_results_are_pinned() {
        let cases: &[(&str, &str)] = &[
            (
                r#"not json"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:1: invalid literal (expected 'null')"#,
            ),
            (
                r#"{"op": "stats""#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:15: expected ',' or '}' in object"#,
            ),
            (
                r#"{"session": 5, "op": "stats""#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:29: expected ',' or '}' in object"#,
            ),
            (
                r#"{"session": 5, "op": "stats"} x"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:31: unexpected trailing characters"#,
            ),
            (
                r#"{"session": "", "append": {"nodes": 3}}"#,
                r#"None false protocol: "session" must be a non-empty string"#,
            ),
            (
                r#"{"append": {"nodes": 3}, "session": 7}"#,
                r#"None false protocol: "session" must be a non-empty string"#,
            ),
            (
                r#"{"append": {"nodes": 3}, "session": null, "op": "stats"}"#,
                r#"None false protocol: "session" must be a non-empty string"#,
            ),
            (
                r#"{"append": {"version": 2}, "op": "stats", "session": ["x"]}"#,
                r#"None false protocol: "session" must be a non-empty string"#,
            ),
            (
                r#"{"append": {"nodes": 3}, "op": "stats", "session": "s", "seq": 4}"#,
                r#"Some("s") false spec: spec parse error: nodes: expected an array, got number"#,
            ),
            (
                r#"{"append": {"nodes": 3}, "session": 7, "x": {"a": 1, "a": 2}}"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:57: duplicate object key "a""#,
            ),
            (
                r#"{"append": {"nodes": 3}} x"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:26: unexpected trailing characters"#,
            ),
            (
                r#"{"append": {"nodes": [{"name": "T", "kind": null}]}, "op": "#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:60: unexpected end of input"#,
            ),
            (
                r#"{"append": {"nodes": [{"name": "T", "kind": null}], "x": 1,}}"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:60: expected '"'"#,
            ),
            (
                r#"{"append": {"nodes": 3}, "op": "stats"}"#,
                r#"Some("default") false spec: spec parse error: nodes: expected an array, got number"#,
            ),
            (
                r#"{"op": "stats", "append": {"mystery": 1}}"#,
                r#"Some("default") false spec: spec parse error: top level: unknown field "mystery""#,
            ),
            (
                r#"{"append": 5}"#,
                r#"Some("default") false spec: spec parse error: top level: expected an object, got number"#,
            ),
            (
                r#"{"append": {"version": 2}, "session": "s"}"#,
                r#"Some("s") false spec: unsupported spec version 2 (this build reads version 1)"#,
            ),
            (
                r#"{"append": {"version": 1e400}}"#,
                r#"Some("default") false spec: spec parse error: version: expected a non-negative integer"#,
            ),
            (
                r#"{"op": "stats", "op": "shutdown"}"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:21: duplicate object key "op""#,
            ),
            (
                r#"{"session": "a", "session": "b", "op": "stats"}"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:27: duplicate object key "session""#,
            ),
            (
                r#"{"append": {}, "extra": {"a": 1, "a": 2}}"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:37: duplicate object key "a""#,
            ),
            (
                r#"{"append": {"nodes": [], "nodes": []}}"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:33: duplicate object key "nodes""#,
            ),
            (
                r#"{"op": "stats", "extra": {"deep": [1, {"x": null}], "n": -2.5e3}}"#,
                r#"Some("default") false stats"#,
            ),
            (
                r#"{"op": "stats", "extra": [[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}"#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:89: arrays and objects nested deeper than 64 levels"#,
            ),
            (r#"{"op": "stats"}"#, r#"Some("default") false stats"#),
            (
                r#"{"op": "checkpoint", "session": "s"}"#,
                r#"Some("s") false checkpoint"#,
            ),
            (r#"{"op": "shutdown"}"#, r#"Some("default") false shutdown"#),
            (
                r#"{"op": "bogus"}"#,
                r#"Some("default") false protocol: unknown op "bogus""#,
            ),
            (
                r#"{"op": 5}"#,
                r#"Some("default") false protocol: request must be {"append": {...}} or {"op": "..."}"#,
            ),
            (
                r#"{"op": "stats", "x": "PANIC-TOKEN"}"#,
                r#"Some("default") true stats"#,
            ),
            (
                r#"{"op": "stats", "x": "PANIC-TOKEN""#,
                r#"None false protocol: request is not JSON: JSON parse error at 1:35: expected ',' or '}' in object"#,
            ),
            (
                r#"{}"#,
                r#"Some("default") false protocol: request must be {"append": {...}} or {"op": "..."}"#,
            ),
            (
                r#"[1, 2]"#,
                r#"Some("default") false protocol: request must be {"append": {...}} or {"op": "..."}"#,
            ),
            (
                r#""text""#,
                r#"Some("default") false protocol: request must be {"append": {...}} or {"op": "..."}"#,
            ),
            (
                r#"{"session": "s1", "append": {"schedules": ["S\"q\\é😀"], "nodes": []}}"#,
                r#"Some("s1") false append {"version":1,"schedules":["S\"q\\é😀"],"nodes":[],"auto_propagate":true}"#,
            ),
            (
                r#"{"append": {"schedules": ["S"], "nodes": [{"name": "T", "kind": "root", "home": "S"}], "auto_propagate": false}, "seq": "x"}"#,
                r#"Some("default") false append {"version":1,"schedules":["S"],"nodes":[{"name":"T","kind":"root","home":"S"}],"auto_propagate":false}"#,
            ),
        ];
        for (line, want) in cases {
            assert_eq!(render(line), *want, "{line}");
        }
    }
}
