//! The dispatch shards and the control thread: shards own disjoint
//! partitions of the named sessions and serve appends in arrival order
//! with journal group commit; the control thread coordinates global
//! operations (checkpoint compaction, shutdown, drain) via a
//! freeze/resume protocol.
//!
//! # Sharding
//!
//! Requests are routed by a stable hash of their session name
//! ([`super::shard_of`]), so one shard is the single owner of each
//! session's state — the checking path needs no locks — and per-session
//! FIFO order is preserved end to end (readers assign shards in line
//! order, `std::sync::mpsc` is FIFO per sender, batches apply and ack in
//! queue order). The journal is the one shared resource: a `Mutex` taken
//! once per *commit batch*, never per request.
//!
//! # Group commit
//!
//! A shard drains contiguous queued appends up to `--commit-batch`,
//! applies each under `catch_unwind` after taking its session's O(1)
//! watermark (a panicking handler rolls that one request back to it and
//! answers `internal`), then flushes: all the batch's journal records in
//! one `write_all`, one `sync_data`, and only then the batch's responses,
//! in order. Every append that changed its session is journaled, an
//! interrupted one included. A failed batch write rolls every touched
//! session back to its watermark from before the batch and converts every
//! journaled response into a structured `journal` error — no ack was
//! sent, so no durability promise was broken, and the clients may simply
//! retry.
//!
//! # Freeze/resume
//!
//! Global operations need every shard quiescent: the control thread sends
//! `Freeze` into each shard's queue (so it lands after everything already
//! queued), each shard flushes its batch, copies its sessions out, replies
//! and blocks; the control thread persists (checkpoint rewrite, then
//! journal truncation — all shards are frozen, so every journaled record
//! is covered), then resumes them. Only the control thread ever
//! coordinates, so the protocol cannot deadlock.

use super::journal::{BatchRecord, Journal};
use super::{Gauges, ServeConfig};
use crate::session::{
    sessions_checkpoint, write_checkpoint, SpecSession, SpecSessionError, SpecSnapshot,
    DEFAULT_SESSION,
};
use crate::spec::SystemSpec;
use compc_core::{CheckOptions, SessionError, Verdict};
use compc_json::Value;
use compc_trace::{event_to_ndjson_line, TraceEvent};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One parsed request, routed to its session's shard. Readers do the JSON
/// and spec parsing, so shards only apply.
pub(crate) struct Request {
    /// The connection's response channel (one line per request line).
    pub resp: Sender<String>,
    /// Session the request addresses (`"default"` when the field is
    /// absent).
    pub session: String,
    /// The line matched `--inject-panic`: the handler must panic inside
    /// its isolation boundary.
    pub panic_flagged: bool,
    pub body: RequestBody,
}

pub(crate) enum RequestBody {
    /// A parsed `{"append": {...}}` fragment.
    Append(Box<SystemSpec>),
    /// `{"op": "stats"}`.
    Stats,
    /// `{"op": "checkpoint"}` — forwarded to the control thread.
    Checkpoint,
    /// `{"op": "shutdown"}` — forwarded to the control thread.
    Shutdown,
    /// The reader rejected the line before dispatch (not JSON, bad spec,
    /// oversize, idle timeout, ...); routed through the queue so the
    /// structured error still lands in request order.
    Malformed { kind: &'static str, error: String },
}

/// What the connection layer (or the control thread) sends a shard.
pub(crate) enum ShardMsg {
    Request(Request),
    /// Flush, serialize sessions, reply, then block until resumed.
    Freeze {
        reply: Sender<FrozenShard>,
        resume: Receiver<ResumeAction>,
    },
    /// Keep serving until the shard's queue is quiet or the deadline
    /// passes, then behave like `Freeze`.
    Drain {
        deadline: Instant,
        reply: Sender<FrozenShard>,
        resume: Receiver<ResumeAction>,
    },
}

/// One frozen session: `(name, appends, spec)`.
pub(crate) type SessionEntry = (String, u64, SystemSpec);

/// A frozen shard's sessions.
pub(crate) struct FrozenShard {
    pub sessions: Vec<SessionEntry>,
}

pub(crate) enum ResumeAction {
    Continue,
    Exit,
}

/// Global operations forwarded to the control thread.
pub(crate) enum CtrlMsg {
    Checkpoint {
        resp: Sender<String>,
    },
    Shutdown {
        resp: Sender<String>,
    },
    /// A connection went away (drives `--once`).
    Disconnected,
}

/// Response channels of the live connections, by connection id. The
/// accept loop inserts, readers look their own entry up per request, and
/// the control thread clears the map at drain so writers flush and shut
/// their sockets down.
pub(crate) type Conns = Arc<Mutex<HashMap<u64, Sender<String>>>>;

/// Outcome counters for a completed serve run; the process exit code is
/// derived from them.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeReport {
    /// Appends whose verdict was a Comp-C violation.
    pub violations: u64,
    /// Appends interrupted by the per-append deadline.
    pub interruptions: u64,
    /// Engine/oracle disagreements under `--oracle`.
    pub disagreements: u64,
    /// Requests whose handler panicked (isolated, answered `internal`).
    pub internal_faults: u64,
}

impl ServeReport {
    /// The `compc-serve` exit code: 0 = clean and all Comp-C; 1 = at least
    /// one violation served; 2 = oracle disagreement or isolated internal
    /// fault (takes precedence); 3 = at least one deadline interruption.
    pub fn exit_code(&self) -> u8 {
        if self.disagreements > 0 || self.internal_faults > 0 {
            2
        } else if self.interruptions > 0 {
            3
        } else if self.violations > 0 {
            1
        } else {
            0
        }
    }

    pub(crate) fn from_gauges(gauges: &Gauges) -> ServeReport {
        ServeReport {
            violations: gauges.violations.load(Ordering::SeqCst),
            interruptions: gauges.interruptions.load(Ordering::SeqCst),
            disagreements: gauges.disagreements.load(Ordering::SeqCst),
            internal_faults: gauges.internal_faults.load(Ordering::SeqCst),
        }
    }
}

pub(crate) fn ok_object(mut fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![("ok".to_string(), Value::from(true))];
    entries.append(&mut fields);
    Value::Object(entries)
}

pub(crate) fn error_object(kind: &str, message: String) -> Value {
    Value::Object(vec![
        ("ok".to_string(), Value::from(false)),
        ("kind".to_string(), Value::from(kind)),
        ("error".to_string(), Value::from(message)),
    ])
}

/// Renders a panic payload the way the engine's worker pool does (strings
/// pass through, anything else gets a stable placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks a mutex, riding out poisoning: a panic in another thread while
/// it held the journal already failed that batch (no acks were sent), so
/// the journal file itself is still consistent.
fn lock_journal(journal: &Mutex<Journal>) -> std::sync::MutexGuard<'_, Journal> {
    journal
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Mirrors the serving gauges as one `serve_gauges` trace event on stdout
/// (emitted on each `stats` op and at drain).
pub(crate) fn emit_gauges(
    config: &ServeConfig,
    gauges: &Gauges,
    journal: Option<&Arc<Mutex<Journal>>>,
) {
    if !config.trace {
        return;
    }
    let mut batch_buckets: Vec<u64> = gauges
        .batch_buckets
        .iter()
        .map(|b| b.load(Ordering::SeqCst))
        .collect();
    while batch_buckets.last() == Some(&0) && batch_buckets.len() > 1 {
        batch_buckets.pop();
    }
    let event = TraceEvent::ServeGauges {
        connections: gauges.connections.load(Ordering::SeqCst),
        peak_connections: gauges.peak_connections.load(Ordering::SeqCst),
        queue_depth: gauges.queue_depth.load(Ordering::SeqCst),
        shed: gauges.shed.load(Ordering::SeqCst),
        journal_lag: journal.map_or(0, |j| lock_journal(j).records()),
        internal_faults: gauges.internal_faults.load(Ordering::SeqCst),
        fsyncs: gauges.fsyncs.load(Ordering::SeqCst),
        fsyncs_saved: gauges.fsyncs_saved.load(Ordering::SeqCst),
        batch_buckets,
        batch_max: gauges.batch_max.load(Ordering::SeqCst),
        shard_depths: gauges
            .shard_depths
            .iter()
            .map(|d| d.load(Ordering::SeqCst))
            .collect(),
    };
    println!("{}", event_to_ndjson_line(&event, Some("serve")));
}

/// Records one flushed commit batch in the log2-bucket histogram.
fn record_batch_size(gauges: &Gauges, records: u64) {
    let bucket = (63 - records.leading_zeros() as usize).min(gauges.batch_buckets.len() - 1);
    gauges.batch_buckets[bucket].fetch_add(1, Ordering::SeqCst);
    gauges.batch_max.fetch_max(records, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Shard threads
// ---------------------------------------------------------------------------

/// One handled-but-not-yet-answered batch member.
struct BatchEntry {
    resp: Sender<String>,
    response: Value,
    /// `Some` when the request changed its session: what must be
    /// journaled before the response goes out.
    record: Option<Record>,
    /// The response acks an applied append (an interrupted append is
    /// journaled, not acked).
    acked: bool,
    violation: bool,
}

/// An append that changed its session.
struct Record {
    session: String,
    /// The session's append count after it, as journaled.
    seq: u64,
    fragment: SystemSpec,
    /// The session's watermark from before it.
    mark: SpecSnapshot,
}

/// A forming commit batch.
type Batch = Vec<BatchEntry>;

enum Flow {
    Continue,
    Exit,
}

/// One dispatch shard: the single owner of its partition of the sessions.
pub(crate) struct Shard {
    pub index: usize,
    pub sessions: HashMap<String, SpecSession>,
    pub journal: Option<Arc<Mutex<Journal>>>,
    pub config: ServeConfig,
    /// Options new sessions are created with (deadline included — catch-up
    /// replay is done by the time shards run).
    pub options: CheckOptions,
    pub gauges: Arc<Gauges>,
    pub ctrl: Sender<CtrlMsg>,
}

/// Runs one shard to completion: serves until the control thread resumes
/// it with `Exit` (or every sender is gone).
pub(crate) fn shard_loop(rx: Receiver<ShardMsg>, mut shard: Shard) {
    let mut batch = Batch::new();
    loop {
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => return,
        };
        if let Flow::Exit = shard.serve_msg(msg, &rx, &mut batch) {
            return;
        }
    }
}

impl Shard {
    fn serve_msg(&mut self, msg: ShardMsg, rx: &Receiver<ShardMsg>, batch: &mut Batch) -> Flow {
        match msg {
            ShardMsg::Request(req) => {
                self.admit(req, batch);
                // Group commit: opportunistically drain more contiguous
                // queued appends into the batch — never waiting, so an
                // isolated request still flushes immediately. Admitting a
                // non-append flushes the batch first, which also ends the
                // collection loop.
                let mut deferred = None;
                while !batch.is_empty() && batch.len() < self.config.commit_batch.max(1) {
                    match rx.try_recv() {
                        Ok(ShardMsg::Request(next)) => self.admit(next, batch),
                        Ok(other) => {
                            deferred = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                self.flush(batch);
                match deferred {
                    Some(m) => self.serve_msg(m, rx, batch),
                    None => Flow::Continue,
                }
            }
            ShardMsg::Freeze { reply, resume } => {
                self.flush(batch);
                let _ = reply.send(self.frozen());
                match resume.recv() {
                    Ok(ResumeAction::Continue) => Flow::Continue,
                    _ => Flow::Exit,
                }
            }
            ShardMsg::Drain {
                deadline,
                reply,
                resume,
            } => {
                self.drain_queue(rx, deadline, batch);
                let _ = reply.send(self.frozen());
                match resume.recv() {
                    Ok(ResumeAction::Continue) => Flow::Continue,
                    _ => Flow::Exit,
                }
            }
        }
    }

    /// Keeps answering already-queued (and still-arriving) requests until
    /// this shard's queue is quiet or the drain deadline expires.
    fn drain_queue(&mut self, rx: &Receiver<ShardMsg>, deadline: Instant, batch: &mut Batch) {
        loop {
            if Instant::now() >= deadline {
                break;
            }
            match rx.try_recv() {
                Ok(ShardMsg::Request(req)) => {
                    self.admit(req, batch);
                    if batch.len() >= self.config.commit_batch.max(1) {
                        self.flush(batch);
                    }
                }
                // Another freeze during a drain cannot happen (only the
                // control thread sends them, strictly one protocol at a
                // time); drop it defensively rather than deadlock.
                Ok(_) => {}
                Err(TryRecvError::Empty) => {
                    self.flush(batch);
                    // A reader may have bumped the gauge but not finished
                    // its send yet; only a quiet queue ends the drain.
                    if self.gauges.shard_depths[self.index].load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        self.flush(batch);
    }

    /// Copies this shard's sessions for the control thread, which writes
    /// them into a checkpoint document while the shard stays frozen.
    fn frozen(&self) -> FrozenShard {
        FrozenShard {
            sessions: self
                .sessions
                .iter()
                .map(|(name, s)| (name.clone(), s.stats().appends, s.spec()))
                .collect(),
        }
    }

    /// Dequeues one request: appends are staged into the batch, anything
    /// else flushes the batch (responses stay in request order) and is
    /// handled directly.
    fn admit(&mut self, req: Request, batch: &mut Batch) {
        self.gauges.queue_depth.fetch_sub(1, Ordering::SeqCst);
        self.gauges.shard_depths[self.index].fetch_sub(1, Ordering::SeqCst);
        let Request {
            resp,
            session,
            panic_flagged,
            body,
        } = req;
        match body {
            RequestBody::Append(fragment) => {
                self.stage_append(resp, session, panic_flagged, *fragment, batch)
            }
            other => {
                self.flush(batch);
                self.handle_op(resp, session, panic_flagged, other);
            }
        }
    }

    fn handle_op(
        &mut self,
        resp: Sender<String>,
        session: String,
        panic_flagged: bool,
        body: RequestBody,
    ) {
        if panic_flagged {
            let response = self.injected_panic_response();
            let _ = resp.send(response.to_compact());
            return;
        }
        match body {
            RequestBody::Stats => {
                emit_gauges(&self.config, &self.gauges, self.journal.as_ref());
                let response = self.stats_response(&session);
                let _ = resp.send(response.to_compact());
            }
            RequestBody::Checkpoint => {
                let _ = self.ctrl.send(CtrlMsg::Checkpoint { resp });
            }
            RequestBody::Shutdown => {
                let _ = self.ctrl.send(CtrlMsg::Shutdown { resp });
            }
            RequestBody::Malformed { kind, error } => {
                let _ = resp.send(error_object(kind, error).to_compact());
            }
            RequestBody::Append(_) => unreachable!("appends are staged, not handled as ops"),
        }
    }

    /// `--inject-panic` matched an op line: panic inside the isolation
    /// boundary exactly like a flagged append would.
    fn injected_panic_response(&self) -> Value {
        let payload = catch_unwind(|| {
            panic!("injected fault: request matched --inject-panic token");
        })
        .expect_err("the closure always panics");
        self.gauges.internal_faults.fetch_add(1, Ordering::SeqCst);
        let message = panic_message(payload);
        eprintln!("request handler panicked (session restored): {message}");
        error_object(
            "internal",
            format!("request handler panicked: {message}; session state restored"),
        )
    }

    /// Applies one append to its session and stages the (unsent) response
    /// in the batch. A panic anywhere in the handler is confined to this
    /// request: the session is rolled back to its pre-request watermark and
    /// the entry becomes a structured `internal` error.
    fn stage_append(
        &mut self,
        resp: Sender<String>,
        session_name: String,
        panic_flagged: bool,
        fragment: SystemSpec,
        batch: &mut Batch,
    ) {
        let fresh = !self.sessions.contains_key(&session_name);
        if fresh {
            self.gauges.sessions.fetch_add(1, Ordering::SeqCst);
        }
        let options = self.options;
        let session = self
            .sessions
            .entry(session_name.clone())
            .or_insert_with(|| SpecSession::with_options(options));
        let mark = session.snapshot();
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if panic_flagged {
                panic!("injected fault: request matched --inject-panic token");
            }
            session.append(&fragment).cloned()
        }));
        let mut entry = BatchEntry {
            resp,
            response: Value::Null,
            record: None,
            acked: false,
            violation: false,
        };
        match outcome {
            Ok(Ok(verdict)) => {
                let elapsed_ns = started.elapsed().as_nanos() as u64;
                emit_trace(&self.config, &session_name, session, &verdict, elapsed_ns);
                entry.response = verdict_response(&session_name, session, &verdict);
                entry.acked = true;
                entry.violation = !verdict.is_correct();
            }
            Ok(Err(SpecSessionError::Session(SessionError::Interrupted(e)))) => {
                // The extended system is kept, so the session stays (even a
                // fresh one) — re-appending the same fragment merges
                // nothing new and checks the system again. An append that
                // merged something changed the state, so it is journaled
                // like an acked append; one that merged nothing is
                // uncounted and journals nothing, which keeps `seq` dense.
                self.gauges.interruptions.fetch_add(1, Ordering::SeqCst);
                let mut response = error_object("interrupted", e.to_string());
                if let Value::Object(entries) = &mut response {
                    entries.push(("resumable".to_string(), Value::from(true)));
                }
                entry.response = response;
                if session.uncount_unmerged(&mark) {
                    session.release(mark);
                    batch.push(entry);
                    return;
                }
            }
            Ok(Err(SpecSessionError::OracleDisagreement { engine_correct })) => {
                // The verdict is installed, so this too is journaled.
                self.gauges.disagreements.fetch_add(1, Ordering::SeqCst);
                entry.response = error_object(
                    "oracle-disagreement",
                    SpecSessionError::OracleDisagreement { engine_correct }.to_string(),
                );
            }
            Ok(Err(e)) => {
                // Spec-level rejection leaves the session untouched; a
                // session created only for this failed append is removed
                // again so checkpoints don't accumulate empty entries.
                if fresh {
                    self.remove_fresh(&session_name);
                } else {
                    session.release(mark);
                }
                entry.response = match e {
                    SpecSessionError::Session(e) => error_object("invalid", e.to_string()),
                    e => error_object("spec", e.to_string()),
                };
                batch.push(entry);
                return;
            }
            Err(payload) => {
                if fresh {
                    // A session created by the panicking append itself is
                    // rolled back by removing it.
                    self.remove_fresh(&session_name);
                } else {
                    session.restore(mark);
                }
                self.gauges.internal_faults.fetch_add(1, Ordering::SeqCst);
                let message = panic_message(payload);
                eprintln!("request handler panicked (session restored): {message}");
                entry.response = error_object(
                    "internal",
                    format!("request handler panicked: {message}; session state restored"),
                );
                batch.push(entry);
                return;
            }
        }
        entry.record = Some(Record {
            seq: session.stats().appends,
            session: session_name,
            fragment,
            mark,
        });
        batch.push(entry);
    }

    fn remove_fresh(&mut self, name: &str) {
        if self.sessions.remove(name).is_some() {
            self.gauges.sessions.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Flushes the forming batch: one journal write + one fsync covering
    /// every staged record, then the responses in order. No member is
    /// acked before the fsync that covers all of them; a failed write
    /// rolls every touched session back and converts every would-be ack
    /// into a structured error.
    fn flush(&mut self, batch: &mut Batch) {
        if batch.is_empty() {
            return;
        }
        let record_count = batch.iter().filter(|e| e.record.is_some()).count() as u64;
        let mut failure: Option<(&'static str, String)> = None;
        if record_count > 0 {
            if let Some(journal) = &self.journal {
                let records: Vec<BatchRecord<'_>> = batch
                    .iter()
                    .filter_map(|e| e.record.as_ref())
                    .map(|r| (r.session.as_str(), r.seq, &r.fragment))
                    .collect();
                match lock_journal(journal).append_batch(&records) {
                    Ok(()) => {
                        self.gauges.fsyncs.fetch_add(1, Ordering::SeqCst);
                        self.gauges
                            .fsyncs_saved
                            .fetch_add(record_count - 1, Ordering::SeqCst);
                    }
                    Err(e) => failure = Some(("journal", e)),
                }
            } else if self.config.checkpoint.is_some() {
                // Without a journal, durability-before-ack means a full
                // checkpoint rewrite — once per batch, covering all of it
                // (single-shard only; enforced at startup).
                if let Err(e) = self.save_shard_checkpoint() {
                    failure = Some(("checkpoint", e));
                }
            }
            if failure.is_none() {
                record_batch_size(&self.gauges, record_count);
            }
        }
        match failure {
            Some((kind, e)) => {
                // Each touched session goes back to its watermark from
                // before its first record in the batch.
                let mut marks: HashMap<&str, &SpecSnapshot> = HashMap::new();
                for record in batch.iter().filter_map(|e| e.record.as_ref()) {
                    marks.entry(&record.session).or_insert(&record.mark);
                }
                for (name, mark) in marks {
                    if let Some(session) = self.sessions.get_mut(name) {
                        session.restore(mark.clone());
                        if session.stats().appends == 0
                            && session.system().is_none_or(|s| s.node_count() == 0)
                        {
                            self.remove_fresh(name);
                        }
                    }
                }
                eprintln!(
                    "commit batch of {record_count} append(s) failed ({e}); \
                     rolled back, no acks sent"
                );
                for entry in batch.drain(..) {
                    let response = match entry.record {
                        Some(record) => {
                            self.release(record);
                            error_object(kind, e.clone())
                        }
                        None => entry.response,
                    };
                    let _ = entry.resp.send(response.to_compact());
                }
            }
            None => {
                for entry in batch.drain(..) {
                    if let Some(record) = entry.record {
                        self.release(record);
                    }
                    if entry.acked {
                        self.gauges.appends.fetch_add(1, Ordering::SeqCst);
                        if entry.violation {
                            self.gauges.violations.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    let _ = entry.resp.send(entry.response.to_compact());
                }
            }
        }
    }

    /// Drops a flushed record's watermark: once its batch is durable or
    /// rolled back, its session keeps nothing to undo.
    fn release(&mut self, record: Record) {
        if let Some(session) = self.sessions.get_mut(&record.session) {
            session.release(record.mark);
        }
    }

    /// The no-journal durability path: rewrite the checkpoint covering
    /// this shard's sessions (which, single-shard, is all of them).
    fn save_shard_checkpoint(&self) -> Result<(), String> {
        let Some(path) = &self.config.checkpoint else {
            return Ok(());
        };
        super::journal::write_checkpoint_file(path, &sessions_checkpoint(&self.sessions))
    }

    fn stats_response(&self, session_name: &str) -> Value {
        let gauges = &self.gauges;
        let load = |g: &std::sync::atomic::AtomicU64| Value::from(g.load(Ordering::SeqCst));
        let session_appends = self
            .sessions
            .get(session_name)
            .map_or(0, |session| session.stats().appends);
        let (journal_records, journal_bytes) = match &self.journal {
            Some(j) => {
                let guard = lock_journal(j);
                (guard.records(), guard.bytes())
            }
            None => (0, 0),
        };
        ok_object(vec![
            ("appends".to_string(), load(&gauges.appends)),
            ("session".to_string(), Value::from(session_name)),
            ("shard".to_string(), Value::from(self.index)),
            ("session_appends".to_string(), Value::from(session_appends)),
            ("violations".to_string(), load(&gauges.violations)),
            ("interruptions".to_string(), load(&gauges.interruptions)),
            ("internal_faults".to_string(), load(&gauges.internal_faults)),
            ("connections".to_string(), load(&gauges.connections)),
            (
                "peak_connections".to_string(),
                load(&gauges.peak_connections),
            ),
            ("accepted".to_string(), load(&gauges.accepted)),
            ("shed".to_string(), load(&gauges.shed)),
            ("idle_closed".to_string(), load(&gauges.idle_closed)),
            ("oversize_lines".to_string(), load(&gauges.oversize_lines)),
            ("queue_depth".to_string(), load(&gauges.queue_depth)),
            ("sessions".to_string(), load(&gauges.sessions)),
            (
                "dispatch_shards".to_string(),
                Value::from(gauges.shard_depths.len()),
            ),
            (
                "commit_batch".to_string(),
                Value::from(self.config.commit_batch.max(1)),
            ),
            ("fsyncs".to_string(), load(&gauges.fsyncs)),
            ("fsyncs_saved".to_string(), load(&gauges.fsyncs_saved)),
            ("batch_max".to_string(), load(&gauges.batch_max)),
            ("journal_records".to_string(), Value::from(journal_records)),
            ("journal_bytes".to_string(), Value::from(journal_bytes)),
        ])
    }
}

/// The one verdict line per append, with the session's append count and
/// size.
fn verdict_response(session_name: &str, session: &SpecSession, verdict: &Verdict) -> Value {
    let mut fields = vec![
        (
            "verdict".to_string(),
            Value::from(if verdict.is_correct() {
                "comp-c"
            } else {
                "not-comp-c"
            }),
        ),
        ("session".to_string(), Value::from(session_name)),
        ("appends".to_string(), Value::from(session.stats().appends)),
    ];
    if let Some(sys) = session.system() {
        fields.push(("nodes".to_string(), Value::from(sys.node_count())));
        fields.push(("order".to_string(), Value::from(sys.order())));
    }
    if let Verdict::Incorrect(cex) = verdict {
        fields.push(("level".to_string(), Value::from(cex.level)));
        fields.push(("phase".to_string(), Value::from(cex.phase.tag())));
        fields.push(("cycle".to_string(), Value::from(cex.cycle_names.clone())));
    }
    ok_object(fields)
}

/// Mirrors one append as `compc-trace` `check_start`/`check_end` events
/// on stdout (the socket carries the responses, so stdout is a pure event
/// stream).
fn emit_trace(
    config: &ServeConfig,
    session_name: &str,
    session: &SpecSession,
    verdict: &Verdict,
    elapsed_ns: u64,
) {
    if !config.trace {
        return;
    }
    let Some(sys) = session.system() else {
        return;
    };
    let label = if session_name == DEFAULT_SESSION {
        format!("append-{}", session.stats().appends)
    } else {
        format!("{session_name}:append-{}", session.stats().appends)
    };
    let start = TraceEvent::CheckStart {
        nodes: sys.node_count(),
        schedules: sys.schedule_count(),
        order: sys.order(),
    };
    let end = match verdict {
        Verdict::Correct(_) => TraceEvent::CheckEnd {
            correct: true,
            levels_completed: sys.order(),
            failed_level: None,
            failed_phase: None,
            elapsed_ns,
        },
        Verdict::Incorrect(cex) => TraceEvent::CheckEnd {
            correct: false,
            levels_completed: cex.level.saturating_sub(1),
            failed_level: Some(cex.level),
            failed_phase: Some(cex.phase.tag()),
            elapsed_ns,
        },
    };
    println!("{}", event_to_ndjson_line(&start, Some(&label)));
    println!("{}", event_to_ndjson_line(&end, Some(&label)));
}

// ---------------------------------------------------------------------------
// Control thread
// ---------------------------------------------------------------------------

/// Everything the control thread needs to coordinate global operations.
pub(crate) struct Control {
    pub shard_txs: Vec<SyncSender<ShardMsg>>,
    pub journal: Option<Arc<Mutex<Journal>>>,
    pub config: ServeConfig,
    pub gauges: Arc<Gauges>,
    pub conns: Conns,
    pub stop: Arc<std::sync::atomic::AtomicBool>,
}

/// Runs the control thread to completion: coordinates checkpoint and
/// shutdown ops, termination signals, and (with `--once`) the first
/// disconnect, then drains every shard and persists.
pub(crate) fn control_loop(rx: Receiver<CtrlMsg>, control: Control) -> Result<(), String> {
    loop {
        if super::term_requested() {
            eprintln!("termination signal received: draining");
            return control.drain_and_exit();
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(CtrlMsg::Checkpoint { resp }) => {
                let response = match control.save_all(true) {
                    Ok(true) => {
                        let target = control
                            .config
                            .checkpoint
                            .clone()
                            .expect("saved implies a path");
                        ok_object(vec![
                            ("checkpoint".to_string(), Value::from(target)),
                            ("saved".to_string(), Value::from(true)),
                        ])
                    }
                    Ok(false) => ok_object(vec![
                        (
                            "checkpoint".to_string(),
                            Value::from("(no --checkpoint file configured)"),
                        ),
                        ("saved".to_string(), Value::from(false)),
                    ]),
                    Err(e) => error_object("checkpoint", e),
                };
                let _ = resp.send(response.to_compact());
            }
            // Save *here*, not just in the drain epilogue, so the response
            // can report honestly whether state was persisted — without
            // `--checkpoint` nothing is saved and the client is told so.
            Ok(CtrlMsg::Shutdown { resp }) => {
                let response = match control.save_all(false) {
                    Ok(saved) => ok_object(vec![
                        ("shutdown".to_string(), Value::from(true)),
                        ("saved".to_string(), Value::from(saved)),
                    ]),
                    // A failing disk must not make the daemon unstoppable:
                    // the client gets the error, the daemon still drains
                    // and exits.
                    Err(e) => {
                        let mut response = error_object("checkpoint", e);
                        if let Value::Object(entries) = &mut response {
                            entries.push(("shutdown".to_string(), Value::from(true)));
                        }
                        response
                    }
                };
                let _ = resp.send(response.to_compact());
                return control.drain_and_exit();
            }
            Ok(CtrlMsg::Disconnected) => {
                if control.config.once {
                    return control.drain_and_exit();
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Every sender gone without a shutdown decision: save and stop.
            Err(RecvTimeoutError::Disconnected) => return control.drain_and_exit(),
        }
    }
}

impl Control {
    /// Freezes every shard (optionally letting each drain its queue until
    /// `drain_deadline` first) and collects their sessions.
    /// Returns the resume handles — the caller must resume every shard.
    fn freeze_all(
        &self,
        drain_deadline: Option<Instant>,
    ) -> (Vec<Sender<ResumeAction>>, Vec<SessionEntry>) {
        let mut resumes = Vec::with_capacity(self.shard_txs.len());
        let mut replies = Vec::with_capacity(self.shard_txs.len());
        for (index, tx) in self.shard_txs.iter().enumerate() {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel();
            let (resume_tx, resume_rx) = std::sync::mpsc::channel();
            let msg = match drain_deadline {
                Some(deadline) => ShardMsg::Drain {
                    deadline,
                    reply: reply_tx,
                    resume: resume_rx,
                },
                None => ShardMsg::Freeze {
                    reply: reply_tx,
                    resume: resume_rx,
                },
            };
            if tx.send(msg).is_ok() {
                replies.push(reply_rx);
                resumes.push(resume_tx);
            } else {
                eprintln!("shard {index} is gone; its sessions are not in this save");
            }
        }
        let mut sessions = Vec::new();
        for reply in replies {
            if let Ok(frozen) = reply.recv() {
                sessions.extend(frozen.sessions);
            }
        }
        (resumes, sessions)
    }

    /// Freeze-round save: checkpoint every session, optionally compacting
    /// the journal (checkpoint first, truncation second — a crash between
    /// the two only leaves records whose appends the new checkpoint
    /// already covers; replay skips them by sequence number).
    fn save_all(&self, truncate: bool) -> Result<bool, String> {
        let (resumes, sessions) = self.freeze_all(None);
        let result = self.persist(sessions, truncate);
        for resume in resumes {
            let _ = resume.send(ResumeAction::Continue);
        }
        result
    }

    fn persist(&self, sessions: Vec<SessionEntry>, truncate: bool) -> Result<bool, String> {
        let Some(path) = &self.config.checkpoint else {
            return Ok(false);
        };
        let doc = write_checkpoint(sessions, |w, spec| spec.write(w));
        super::journal::write_checkpoint_file(path, &doc)?;
        if truncate {
            if let Some(journal) = &self.journal {
                lock_journal(journal).truncate()?;
            }
        }
        Ok(true)
    }

    /// Stops accepting, lets every shard drain under `--drain-timeout-ms`,
    /// flushes writers, persists, and releases the shards to exit.
    fn drain_and_exit(&self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_millis(self.config.drain_timeout_ms.max(1));
        let (resumes, sessions) = self.freeze_all(Some(deadline));
        let abandoned = self.gauges.queue_depth.load(Ordering::SeqCst);
        if abandoned > 0 {
            eprintln!(
                "drain deadline expired with {abandoned} request(s) still queued; \
                 abandoning them (none were acked)"
            );
        }
        emit_gauges(&self.config, &self.gauges, self.journal.as_ref());
        // Dropping the response senders lets each writer thread flush its
        // buffered lines and shut its socket down, which in turn unblocks
        // readers so the accept thread can join everything.
        self.conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clear();
        let result = self.persist(sessions, true).map(|_| ());
        for resume in resumes {
            let _ = resume.send(ResumeAction::Exit);
        }
        result
    }
}
