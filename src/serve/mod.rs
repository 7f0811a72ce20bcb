//! The `compc-serve` serving core: a production-shaped concurrent daemon
//! around [`crate::session::SpecSession`].
//!
//! # Architecture (DESIGN.md §8)
//!
//! ```text
//!  clients ──► accept thread ──► per-connection reader threads
//!                 │ (sheds over --max-conns      │ parse + classify,
//!                 │  with an "overloaded" error) │ route by session hash
//!                 │                              ▼
//!                 │              bounded per-shard request queues
//!                 │                              │ FIFO per session
//!                 ▼                              ▼
//!   per-connection writer threads ◄── N dispatch shard threads
//!         (one response line          (each the single owner of its
//!          per request line)           sessions; catch_unwind per request;
//!                                      journal group commit before ack)
//!                                              ▲
//!                              control thread ─┘ freeze/resume for
//!                              (checkpoint, shutdown, drain)
//! ```
//!
//! Each **dispatch shard** owns a disjoint partition of the named
//! sessions (requests are routed by a stable hash of their session name,
//! `shard_of`), so the checking path needs no locks and per-session
//! request order is preserved end to end: readers assign shards in line
//! order, `std::sync::mpsc` is FIFO per sender, and responses are routed
//! back through per-connection writer channels. With the default
//! `--dispatch-shards 1` this degenerates to exactly the single dispatch
//! thread of earlier releases. Concurrency lives at the edges — the
//! accept loop, the reader/writer threads, and the shards — so one idle
//! or slow client (or one hot session) can never head-of-line-block
//! another.
//!
//! # Durability contract
//!
//! **An acked verdict survives any single crash.** With `--journal FILE`
//! every append that changed its session (acked, or interrupted with its
//! fragment kept) becomes one NDJSON journal record; records are
//! written in **commit batches** (up to `--commit-batch` contiguous
//! queued appends per shard) with one `write_all` and one fsync covering
//! the whole batch, and *no* member's verdict is written to the socket
//! before that fsync returns. Batching amortizes the fsync without
//! weakening the contract: an ack still strictly follows the fsync that
//! covers its record. Startup replays the checkpoint (if any) and then
//! the journal suffix past it, demultiplexing records into their named
//! sessions and checking each session once; `checkpoint` compacts (fsync-before-rename snapshot, then
//! journal truncation — in that order, so a crash between the two only
//! leaves already-applied records that replay skips). A torn trailing
//! journal record from a crash mid-write is truncated out of the file at
//! replay (its batch was never acked), and whole-but-unfsynced records a
//! crash may leave behind replay harmlessly (their clients were never
//! acked either; idempotent merges absorb the re-send). `--journal`
//! requires `--checkpoint`: compaction may only truncate records a
//! checkpoint covers, so without one the journal would grow without
//! bound.
//!
//! # Overload and drain
//!
//! Connections beyond `--max-conns` are shed immediately with a
//! structured `overloaded` error instead of queueing unboundedly; the
//! per-shard request queues are bounded, which back-pressures pipelining
//! clients at the socket. SIGTERM/SIGINT or a `shutdown` op stops
//! accepting, drains queued requests under `--drain-timeout-ms`, saves,
//! and exits.

pub mod client;
mod conn;
mod dispatch;
mod envelope;
mod journal;

pub use dispatch::ServeReport;

use crate::session::{restore_sessions, sessions_checkpoint, SpecSession, DEFAULT_SESSION};
use compc_core::CheckOptions;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Requests queued across all shards before readers block. Bounds daemon
/// memory under a client that pipelines without reading responses; split
/// evenly across `--dispatch-shards` (with a floor, so many shards never
/// starve a queue down to nothing).
const REQUEST_QUEUE_CAP: usize = 1024;

/// Everything the daemon's behavior is configured by (the `compc-serve`
/// binary maps its flags onto this).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on (mutually exclusive with `listen`).
    pub socket: Option<String>,
    /// TCP address to listen on (mutually exclusive with `socket`).
    pub listen: Option<String>,
    /// Checkpoint file: restored at startup, rewritten on compaction,
    /// drain, and (without a journal) after every successful commit batch.
    pub checkpoint: Option<String>,
    /// Write-ahead append journal: fsynced once per commit batch before
    /// any of the batch's acks, replayed past the checkpoint at startup,
    /// truncated on compaction.
    pub journal: Option<String>,
    /// What every append checks with: the closure backend, the per-append
    /// deadline and the brute-force oracle cross-check.
    pub options: CheckOptions,
    /// Mirror appends and serving gauges as `compc-trace` NDJSON on stdout.
    pub trace: bool,
    /// Exit after the first client disconnects.
    pub once: bool,
    /// Connections beyond this are shed with an `overloaded` error.
    pub max_conns: usize,
    /// Idle/read timeout per connection in milliseconds (0 = never).
    pub idle_timeout_ms: u64,
    /// Request lines longer than this are answered with an `oversize`
    /// error and discarded.
    pub max_line_bytes: usize,
    /// How long a drain keeps serving queued requests before abandoning
    /// them.
    pub drain_timeout_ms: u64,
    /// Most contiguous queued appends one journal fsync may cover (group
    /// commit; 1 = fsync per append, the pre-batching behavior).
    pub commit_batch: usize,
    /// Dispatch shard threads; sessions are routed to shards by a stable
    /// hash of their name (1 = the classic single dispatch thread).
    pub dispatch_shards: usize,
    /// Testing aid: any request line containing this token panics inside
    /// the dispatch shard, exercising the panic-isolation path.
    pub inject_panic: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: None,
            listen: None,
            checkpoint: None,
            journal: None,
            options: CheckOptions::default(),
            trace: false,
            once: false,
            max_conns: 64,
            idle_timeout_ms: 30_000,
            max_line_bytes: 1 << 20,
            drain_timeout_ms: 5_000,
            commit_batch: 64,
            dispatch_shards: 1,
            inject_panic: None,
        }
    }
}

/// The shard that owns `session`: FNV-1a over the name, reduced mod the
/// shard count. Stable across runs and platforms — the same session
/// always lands on the same shard, which is what makes single-owner
/// (lock-free) session state sound.
pub(crate) fn shard_of(session: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in session.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Serving-layer gauges shared between the accept loop, the reader
/// threads, the dispatch shards, and the control thread; exported through
/// the `stats` op and `--trace` `serve_gauges` events.
#[derive(Default)]
pub(crate) struct Gauges {
    /// Connections currently open.
    pub connections: AtomicU64,
    /// Highest concurrent connection count seen.
    pub peak_connections: AtomicU64,
    /// Connections accepted (shed ones excluded).
    pub accepted: AtomicU64,
    /// Connections shed with an `overloaded` error.
    pub shed: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closed: AtomicU64,
    /// Request lines rejected for exceeding `--max-line-bytes`.
    pub oversize_lines: AtomicU64,
    /// Requests currently queued for (or in flight to) any dispatch shard.
    pub queue_depth: AtomicU64,
    /// `queue_depth`, split per shard (also the drain-quiescence signal).
    pub shard_depths: Vec<AtomicU64>,
    /// Named sessions currently live (the restored ones included).
    pub sessions: AtomicU64,
    /// Acked appends over the daemon's lifetime (restored state included).
    pub appends: AtomicU64,
    /// Acked appends whose verdict was a Comp-C violation.
    pub violations: AtomicU64,
    /// Appends interrupted by the per-append deadline.
    pub interruptions: AtomicU64,
    /// Engine/oracle disagreements under `--oracle`.
    pub disagreements: AtomicU64,
    /// Requests whose handler panicked (isolated, answered `internal`).
    pub internal_faults: AtomicU64,
    /// Durability fsyncs issued (one per flushed commit batch).
    pub fsyncs: AtomicU64,
    /// Fsyncs group commit avoided (batch size minus one, per batch).
    pub fsyncs_saved: AtomicU64,
    /// Largest commit batch flushed so far.
    pub batch_max: AtomicU64,
    /// Log2 histogram of flushed commit-batch sizes (bucket k counts
    /// batches of 2^k ..= 2^(k+1)-1 records; the last bucket absorbs the
    /// rest).
    pub batch_buckets: [AtomicU64; 16],
}

impl Gauges {
    fn new(shards: usize) -> Gauges {
        Gauges {
            shard_depths: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            ..Gauges::default()
        }
    }
}

/// Set by the SIGTERM/SIGINT handlers; polled by the control loop.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_sig: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

/// Installs graceful-drain handlers for SIGTERM and SIGINT. Only the
/// async-signal-safe atomic store happens in the handler; the control
/// loop notices the flag at its next poll tick.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term_signal);
        signal(SIGINT, on_term_signal);
    }
}

/// Whether a termination signal arrived since the last call (the flag is
/// consumed, so a drain is initiated exactly once per signal).
pub(crate) fn term_requested() -> bool {
    TERM_FLAG.swap(false, Ordering::SeqCst)
}

/// Runs the daemon to completion: restores state, binds, serves, drains.
///
/// Returns the outcome counters the exit code is computed from, or an
/// error string for fatal startup/save failures (exit code 2 territory).
pub fn serve(config: ServeConfig) -> Result<ServeReport, String> {
    let shards = config.dispatch_shards.max(1);
    if config.journal.is_some() && config.checkpoint.is_none() {
        return Err(
            "--journal requires --checkpoint: compaction can only truncate journal \
             records a checkpoint covers, so without one the journal grows without bound"
                .to_string(),
        );
    }
    if config.checkpoint.is_some() && config.journal.is_none() && shards > 1 {
        return Err(
            "--checkpoint without --journal requires --dispatch-shards 1: durability \
             before ack means rewriting the whole checkpoint per commit batch, which \
             only covers every session when a single shard owns them all (add \
             --journal to shard)"
                .to_string(),
        );
    }
    let deadline = config.options.deadline;
    // Restore with the deadline stripped: replaying a checkpoint or a
    // journal suffix is catch-up work, not a client request, and must not
    // be interrupted by --deadline-ms.
    let mut restore_options = config.options;
    restore_options.deadline = None;

    let mut sessions: HashMap<String, SpecSession> = HashMap::new();
    if let Some(path) = &config.checkpoint {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let restored = restore_sessions(&text, restore_options)
                    .map_err(|e| format!("cannot restore checkpoint {path}: {e}"))?;
                let names = restored.len();
                let appends: u64 = restored.iter().map(|(_, s)| s.stats().appends).sum();
                sessions.extend(restored);
                eprintln!(
                    "restored checkpoint {path}: {names} session(s), {appends} acked append(s)"
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read checkpoint {path}: {e}")),
        }
    }

    let mut journal_file = None;
    let mut compact_on_start = false;
    if let Some(path) = &config.journal {
        let report = journal::replay(path, &mut sessions, restore_options)?;
        if report.applied > 0 || report.torn {
            eprintln!(
                "replayed {} journaled append(s) past the checkpoint ({} already covered{})",
                report.applied,
                report.skipped,
                if report.torn {
                    "; dropped one torn, never-acked trailing record"
                } else {
                    ""
                }
            );
        }
        let mut open = journal::Journal::open(path)?;
        open.assume_records(report.applied + report.skipped);
        journal_file = Some(open);
        // Applied records mean the checkpoint is stale by the replayed
        // suffix; a torn tail means the last run died mid-write. Either
        // way, compact so the journal stays short (and fully covered)
        // across repeated crash/restart cycles.
        compact_on_start = report.applied > 0 || report.torn;
    }
    // The default session always exists (a fresh daemon's first
    // checkpoint is the classic single-session document, byte for byte);
    // named sessions are created on their first append.
    sessions
        .entry(DEFAULT_SESSION.to_string())
        .or_insert_with(|| SpecSession::with_options(restore_options));
    // Catch-up is done: client appends run under the configured deadline.
    for session in sessions.values_mut() {
        session.set_deadline(deadline);
    }
    if compact_on_start {
        let compacted = save_checkpoint(&config, &sessions)
            .and_then(|_| journal_file.as_mut().expect("journal is open").truncate());
        if let Err(e) = compacted {
            eprintln!("startup compaction failed (journal kept): {e}");
        }
    }

    let listener = if let Some(path) = &config.socket {
        conn::Listener::bind_unix(path)?
    } else if let Some(addr) = &config.listen {
        conn::Listener::bind_tcp(addr)?
    } else {
        return Err("one of --socket or --listen is required".to_string());
    };
    eprintln!("listening on {}", listener.local_display());

    install_signal_handlers();

    let gauges = Arc::new(Gauges::new(shards));
    gauges
        .sessions
        .store(sessions.len() as u64, Ordering::SeqCst);
    gauges.appends.store(
        sessions.values().map(|s| s.stats().appends).sum(),
        Ordering::SeqCst,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let conns: dispatch::Conns = Arc::new(Mutex::new(HashMap::new()));
    let journal = journal_file.map(|j| Arc::new(Mutex::new(j)));
    let (ctrl_tx, ctrl_rx) = mpsc::channel();

    // Partition the restored sessions across their owning shards.
    let mut partitions: Vec<HashMap<String, SpecSession>> =
        (0..shards).map(|_| HashMap::new()).collect();
    for (name, session) in sessions {
        let index = shard_of(&name, shards);
        partitions[index].insert(name, session);
    }

    let options = config.options;
    let per_shard_cap = (REQUEST_QUEUE_CAP / shards).max(64);
    let mut shard_txs = Vec::with_capacity(shards);
    let mut shard_handles = Vec::with_capacity(shards);
    for (index, partition) in partitions.into_iter().enumerate() {
        let (tx, rx) = mpsc::sync_channel(per_shard_cap);
        shard_txs.push(tx);
        let shard = dispatch::Shard {
            index,
            sessions: partition,
            journal: journal.clone(),
            config: config.clone(),
            options,
            gauges: Arc::clone(&gauges),
            ctrl: ctrl_tx.clone(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("compc-serve-shard-{index}"))
            .spawn(move || dispatch::shard_loop(rx, shard))
            .map_err(|e| format!("cannot spawn dispatch shard {index}: {e}"))?;
        shard_handles.push(handle);
    }

    let accept = {
        let routes = conn::Routes {
            shards: shard_txs.clone(),
            ctrl: ctrl_tx.clone(),
            conns: Arc::clone(&conns),
        };
        let accept_config = config.clone();
        let gauges = Arc::clone(&gauges);
        let stop = Arc::clone(&stop);
        let limits = conn::ConnLimits {
            max_conns: config.max_conns.max(1),
            idle_timeout: match config.idle_timeout_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            max_line_bytes: config.max_line_bytes.max(64),
        };
        std::thread::Builder::new()
            .name("compc-serve-accept".to_string())
            .spawn(move || conn::accept_loop(listener, routes, accept_config, gauges, stop, limits))
            .map_err(|e| format!("cannot spawn accept thread: {e}"))?
    };
    drop(ctrl_tx);

    let control = dispatch::Control {
        shard_txs,
        journal,
        config,
        gauges: Arc::clone(&gauges),
        conns,
        stop: Arc::clone(&stop),
    };
    let outcome = dispatch::control_loop(ctrl_rx, control);
    stop.store(true, Ordering::SeqCst);
    // The control loop's exit path resumed every shard with `Exit`, so
    // the shards are joinable; joining them before the accept thread
    // (which joins the readers and writers) keeps teardown deterministic.
    for handle in shard_handles {
        let _ = handle.join();
    }
    let _ = accept.join();
    outcome?;
    Ok(ServeReport::from_gauges(&gauges))
}

/// Writes the multi-session checkpoint document for `sessions` (used by
/// the startup compaction, before the shard threads exist).
fn save_checkpoint(
    config: &ServeConfig,
    sessions: &HashMap<String, SpecSession>,
) -> Result<(), String> {
    let Some(path) = &config.checkpoint else {
        return Ok(());
    };
    journal::write_checkpoint_file(path, &sessions_checkpoint(sessions))
}
