//! Incremental checking over the JSON spec format.
//!
//! A [`SpecSession`] takes [`SystemSpec`] *fragments* (the same versioned
//! JSON format `compc-check` reads — see [`SystemSpec::merge`]), merges
//! each against the system it holds, extends that system in place by the
//! items it does not hold yet, and checks it from scratch with the
//! ordinary reducer. The session keeps no spec and no history: the system
//! records what each append adds, so a failed extension, a panicked
//! handler or a failed journal batch undoes exactly that, and the records
//! go once no [`SpecSnapshot`] can ask for them. [`SpecSession::spec`]
//! and the checkpoints are rendered from the system
//! ([`SystemSpec::from_system`]'s covering pairs). The `compc-serve`
//! daemon speaks exactly this layer over a socket.
//!
//! With [`compc_core::CheckOptions::oracle`] set, every verdict on a system
//! within [`compc_oracle::RECOMMENDED_NODE_CAP`] nodes is additionally
//! cross-checked against the brute-force definitional oracle; a
//! disagreement surfaces as [`SpecSessionError::OracleDisagreement`] (an
//! engine bug, never expected on a healthy build).

use crate::spec::{self, Names, NodeSpec, SpecError, SystemSpec, SPEC_VERSION};
use compc_core::{CheckOptions, Checker, SessionError, SessionStats, Verdict};
use compc_json::{Kind, ParseError, Reader, Value, Writer};
use compc_model::{CompositeSystem, NodeId, NodeRole, SystemBuilder};
use std::collections::HashSet;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Why a [`SpecSession`] operation failed.
#[derive(Debug)]
pub enum SpecSessionError {
    /// The fragment did not parse, merge, or build (the session spec is
    /// unchanged).
    Spec(SpecError),
    /// The merged system was rejected or interrupted by the core session.
    Session(SessionError),
    /// The engine and the brute-force oracle disagreed on the merged
    /// system — an engine bug; the verdict is still installed so the
    /// disagreeing input can be extracted and reported.
    OracleDisagreement {
        /// What the reduction engine said.
        engine_correct: bool,
    },
    /// A checkpoint document was malformed; the message names the field.
    Checkpoint(String),
}

impl std::fmt::Display for SpecSessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecSessionError::Spec(e) => write!(f, "{e}"),
            SpecSessionError::Session(e) => write!(f, "{e}"),
            SpecSessionError::OracleDisagreement { engine_correct } => write!(
                f,
                "engine/oracle disagreement: engine says {}, oracle says {} — \
                 this is an engine bug; please report the input",
                engine_correct, !engine_correct
            ),
            SpecSessionError::Checkpoint(msg) => write!(f, "invalid checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for SpecSessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecSessionError::Spec(e) => Some(e),
            SpecSessionError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for SpecSessionError {
    fn from(e: SpecError) -> Self {
        SpecSessionError::Spec(e)
    }
}

impl From<SessionError> for SpecSessionError {
    fn from(e: SessionError) -> Self {
        SpecSessionError::Session(e)
    }
}

/// A watermark of a [`SpecSession`]: where its append-only state stood,
/// and its verdict, shared. [`SpecSession::restore`] rolls the session
/// back to it; while a snapshot lives, the session keeps what it needs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecSnapshot {
    /// The system's recorded changes; `None` when there was no system.
    changes: Option<usize>,
    /// The system's schedules and nodes.
    size: (usize, usize),
    auto_propagate: bool,
    appends: u64,
    verdict: Option<Arc<Verdict>>,
    /// Counts the session's live snapshots.
    _live: Arc<()>,
}

/// A Comp-C checker fed by JSON spec fragments.
///
/// ```
/// use compc::session::SpecSession;
/// use compc::spec::SystemSpec;
///
/// let spec = SystemSpec::parse(
///     r#"{
///         "schedules": ["S"],
///         "nodes": [
///             {"name": "T1", "kind": "root", "home": "S"},
///             {"name": "o1", "kind": "leaf", "parent": "T1"}
///         ]
///     }"#,
/// )
/// .unwrap();
/// let mut session = SpecSession::new();
/// let verdict = session.append(&spec).unwrap();
/// assert!(verdict.is_correct());
/// ```
pub struct SpecSession {
    options: CheckOptions,
    /// The id of every schedule and node the system holds, by name.
    names: Names<Box<str>>,
    /// The system, grown in place; `None` until an append is accepted.
    sys: Option<SystemBuilder>,
    /// The verdict of the last completed append.
    verdict: Option<Arc<Verdict>>,
    /// Whether the merged fragments asked for order propagation.
    auto_propagate: bool,
    /// Appends counted so far; a checkpoint restore replays the whole
    /// prefix as one, but this counter resumes where the recorded one
    /// stood.
    appends: u64,
    cancel: Arc<AtomicBool>,
    /// Shared with every live [`SpecSnapshot`].
    live: Arc<()>,
}

impl Default for SpecSession {
    fn default() -> Self {
        SpecSession::new()
    }
}

impl SpecSession {
    /// An empty session with default [`CheckOptions`].
    pub fn new() -> SpecSession {
        SpecSession::with_options(CheckOptions::default())
    }

    /// An empty session with the given options ([`CheckOptions::oracle`]
    /// enables the per-append brute-force cross-check).
    pub fn with_options(options: CheckOptions) -> SpecSession {
        SpecSession {
            options,
            names: Names::default(),
            sys: None,
            verdict: None,
            auto_propagate: false,
            appends: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            live: Arc::new(()),
        }
    }

    /// The options this session checks with.
    pub fn options(&self) -> CheckOptions {
        self.options
    }

    /// Replaces the per-append wall-clock budget; `None` disables it. Safe
    /// mid-session — the budget is read afresh at each append.
    /// `compc-serve` uses this to replay its write-ahead journal at
    /// startup without the replay itself being interrupted by
    /// `--deadline-ms`.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.options.deadline = deadline;
    }

    /// The session's system as a spec, rendered with
    /// [`SystemSpec::from_system`] (covering order pairs) and the
    /// session's `auto_propagate` flag. It builds a system `==` to
    /// [`SpecSession::system`].
    pub fn spec(&self) -> SystemSpec {
        SystemSpec {
            auto_propagate: self.auto_propagate,
            ..self
                .system()
                .map_or_else(SystemSpec::default, SystemSpec::from_system)
        }
    }

    /// The current merged system, if any append was accepted.
    pub fn system(&self) -> Option<&CompositeSystem> {
        self.sys.as_ref().map(SystemBuilder::system)
    }

    /// The verdict of the last completed append (`None` before the first
    /// append or after an interrupted one).
    pub fn verdict(&self) -> Option<&Verdict> {
        self.verdict.as_deref()
    }

    /// Session counters. `appends` counts across checkpoint restores: a
    /// session rebuilt with [`restore_sessions`] resumes the recorded
    /// count.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            appends: self.appends,
            ..SessionStats::default()
        }
    }

    /// The session's cooperative cancel token: set it to `true` (from any
    /// thread) to interrupt the current or next append's check at a level
    /// boundary. The token is *not* auto-reset; clear it to resume.
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Merges `fragment` against the session's system, extends the system
    /// in place by the items it does not hold and checks it. On a
    /// spec-level error (merge, build, invalid extension) the session is
    /// unchanged; on an interruption the extended system is kept with no
    /// verdict, and re-appending the same fragment merges nothing new and
    /// checks the system again.
    pub fn append(&mut self, fragment: &SystemSpec) -> Result<&Verdict, SpecSessionError> {
        self.append_all(std::slice::from_ref(fragment))
    }

    /// Appends `fragments` as one extension and one check, counting one
    /// append each (an empty list counts as one empty fragment): the end
    /// state is the one appending them one by one reaches. Names resolve
    /// through the session's map; a node the system holds must be declared
    /// as it was, and a pair the system's closed relation (or conflict set)
    /// holds merges nothing. The rest is declared into the system in place,
    /// or into a fresh builder when the session has none yet (so a
    /// restored session is built whole, recording nothing to undo). An
    /// error names its entry by its index in the fragment that declares
    /// it, and the extension is undone. Checkpoint restore and journal
    /// recovery use it to rebuild a session.
    pub fn append_all(&mut self, fragments: &[SystemSpec]) -> Result<&Verdict, SpecSessionError> {
        let mark = self.snapshot();
        let outcome = self.extend_and_check(fragments);
        match outcome {
            Err(SpecSessionError::Spec(_)) => self.restore(mark),
            _ => self.release(mark),
        }
        outcome?;
        Ok(self.verdict().expect("append just completed"))
    }

    fn extend_and_check(&mut self, fragments: &[SystemSpec]) -> Result<(), SpecSessionError> {
        let sys = self.system();
        let names = &self.names;
        let mut items = spec::new_items(
            fragments,
            |n| {
                names
                    .node(&n.name)
                    .map(|id| sys.is_some_and(|s| declares(s, id, n)))
            },
            |s| names.schedule(s).is_some(),
            |r, (x, y)| {
                sys.is_some_and(|sys| match (names.node(x), names.node(y)) {
                    (Some(a), Some(c)) => spec::holds(sys, r, a, c),
                    _ => false,
                })
            },
        )?;
        items.auto_propagate |= self.auto_propagate;
        let base = (self.names.schedules.len(), self.names.nodes.len());
        for (id, s) in (base.0..).zip(&items.schedules) {
            self.names.schedules.insert(s.as_str().into(), id as u32);
        }
        for (id, (_, n)) in (base.1..).zip(&items.nodes) {
            self.names.nodes.insert(n.name.as_str().into(), id as u32);
        }
        let fresh = self.sys.is_none();
        let b = self.sys.get_or_insert_with(SystemBuilder::new);
        spec::extend(&items, b, &self.names, base)
            .and_then(|()| b.validate().map(drop).map_err(spec::invalid))?;
        if fresh {
            // A fresh build recorded nothing; later appends record.
            b.forget();
        }
        self.verdict = None;
        self.auto_propagate = items.auto_propagate;
        self.appends += fragments.len().max(1) as u64;
        let sys = b.system();
        let verdict = Checker::with_options(self.options)
            .reducer(sys)
            .cancel_token(&self.cancel)
            .try_run()
            .map_err(SessionError::from)?;
        let engine_correct = verdict.is_correct();
        self.verdict = Some(Arc::new(verdict));
        let oracle = self.options.oracle && sys.node_count() <= compc_oracle::RECOMMENDED_NODE_CAP;
        if oracle && compc_oracle::decide(sys).accepted() != engine_correct {
            return Err(SpecSessionError::OracleDisagreement { engine_correct });
        }
        Ok(())
    }

    /// Replays `fragments` append-by-append through a fresh session with
    /// `options`, demanding after **every** append that the session's
    /// system is the from-scratch build of the fragments so far merged by
    /// [`SystemSpec::merge`] — a reference that shares no state with the
    /// session — and that its verdict is bit-identical (full `Debug`
    /// structure: fronts, witness, cycle) to a batch check of it. This is
    /// [`SystemSpec::into_appends`] prefix-validity as an executable
    /// contract: each prefix must build and decide exactly like a batch
    /// submission of the same fragments. Returns the per-append verdicts;
    /// any divergence (rejected fragment, missing system, non-identical
    /// verdict) comes back as a human-readable message.
    pub fn replay_bit_identical(
        fragments: &[SystemSpec],
        options: CheckOptions,
    ) -> Result<Vec<Verdict>, String> {
        let mut session = SpecSession::with_options(options);
        let mut merged = SystemSpec {
            auto_propagate: false,
            ..SystemSpec::default()
        };
        let mut verdicts = Vec::with_capacity(fragments.len());
        for (i, fragment) in fragments.iter().enumerate() {
            let incremental = session
                .append(fragment)
                .map_err(|e| format!("fragment {} of {} rejected: {e}", i + 1, fragments.len()))?
                .clone();
            let prefix = session
                .system()
                .ok_or_else(|| format!("no system after fragment {} appended", i + 1))?;
            let reference = merged.merge(fragment).and_then(|()| merged.build());
            let Some(reference) = reference.ok().filter(|sys| sys == prefix) else {
                return Err(format!(
                    "system after fragment {} of {} is not the from-scratch build of the \
                     merged fragments",
                    i + 1,
                    fragments.len()
                ));
            };
            let batch = Checker::with_options(options).check(&reference);
            if format!("{incremental:?}") != format!("{batch:?}") {
                return Err(format!(
                    "verdict after fragment {} of {} not bit-identical to a batch \
                     check of the merged prefix: incremental {:?} vs batch {:?}",
                    i + 1,
                    fragments.len(),
                    incremental.is_correct(),
                    batch.is_correct(),
                ));
            }
            verdicts.push(incremental);
        }
        Ok(verdicts)
    }

    /// A watermark of the session's state: O(1), nothing is copied. Until
    /// it is dropped, released or restored, the session keeps what it
    /// needs to undo the appends made after it.
    pub fn snapshot(&self) -> SpecSnapshot {
        SpecSnapshot {
            changes: self.sys.as_ref().map(SystemBuilder::changes),
            size: (self.names.schedules.len(), self.names.nodes.len()),
            auto_propagate: self.auto_propagate,
            appends: self.appends,
            verdict: self.verdict.clone(),
            _live: Arc::clone(&self.live),
        }
    }

    /// Rolls the session back to a watermark taken earlier with
    /// [`SpecSession::snapshot`], after a failed extension, a panicked
    /// handler or a failed journal write: undoes what the appends since
    /// added to the system and puts back the verdict and the counters. A
    /// session still at the watermark is left as it is.
    pub fn restore(&mut self, mark: SpecSnapshot) {
        match (mark.changes, &mut self.sys) {
            (Some(changes), Some(b)) => b.undo_to(changes),
            _ => self.sys = None,
        }
        let names = &mut self.names;
        for (ids, len) in [
            (&mut names.schedules, mark.size.0),
            (&mut names.nodes, mark.size.1),
        ] {
            if ids.len() > len {
                ids.retain(|_, id| (*id as usize) < len);
            }
        }
        self.auto_propagate = mark.auto_propagate;
        self.appends = mark.appends;
        self.verdict = mark.verdict.clone();
        self.release(mark);
    }

    /// Drops `mark`: once no snapshot is live, the session keeps nothing
    /// to undo the appends made since.
    pub(crate) fn release(&mut self, mark: SpecSnapshot) {
        drop(mark);
        if let Some(b) = self
            .sys
            .as_mut()
            .filter(|_| Arc::strong_count(&self.live) == 1)
        {
            b.forget();
        }
    }

    /// Uncounts an append that merged nothing since `mark` — an interrupted
    /// re-send of items the session already holds, declared or implied —
    /// and returns whether it did. Such an append changed no state a
    /// restart has to rebuild, so it needs no journal record and keeps no
    /// `seq`.
    pub fn uncount_unmerged(&mut self, mark: &SpecSnapshot) -> bool {
        let now = self.snapshot();
        let changes = |s: &SpecSnapshot| (s.changes.unwrap_or(0), s.size, s.auto_propagate);
        let unmerged = changes(&now) == changes(mark);
        if unmerged {
            self.appends = mark.appends;
        }
        unmerged
    }
}

/// Whether node `id` of `sys` is the node `n` declares: of its kind, with
/// its parent and home where the kind has them (a field the kind ignores
/// is not compared, as the system does not keep it).
fn declares(sys: &CompositeSystem, id: usize, n: &NodeSpec) -> bool {
    let info = sys.node(NodeId(id as u32));
    let parent = || n.parent.as_deref() == info.parent.map(|p| sys.name(p));
    let home = || n.home.as_deref() == info.home.map(|s| sys.schedule(s).name.as_str());
    match (n.kind.as_str(), info.role()) {
        ("root", NodeRole::Root) => home(),
        ("subtx", NodeRole::Internal) => parent() && home(),
        ("leaf", NodeRole::Leaf) => parent(),
        _ => false,
    }
}

/// The session name an append without a `"session"` field lands in.
pub const DEFAULT_SESSION: &str = "default";

/// Serializes named sessions as one checkpoint document.
///
/// Entries are `(name, recorded appends, spec JSON)`. A lone `"default"`
/// session is written in the single-session layout
/// (`{"version": V, "appends": N, "spec": {...}}`), so a daemon that never
/// saw a named session stays byte-compatible with pre-multi-session
/// checkpoints.
/// Anything else becomes `{"version": V, "sessions": [...]}` with entries
/// sorted by name (deterministic, diffable). The daemon streams each spec
/// from its session instead of taking it as a tree.
pub fn sessions_checkpoint_json(entries: Vec<(String, u64, Value)>) -> String {
    write_checkpoint(entries, |w, spec| {
        w.value(spec);
    })
}

/// The checkpoint document of `sessions`, as [`sessions_checkpoint_json`]
/// lays it out, each spec streamed from its session.
pub(crate) fn sessions_checkpoint<'a>(
    sessions: impl IntoIterator<Item = (&'a String, &'a SpecSession)>,
) -> String {
    let entries = sessions
        .into_iter()
        .map(|(name, s)| (name, s.stats().appends, s.spec()))
        .collect();
    write_checkpoint(entries, |w, spec| spec.write(w))
}

/// Writes the checkpoint document of `(name, appends, spec)` entries in
/// the layout [`sessions_checkpoint_json`] describes; `write_spec` writes
/// one entry's spec.
pub(crate) fn write_checkpoint<N: AsRef<str>, S>(
    mut entries: Vec<(N, u64, S)>,
    write_spec: impl Fn(&mut Writer<'_>, &S),
) -> String {
    entries.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
    let mut text = String::new();
    let mut w = Writer::pretty(&mut text);
    w.begin_object().key("version").num(SPEC_VERSION as f64);
    match &entries[..] {
        [(name, appends, spec)] if name.as_ref() == DEFAULT_SESSION => {
            w.key("appends").num(*appends as f64).key("spec");
            write_spec(&mut w, spec);
        }
        _ => {
            w.key("sessions").begin_array();
            for (name, appends, spec) in &entries {
                w.begin_object().key("session").str(name.as_ref());
                w.key("appends").num(*appends as f64).key("spec");
                write_spec(&mut w, spec);
                w.end_object();
            }
            w.end_array();
        }
    }
    w.end_object();
    text.push('\n');
    text
}

/// Restores named sessions from either checkpoint document format: a
/// legacy single-session document becomes the `"default"` session, and a
/// `{"version", "sessions": [...]}` document restores every named entry.
/// Unknown fields and duplicate session names are hard errors — a
/// checkpoint is the durability root, so anything unexpected in one means
/// state may be unrecoverable and must not be silently dropped. Each
/// session's spec is handed to an empty session, which builds it whole,
/// and its recorded append count is resumed.
///
/// Errors rank as they are checked: not JSON, then the layout's fields,
/// then every session's fields, then each session's spec and build in
/// session order. The document is read once; a pass stopped by a syntax
/// error or by a spec that does not read is followed by one that skips
/// every spec, to find a syntax or layout error past where the first
/// stopped, which outranks the spec's error.
pub fn restore_sessions(
    text: &str,
    options: CheckOptions,
) -> Result<Vec<(String, SpecSession)>, SpecSessionError> {
    let mut entries = Vec::new();
    let (wrong, unread) = match read_checkpoint(text, &mut entries, &mut SystemSpec::read) {
        Ok(wrong) => (wrong, None),
        // The pass stopped at a syntax error or a spec that does not
        // read: a pass that skips every spec finds any syntax or layout
        // error, which outranks the spec's.
        Err(e) => {
            let mut skip = |r: &mut Reader<'_>| r.skip().map(|()| SystemSpec::default());
            let wrong = read_checkpoint(text, &mut Vec::new(), &mut skip)
                .map_err(|e| SpecSessionError::Checkpoint(format!("not JSON: {e}")))?;
            (wrong, Some(e))
        }
    };
    if let Some(wrong) = wrong {
        return Err(SpecSessionError::Checkpoint(wrong));
    }
    let mut sessions = Vec::with_capacity(entries.len());
    for entry in entries {
        let mut session = SpecSession::with_options(options);
        let spec = entry.spec.expect("a listed session has a spec");
        if !spec.nodes.is_empty() {
            session.append_all(std::slice::from_ref(&spec))?;
        }
        session.appends = entry.appends.max(session.appends);
        let name = entry.name.unwrap_or_else(|| DEFAULT_SESSION.to_string());
        sessions.push((name, session));
    }
    match unread {
        Some(e) => Err(e.into()),
        None => Ok(sessions),
    }
}

/// One session of a checkpoint document.
#[derive(Default)]
struct CheckpointEntry {
    /// The session's name; `None` in the single-session layout.
    name: Option<String>,
    /// The recorded append count.
    appends: u64,
    /// The session's spec; `None` until its field is read.
    spec: Option<SystemSpec>,
}

/// Reads a checkpoint document in one pass, each session's spec with
/// `spec`, and lists its sessions in `entries`: one unnamed entry for the
/// single-session layout, one named entry per element of `"sessions"`
/// otherwise. Returns the first error in a field, in the order
/// [`restore_sessions`] ranks them: an error is held until the pass has
/// read every field that outranks it. Whether the layout has named
/// sessions is known only once the top-level object closes, so each
/// top-level field is checked as a field of both layouts. Fails on a
/// syntax error or an error `spec` returns.
fn read_checkpoint<E: From<ParseError>>(
    text: &str,
    entries: &mut Vec<CheckpointEntry>,
    spec: &mut impl FnMut(&mut Reader<'_>) -> Result<SystemSpec, E>,
) -> Result<Option<String>, E> {
    let r = &mut Reader::new(text);
    if r.peek()? != Kind::Object {
        r.skip()?;
        r.end()?;
        return Ok(Some("top level must be an object".into()));
    }
    r.begin_object()?;
    let mut single = CheckpointEntry::default();
    let (mut wrong_single, mut wrong_top) = (None, None);
    let mut sessions = None;
    while let Some(key) = r.next_key()? {
        if key == "sessions" {
            sessions = Some(read_sessions(r, entries, spec)?);
            continue;
        }
        let wrong = read_field(r, &key, &mut single, None, spec)?;
        let wrong_here = match &*key {
            "version" => wrong.clone(),
            _ => Some(format!("unknown field \"{key}\"")),
        };
        wrong_single = wrong_single.or(wrong);
        wrong_top = wrong_top.or(wrong_here);
    }
    r.end()?;
    Ok(match sessions {
        Some(wrong_sessions) => wrong_top.or(wrong_sessions),
        None if wrong_single.is_some() => wrong_single,
        None if single.spec.is_none() => Some("missing \"spec\" field".into()),
        None => {
            entries.push(single);
            None
        }
    })
}

/// Reads the `"sessions"` array: the first error in its sessions' fields
/// or names, if any.
fn read_sessions<E: From<ParseError>>(
    r: &mut Reader<'_>,
    entries: &mut Vec<CheckpointEntry>,
    spec: &mut impl FnMut(&mut Reader<'_>) -> Result<SystemSpec, E>,
) -> Result<Option<String>, E> {
    if r.peek()? != Kind::Array {
        r.skip()?;
        return Ok(Some("\"sessions\" must be an array".into()));
    }
    r.begin_array()?;
    let mut names = HashSet::new();
    let mut wrong = None;
    let mut index = 0;
    while r.next_item()? {
        let at = index;
        index += 1;
        if r.peek()? != Kind::Object {
            r.skip()?;
            wrong = wrong.or_else(|| Some(format!("sessions[{at}] must be an object")));
            continue;
        }
        r.begin_object()?;
        let mut entry = CheckpointEntry::default();
        let mut wrong_field = None;
        while let Some(key) = r.next_key()? {
            let field = read_field(r, &key, &mut entry, Some(at), spec)?;
            wrong_field = wrong_field.or(field);
        }
        if wrong.is_some() {
            continue;
        }
        wrong = match &entry.name {
            _ if wrong_field.is_some() => wrong_field,
            _ if entry.spec.is_none() => Some(format!("sessions[{at}]: missing \"spec\" field")),
            None => Some(format!("sessions[{at}] is missing \"session\"")),
            Some(name) if !names.insert(name.clone()) => {
                Some(format!("duplicate session \"{name}\""))
            }
            Some(_) => {
                entries.push(entry);
                None
            }
        };
    }
    Ok(wrong)
}

/// Reads the value of field `key` of a session into `entry`: `"appends"`,
/// `"spec"`, and `"session"` for element `index` of `"sessions"` or
/// `"version"` for the single-session layout (`index` = `None`). Returns
/// what is wrong with the field, if anything.
fn read_field<E: From<ParseError>>(
    r: &mut Reader<'_>,
    key: &str,
    entry: &mut CheckpointEntry,
    index: Option<usize>,
    spec: &mut impl FnMut(&mut Reader<'_>) -> Result<SystemSpec, E>,
) -> Result<Option<String>, E> {
    // The next value as an integer, `None` if it is not one.
    fn integer(r: &mut Reader<'_>) -> Result<Option<u64>, ParseError> {
        match r.peek()? {
            Kind::Num => r.u64(),
            _ => r.skip().map(|()| None),
        }
    }
    let wrong = match (key, index) {
        ("version", None) => match integer(r)? {
            Some(SPEC_VERSION) => None,
            Some(v) => Some(format!("unsupported checkpoint version {v}")),
            None => Some("version must be an integer".into()),
        },
        ("session", Some(_)) => {
            if r.peek()? == Kind::Str {
                entry.name = Some(r.str()?.into_owned()).filter(|name| !name.is_empty());
            } else {
                r.skip()?;
            }
            entry
                .name
                .is_none()
                .then(|| "session must be a non-empty string".into())
        }
        ("appends", _) => match integer(r)? {
            Some(appends) => {
                entry.appends = appends;
                None
            }
            None => Some("appends must be an integer".into()),
        },
        ("spec", _) => {
            entry.spec = Some(spec(r)?);
            None
        }
        _ => {
            r.skip()?;
            Some(format!("unknown field \"{key}\""))
        }
    };
    Ok(wrong.map(|what| match index {
        Some(at) => format!("sessions[{at}]: {what}"),
        None => what,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use compc_core::check;

    fn two_stack_spec() -> SystemSpec {
        SystemSpec::parse(
            r#"{
                "schedules": ["mw", "db"],
                "nodes": [
                    {"name": "T1", "kind": "root", "home": "mw"},
                    {"name": "T2", "kind": "root", "home": "mw"},
                    {"name": "u1", "kind": "subtx", "parent": "T1", "home": "db"},
                    {"name": "u2", "kind": "subtx", "parent": "T2", "home": "db"},
                    {"name": "w1", "kind": "leaf", "parent": "u1"},
                    {"name": "w2", "kind": "leaf", "parent": "u2"}
                ],
                "conflicts": [["w1", "w2"]],
                "output_weak": [["w1", "w2"]]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn into_appends_replays_to_the_same_verdict() {
        let spec = two_stack_spec();
        let fragments = spec.into_appends();
        assert_eq!(fragments.len(), 2, "one fragment per root subtree");
        let mut session = SpecSession::new();
        let mut last = None;
        for frag in &fragments {
            last = Some(session.append(frag).unwrap().clone());
        }
        let merged_sys = session.system().unwrap().clone();
        let batch = check(&merged_sys);
        assert_eq!(
            format!("{:?}", last.unwrap()),
            format!("{batch:?}"),
            "replayed verdict must be bit-identical to the batch check"
        );
    }

    #[test]
    fn merge_is_idempotent_and_rejects_redeclaration() {
        let spec = two_stack_spec();
        let mut acc = SystemSpec {
            auto_propagate: false,
            ..SystemSpec::default()
        };
        acc.merge(&spec).unwrap();
        let once = acc.clone();
        acc.merge(&spec).unwrap();
        assert_eq!(acc, once, "re-merging the same fragment changes nothing");
        let mut bad = spec.clone();
        bad.nodes[0].home = Some("db".into());
        assert!(matches!(acc.merge(&bad), Err(SpecError::BadNode(_))));
    }

    /// The checkpoint document of `session` as the lone default session.
    fn checkpoint(session: &SpecSession) -> String {
        sessions_checkpoint([(&DEFAULT_SESSION.to_string(), session)])
    }

    /// The one session the checkpoint document `text` restores.
    fn restore_one(text: &str) -> Result<SpecSession, SpecSessionError> {
        let mut sessions = restore_sessions(text, CheckOptions::default())?;
        assert_eq!(sessions.len(), 1, "{text}");
        Ok(sessions.pop().expect("one session").1)
    }

    #[test]
    fn checkpoint_roundtrip_restores_the_session() {
        let mut session = SpecSession::new();
        let fragments = two_stack_spec().into_appends();
        for fragment in &fragments {
            session.append(fragment).unwrap();
        }
        assert_eq!(session.stats().appends, fragments.len() as u64);
        let restored = restore_one(&checkpoint(&session)).unwrap();
        assert_eq!(restored.spec(), session.spec());
        assert_eq!(
            format!("{:?}", restored.verdict().unwrap()),
            format!("{:?}", session.verdict().unwrap())
        );
        // The append counter resumes from the recorded count even though
        // the restore replayed the whole prefix as one batch append.
        assert_eq!(restored.stats().appends, fragments.len() as u64);
        let junk = restore_sessions("{]", CheckOptions::default());
        assert!(matches!(junk, Err(SpecSessionError::Checkpoint(_))));
    }

    #[test]
    fn oracle_cross_check_runs_under_the_cap() {
        let mut session = SpecSession::with_options(CheckOptions::new().oracle(true));
        let verdict = session.append(&two_stack_spec()).unwrap();
        assert!(verdict.is_correct(), "oracle agreed, verdict installed");
    }

    #[test]
    fn multi_session_checkpoint_roundtrip_and_legacy_byte_compat() {
        let mut session = SpecSession::new();
        for fragment in two_stack_spec().into_appends() {
            session.append(&fragment).unwrap();
        }
        // A lone "default" session serializes byte-identically to the
        // single-session format, and that format restores as "default".
        let legacy = checkpoint(&session);
        let entries = vec![(
            DEFAULT_SESSION.to_string(),
            session.stats().appends,
            session.spec().to_json(),
        )];
        assert_eq!(sessions_checkpoint_json(entries), legacy);
        let restored = restore_sessions(&legacy, CheckOptions::default()).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].0, DEFAULT_SESSION);
        assert_eq!(restored[0].1.spec(), session.spec());

        // Multiple names roundtrip through the "sessions" format, sorted.
        let doc = sessions_checkpoint_json(vec![
            (
                "beta".to_string(),
                session.stats().appends,
                session.spec().to_json(),
            ),
            ("alpha".to_string(), 0, SpecSession::new().spec().to_json()),
        ]);
        let restored = restore_sessions(&doc, CheckOptions::default()).unwrap();
        assert_eq!(restored[0].0, "alpha");
        assert_eq!(restored[1].0, "beta");
        assert_eq!(restored[1].1.stats().appends, session.stats().appends);
        assert_eq!(restored[1].1.spec(), session.spec());

        // Duplicate names and unknown fields are hard errors.
        let dup = sessions_checkpoint_json(vec![
            ("x".to_string(), 0, SpecSession::new().spec().to_json()),
            ("y".to_string(), 0, SpecSession::new().spec().to_json()),
        ])
        .replace("\"y\"", "\"x\"");
        assert!(matches!(
            restore_sessions(&dup, CheckOptions::default()),
            Err(SpecSessionError::Checkpoint(_))
        ));
        let junk = doc.replace("\"sessions\"", "\"sesssions\"");
        assert!(matches!(
            restore_sessions(&junk, CheckOptions::default()),
            Err(SpecSessionError::Checkpoint(_))
        ));
    }

    /// The verdict, the system and the counters a client can observe.
    fn observed(session: &SpecSession) -> (String, Option<compc_model::CompositeSystem>, u64) {
        (
            format!("{:?}", session.verdict()),
            session.system().cloned(),
            session.stats().appends,
        )
    }

    #[test]
    fn watermark_restore_answers_like_a_session_that_never_rolled_back() {
        let fragments = two_stack_spec().into_appends();
        let mut steady = SpecSession::new();
        let mut rolled = SpecSession::new();
        steady.append(&fragments[0]).unwrap();
        rolled.append(&fragments[0]).unwrap();
        let mark = rolled.snapshot();
        rolled.append(&fragments[1]).unwrap();
        rolled.restore(mark.clone());
        assert_eq!(rolled.snapshot(), mark);
        assert_eq!(rolled.spec(), steady.spec());
        assert_eq!(observed(&rolled), observed(&steady));
        steady.append(&fragments[1]).unwrap();
        rolled.append(&fragments[1]).unwrap();
        assert_eq!(observed(&rolled), observed(&steady));

        // Back to before the first append: no system at all.
        let mut fresh = SpecSession::new();
        let empty = fresh.snapshot();
        fresh.append(&fragments[0]).unwrap();
        fresh.restore(empty);
        assert!(fresh.system().is_none() && fresh.spec().nodes.is_empty());
        assert_eq!(fresh.stats().appends, 0);
    }

    #[test]
    fn append_all_reaches_the_state_of_one_by_one_appends() {
        let fragments = two_stack_spec().into_appends();
        let mut one_by_one = SpecSession::new();
        for fragment in &fragments {
            one_by_one.append(fragment).unwrap();
        }
        let mut batched = SpecSession::new();
        batched.append_all(&fragments).unwrap();
        assert_eq!(batched.spec(), one_by_one.spec());
        assert_eq!(observed(&batched), observed(&one_by_one));
        // Both answer a further (idempotent) append alike.
        one_by_one.append(&fragments[0]).unwrap();
        batched.append(&fragments[0]).unwrap();
        assert_eq!(observed(&batched), observed(&one_by_one));
    }

    /// A failed extension names its entry by its index in the fragment
    /// sent, and leaves the session as it was.
    #[test]
    fn an_extension_that_fails_midway_leaves_the_session_untouched() {
        let fragments = two_stack_spec().into_appends();
        let mut session = SpecSession::new();
        session.append(&fragments[0]).unwrap();
        let before = (session.spec().clone(), observed(&session));
        // Known names, but the pair spans two schedules: the builder
        // rejects it only after the new nodes are in.
        let mut bad = fragments[1].clone();
        bad.conflicts.push(("T1".into(), "w2".into()));
        let err = session.append(&bad).unwrap_err();
        assert_eq!(
            err.to_string(),
            "model violation at conflicts[1] [T1, w2]: (n0,n5) are not both operations of S1"
        );
        assert_eq!((session.spec().clone(), observed(&session)), before);
        assert!(session.append(&fragments[1]).unwrap().is_correct());

        // The first pair is implied and merges nothing, the second closes
        // a cycle: it is output_weak[1] of the fragment, output_weak[3]
        // of the session's spec merged with it.
        let mut session = SpecSession::new();
        session.append(&covering_chain()).unwrap();
        let before = (session.spec(), observed(&session));
        let cycle = SystemSpec::parse(r#"{"output_weak": [["o1", "o3"], ["o3", "o1"]]}"#).unwrap();
        let err = session.append(&cycle).unwrap_err();
        assert_eq!(
            err.to_string(),
            "model violation at output_weak[1] [o3, o1]: cannot order n5 before n3 (Weak): \
             inserting 5 < 3 contradicts existing 3 < 5"
        );
        let mut merged = session.spec();
        merged.merge(&cycle).unwrap();
        assert_eq!(
            merged.build().unwrap_err().to_string(),
            "model violation at output_weak[3] [o3, o1]: cannot order n5 before n3 (Weak): \
             inserting 5 < 3 contradicts existing 3 < 5"
        );
        assert_eq!((session.spec(), observed(&session)), before);
    }

    #[test]
    fn spec_level_rejection_leaves_session_untouched() {
        let mut session = SpecSession::new();
        session.append(&two_stack_spec()).unwrap();
        let before = session.spec().clone();
        let bad = SystemSpec {
            version: 99,
            ..SystemSpec::default()
        };
        let err = session.append(&bad).unwrap_err();
        assert!(matches!(err, SpecSessionError::Spec(_)), "{err}");
        assert_eq!(session.spec(), before);
        assert!(session.verdict().unwrap().is_correct());
    }

    /// One schedule, three roots with a leaf each; the leaves conflict and
    /// are weakly ordered along the chain, declared by covering pairs only,
    /// so `o1 < o3` is implied and never declared.
    fn covering_chain() -> SystemSpec {
        SystemSpec::parse(
            r#"{
                "schedules": ["S"],
                "nodes": [
                    {"name": "T1", "kind": "root", "home": "S"},
                    {"name": "T2", "kind": "root", "home": "S"},
                    {"name": "T3", "kind": "root", "home": "S"},
                    {"name": "o1", "kind": "leaf", "parent": "T1"},
                    {"name": "o2", "kind": "leaf", "parent": "T2"},
                    {"name": "o3", "kind": "leaf", "parent": "T3"}
                ],
                "conflicts": [["o1", "o2"], ["o2", "o3"]],
                "output_weak": [["o1", "o2"], ["o2", "o3"]]
            }"#,
        )
        .unwrap()
    }

    /// A re-sent fragment and a pair the closed order implies (or the
    /// conflict set holds, in either direction) merge nothing: the session
    /// is as it was, and an interrupted re-send of either is uncounted, so
    /// the daemon journals nothing for it.
    #[test]
    fn re_sent_and_implied_pairs_merge_nothing() {
        let chain = covering_chain();
        let implied =
            SystemSpec::parse(r#"{"conflicts": [["o3", "o2"]], "output_weak": [["o1", "o3"]]}"#)
                .unwrap();
        let mut session = SpecSession::new();
        session.append(&chain).unwrap();
        let before = (session.spec(), observed(&session));
        for fragment in [&chain, &implied] {
            let mark = session.snapshot();
            session.append(fragment).unwrap();
            assert!(session.uncount_unmerged(&mark), "{}", fragment.to_compact());
            assert_eq!((session.spec(), observed(&session)), before);
        }
        session.set_deadline(Some(std::time::Duration::ZERO));
        for fragment in [&chain, &implied] {
            let mark = session.snapshot();
            let err = session.append(fragment).unwrap_err();
            assert!(
                matches!(err, SpecSessionError::Session(SessionError::Interrupted(_))),
                "{err}"
            );
            assert!(session.uncount_unmerged(&mark), "{}", fragment.to_compact());
            assert_eq!(session.snapshot().appends, mark.appends);
            assert_eq!(session.stats().appends, 1);
        }
        // A pair the order does not imply does merge.
        let mut fresh = SpecSession::new();
        fresh.append(&chain).unwrap();
        let mark = fresh.snapshot();
        let reversed = SystemSpec::parse(r#"{"output_weak": [["o3", "o1"]]}"#).unwrap();
        assert!(fresh.append(&reversed).is_err());
        assert_eq!(fresh.snapshot(), mark);
    }

    /// A node the system holds must be sent again as it was declared: its
    /// kind, and the parent and home its kind has. A field the kind
    /// ignores is not compared (the system does not keep it).
    #[test]
    fn a_node_the_system_holds_must_be_redeclared_as_it_was() {
        let mut session = SpecSession::new();
        session.append(&covering_chain()).unwrap();
        let before = observed(&session);
        for node in [
            r#"{"name": "o1", "kind": "leaf", "parent": "T2"}"#,
            r#"{"name": "T1", "kind": "subtx", "parent": "T2", "home": "S"}"#,
            r#"{"name": "T1", "kind": "root", "home": "X"}"#,
        ] {
            let text = format!(r#"{{"schedules": ["X"], "nodes": [{node}]}}"#);
            let err = session
                .append(&SystemSpec::parse(&text).unwrap())
                .unwrap_err();
            assert!(
                err.to_string().contains("re-declares node"),
                "{node}: {err}"
            );
            assert_eq!(observed(&session), before);
        }
        let ignored = r#"{"nodes": [{"name": "T1", "kind": "root", "home": "S", "parent": "T2"}]}"#;
        assert!(session.append(&SystemSpec::parse(ignored).unwrap()).is_ok());
    }

    /// Both roll-backs undo only what the later append added: after
    /// appends that declared pairs, a restore and a failed extension leave
    /// the session as one that never took the later append.
    #[test]
    fn roll_backs_undo_what_later_appends_added() {
        let fragments = covering_chain().into_appends();
        let mut steady = SpecSession::new();
        let mut rolled = SpecSession::new();
        for fragment in &fragments[..2] {
            steady.append(fragment).unwrap();
            rolled.append(fragment).unwrap();
        }
        let mark = rolled.snapshot();
        rolled.append(&fragments[2]).unwrap();
        rolled.restore(mark);
        assert_eq!(observed(&rolled), observed(&steady));
        let mut bad = fragments[2].clone();
        bad.conflicts.push(("T1".into(), "o3".into()));
        assert!(rolled.append(&bad).is_err());
        assert_eq!(observed(&rolled), observed(&steady));
        steady.append(&fragments[2]).unwrap();
        rolled.append(&fragments[2]).unwrap();
        assert_eq!(observed(&rolled), observed(&steady));
    }

    /// A panic raised inside an extension, once its order pairs are
    /// closed, leaves the session's system partly extended; restoring the
    /// snapshot taken before the append gives back the session as it was,
    /// which then answers the append as a session that never panicked.
    #[test]
    fn a_panic_mid_extension_restores_to_the_snapshot() {
        let fragments = covering_chain().into_appends();
        let (mut steady, mut rolled) = (SpecSession::new(), SpecSession::new());
        for fragment in &fragments[..2] {
            steady.append(fragment).unwrap();
            rolled.append(fragment).unwrap();
        }
        let mark = rolled.snapshot();
        spec::PANIC_MIDWAY.set(true);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rolled.append(&fragments[2]).map(drop)
        }));
        spec::PANIC_MIDWAY.set(false);
        assert!(panicked.is_err());
        assert!(rolled.system().unwrap().node_count() > steady.system().unwrap().node_count());
        rolled.restore(mark.clone());
        assert_eq!(rolled.snapshot(), mark);
        assert_eq!(rolled.spec(), steady.spec());
        assert_eq!(observed(&rolled), observed(&steady));
        assert_eq!(rolled.stats(), steady.stats());
        steady.append(&fragments[2]).unwrap();
        rolled.append(&fragments[2]).unwrap();
        assert_eq!(observed(&rolled), observed(&steady));
    }

    /// Whether the session holds anything to undo.
    fn holds_undo(session: &SpecSession) -> bool {
        session.sys.as_ref().is_some_and(|b| b.changes() > 0)
    }

    /// Undo records live only while a snapshot can ask for them: an append
    /// with no live snapshot (even one taken and dropped) keeps none, and
    /// releasing or restoring the last live snapshot drops them.
    #[test]
    fn undo_records_are_held_only_while_a_snapshot_lives() {
        let fragments = covering_chain().into_appends();
        let mut session = SpecSession::new();
        drop(session.snapshot());
        session.append(&fragments[0]).unwrap();
        assert!(!holds_undo(&session));
        drop(session.snapshot());
        session.append(&fragments[1]).unwrap();
        assert!(!holds_undo(&session));
        let (first, second) = (session.snapshot(), session.snapshot());
        session.append(&fragments[2]).unwrap();
        assert!(holds_undo(&session));
        session.release(first);
        assert!(holds_undo(&session), "the second snapshot still lives");
        session.release(second);
        assert!(!holds_undo(&session));
        let mark = session.snapshot();
        let more = r#"{"nodes": [{"name": "T4", "kind": "root", "home": "S"}]}"#;
        session.append(&SystemSpec::parse(more).unwrap()).unwrap();
        assert!(holds_undo(&session));
        session.restore(mark);
        assert!(!holds_undo(&session));
        let restored = restore_one(&checkpoint(&session)).unwrap();
        assert!(!holds_undo(&restored));
    }

    /// A cancelled append keeps its system with no verdict, and sending
    /// the fragment again once the token is cleared checks it again.
    #[test]
    fn cancelled_append_checks_again_when_resent() {
        let chain = covering_chain();
        let mut session = SpecSession::new();
        session.append(&chain).unwrap();
        let token = session.cancel_token();
        token.store(true, std::sync::atomic::Ordering::Relaxed);
        let err = session.append(&chain).unwrap_err();
        assert!(
            matches!(
                err,
                SpecSessionError::Session(SessionError::Interrupted(compc_core::Interrupted {
                    level: 1
                }))
            ),
            "{err}"
        );
        assert!(
            session.verdict().is_none(),
            "an interrupted append has no verdict"
        );
        token.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(session.append(&chain).unwrap().is_correct());
    }

    /// Generated systems with output, input and intra-transaction orders.
    fn generated() -> impl Iterator<Item = compc_model::CompositeSystem> {
        use compc_workload::random::{generate, GenParams, Shape};
        (0..8).map(|seed| {
            generate(&GenParams {
                shape: Shape::General {
                    levels: 3,
                    scheds_per_level: 2,
                },
                roots: 5,
                ops_per_tx: (1, 3),
                conflict_density: 0.5,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
                seed,
            })
        })
    }

    /// A checkpoint written in the layout sessions wrote before they
    /// rendered theirs (the fragments merged by `SystemSpec::merge`: every
    /// order family closed) restores to the system, verdict and count the
    /// rendered checkpoint restores to.
    #[test]
    fn closed_family_checkpoints_restore_like_rendered_ones() {
        for (seed, sys) in generated().enumerate() {
            let fragments = SystemSpec::from_system(&sys).into_appends();
            let mut session = SpecSession::new();
            let mut merged = SystemSpec {
                auto_propagate: false,
                ..SystemSpec::default()
            };
            for fragment in &fragments {
                session.append(fragment).unwrap();
                merged.merge(fragment).unwrap();
            }
            let appends = session.stats().appends;
            let closed = sessions_checkpoint_json(vec![(
                DEFAULT_SESSION.to_string(),
                appends,
                merged.to_json(),
            )]);
            let rendered = checkpoint(&session);
            let (old, new) = (
                restore_one(&closed).unwrap(),
                restore_one(&rendered).unwrap(),
            );
            assert_eq!(old.system(), new.system(), "seed {seed}");
            assert_eq!(new.system(), merged.build().ok().as_ref(), "seed {seed}");
            assert_eq!(
                format!("{:?}", old.verdict()),
                format!("{:?}", new.verdict()),
                "seed {seed}"
            );
            assert_eq!(old.stats().appends, appends);
            assert_eq!(new.stats().appends, appends);
        }
    }

    /// A session streamed from `into_appends` (every order family sent
    /// closed) checkpoints exactly the covering pairs of its system.
    #[test]
    fn a_streamed_session_checkpoints_covering_pairs() {
        let mut fewer = 0;
        for (seed, sys) in generated().enumerate() {
            let covering = SystemSpec::from_system(&sys);
            let fragments = covering.into_appends();
            let mut session = SpecSession::new();
            for fragment in &fragments {
                session.append(fragment).unwrap();
            }
            let doc = compc_json::parse(&checkpoint(&session)).unwrap();
            let written = SystemSpec::from_json(doc.get("spec").unwrap()).unwrap();
            let count = |spec: &SystemSpec| spec.relations().map(Vec::len);
            assert_eq!(count(&written), count(&covering), "seed {seed}");
            let sent: usize = fragments.iter().flat_map(count).sum();
            fewer += usize::from(count(&written).iter().sum::<usize>() < sent);
        }
        assert!(fewer > 0, "no generated system had an implied pair");
    }

    /// Every checkpoint document's restore result, pinned: not JSON, then
    /// the layout's fields in document order, every session's fields, then
    /// each session's spec and build in session order.
    #[test]
    fn restore_results_are_pinned() {
        let bad_kind =
            r#"{"schedules": ["S"], "nodes": [{"name": "T", "kind": "odd", "home": "S"}]}"#;
        let one = r#"{"schedules": ["S"], "nodes": [{"name": "T", "kind": "root", "home": "S"}]}"#;
        let cases: Vec<(String, &str)> = vec![
            (r#"{"spec": "#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:10: unexpected end of input"#),
            ("[]".into(), r#"invalid checkpoint: top level must be an object"#),
            (r#"{"version": 2, "spec": {}}"#.into(), r#"invalid checkpoint: unsupported checkpoint version 2"#),
            (r#"{"spec": {"nodes": 3}}"#.into(), r#"spec parse error: nodes: expected an array, got number"#),
            (r#"{"spec": {"nodes": 3}, "version": 2}"#.into(), r#"invalid checkpoint: unsupported checkpoint version 2"#),
            (r#"{"spec": {"nodes": 3}, "appends": "x"}"#.into(), r#"invalid checkpoint: appends must be an integer"#),
            (r#"{"spec": {"nodes": [{"name": "T", "kind": null}]}, "appends": [}"#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:64: unexpected character '}'"#),
            (r#"{"spec": {"nodes": []}} x"#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:25: unexpected trailing characters"#),
            (r#"{"appends": 2}"#.into(), r#"invalid checkpoint: missing "spec" field"#),
            (r#"{"appends": 2, "spec": {}, "session": "a"}"#.into(), r#"invalid checkpoint: unknown field "session""#),
            (format!(r#"{{"appends": 7, "spec": {one}}}"#), r#"default 7 {"version":1,"schedules":["S"],"nodes":[{"name":"T","kind":"root","home":"S"}],"auto_propagate":true}"#),
            (format!(r#"{{"spec": {bad_kind}}}"#), r#"inconsistent node declaration: nodes[0] ("T"): unknown kind "odd""#),
            (r#"{"sessions": {}}"#.into(), r#"invalid checkpoint: "sessions" must be an array"#),
            (r#"{"sessions": [3]}"#.into(), r#"invalid checkpoint: sessions[0] must be an object"#),
            (r#"{"sessions": [{"spec": {}}]}"#.into(), r#"invalid checkpoint: sessions[0] is missing "session""#),
            (r#"{"sessions": [{"session": "", "spec": {}}]}"#.into(), r#"invalid checkpoint: sessions[0]: session must be a non-empty string"#),
            (r#"{"sessions": [{"session": "a", "spec": {}}], "spec": {}}"#.into(), r#"invalid checkpoint: unknown field "spec""#),
            (r#"{"appends": 3, "sessions": []}"#.into(), r#"invalid checkpoint: unknown field "appends""#),
            (r#"{"sessions": [{"session": "a", "spec": {}, "version": 1}]}"#.into(), r#"invalid checkpoint: sessions[0]: unknown field "version""#),
            (r#"{"sessions": [{"session": "a", "spec": {"nodes": 3}}, {"session": "a", "spec": {}}]}"#.into(), r#"invalid checkpoint: duplicate session "a""#),
            (r#"{"sessions": [{"session": "a", "spec": {}}, {"session": "b", "spec": {"nodes": 3}}]}"#.into(), r#"spec parse error: nodes: expected an array, got number"#),
            (format!(r#"{{"sessions": [{{"session": "a", "spec": {bad_kind}}}, {{"session": "b", "spec": {{"nodes": 3}}}}]}}"#), r#"inconsistent node declaration: nodes[0] ("T"): unknown kind "odd""#),
            (format!(r#"{{"version": 1, "sessions": [{{"session": "b", "appends": 4, "spec": {one}}}, {{"spec": {{}}, "session": "a\"1"}}]}}"#), r#"b 4 {"version":1,"schedules":["S"],"nodes":[{"name":"T","kind":"root","home":"S"}],"auto_propagate":true}; a"1 0 {"version":1,"schedules":[],"nodes":[],"auto_propagate":false}"#),
            (format!(r#"{{"sessions": [{{"session": "a", "spec": {one}}}, {{"session": "b", "spec": {{"version": 2}}}}]}}"#), r#"unsupported spec version 2 (this build reads version 1)"#),
            // Phase order against document order: a later field of the
            // layout outranks an earlier session's, a later session's
            // field an earlier session's spec, and a later syntax error
            // everything.
            (r#"{"sessions": [3], "bogus": 1}"#.into(), r#"invalid checkpoint: unknown field "bogus""#),
            (r#"{"sessions": {}, "version": "1"}"#.into(), r#"invalid checkpoint: version must be an integer"#),
            (r#"{"sessions": [{"session": "a", "spec": {"nodes": 3}}], "version": 2}"#.into(), r#"invalid checkpoint: unsupported checkpoint version 2"#),
            (r#"{"spec": {}, "appends": "x", "sessions": []}"#.into(), r#"invalid checkpoint: unknown field "spec""#),
            (r#"{"spec": {"nodes": 3}, "session": "a"}"#.into(), r#"invalid checkpoint: unknown field "session""#),
            (r#"{"version": 1.5, "spec": {"nodes": 3}}"#.into(), r#"invalid checkpoint: version must be an integer"#),
            (r#"{"sessions": [{"session": "a", "spec": {"nodes": 3}}, {"session": "b", "spec": {]}}"#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:81: expected '"'"#),
            (r#"{"sessions": [{"session": "a", "spec": {"nodes": 3}}, {"session": ""}]}"#.into(), r#"invalid checkpoint: sessions[1]: session must be a non-empty string"#),
            (r#"{"sessions": [{"spec": {"nodes": 3}, "session": "a", "mystery": 1}]}"#.into(), r#"invalid checkpoint: sessions[0]: unknown field "mystery""#),
            (r#"{"sessions": [{"session": "a"}, {"session": 5}]}"#.into(), r#"invalid checkpoint: sessions[0]: missing "spec" field"#),
            (r#"{"sessions": [{"session": "a", "spec": {}}, 7, {"session": "a", "spec": {}}]}"#.into(), r#"invalid checkpoint: sessions[1] must be an object"#),
            (r#"{"sessions": [{"spec": {"nodes": 3}, "appends": -1, "session": "a"}]}"#.into(), r#"invalid checkpoint: sessions[0]: appends must be an integer"#),
            (format!(r#"{{"sessions": [{{"session": "a", "spec": {bad_kind}}}, {{"session": "b", "spec": {{"nodes": 3}}}}], "extra": 1}}"#), r#"invalid checkpoint: unknown field "extra""#),
            (r#"{"spec": {"nodes": [], "nodes": []}, "appends": "x"}"#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:31: duplicate object key "nodes""#),
        ];
        for (text, want) in &cases {
            let restored = match restore_sessions(text, CheckOptions::default()) {
                Ok(sessions) => sessions
                    .iter()
                    .map(|(name, s)| {
                        format!(
                            "{name} {} {}",
                            s.stats().appends,
                            s.spec().to_json().to_compact()
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; "),
                Err(e) => e.to_string(),
            };
            assert_eq!(restored, *want, "{text}");
        }
    }
}
