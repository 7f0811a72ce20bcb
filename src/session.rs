//! Incremental checking over the JSON spec format.
//!
//! [`SpecSession`] is the data-layer face of [`compc_core::Session`]: it
//! accumulates [`SystemSpec`] *fragments* (the same versioned JSON format
//! `compc-check` reads — see [`SystemSpec::merge`]), extends the system in
//! place by each append's new items, and hands it to the core session,
//! which checks it from scratch. The `compc-serve` daemon speaks exactly
//! this layer over a socket.
//!
//! With [`compc_core::CheckOptions::oracle`] set, every verdict on a system
//! within [`compc_oracle::RECOMMENDED_NODE_CAP`] nodes is additionally
//! cross-checked against the brute-force definitional oracle; a
//! disagreement surfaces as [`SpecSessionError::OracleDisagreement`] (an
//! engine bug, never expected on a healthy build).

use crate::spec::{SpecError, SpecIndex, SpecMark, SystemSpec, SPEC_VERSION};
use compc_core::{CheckOptions, Checker, SessionError, SessionStats, Verdict};
use compc_json::{ParseError, Reader, Value, Writer};
use std::collections::HashSet;

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

/// A watermark of a [`SpecSession`]: where its append-only state stood.
/// [`SpecSession::restore`] rolls the session back to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecSnapshot {
    spec: SpecMark,
    had_system: bool,
    appends: u64,
    stats: SessionStats,
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
    spec: SystemSpec,
    index: SpecIndex,
    /// Appends counted so far. The inner session counts only the
    /// extensions it saw; a checkpoint restore replays the whole prefix as
    /// one, but this counter resumes where the recorded one stood.
    appends: u64,
    inner: compc_core::Session,
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
            spec: SystemSpec {
                auto_propagate: false,
                ..SystemSpec::default()
            },
            index: SpecIndex::default(),
            appends: 0,
            inner: compc_core::Session::with_options(options),
        }
    }

    /// The options this session checks with.
    pub fn options(&self) -> CheckOptions {
        self.inner.options()
    }

    /// Replaces the per-append deadline (see
    /// [`compc_core::Session::set_deadline`]); `None` disables it. Safe
    /// mid-session — the budget is read afresh at each append.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.inner.set_deadline(deadline);
    }

    /// The accumulated spec (every accepted fragment merged).
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The current merged system, if any append was accepted.
    pub fn system(&self) -> Option<&compc_model::CompositeSystem> {
        self.inner.system()
    }

    /// The verdict of the last completed append.
    pub fn verdict(&self) -> Option<&Verdict> {
        self.inner.verdict()
    }

    /// Session counters. `appends` counts across checkpoint restores: a
    /// session rebuilt with [`SpecSession::from_checkpoint`] resumes the
    /// recorded count.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            appends: self.appends,
            ..self.inner.stats()
        }
    }

    /// The cooperative cancel token (see
    /// [`compc_core::Session::cancel_token`]).
    pub fn cancel_token(&self) -> std::sync::Arc<std::sync::atomic::AtomicBool> {
        self.inner.cancel_token()
    }

    /// Merges `fragment` into the accumulated spec, extends the system in
    /// place by the new items and checks it. On a spec-level error (parse,
    /// merge, build, invalid extension) the session is unchanged; on an
    /// interruption the merged spec is kept with no verdict, and
    /// re-appending the same fragment merges nothing new and checks the
    /// system again.
    pub fn append(&mut self, fragment: &SystemSpec) -> Result<&Verdict, SpecSessionError> {
        self.append_all(vec![fragment.clone()])
    }

    /// Appends `fragments` as one extension and one check, counting one
    /// append each (an empty list counts as one empty fragment): the end
    /// state is the one appending them one by one reaches. The fragments'
    /// new entries move into the session's spec. A session that has no
    /// system yet builds the merged spec whole ([`SystemSpec::build`]);
    /// one that has extends its system by the new items. Checkpoint
    /// restore and journal recovery use it to rebuild a session.
    pub fn append_all(&mut self, fragments: Vec<SystemSpec>) -> Result<&Verdict, SpecSessionError> {
        let mark = self.snapshot();
        let count = fragments.len().max(1) as u64;
        for fragment in fragments {
            if let Err(e) = self.spec.merge_indexed(&mut self.index, fragment) {
                self.spec.roll_back(&mark.spec, &mut self.index);
                return Err(e.into());
            }
        }
        let built = if mark.had_system {
            let builder = self.inner.reopen();
            // A full build reports the first error in declaration order,
            // whatever order the extension met them.
            self.spec
                .extend(builder, &self.index, &mark.spec)
                .map_err(|e| self.spec.build().err().unwrap_or(e))
        } else {
            self.spec.build()
        };
        let sys = match built {
            Ok(sys) => sys,
            Err(e) => {
                self.spec.roll_back(&mark.spec, &mut self.index);
                if mark.had_system {
                    // The builder consumed the system: rebuild it from the
                    // spec as it was.
                    self.inner.reinstate(self.rebuild());
                }
                return Err(e.into());
            }
        };
        self.appends += count;
        self.inner.append_extension(sys)?;
        let verdict = self.inner.verdict().expect("append just completed");
        if self.options().oracle {
            let sys = self.inner.system().expect("append just completed");
            if sys.node_count() <= compc_oracle::RECOMMENDED_NODE_CAP {
                let engine_correct = verdict.is_correct();
                if compc_oracle::decide(sys).accepted() != engine_correct {
                    return Err(SpecSessionError::OracleDisagreement { engine_correct });
                }
            }
        }
        Ok(verdict)
    }

    /// The system of the accumulated spec, which built before.
    fn rebuild(&self) -> compc_model::CompositeSystem {
        self.spec
            .build()
            .expect("a spec the session accepted builds again")
    }

    /// Replays `fragments` append-by-append through a fresh session with
    /// `options`, demanding after **every** append that the session's
    /// verdict is bit-identical (full `Debug` structure: fronts, witness,
    /// cycle) to a from-scratch batch check of the merged prefix. This is
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
        let mut verdicts = Vec::with_capacity(fragments.len());
        for (i, fragment) in fragments.iter().enumerate() {
            let incremental = session
                .append(fragment)
                .map_err(|e| format!("fragment {} of {} rejected: {e}", i + 1, fragments.len()))?
                .clone();
            let prefix = session
                .system()
                .ok_or_else(|| format!("no system after fragment {} appended", i + 1))?;
            if session.spec.build().ok().as_ref() != Some(prefix) {
                return Err(format!(
                    "system after fragment {} of {} is not the from-scratch build of the \
                     merged spec",
                    i + 1,
                    fragments.len()
                ));
            }
            let batch = Checker::with_options(options).check(prefix);
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

    /// A watermark of the session's state: O(1), nothing is copied.
    pub fn snapshot(&self) -> SpecSnapshot {
        SpecSnapshot {
            spec: self.spec.mark(),
            had_system: self.inner.system().is_some(),
            appends: self.appends,
            stats: self.inner.stats(),
        }
    }

    /// Rolls the session back to a watermark taken earlier with
    /// [`SpecSession::snapshot`]: truncates the spec to it, rebuilds the
    /// system and checks it from scratch, and resets the counters. That is
    /// the slow path, for a failed journal write or a panicked handler; a
    /// session still at the watermark is left as it is.
    pub fn restore(&mut self, mark: SpecSnapshot) {
        if self.snapshot() == mark {
            return;
        }
        self.spec.roll_back(&mark.spec, &mut self.index);
        self.appends = mark.appends;
        let sys = mark.had_system.then(|| self.rebuild());
        self.inner.recheck(sys, mark.stats);
    }

    /// Uncounts an append that merged nothing since `mark` — an interrupted
    /// re-send of fragments the session already holds — and returns
    /// whether it did. Such an append changed no state a restart has to
    /// rebuild, so it needs no journal record and keeps no `seq`.
    pub fn uncount_unmerged(&mut self, mark: &SpecSnapshot) -> bool {
        let unmerged = self.spec.mark() == mark.spec;
        if unmerged {
            self.appends = mark.appends;
        }
        unmerged
    }

    /// Serializes the session's accumulated spec as a versioned JSON
    /// checkpoint document (pretty-printed, trailing newline).
    pub fn checkpoint_json(&self) -> String {
        write_checkpoint(
            vec![(DEFAULT_SESSION, self.stats().appends, &self.spec)],
            |w, spec| spec.write(w),
        )
    }

    /// Rebuilds a session from a [`SpecSession::checkpoint_json`] document:
    /// the checkpointed spec is re-appended as one batch and checked once.
    /// The recorded append count is resumed, so `stats().appends` keeps
    /// counting across the restore.
    pub fn from_checkpoint(
        text: &str,
        options: CheckOptions,
    ) -> Result<SpecSession, SpecSessionError> {
        let mut entries = checkpoint_entries(text)?;
        match entries.pop() {
            Some(entry) if entries.is_empty() && entry.name.is_none() => {
                SpecSession::from_parts(text, 0, entry, options)
            }
            _ => Err(SpecSessionError::Checkpoint(
                "a multi-session checkpoint holds named sessions; restore it with \
                 restore_sessions"
                    .into(),
            )),
        }
    }

    /// Rebuilds one session from entry `index` of the checkpoint `text`
    /// (shared by the single-session and multi-session document formats):
    /// the entry's spec is handed to an empty session, which builds it
    /// whole.
    fn from_parts(
        text: &str,
        index: usize,
        entry: CheckpointEntry,
        options: CheckOptions,
    ) -> Result<SpecSession, SpecSessionError> {
        let spec = match entry.spec {
            Some(spec) => spec,
            None => read_entry_spec(text, entry.name.is_some().then_some(index))?,
        };
        let mut session = SpecSession::with_options(options);
        if !spec.nodes.is_empty() {
            session.append_all(vec![spec])?;
        }
        session.appends = entry.appends.max(session.appends);
        Ok(session)
    }
}

/// The session name an append without a `"session"` field lands in.
pub const DEFAULT_SESSION: &str = "default";

/// Serializes named sessions as one checkpoint document.
///
/// Entries are `(name, recorded appends, spec JSON)`. A lone `"default"`
/// session is written in the exact single-session layout
/// [`SpecSession::checkpoint_json`] produces, so a daemon that never saw a
/// named session stays byte-compatible with pre-multi-session checkpoints.
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
/// state may be unrecoverable and must not be silently dropped.
pub fn restore_sessions(
    text: &str,
    options: CheckOptions,
) -> Result<Vec<(String, SpecSession)>, SpecSessionError> {
    checkpoint_entries(text)?
        .into_iter()
        .enumerate()
        .map(|(index, entry)| {
            let name = entry.name.clone();
            let session = SpecSession::from_parts(text, index, entry, options)?;
            Ok((name.unwrap_or_else(|| DEFAULT_SESSION.to_string()), session))
        })
        .collect()
}

/// One session of a checkpoint document.
#[derive(Default)]
struct CheckpointEntry {
    /// The session's name; `None` in the single-session layout.
    name: Option<String>,
    /// The recorded append count.
    appends: u64,
    /// The session's accumulated spec; `None` until read, when the
    /// document was validated as a tree.
    spec: Option<SystemSpec>,
}

/// Validates a checkpoint document in either layout and lists its
/// sessions: one unnamed entry for the single-session layout, one named
/// entry per element of `"sessions"` otherwise. A document as
/// [`sessions_checkpoint_json`] writes it is read in one pass, specs
/// included; any other is parsed as a tree, to name what is wrong with it
/// in the order the checks below make, and its specs are read as each
/// session is restored.
fn checkpoint_entries(text: &str) -> Result<Vec<CheckpointEntry>, SpecSessionError> {
    if let Some(entries) = read_checkpoint(text) {
        return Ok(entries);
    }
    let doc = compc_json::parse(text)
        .map_err(|e| SpecSessionError::Checkpoint(format!("not JSON: {e}")))?;
    tree_entries(&doc)
}

/// Reads a checkpoint document in one pass; `None` on anything
/// [`tree_entries`] would reject (and on a spec that does not read).
fn read_checkpoint(text: &str) -> Option<Vec<CheckpointEntry>> {
    let mut r = Reader::new(text);
    let mut single = CheckpointEntry::default();
    let mut single_fields = false;
    let mut sessions = None;
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        match &*key {
            "version" => (r.u64().ok()? == Some(SPEC_VERSION)).then_some(())?,
            "sessions" => {
                let mut list = Vec::new();
                let mut names = HashSet::new();
                r.begin_array().ok()?;
                while r.next_item().ok()? {
                    let mut entry = CheckpointEntry::default();
                    r.begin_object().ok()?;
                    while let Some(key) = r.next_key().ok()? {
                        read_entry_field(&mut r, &key, &mut entry)?;
                    }
                    let fresh = names.insert(entry.name.clone()?);
                    (fresh && entry.spec.is_some()).then_some(())?;
                    list.push(entry);
                }
                sessions = Some(list);
            }
            "appends" | "spec" => {
                read_entry_field(&mut r, &key, &mut single)?;
                single_fields = true;
            }
            _ => return None,
        }
    }
    r.end().ok()?;
    match sessions {
        Some(list) => (!single_fields).then_some(list),
        None => single.spec.is_some().then(|| vec![single]),
    }
}

/// Reads the value of a session's `key` into `entry`: `"session"` (a
/// non-empty string), `"appends"` (an integer) or `"spec"`.
fn read_entry_field(r: &mut Reader<'_>, key: &str, entry: &mut CheckpointEntry) -> Option<()> {
    match key {
        "session" => {
            let name = r.str().ok()?;
            entry.name = Some(name.into_owned()).filter(|name| !name.is_empty());
            entry.name.as_ref()?;
        }
        "appends" => entry.appends = r.u64().ok()??,
        "spec" => entry.spec = Some(SystemSpec::read(r).ok()?),
        _ => return None,
    }
    Some(())
}

/// Reads the spec of session `entry` (`None` in the single-session
/// layout) of a checkpoint that [`tree_entries`] accepted.
fn read_entry_spec(text: &str, entry: Option<usize>) -> Result<SystemSpec, SpecError> {
    // Opens the object that comes next and moves to the value of `key`.
    fn seek(r: &mut Reader<'_>, key: &str) -> Result<(), ParseError> {
        r.begin_object()?;
        while r.next_key()?.is_some_and(|k| k != key) {
            r.skip()?;
        }
        Ok(())
    }
    let mut r = Reader::new(text);
    if let Some(index) = entry {
        seek(&mut r, "sessions")?;
        r.begin_array()?;
        for _ in 0..index {
            r.next_item()?;
            r.skip()?;
        }
        r.next_item()?;
    }
    seek(&mut r, "spec")?;
    SystemSpec::read(&mut r)
}

/// [`checkpoint_entries`] over a parsed document; the entries' specs are
/// left to read.
fn tree_entries(doc: &Value) -> Result<Vec<CheckpointEntry>, SpecSessionError> {
    let fail = |what: String| Err(SpecSessionError::Checkpoint(what));
    let Some(fields) = doc.as_object() else {
        return fail("top level must be an object".into());
    };
    let Some(sessions) = doc.get("sessions") else {
        return Ok(vec![checkpoint_entry(fields, None)?]);
    };
    for (key, val) in fields {
        match key.as_str() {
            "version" => check_version(val).map_err(SpecSessionError::Checkpoint)?,
            "sessions" => {}
            other => return fail(format!("unknown field \"{other}\"")),
        }
    }
    let Some(sessions) = sessions.as_array() else {
        return fail("\"sessions\" must be an array".into());
    };
    let mut entries: Vec<CheckpointEntry> = Vec::with_capacity(sessions.len());
    for (index, session) in sessions.iter().enumerate() {
        let Some(fields) = session.as_object() else {
            return fail(format!("sessions[{index}] must be an object"));
        };
        let entry = checkpoint_entry(fields, Some(index))?;
        let Some(name) = &entry.name else {
            return fail(format!("sessions[{index}] is missing \"session\""));
        };
        if entries.iter().any(|e| e.name.as_ref() == Some(name)) {
            return fail(format!("duplicate session \"{name}\""));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// Reads one session's fields: the whole single-session document
/// (`index` = `None`: `version`, `appends`, `spec`) or element `index` of
/// `"sessions"` (`session`, `appends`, `spec`). `spec` is required; any
/// other field is an error.
fn checkpoint_entry(
    fields: &[(String, Value)],
    index: Option<usize>,
) -> Result<CheckpointEntry, SpecSessionError> {
    let at = index.map_or_else(String::new, |i| format!("sessions[{i}]: "));
    let fail = |what: &str| SpecSessionError::Checkpoint(format!("{at}{what}"));
    let mut name = None;
    let mut appends = 0u64;
    let mut spec = false;
    for (key, val) in fields {
        match (key.as_str(), index) {
            ("version", None) => check_version(val).map_err(|e| fail(&e))?,
            ("session", Some(_)) => {
                let text = val.as_str().filter(|s| !s.is_empty());
                name = Some(
                    text.ok_or_else(|| fail("session must be a non-empty string"))?
                        .to_string(),
                );
            }
            ("appends", _) => {
                appends = val
                    .as_u64()
                    .ok_or_else(|| fail("appends must be an integer"))?;
            }
            ("spec", _) => spec = true,
            (other, _) => return Err(fail(&format!("unknown field \"{other}\""))),
        }
    }
    if !spec {
        return Err(fail("missing \"spec\" field"));
    }
    Ok(CheckpointEntry {
        name,
        appends,
        spec: None,
    })
}

/// Accepts only the checkpoint format version this build writes.
fn check_version(val: &Value) -> Result<(), String> {
    match val.as_u64() {
        Some(SPEC_VERSION) => Ok(()),
        Some(v) => Err(format!("unsupported checkpoint version {v}")),
        None => Err("version must be an integer".into()),
    }
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

    #[test]
    fn checkpoint_roundtrip_restores_the_session() {
        let mut session = SpecSession::new();
        let fragments = two_stack_spec().into_appends();
        for fragment in &fragments {
            session.append(fragment).unwrap();
        }
        assert_eq!(session.stats().appends, fragments.len() as u64);
        let checkpoint = session.checkpoint_json();
        let restored = SpecSession::from_checkpoint(&checkpoint, CheckOptions::default()).unwrap();
        assert_eq!(restored.spec(), session.spec());
        assert_eq!(
            format!("{:?}", restored.verdict().unwrap()),
            format!("{:?}", session.verdict().unwrap())
        );
        // The append counter resumes from the recorded count even though
        // the restore replayed the whole prefix as one batch append.
        assert_eq!(restored.stats().appends, fragments.len() as u64);
        let junk = SpecSession::from_checkpoint("{]", CheckOptions::default());
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
        let legacy = session.checkpoint_json();
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
        // The single-session restore refuses a document of named sessions.
        assert!(matches!(
            SpecSession::from_checkpoint(&doc, CheckOptions::default()),
            Err(SpecSessionError::Checkpoint(_))
        ));

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
        batched.append_all(fragments.clone()).unwrap();
        assert_eq!(batched.spec(), one_by_one.spec());
        assert_eq!(observed(&batched), observed(&one_by_one));
        // Both answer a further (idempotent) append alike.
        one_by_one.append(&fragments[0]).unwrap();
        batched.append(&fragments[0]).unwrap();
        assert_eq!(observed(&batched), observed(&one_by_one));
    }

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
        let batch_err = {
            let mut merged = session.spec().clone();
            merged.merge(&bad).unwrap();
            merged.build().unwrap_err()
        };
        assert_eq!(err.to_string(), batch_err.to_string());
        assert_eq!((session.spec().clone(), observed(&session)), before);
        assert!(session.append(&fragments[1]).unwrap().is_correct());
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
        assert_eq!(session.spec(), &before);
        assert!(session.verdict().unwrap().is_correct());
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
            (r#"{"spec": "#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:10: unexpected end of input | invalid checkpoint: not JSON: JSON parse error at 1:10: unexpected end of input"#),
            ("[]".into(), r#"invalid checkpoint: top level must be an object | invalid checkpoint: top level must be an object"#),
            (r#"{"version": 2, "spec": {}}"#.into(), r#"invalid checkpoint: unsupported checkpoint version 2 | invalid checkpoint: unsupported checkpoint version 2"#),
            (r#"{"spec": {"nodes": 3}}"#.into(), r#"spec parse error: nodes: expected an array, got number | spec parse error: nodes: expected an array, got number"#),
            (r#"{"spec": {"nodes": 3}, "version": 2}"#.into(), r#"invalid checkpoint: unsupported checkpoint version 2 | invalid checkpoint: unsupported checkpoint version 2"#),
            (r#"{"spec": {"nodes": 3}, "appends": "x"}"#.into(), r#"invalid checkpoint: appends must be an integer | invalid checkpoint: appends must be an integer"#),
            (r#"{"spec": {"nodes": [{"name": "T", "kind": null}]}, "appends": [}"#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:64: unexpected character '}' | invalid checkpoint: not JSON: JSON parse error at 1:64: unexpected character '}'"#),
            (r#"{"spec": {"nodes": []}} x"#.into(), r#"invalid checkpoint: not JSON: JSON parse error at 1:25: unexpected trailing characters | invalid checkpoint: not JSON: JSON parse error at 1:25: unexpected trailing characters"#),
            (r#"{"appends": 2}"#.into(), r#"invalid checkpoint: missing "spec" field | invalid checkpoint: missing "spec" field"#),
            (r#"{"appends": 2, "spec": {}, "session": "a"}"#.into(), r#"invalid checkpoint: unknown field "session" | invalid checkpoint: unknown field "session""#),
            (format!(r#"{{"appends": 7, "spec": {one}}}"#), r#"default 7 {"version":1,"schedules":["S"],"nodes":[{"name":"T","kind":"root","home":"S"}],"auto_propagate":true} | 7 1"#),
            (format!(r#"{{"spec": {bad_kind}}}"#), r#"inconsistent node declaration: nodes[0] ("T"): unknown kind "odd" | inconsistent node declaration: nodes[0] ("T"): unknown kind "odd""#),
            (r#"{"sessions": {}}"#.into(), r#"invalid checkpoint: "sessions" must be an array | invalid checkpoint: "sessions" must be an array"#),
            (r#"{"sessions": [3]}"#.into(), r#"invalid checkpoint: sessions[0] must be an object | invalid checkpoint: sessions[0] must be an object"#),
            (r#"{"sessions": [{"spec": {}}]}"#.into(), r#"invalid checkpoint: sessions[0] is missing "session" | invalid checkpoint: sessions[0] is missing "session""#),
            (r#"{"sessions": [{"session": "", "spec": {}}]}"#.into(), r#"invalid checkpoint: sessions[0]: session must be a non-empty string | invalid checkpoint: sessions[0]: session must be a non-empty string"#),
            (r#"{"sessions": [{"session": "a", "spec": {}}], "spec": {}}"#.into(), r#"invalid checkpoint: unknown field "spec" | invalid checkpoint: unknown field "spec""#),
            (r#"{"appends": 3, "sessions": []}"#.into(), r#"invalid checkpoint: unknown field "appends" | invalid checkpoint: unknown field "appends""#),
            (r#"{"sessions": [{"session": "a", "spec": {}, "version": 1}]}"#.into(), r#"invalid checkpoint: sessions[0]: unknown field "version" | invalid checkpoint: sessions[0]: unknown field "version""#),
            (r#"{"sessions": [{"session": "a", "spec": {"nodes": 3}}, {"session": "a", "spec": {}}]}"#.into(), r#"invalid checkpoint: duplicate session "a" | invalid checkpoint: duplicate session "a""#),
            (r#"{"sessions": [{"session": "a", "spec": {}}, {"session": "b", "spec": {"nodes": 3}}]}"#.into(), r#"spec parse error: nodes: expected an array, got number | invalid checkpoint: a multi-session checkpoint holds named sessions; restore it with restore_sessions"#),
            (format!(r#"{{"sessions": [{{"session": "a", "spec": {bad_kind}}}, {{"session": "b", "spec": {{"nodes": 3}}}}]}}"#), r#"inconsistent node declaration: nodes[0] ("T"): unknown kind "odd" | invalid checkpoint: a multi-session checkpoint holds named sessions; restore it with restore_sessions"#),
            (format!(r#"{{"version": 1, "sessions": [{{"session": "b", "appends": 4, "spec": {one}}}, {{"spec": {{}}, "session": "a\"1"}}]}}"#), r#"b 4 {"version":1,"schedules":["S"],"nodes":[{"name":"T","kind":"root","home":"S"}],"auto_propagate":true}; a"1 0 {"version":1,"schedules":[],"nodes":[],"auto_propagate":false} | invalid checkpoint: a multi-session checkpoint holds named sessions; restore it with restore_sessions"#),
            (format!(r#"{{"sessions": [{{"session": "a", "spec": {one}}}, {{"session": "b", "spec": {{"version": 2}}}}]}}"#), r#"unsupported spec version 2 (this build reads version 1) | invalid checkpoint: a multi-session checkpoint holds named sessions; restore it with restore_sessions"#),
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
            let single = match SpecSession::from_checkpoint(text, CheckOptions::default()) {
                Ok(s) => format!("{} {}", s.stats().appends, s.spec().nodes.len()),
                Err(e) => e.to_string(),
            };
            assert_eq!(format!("{restored} | {single}"), *want, "{text}");
        }
    }
}
