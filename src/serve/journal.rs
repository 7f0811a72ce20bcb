//! The write-ahead append journal behind `--journal`.
//!
//! One NDJSON record per append that changed its session (acked, or
//! interrupted after merging something new; an interrupted re-send that
//! merged nothing is not recorded) — `{"seq": N, "append": {...}}`
//! for the `"default"` session (byte-identical to the pre-multi-session
//! format), `{"session": "name", "seq": N, "append": {...}}` for named
//! sessions. Records are written in **commit batches**: a dispatch shard
//! stages up to `--commit-batch` applied appends, serializes them into one
//! reusable scratch buffer, writes the whole batch with a single
//! `write_all`, and issues a single `sync_data` — only then are the
//! batch's verdicts acked. That ordering (ack strictly after the fsync
//! that covers the record) is the whole durability contract; batching
//! amortizes the fsync without weakening it, because *no* member of a
//! batch is acked before the one fsync that covers *all* of them. A
//! batch whose write or fsync fails is cut back off the file before the
//! error returns (the daemon exits if even that fails), so no later
//! batch is appended after its partial bytes.
//!
//! At startup [`replay`] applies the journal suffix past the restored
//! checkpoint, demultiplexing records into their named sessions (records
//! whose `seq` a session's checkpoint already covers are skipped; each
//! session's remaining records are merged and checked once) and
//! repairs the file tail: a torn (unparseable, never-acked) trailing
//! record from a crash mid-write is truncated away, and a whole-but-
//! unterminated one gets its missing newline — either way the next
//! fsynced batch starts on a fresh line and can never fuse with leftover
//! bytes into one unparseable record. A crash mid-batch-write can only
//! tear the *tail*: the batch is one contiguous `write_all`, so whatever
//! the kernel persisted without the fsync is a prefix of whole records
//! plus at most one torn final record — whole-but-unfsynced prefix
//! records may replay even though their acks never left (idempotent
//! merges make the client's re-send harmless), and the torn record is
//! dropped. Compaction rewrites the checkpoint first and truncates the
//! journal second, so a crash between the two only leaves records the
//! next replay skips.

use super::envelope::Envelope;
use crate::session::{SpecSession, DEFAULT_SESSION};
use crate::spec::SystemSpec;
use compc_core::CheckOptions;
use compc_json::Writer;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;

/// An open journal file in append mode, tracking its own size so the
/// `journal_lag` gauge (records past the checkpoint) is free to read.
pub(crate) struct Journal {
    file: std::fs::File,
    path: String,
    records: u64,
    bytes: u64,
    /// Reusable serialization buffer: one allocation serves every batch
    /// instead of one fresh `String` per record.
    scratch: String,
}

/// One applied append staged for a commit batch:
/// `(session, seq, fragment)`.
pub(crate) type BatchRecord<'a> = (&'a str, u64, &'a SystemSpec);

impl Journal {
    pub fn open(path: &str) -> Result<Journal, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {path}: {e}"))?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Journal {
            file,
            path: path.to_string(),
            records: 0,
            bytes,
            scratch: String::new(),
        })
    }

    /// Seeds the record count from a replay (the open file may already
    /// hold records; only [`replay`] knows how many were whole).
    pub fn assume_records(&mut self, records: u64) {
        self.records = records;
    }

    /// Records currently in the journal (the checkpoint lag).
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends a commit batch as one contiguous write and one fsync. Must
    /// complete before *any* member's verdict is acked; an error fails the
    /// whole batch (the dispatcher rolls every touched session back to its
    /// pre-batch watermark, so the clients may simply retry).
    pub fn append_batch(&mut self, records: &[BatchRecord<'_>]) -> Result<(), String> {
        if records.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        for (session, seq, fragment) in records {
            let mut w = Writer::compact(&mut self.scratch);
            w.begin_object();
            // The default session omits its name, so a daemon that never
            // saw a named session writes pre-multi-session records,
            // byte for byte.
            if *session != DEFAULT_SESSION {
                w.key("session").str(session);
            }
            w.key("seq").num(*seq as f64).key("append");
            fragment.write(&mut w);
            w.end_object();
            self.scratch.push('\n');
        }
        let written = self
            .file
            .write_all(self.scratch.as_bytes())
            .and_then(|_| self.file.sync_data());
        if let Err(e) = written {
            // A failed write may have left part of the batch in the file,
            // and the next batch would be appended after it. Cut the file
            // back to its last whole batch; if that fails too, no later
            // append could be acked safely, so the daemon stops here.
            let cut = self
                .file
                .set_len(self.bytes)
                .and_then(|_| self.file.sync_data());
            if let Err(cut) = cut {
                eprintln!(
                    "cannot journal batch to {} ({e}) nor cut it back to {} bytes ({cut}); \
                     exiting",
                    self.path, self.bytes
                );
                std::process::exit(2);
            }
            return Err(format!("cannot journal batch to {}: {e}", self.path));
        }
        self.records += records.len() as u64;
        self.bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Empties the journal after a successful checkpoint rewrite
    /// (compaction step two).
    pub fn truncate(&mut self) -> Result<(), String> {
        self.file
            .set_len(0)
            .and_then(|_| self.file.sync_data())
            .map_err(|e| format!("cannot truncate journal {}: {e}", self.path))?;
        self.records = 0;
        self.bytes = 0;
        Ok(())
    }
}

/// What a startup replay found and did.
pub(crate) struct ReplayReport {
    /// Records applied (their `seq` was past their session's checkpoint).
    pub applied: u64,
    /// Whole records skipped because a checkpoint already covered them.
    pub skipped: u64,
    /// A torn (half-written, never-acked) trailing record was dropped
    /// and truncated out of the file.
    pub torn: bool,
}

/// Replays the journal at `path` into the named `sessions`, creating
/// sessions (with `options`) the first time a record names them, skipping
/// records each session's restored checkpoint already covers, and repairs
/// an unterminated tail in place (truncating a torn record, newline-
/// terminating a whole one) so the next batch starts on a fresh line.
/// Corruption anywhere but a torn tail is a hard error: it means acked
/// state may be unrecoverable, and silently continuing would break the
/// durability contract.
pub(crate) fn replay(
    path: &str,
    sessions: &mut HashMap<String, SpecSession>,
    options: CheckOptions,
) -> Result<ReplayReport, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ReplayReport {
                applied: 0,
                skipped: 0,
                torn: false,
            })
        }
        Err(e) => return Err(format!("cannot read journal {path}: {e}")),
    };
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // A trailing newline yields one empty tail element; no trailing
    // newline means the last element is a torn candidate.
    let torn_candidate = match lines.last() {
        Some(&[]) => {
            lines.pop();
            None
        }
        Some(_) => lines.pop(),
        None => None,
    };
    let mut report = ReplayReport {
        applied: 0,
        skipped: 0,
        torn: false,
    };
    let mut records = Vec::with_capacity(lines.len() + 1);
    for (index, line) in lines.iter().enumerate() {
        let record = parse_record(line)
            .map_err(|e| format!("journal {path} record {} is corrupt: {e}", index + 1))?;
        records.push(record);
    }
    // A whole final record only lacks its newline; an unparseable one is
    // the classic torn write. Its fsync never completed, so its append was
    // never acked and dropping it loses nothing the contract promised.
    let mut torn = false;
    if let Some(tail) = torn_candidate {
        match parse_record(tail) {
            Ok(record) => {
                records.push(record);
                lines.push(tail);
            }
            Err(_) => torn = true,
        }
    }
    let fragment = |number: usize| {
        let record = parse_record(lines[number - 1]);
        record.expect("a record that parsed once parses again").2
    };
    apply_records(records, sessions, options, &mut report, fragment)
        .map_err(|(number, e)| format!("journal {path} record {number} failed to replay: {e}"))?;
    if torn {
        // The torn record's bytes must go too, or the next batch would
        // fuse with them into one poisoned line.
        report.torn = true;
        let clean_bytes = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i as u64 + 1);
        truncate_tail(path, clean_bytes)?;
    } else if torn_candidate.is_some() {
        // The record is whole, only its newline is missing: add it, or
        // the next batch would fuse with this record into one unparseable
        // line the next restart hard-errors on.
        terminate_tail(path)?;
    }
    Ok(report)
}

/// Drops everything past the last whole newline-terminated record
/// (replay tail repair, durable before any new append lands).
fn truncate_tail(path: &str, clean_bytes: u64) -> Result<(), String> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open journal {path} to drop its torn tail: {e}"))?;
    file.set_len(clean_bytes)
        .and_then(|_| file.sync_data())
        .map_err(|e| format!("cannot drop the torn tail of journal {path}: {e}"))
}

/// Writes the newline a whole-but-unterminated final record is missing
/// (replay tail repair, durable before any new append lands).
fn terminate_tail(path: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open journal {path} to terminate its tail: {e}"))?;
    file.write_all(b"\n")
        .and_then(|_| file.sync_data())
        .map_err(|e| format!("cannot terminate the tail of journal {path}: {e}"))
}

fn parse_record(line: &[u8]) -> Result<(String, u64, SystemSpec), String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("not UTF-8: {e}"))?;
    let record = Envelope::read(text).map_err(|e| format!("not JSON: {e}"))?;
    let session = match record.session {
        None => DEFAULT_SESSION.to_string(),
        Some(name) => name.ok_or("\"session\" must be a non-empty string")?,
    };
    let seq = record.seq.ok_or("missing integer \"seq\" field")?;
    let fragment = record
        .append
        .ok_or("missing \"append\" field")?
        .map_err(|e| format!("bad fragment: {e}"))?;
    Ok((session, seq, fragment))
}

/// Applies parsed records, skipping those a session's checkpoint already
/// covers. Each session's uncovered records are handed to it and checked
/// once ([`SpecSession::append_all`]); if that fails, the session is
/// rolled back and replayed record by record, each record's fragment read
/// again with `fragment` (by 1-based record number), so the error names
/// the record that fails.
fn apply_records(
    records: Vec<(String, u64, SystemSpec)>,
    sessions: &mut HashMap<String, SpecSession>,
    options: CheckOptions,
    report: &mut ReplayReport,
    fragment: impl Fn(usize) -> SystemSpec,
) -> Result<(), (usize, String)> {
    let mut pending: BTreeMap<String, Vec<(usize, SystemSpec)>> = BTreeMap::new();
    for (number, (name, seq, fragment)) in (1..).zip(records) {
        let session = sessions
            .entry(name.clone())
            .or_insert_with(|| SpecSession::with_options(options));
        let queued = pending.entry(name).or_default();
        if seq <= session.stats().appends + queued.len() as u64 {
            report.skipped += 1;
        } else {
            queued.push((number, fragment));
        }
    }
    for (name, queued) in pending {
        if queued.is_empty() {
            continue;
        }
        let session = sessions.get_mut(&name).expect("created above");
        let mark = session.snapshot();
        let (numbers, fragments): (Vec<usize>, Vec<SystemSpec>) = queued.into_iter().unzip();
        if session.append_all(&fragments).is_ok() {
            session.release(mark);
        } else {
            session.restore(mark);
            for &number in &numbers {
                session
                    .append(&fragment(number))
                    .map_err(|e| (number, e.to_string()))?;
            }
        }
        report.applied += numbers.len() as u64;
    }
    Ok(())
}

/// Atomically rewrites the checkpoint file at `path` with `doc`.
///
/// Durability order matters: the temp file is fsynced *before* the rename
/// (otherwise a crash can leave the rename durable but the contents not —
/// an empty or truncated "checkpoint"), and the parent directory is
/// fsynced after so the rename itself survives a crash. A leftover `.tmp`
/// from a kill mid-write is harmless: restore only ever reads the real
/// path, and the next save overwrites the temp.
pub(crate) fn write_checkpoint_file(path: &str, doc: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    let mut file =
        std::fs::File::create(&tmp).map_err(|e| format!("cannot create checkpoint {tmp}: {e}"))?;
    file.write_all(doc.as_bytes())
        .map_err(|e| format!("cannot write checkpoint {tmp}: {e}"))?;
    file.sync_all()
        .map_err(|e| format!("cannot sync checkpoint {tmp}: {e}"))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot replace checkpoint {path}: {e}"))?;
    // Make the rename durable too. Directory fsync is best-effort: some
    // filesystems refuse to open directories for writing, and a crash
    // here only loses the newest checkpoint, never corrupts one.
    let dir = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{restore_sessions, sessions_checkpoint};
    use crate::spec::NodeSpec;

    fn fragments() -> Vec<SystemSpec> {
        SystemSpec::parse(
            r#"{
                "schedules": ["S"],
                "nodes": [
                    {"name": "T1", "kind": "root", "home": "S"},
                    {"name": "T2", "kind": "root", "home": "S"},
                    {"name": "o1", "kind": "leaf", "parent": "T1"},
                    {"name": "o2", "kind": "leaf", "parent": "T2"}
                ],
                "conflicts": [["o1", "o2"]],
                "output_weak": [["o1", "o2"]]
            }"#,
        )
        .unwrap()
        .into_appends()
    }

    #[test]
    fn replay_skips_covered_records_and_checks_the_rest_once() {
        let fragments = fragments();
        let path =
            std::env::temp_dir().join(format!("compc-journal-{}.ndjson", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let mut journal = Journal::open(path).unwrap();
        let records: Vec<BatchRecord<'_>> = vec![
            ("covered", 1, &fragments[0]),
            ("covered", 2, &fragments[1]),
            (DEFAULT_SESSION, 1, &fragments[0]),
            (DEFAULT_SESSION, 2, &fragments[1]),
        ];
        journal.append_batch(&records).unwrap();

        // "covered" was checkpointed after both of its appends.
        let mut covered = SpecSession::new();
        for fragment in &fragments {
            covered.append(fragment).unwrap();
        }
        let mut sessions = HashMap::from([("covered".to_string(), covered)]);
        let report = replay(path, &mut sessions, CheckOptions::default()).unwrap();
        assert_eq!((report.applied, report.skipped), (2, 2));
        assert_eq!(sessions["covered"].stats().appends, 2);
        let replayed = &sessions[DEFAULT_SESSION];
        assert_eq!(replayed.stats().appends, 2);
        assert_eq!(replayed.spec(), sessions["covered"].spec());
        assert_eq!(
            format!("{:?}", replayed.verdict()),
            format!("{:?}", sessions["covered"].verdict())
        );
        std::fs::remove_file(path).unwrap();
    }

    /// A chain of `n` roots with a leaf each, the leaves in one weak
    /// output order and each conflicting with the next.
    fn chain(n: usize) -> SystemSpec {
        let mut spec = SystemSpec {
            schedules: vec!["S".into()],
            ..SystemSpec::default()
        };
        for i in 0..n {
            spec.nodes.push(NodeSpec {
                name: format!("T{i}"),
                kind: "root".into(),
                parent: None,
                home: Some("S".into()),
            });
            spec.nodes.push(NodeSpec {
                name: format!("o{i}"),
                kind: "leaf".into(),
                parent: Some(format!("T{i}")),
                home: None,
            });
        }
        let links: Vec<_> = (1..n)
            .map(|i| (format!("o{}", i - 1), format!("o{i}")))
            .collect();
        spec.output_weak = links.clone();
        spec.conflicts = links;
        spec
    }

    /// A session restored from a checkpoint and one replayed from the
    /// journal are each built whole: both hold the build of the fragments
    /// merged by `SystemSpec::merge` and the verdict appending the records
    /// one by one reaches, for a multi-fragment chain with a fragment that
    /// re-sends earlier items.
    #[test]
    fn restored_and_replayed_sessions_are_built_whole() {
        let mut fragments = chain(6).into_appends();
        let mut resend = fragments[1].clone();
        resend.merge(&fragments[2]).unwrap();
        resend.merge(&fragments[3]).unwrap();
        fragments[3] = resend;
        let mut one_by_one = SpecSession::new();
        let mut merged = SystemSpec::default();
        for fragment in &fragments {
            one_by_one.append(fragment).unwrap();
            merged.merge(fragment).unwrap();
        }
        let want = (
            Some(merged.build().unwrap()),
            format!("{:?}", one_by_one.verdict()),
            one_by_one.stats().appends,
        );
        let observed = |s: &SpecSession| {
            assert_eq!(s.spec(), one_by_one.spec());
            (
                s.system().cloned(),
                format!("{:?}", s.verdict()),
                s.stats().appends,
            )
        };

        let name = DEFAULT_SESSION.to_string();
        let checkpoint = sessions_checkpoint([(&name, &one_by_one)]);
        let restored = restore_sessions(&checkpoint, CheckOptions::default())
            .unwrap()
            .pop()
            .unwrap()
            .1;
        assert_eq!(observed(&restored), want);

        let path =
            std::env::temp_dir().join(format!("compc-journal-whole-{}.ndjson", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let records: Vec<BatchRecord<'_>> = (1..)
            .zip(&fragments)
            .map(|(seq, fragment)| ("chain", seq, fragment))
            .collect();
        Journal::open(path).unwrap().append_batch(&records).unwrap();
        let mut sessions = HashMap::new();
        let report = replay(path, &mut sessions, CheckOptions::default()).unwrap();
        assert_eq!(report.applied, fragments.len() as u64);
        assert_eq!(observed(&sessions["chain"]), want);
        std::fs::remove_file(path).unwrap();
    }

    /// A session whose records fail to replay together is replayed record
    /// by record, each read again from the journal, and the error names
    /// the first record that fails, counted over the whole journal.
    #[test]
    fn a_failed_replay_names_the_failing_record() {
        let fragments = fragments();
        let mut bad = fragments[1].clone();
        bad.conflicts.push(("o1".into(), "zz".into()));
        let path = std::env::temp_dir().join(format!(
            "compc-journal-failing-{}.ndjson",
            std::process::id()
        ));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let records: Vec<BatchRecord<'_>> = vec![
            (DEFAULT_SESSION, 1, &fragments[0]),
            ("other", 1, &fragments[0]),
            (DEFAULT_SESSION, 2, &bad),
        ];
        Journal::open(path).unwrap().append_batch(&records).unwrap();
        let err = replay(path, &mut HashMap::new(), CheckOptions::default())
            .err()
            .unwrap();
        assert_eq!(
            err,
            format!(
                "journal {path} record 3 failed to replay: unknown name \"zz\" in \
                 conflicts[1] [o1, zz]"
            )
        );
        std::fs::remove_file(path).unwrap();
    }

    /// Every record's parse result or corruption message, pinned: not
    /// UTF-8, then not JSON, then a bad `"session"`, a missing or
    /// non-integer `"seq"`, a missing `"append"` and a bad fragment.
    #[test]
    fn parse_record_results_are_pinned() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"\xff{\"seq\": 1}",
                r#"not UTF-8: invalid utf-8 sequence of 1 bytes from index 0"#,
            ),
            (
                b"not json",
                r#"not JSON: JSON parse error at 1:1: invalid literal (expected 'null')"#,
            ),
            (
                b"{\"seq\": 1, \"append\": {}",
                r#"not JSON: JSON parse error at 1:24: expected ',' or '}' in object"#,
            ),
            (
                b"{\"session\": \"\", \"seq\": 1, \"append\": {}}",
                r#""session" must be a non-empty string"#,
            ),
            (
                b"{\"session\": 3, \"append\": {\"nodes\": 3}}",
                r#""session" must be a non-empty string"#,
            ),
            (
                b"{\"append\": {\"nodes\": 3}, \"seq\": 1, \"session\": \"\"} x",
                r#"not JSON: JSON parse error at 1:51: unexpected trailing characters"#,
            ),
            (
                b"{\"append\": {}}",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"seq\": -1, \"append\": {}}",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"seq\": 1.5, \"append\": {}}",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"seq\": \"1\", \"append\": {}}",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"seq\": 1e400, \"append\": {}}",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"seq\": 1}",
                r#"missing "append" field"#,
            ),
            (
                b"{\"seq\": 1, \"append\": {\"nodes\": 3}}",
                r#"bad fragment: spec parse error: nodes: expected an array, got number"#,
            ),
            (
                b"{\"append\": {\"nodes\": 3}, \"seq\": 2}",
                r#"bad fragment: spec parse error: nodes: expected an array, got number"#,
            ),
            (
                b"{\"append\": {\"nodes\": 3}}",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"append\": {\"nodes\": 3}, \"seq\": 1, \"session\": 3}",
                r#""session" must be a non-empty string"#,
            ),
            (
                b"{\"append\": {\"nodes\": 3}, \"seq\": \"1\", \"session\": \"s\"}",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"append\": {\"nodes\": 3}, \"session\": \"s\", \"seq\": 1, \"x\": [1,]}",
                r#"not JSON: JSON parse error at 1:60: unexpected character ']'"#,
            ),
            (
                b"{\"append\": {\"nodes\": [{\"name\": \"T\", \"kind\": \"root\", \"home\": \"S\", \"x\": 1}]}, \"seq\": 2, \"op\": [}",
                r#"not JSON: JSON parse error at 1:94: unexpected character '}'"#,
            ),
            (
                b"[1]",
                r#"missing integer "seq" field"#,
            ),
            (
                b"7",
                r#"missing integer "seq" field"#,
            ),
            (
                b"{\"seq\": 1, \"seq\": 2, \"append\": {}}",
                r#"not JSON: JSON parse error at 1:17: duplicate object key "seq""#,
            ),
            (
                b"{\"seq\": 1, \"append\": {}, \"op\": \"x\", \"extra\": {\"a\": [1, 2]}}",
                r#"default 1 {"version":1,"schedules":[],"nodes":[],"auto_propagate":true}"#,
            ),
            (
                b"{\"session\": \"s\\\"1\", \"seq\": 9007199254740992, \"append\": {\"schedules\": [\"S\"], \"nodes\": [{\"name\": \"T\\u00e9\", \"kind\": \"root\", \"home\": \"S\"}]}}",
                r#"s"1 9007199254740992 {"version":1,"schedules":["S"],"nodes":[{"name":"Té","kind":"root","home":"S"}],"auto_propagate":true}"#,
            ),
            (
                b"{\"append\": {\"version\": 2}, \"seq\": 3}",
                r#"bad fragment: unsupported spec version 2 (this build reads version 1)"#,
            ),
        ];
        for (line, want) in cases {
            let got = match parse_record(line) {
                Ok((session, seq, spec)) => {
                    format!("{session} {seq} {}", spec.to_json().to_compact())
                }
                Err(e) => e,
            };
            assert_eq!(got, *want, "{}", String::from_utf8_lossy(line));
        }
    }
}
