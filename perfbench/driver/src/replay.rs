//! In-process replays of the session workloads' exact inputs, with a
//! timer around each call into a layer (`grow` and `fanin`).
//!
//! Three passes over the same appends:
//! * the session pass calls what a dispatch shard calls per append —
//!   request parse, `SystemSpec::from_json`, `SpecSession::snapshot` and
//!   `SpecSession::append` — each under its own timer;
//! * the decomposed pass repeats `SpecSession::append`'s steps one by one
//!   (clone + `merge`, `build`, `compc_core::Session::append`) to split
//!   the append by layer and read the core session's work counters;
//! * the bare pass is the session pass with one timer around the whole
//!   loop; the session pass's wall time over it is `trace.overhead`.

use crate::gen::{Expect, Stream};
use crate::layers::Layers;
use crate::Outcome;
use compc::core::{CheckOptions, Session};
use compc::json::Value;
use compc::session::{restore_sessions, SpecSession};
use compc::spec::SystemSpec;
use std::collections::HashMap;
use std::time::Instant;

/// One append: (stream index, fragment index).
pub type Append = (usize, usize);

/// Replays `warm` untimed (state building) and then `timed`, in all three
/// passes. Returns the session pass's total timed milliseconds on the
/// append path (parse + from_json + snapshot + append).
pub fn sessions(
    layers: &mut Layers,
    out: &mut Outcome,
    streams: &[Stream],
    warm: &[Append],
    timed: &[Append],
) -> Result<f64, String> {
    // Session pass.
    let mut specs: Vec<SpecSession> = streams.iter().map(|_| SpecSession::new()).collect();
    for &(s, f) in warm {
        specs[s]
            .append(&streams[s].fragments[f])
            .map_err(|e| format!("warm-up replay: {e}"))?;
    }
    let path = [
        "json.parse.ms",
        "spec.from_json.ms",
        "session.snapshot.ms",
        "session.append.ms",
    ];
    let before: f64 = path.iter().map(|n| layers.get(n)).sum();
    let started = Instant::now();
    for &(s, f) in timed {
        let line = &streams[s].lines[f];
        layers.add("json.parse.bytes", line.len() as f64);
        let request = layers
            .time("json.parse.ms", || compc::json::parse(line.trim_end()))
            .map_err(|e| format!("request line: {e}"))?;
        let fragment = layers
            .time("spec.from_json.ms", || {
                SystemSpec::from_json(request.get("append").unwrap_or(&Value::Null))
            })
            .map_err(|e| format!("request fragment: {e}"))?;
        let snapshot = layers.time("session.snapshot.ms", || specs[s].snapshot());
        drop(snapshot);
        layers
            .time("session.append.ms", || {
                specs[s].append(&fragment).map(|_| ())
            })
            .map_err(|e| format!("session replay: {e}"))?;
    }
    let timed_wall = started.elapsed().as_secs_f64();
    let on_path = path.iter().map(|n| layers.get(n)).sum::<f64>() - before;
    for (stream, session) in streams.iter().zip(&specs) {
        if let (Some(sys), Some(verdict)) = (session.system(), session.verdict()) {
            if Expect::from_verdict(sys, verdict) != stream.expect {
                out.mismatch(format!(
                    "{}: in-process SpecSession verdict differs from the expected one",
                    stream.name
                ));
            }
        }
    }
    drop(specs);

    // Decomposed pass.
    let mut state: Vec<(SystemSpec, Session)> = streams
        .iter()
        .map(|_| {
            let spec = SystemSpec {
                auto_propagate: false,
                ..SystemSpec::default()
            };
            (spec, Session::with_options(CheckOptions::default()))
        })
        .collect();
    for (index, &(s, f)) in warm.iter().chain(timed).enumerate() {
        let timing = index >= warm.len();
        let (spec, core) = &mut state[s];
        let fragment = &streams[s].fragments[f];
        let merged = step(layers, timing, "spec.merge.ms", || {
            let mut m = spec.clone();
            m.merge(fragment).map(|_| m)
        })
        .map_err(|e| format!("merge replay: {e}"))?;
        let sys = step(layers, timing, "spec.build.ms", || merged.build())
            .map_err(|e| format!("build replay: {e}"))?;
        let counters = core.stats();
        step(layers, timing, "core.session.append.ms", || {
            core.append(sys).map(|_| ())
        })
        .map_err(|e| format!("core session replay: {e}"))?;
        if timing {
            let after = core.stats();
            layers.add(
                "core.session.levels_reused",
                (after.levels_reused - counters.levels_reused) as f64,
            );
            layers.add(
                "core.session.rows_recomputed",
                (after.rows_recomputed - counters.rows_recomputed) as f64,
            );
            layers.add(
                "core.session.rows_spliced",
                (after.rows_spliced - counters.rows_spliced) as f64,
            );
        }
        *spec = merged;
    }
    for (_, core) in &state {
        if let Some(sys) = core.system() {
            layers.add("spec.nodes", sys.node_count() as f64);
        }
    }
    drop(state);

    // Bare pass.
    let mut specs: Vec<SpecSession> = streams.iter().map(|_| SpecSession::new()).collect();
    for &(s, f) in warm {
        specs[s]
            .append(&streams[s].fragments[f])
            .map_err(|e| format!("warm-up replay: {e}"))?;
    }
    let started = Instant::now();
    for &(s, f) in timed {
        let request = compc::json::parse(streams[s].lines[f].trim_end())
            .map_err(|e| format!("request line: {e}"))?;
        let fragment = SystemSpec::from_json(request.get("append").unwrap_or(&Value::Null))
            .map_err(|e| format!("request fragment: {e}"))?;
        drop(specs[s].snapshot());
        specs[s]
            .append(&fragment)
            .map_err(|e| format!("session replay: {e}"))?;
    }
    let bare_wall = started.elapsed().as_secs_f64();
    layers.set("trace.overhead", timed_wall / bare_wall.max(1e-9));
    Ok(on_path)
}

/// Runs `work`, under the `name` timer when `timing`.
fn step<T>(layers: &mut Layers, timing: bool, name: &'static str, work: impl FnOnce() -> T) -> T {
    if timing {
        layers.time(name, work)
    } else {
        work()
    }
}

/// Restores a checkpoint document the way the daemon does at start-up
/// (`session.from_checkpoint.ms` includes the document's parse).
pub fn checkpoint(layers: &mut Layers, text: &str) -> Result<HashMap<String, SpecSession>, String> {
    layers.add("json.parse.bytes", text.len() as f64);
    let restored = layers
        .time("session.from_checkpoint.ms", || {
            restore_sessions(text, CheckOptions::default())
        })
        .map_err(|e| format!("checkpoint restore: {e}"))?;
    Ok(restored.into_iter().collect())
}

/// Re-appends a journal's records through `SpecSession`, as start-up
/// replay does. `recover.replay.ms` times each record whole (parse,
/// `from_json`, append), so the request-path parse timers stay separate.
pub fn journal(
    layers: &mut Layers,
    text: &str,
    sessions: &mut HashMap<String, SpecSession>,
) -> Result<(), String> {
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        layers.add("json.parse.bytes", line.len() as f64);
        layers
            .time("recover.replay.ms", || {
                let record = compc::json::parse(line).map_err(|e| e.to_string())?;
                let fragment = SystemSpec::from_json(record.get("append").unwrap_or(&Value::Null))
                    .map_err(|e| e.to_string())?;
                let name = record
                    .get("session")
                    .and_then(Value::as_str)
                    .unwrap_or("default");
                let session = sessions.entry(name.to_string()).or_default();
                session
                    .append(&fragment)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| format!("journal replay: {e}"))?;
        layers.add("recover.records", 1.0);
    }
    Ok(())
}

/// The serve-layer counters of the measured phase: `stats` taken after
/// it, minus `stats` taken before it (for the cumulative counters).
pub fn serve_counters(
    layers: &mut Layers,
    stats: &Value,
    before: Option<&Value>,
    queue_depth_max: u64,
) {
    let get = |v: &Value, field: &str| v.get(field).and_then(Value::as_u64).unwrap_or(0) as f64;
    let delta = |field: &str| get(stats, field) - before.map_or(0.0, |b| get(b, field));
    let appends = delta("appends").max(1.0);
    let fsyncs = delta("fsyncs");
    layers.set("journal.fsyncs_per_append", fsyncs / appends);
    layers.set("journal.batch_mean", appends / fsyncs.max(1.0));
    layers.set(
        "journal.bytes_per_append",
        get(stats, "journal_bytes") / get(stats, "journal_records").max(1.0),
    );
    layers.set("dispatch.queue_depth_max", queue_depth_max as f64);
    layers.set("serve.shed", delta("shed"));
    layers.set("serve.internal_faults", delta("internal_faults"));
}
