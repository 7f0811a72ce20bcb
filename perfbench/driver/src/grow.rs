//! `grow`: one connection, closed loop, one request in flight. Sessions
//! grow one after another by streaming Timestamp-ordering simulator
//! exports root by root, so every append adds nodes. The run streams all
//! its sessions once, untimed, into a journaled daemon and SIGKILLs it.
//! Then it alternates timed passes, each streaming all sessions into a
//! fresh in-memory daemon, with timed restarts from that crashed state,
//! each replaying the whole journal.

use crate::gen::{self, Expect, Stream};
use crate::proc::{self, Daemon, DaemonFlags, QueueSampler};
use crate::replay::{self, Append};
use crate::{median, percentile, Args, Outcome};
use compc::json::Value;
use compc::session::sessions_checkpoint_json;
use std::collections::HashMap;
use std::time::Instant;

/// Timed restarts per run; there is one timed pass more, so passes come
/// before, between and after them.
const RESTARTS: usize = 4;
/// Sessions per second of `--seconds` (48 at the default 15, about 1 200
/// appends). The work is fixed per (seed, seconds), sized so the timed
/// passes take about `--seconds` on a 2-core host at the commit the
/// benchmark was defined on; a faster program finishes sooner on
/// identical inputs. A fixed session count (rather than an append count)
/// keeps the daemon's memory alike across seeds.
const SESSIONS_PER_SECOND: f64 = 3.2;
/// Distinct appends per run, at least, so the run's p99 has ten samples
/// beyond it (sessions are added until there are).
const MIN_ACKS: usize = 1000;
/// Nodes each session grows to, and the simulator clients it is cut from.
const TARGET_NODES: usize = 160;
const CLIENTS: usize = 40;
/// Daemon start-ups on an empty state directory per run (`setup_s`).
const SETUP_SAMPLES: usize = 25;
/// Sessions whose checkpoint the traced run restores in-process.
const CHECKPOINTED: usize = 4;

/// The journaled daemon that is crashed and restarted (and whose start-up
/// on an empty state directory is `setup_s`).
pub const FLAGS: DaemonFlags = DaemonFlags {
    commit_batch: 64,
    dispatch_shards: 1,
    durable: true,
};
/// The daemon the appends are timed on: the same, without checkpoint or
/// journal.
const TIMED_FLAGS: DaemonFlags = DaemonFlags {
    durable: false,
    ..FLAGS
};

/// The layers an append's service time splits into (request parse on the
/// reader thread, then the dispatch shard's snapshot and the three steps
/// of `SpecSession::append`).
pub const WORK_LAYERS: [&str; 6] = [
    "json.parse.ms",
    "spec.from_json.ms",
    "session.snapshot.ms",
    "spec.merge.ms",
    "spec.build.ms",
    "core.session.append.ms",
];

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (restarts, sessions, min_acks, target, clients) = if args.tiny {
        (1, 2, 0, 40, 8)
    } else {
        let sessions = (args.seconds * SESSIONS_PER_SECOND).ceil() as usize;
        (RESTARTS, sessions, MIN_ACKS, TARGET_NODES, CLIENTS)
    };
    let mut streams: Vec<Stream> = Vec::new();
    let mut appends = 0;
    while streams.len() < sessions || appends < min_acks {
        let i = streams.len();
        let stream = gen::grow_stream(
            format!("g{i:03}"),
            gen::mix(args.seed, 10, i as u64),
            clients,
            target,
        )?;
        if !stream.expect.correct {
            return Err(format!("{}: generated session is not Comp-C", stream.name));
        }
        appends += stream.lines.len();
        streams.push(stream);
    }
    if args.plant_wrong_verdict {
        streams[0].expect.correct = false;
    }

    let mut out = Outcome::default();
    let bin = args.bin_dir.join("compc-serve");
    let dir = args.state_dir.join("grow");
    out.note("state_dir", dir.display().to_string());
    out.note("flush_policy", proc::FLUSH_POLICY);
    out.note(
        "timed_daemon",
        "in memory (no --checkpoint/--journal); a journaled daemon gets the same appends untimed, then the crash",
    );
    out.note("commit_batch", FLAGS.commit_batch);
    out.note("dispatch_shards", FLAGS.dispatch_shards);
    out.note("connections", 1u64);
    out.note("restarts", restarts as u64);
    out.note("timed_passes", restarts as u64 + 1);
    out.note("sessions", streams.len() as u64);
    out.note("session_nodes", target as u64);
    out.note("setup_samples", SETUP_SAMPLES as u64);

    proc::flush_page_cache();
    let setups = proc::setup_samples(&bin, &dir, FLAGS, SETUP_SAMPLES)?;
    out.setup_s = median(&setups);
    out.note("fs_type", proc::fs_type(&dir));

    // Untimed, all sessions into a journaled daemon, which then crashes.
    // Every restart below starts from a copy of that crashed state.
    let crashed = args.state_dir.join("grow-crashed");
    proc::fresh_dir(&dir)?;
    let (mut daemon, _) = Daemon::start(&bin, &dir, FLAGS)?;
    let fed = stream(&daemon, &streams, &mut out)?;
    let stats = daemon.stats(&streams[0].name)?;
    daemon.kill();
    proc::copy_state(&dir, &crashed)?;
    let acked = fed.acked;

    // Timed passes, each over all sessions on a fresh daemon that keeps
    // them in memory only: the figures are the append path's, not the
    // fsync latency of a disk other tenants share. An append's latency,
    // and a session's time, is the best of its passes; likewise
    // `recover_s` is the fastest restart. Passes and restarts alternate
    // over the whole run, so a burst of load from other tenants of the
    // host has to hit every one of them to show.
    let mut recovers = Vec::new();
    let mut rss = Vec::new();
    let mut pass_ms = Vec::new();
    let mut queue_depth_max = 0;
    let mut best_ms: HashMap<Append, f64> = HashMap::new();
    let mut best_secs: HashMap<usize, f64> = HashMap::new();
    for pass in 0..=restarts {
        proc::fresh_dir(&dir)?;
        let (mut daemon, _) = Daemon::start(&bin, &dir, TIMED_FLAGS)?;
        let sampler = (args.trace && pass == 0).then(|| QueueSampler::start(&daemon.socket));
        let timed = stream(&daemon, &streams, &mut out)?;
        queue_depth_max = queue_depth_max.max(sampler.map_or(0, QueueSampler::finish));
        rss.push(daemon.peak_rss_mb()?);
        daemon.kill();
        pass_ms.push(timed.latencies.iter().sum::<f64>());
        for (append, ms) in timed.acked.into_iter().zip(timed.latencies) {
            let best = best_ms.entry(append).or_insert(ms);
            *best = best.min(ms);
        }
        for (s, secs) in timed.session_secs {
            let best = best_secs.entry(s).or_insert(secs);
            *best = best.min(secs);
        }
        if pass == restarts {
            break;
        }
        proc::copy_state(&crashed, &dir)?;
        let (mut recovered, recover_s) = Daemon::start(&bin, &dir, FLAGS)?;
        recovers.push(recover_s);
        if pass + 1 == restarts {
            check_recovered(&recovered, &streams, &acked, &mut out)?;
        }
        recovered.kill();
    }
    let latencies: Vec<f64> = best_ms.into_values().collect();
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    out.ops_per_s = acked.len() as f64 / best_secs.values().sum::<f64>();
    out.lat_p50_ms = median(&latencies);
    out.lat_p99_ms = percentile(&sorted, 99.0);
    out.recover_s = recovers.iter().copied().fold(f64::INFINITY, f64::min);
    out.peak_rss_mb = median(&rss);
    out.note("acks", acked.len() as u64);

    if args.trace {
        let layers = &mut out.layers;
        replay::serve_counters(layers, &stats, None, queue_depth_max);
        let mut replay_out = Outcome::default();
        let on_path = replay::sessions(layers, &mut replay_out, &streams, &[], &acked)?;
        // The in-process replay is one pass, so it is set against the
        // median pass's latency sum (not the sum of best latencies).
        let latency_sum = median(&pass_ms);
        layers.set("serve.unattributed_ms", latency_sum - on_path);
        layers.set("trace.covered_share", on_path / latency_sum.max(1e-9));
        let journal = std::fs::read_to_string(crashed.join("journal.ndjson"))
            .map_err(|e| format!("cannot read the journal: {e}"))?;
        let mut sessions = HashMap::new();
        replay::journal(layers, &journal, &mut sessions)?;
        // grow never checkpoints; restoring a checkpoint of its first few
        // sessions keeps the restore layer measured (the document's parse
        // is quadratic in its size, so not all of them).
        let first = sessions
            .iter()
            .filter(|(name, _)| streams.iter().take(CHECKPOINTED).any(|s| &s.name == *name))
            .map(|(name, s)| (name.clone(), s.stats().appends, s.spec().to_json()))
            .collect();
        replay::checkpoint(layers, &sessions_checkpoint_json(first))?;
        for what in replay_out.mismatches {
            out.mismatch(what);
        }
        let mut append_path = WORK_LAYERS.to_vec();
        append_path.push("serve.unattributed_ms");
        let dominant = out.layers.dominant(&append_path);
        out.dominant = vec![
            ("ops_per_s", dominant),
            ("lat_p50_ms", dominant),
            ("lat_p99_ms", dominant),
            ("recover_s", "recover.replay.ms"),
        ];
    }
    Ok(out)
}

/// What streaming sessions over one connection gave.
struct Streamed {
    /// Ack latency of each acked append, in ms.
    latencies: Vec<f64>,
    /// The acked appends, in the order of `latencies`.
    acked: Vec<Append>,
    /// Seconds each session took, from its first send to its last ack.
    session_secs: Vec<(usize, f64)>,
}

/// Streams all sessions one after another over one connection, one
/// request in flight, and checks each session's final verdict.
fn stream(daemon: &Daemon, streams: &[Stream], out: &mut Outcome) -> Result<Streamed, String> {
    let mut conn = daemon.connect()?;
    let mut done = Streamed {
        latencies: Vec::new(),
        acked: Vec::new(),
        session_secs: Vec::new(),
    };
    for (s, stream) in streams.iter().enumerate() {
        let started = Instant::now();
        let mut last = None;
        for (f, line) in stream.lines.iter().enumerate() {
            out.attempted += 1;
            let sent = Instant::now();
            let response = conn.call(line)?;
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            if response.get("ok").and_then(Value::as_bool) == Some(true) {
                done.latencies.push(ms);
                done.acked.push((s, f));
                last = Some(response);
            } else {
                out.mismatch(format!(
                    "{}: append refused: {}",
                    stream.name,
                    response.to_compact()
                ));
            }
        }
        done.session_secs.push((s, started.elapsed().as_secs_f64()));
        let got = last.as_ref().and_then(Expect::from_response);
        if got.as_ref() != Some(&stream.expect) {
            out.mismatch(format!(
                "{}: final verdict {got:?} is not the from-scratch check's {:?}",
                stream.name, stream.expect
            ));
        }
    }
    Ok(done)
}

/// After the restart every acked append must be present: re-sending each
/// session's last acked fragment (an idempotent merge) must count one
/// more append than were acked and, for a complete session, answer with
/// its full node count and expected verdict.
pub fn check_recovered(
    daemon: &Daemon,
    streams: &[Stream],
    acked: &[Append],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut last_acked: HashMap<usize, usize> = HashMap::new();
    let mut count: HashMap<usize, u64> = HashMap::new();
    for &(s, f) in acked {
        let entry = last_acked.entry(s).or_insert(f);
        *entry = (*entry).max(f);
        *count.entry(s).or_insert(0) += 1;
    }
    let mut conn = daemon.connect()?;
    let mut ordered: Vec<_> = last_acked.into_iter().collect();
    ordered.sort_unstable();
    for (s, f) in ordered {
        let stream = &streams[s];
        out.attempted += 1;
        let response = conn.call(&stream.lines[f])?;
        let appends = response.get("appends").and_then(Value::as_u64);
        let complete = f + 1 == stream.lines.len();
        let got = Expect::from_response(&response);
        if appends != Some(count[&s] + 1) || (complete && got.as_ref() != Some(&stream.expect)) {
            out.mismatch(format!(
                "{}: after the restart the session answers {} (expected {} acked appends, verdict {:?})",
                stream.name,
                response.to_compact(),
                count[&s],
                stream.expect
            ));
        }
    }
    Ok(())
}
