//! `fanin`: two connections pipeline appends within a bounded in-flight
//! window over 64 named sessions on two dispatch shards. Each session is
//! a small fixed system whose fragments are re-sent in a cycle after one
//! warm-up pass, so appends add no new state. A `checkpoint` op runs
//! late in connection 0's share, and the run ends with a SIGKILL and
//! restarts (checkpoint restore plus journal suffix).

use crate::gen::{self, Expect, Stream};
use crate::grow::{check_recovered, WORK_LAYERS};
use crate::proc::{self, Conn, Daemon, DaemonFlags, QueueSampler};
use crate::replay::{self, Append};
use crate::{median, percentile, Args, Outcome};
use compc::json::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::Barrier;
use std::time::Instant;

/// Measured appends per second of `--seconds` (fixed work per run, sized
/// as for `grow`).
const APPENDS_PER_SECOND: f64 = 4000.0;
const SESSIONS: usize = 64;
/// Simulator clients per session system, and its size in nodes.
const CLIENTS: usize = 3;
const SESSION_NODES: usize = 19;
/// Requests in flight per connection.
const WINDOW: usize = 16;
/// Acks per slice: `ops_per_s` and `lat_p99_ms` are medians over slices
/// of the measured phase (each slice's p99 has 20 samples beyond it).
const SLICE: usize = 2000;
/// Where in connection 0's share the `checkpoint` op runs.
const CHECKPOINT_AT: f64 = 0.85;
const SETUP_SAMPLES: usize = 25;
/// Restarts on the crashed state per run (`recover_s`).
const RECOVER_SAMPLES: usize = 3;

pub const FLAGS: DaemonFlags = DaemonFlags {
    commit_batch: 64,
    dispatch_shards: 2,
    durable: true,
};

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    attempted: u64,
    mismatches: Vec<String>,
    /// Measured acks: when each arrived, and its latency in ms.
    acks: Vec<(Instant, f64)>,
    warm: Vec<Append>,
    measured: Vec<Append>,
    started: Option<Instant>,
    finished: Option<Instant>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (sessions, appends) = if args.tiny {
        (8, 200)
    } else {
        (
            SESSIONS,
            (args.seconds * APPENDS_PER_SECOND).ceil() as usize,
        )
    };
    let mut streams = (0..sessions)
        .map(|i| {
            gen::fanin_stream(
                format!("f{i:02}"),
                gen::mix(args.seed, 20, i as u64),
                i,
                CLIENTS,
                SESSION_NODES,
            )
        })
        .collect::<Result<Vec<Stream>, String>>()?;
    if args.plant_wrong_verdict {
        streams[0].expect.correct = !streams[0].expect.correct;
    }

    let mut out = Outcome::default();
    let bin = args.bin_dir.join("compc-serve");
    let dir = args.state_dir.join("fanin");
    out.note("state_dir", dir.display().to_string());
    out.note("flush_policy", proc::FLUSH_POLICY);
    out.note("commit_batch", FLAGS.commit_batch);
    out.note("dispatch_shards", FLAGS.dispatch_shards);
    out.note("connections", 2u64);
    out.note("window_per_connection", WINDOW as u64);
    out.note("sessions", sessions as u64);
    out.note(
        "violating_sessions",
        streams.iter().filter(|s| !s.expect.correct).count() as u64,
    );
    out.note("setup_samples", SETUP_SAMPLES as u64);
    out.note("recover_samples", RECOVER_SAMPLES as u64);

    proc::flush_page_cache();
    let setups = proc::setup_samples(&bin, &dir, FLAGS, SETUP_SAMPLES)?;
    out.setup_s = median(&setups);
    proc::fresh_dir(&dir)?;
    let (mut daemon, _) = Daemon::start(&bin, &dir, FLAGS)?;
    out.note("fs_type", proc::fs_type(&dir));

    let sampler = args.trace.then(|| QueueSampler::start(&daemon.socket));
    let warmed = Barrier::new(2);
    let go = Barrier::new(2);
    let mut before = None;
    let per_conn = appends.div_ceil(2);
    let (r0, r1) = std::thread::scope(|scope| {
        let conn1 = daemon.connect();
        let other = scope.spawn(|| drive(conn1, &streams, 1, per_conn, &warmed, &go, |_| Ok(())));
        let conn0 = daemon.connect();
        let mine = drive(
            conn0,
            &streams,
            0,
            per_conn,
            &warmed,
            &go,
            |conn: &mut Conn| {
                before = Some(conn.call("{\"op\":\"stats\"}\n")?);
                Ok(())
            },
        );
        (
            mine,
            other.join().expect("connection thread does not panic"),
        )
    });
    let queue_depth_max = sampler.map_or(0, QueueSampler::finish);
    let started = r0.started.min(r1.started);
    let wall = match (started, r0.finished.max(r1.finished)) {
        (Some(started), Some(finished)) => (finished - started).as_secs_f64(),
        _ => f64::NAN,
    };
    let mut acked = Vec::new();
    let mut measured = Vec::new();
    let mut acks = Vec::new();
    for r in [r0, r1] {
        out.attempted += r.attempted;
        for what in r.mismatches {
            out.mismatch(what);
        }
        acked.extend(&r.warm);
        acked.extend(&r.measured);
        measured.extend(r.measured);
        acks.extend(r.acks);
    }
    acks.sort_by_key(|(at, _)| *at);
    let latencies: Vec<f64> = acks.iter().map(|(_, ms)| *ms).collect();
    let (mut rates, mut p99s) = (Vec::new(), Vec::new());
    let mut slice_start = started;
    for slice in acks.chunks(SLICE).filter(|c| c.len() == SLICE) {
        let end = slice[SLICE - 1].0;
        if let Some(begin) = slice_start {
            rates.push(SLICE as f64 / (end - begin).as_secs_f64());
        }
        slice_start = Some(end);
        let mut sorted: Vec<f64> = slice.iter().map(|(_, ms)| *ms).collect();
        sorted.sort_by(f64::total_cmp);
        p99s.push(percentile(&sorted, 99.0));
    }
    if rates.is_empty() {
        // Fewer acks than one slice (the self-test's tiny size).
        rates.push(measured.len() as f64 / wall);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        p99s.push(percentile(&sorted, 99.0));
    }
    out.ops_per_s = median(&rates);
    out.lat_p50_ms = median(&latencies);
    out.lat_p99_ms = median(&p99s);
    out.note("acks", measured.len() as u64);
    out.note("slices", rates.len() as u64);
    out.peak_rss_mb = daemon.peak_rss_mb()?;
    let stats = daemon.stats(&streams[0].name)?;

    daemon.kill();
    let (checkpoint_text, journal_text) = if args.trace {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
        };
        (read("state.json")?, read("journal.ndjson")?)
    } else {
        (String::new(), String::new())
    };
    // Each restart replays the same crashed state; the acked-append check
    // (which appends) runs only after the last one.
    let mut recovers = Vec::new();
    for sample in 0..RECOVER_SAMPLES {
        let (mut recovered, recover_s) = Daemon::start(&bin, &dir, FLAGS)?;
        recovers.push(recover_s);
        if sample + 1 == RECOVER_SAMPLES {
            check_recovered(&recovered, &streams, &acked, &mut out)?;
        }
        recovered.kill();
    }
    out.recover_s = median(&recovers);

    if args.trace {
        let warm: Vec<Append> = streams
            .iter()
            .enumerate()
            .flat_map(|(s, stream)| (0..stream.fragments.len()).map(move |f| (s, f)))
            .collect();
        let layers = &mut out.layers;
        replay::serve_counters(layers, &stats, before.as_ref(), queue_depth_max);
        let mut replay_out = Outcome::default();
        let on_path = replay::sessions(layers, &mut replay_out, &streams, &warm, &measured)?;
        // Pipelined latencies overlap, so the end-to-end time the layers
        // are set against is the shards' wall time, not the latency sum.
        let capacity_ms = wall * 1e3 * FLAGS.dispatch_shards as f64;
        let latency_sum: f64 = latencies.iter().sum();
        layers.set("serve.unattributed_ms", latency_sum - on_path);
        layers.set("trace.covered_share", on_path / capacity_ms);
        let mut restored = replay::checkpoint(layers, &checkpoint_text)?;
        replay::journal(layers, &journal_text, &mut restored)?;
        for what in replay_out.mismatches {
            out.mismatch(what);
        }
        // Throughput is bounded by service time; latency under a full
        // window is mostly queue wait (in serve.unattributed_ms).
        let service = out.layers.dominant(&WORK_LAYERS);
        let mut append_path = WORK_LAYERS.to_vec();
        append_path.push("serve.unattributed_ms");
        let dominant = out.layers.dominant(&append_path);
        let recover = out
            .layers
            .dominant(&["session.from_checkpoint.ms", "recover.replay.ms"]);
        out.dominant = vec![
            ("ops_per_s", service),
            ("lat_p50_ms", dominant),
            ("lat_p99_ms", dominant),
            ("recover_s", recover),
        ];
    }
    Ok(out)
}

/// One connection: a warm-up pass over its sessions' fragments, then
/// `appends` re-sends cycling over them, pipelined within `WINDOW`.
/// Connection `c` owns the sessions whose index is `c` modulo 2.
/// `at_barrier` runs on this connection between the two barriers (the
/// pre-phase `stats` snapshot).
fn drive(
    conn: Result<Conn, String>,
    streams: &[Stream],
    c: usize,
    appends: usize,
    warmed: &Barrier,
    go: &Barrier,
    at_barrier: impl FnOnce(&mut Conn) -> Result<(), String>,
) -> ConnResult {
    let owned: Vec<usize> = (c..streams.len()).step_by(2).collect();
    let mut result = ConnResult::default();
    let mut pipe = Pipe::default();
    // Errors (refusals, a dead daemon) are recorded as failures; both
    // connections still meet at both barriers so neither waits forever.
    let mut conn = conn;
    let mut status = conn.as_mut().map(|_| ()).map_err(|e| e.clone());
    if let Ok(conn) = conn.as_mut() {
        status = (|| {
            for s in owned.iter().copied() {
                for f in 0..streams[s].fragments.len() {
                    pipe.send(conn, streams, (s, f), &mut result, false)?;
                }
            }
            pipe.drain(conn, streams, &mut result, false)
        })();
    }
    warmed.wait();
    if let (Ok(()), Ok(conn)) = (&status, conn.as_mut()) {
        status = at_barrier(conn);
    }
    go.wait();
    if let (Ok(()), Ok(conn)) = (&status, conn.as_mut()) {
        result.started = Some(Instant::now());
        let checkpoint_at = if c == 0 {
            (appends as f64 * CHECKPOINT_AT) as usize
        } else {
            usize::MAX
        };
        status = (|| {
            for j in 0..appends {
                if j == checkpoint_at {
                    pipe.drain(conn, streams, &mut result, true)?;
                    let response = conn.call("{\"op\":\"checkpoint\"}\n")?;
                    if response.get("saved").and_then(Value::as_bool) != Some(true) {
                        return Err(format!("checkpoint op failed: {}", response.to_compact()));
                    }
                }
                let s = owned[j % owned.len()];
                let f = (j / owned.len()) % streams[s].fragments.len();
                pipe.send(conn, streams, (s, f), &mut result, true)?;
            }
            pipe.drain(conn, streams, &mut result, true)
        })();
        result.finished = Some(Instant::now());
    }
    if let Err(e) = status {
        result.attempted += 1;
        result.mismatches.push(format!("connection {c}: {e}"));
    }
    result
}

/// In-flight requests of one connection, matched to responses per
/// session (a session's responses come back in order; different shards'
/// responses may interleave).
#[derive(Default)]
struct Pipe {
    in_flight: usize,
    pending: HashMap<String, VecDeque<(Append, Instant)>>,
}

impl Pipe {
    fn send(
        &mut self,
        conn: &mut Conn,
        streams: &[Stream],
        append: Append,
        result: &mut ConnResult,
        measured: bool,
    ) -> Result<(), String> {
        while self.in_flight >= WINDOW {
            self.receive(conn, streams, result, measured)?;
        }
        let stream = &streams[append.0];
        result.attempted += 1;
        self.pending
            .entry(stream.name.clone())
            .or_default()
            .push_back((append, Instant::now()));
        conn.send(&stream.lines[append.1])?;
        self.in_flight += 1;
        Ok(())
    }

    fn drain(
        &mut self,
        conn: &mut Conn,
        streams: &[Stream],
        result: &mut ConnResult,
        measured: bool,
    ) -> Result<(), String> {
        while self.in_flight > 0 {
            self.receive(conn, streams, result, measured)?;
        }
        Ok(())
    }

    fn receive(
        &mut self,
        conn: &mut Conn,
        streams: &[Stream],
        result: &mut ConnResult,
        measured: bool,
    ) -> Result<(), String> {
        let response = conn.recv()?;
        self.in_flight -= 1;
        let ok = response.get("ok").and_then(Value::as_bool) == Some(true);
        let Some(((s, f), sent)) = response
            .get("session")
            .and_then(Value::as_str)
            .and_then(|name| self.pending.get_mut(name))
            .and_then(VecDeque::pop_front)
            .filter(|_| ok)
        else {
            return Err(format!(
                "refused or unmatched response: {}",
                response.to_compact()
            ));
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let stream = &streams[s];
        // After its warm-up pass a session holds its whole system, so every
        // later verdict (and the warm-up's last) is the full system's.
        let complete = measured || f + 1 == stream.fragments.len();
        if complete && Expect::from_response(&response).as_ref() != Some(&stream.expect) {
            result.mismatches.push(format!(
                "{}: verdict {} is not the from-scratch check's {:?}",
                stream.name,
                response.to_compact(),
                stream.expect
            ));
        }
        if measured {
            result.acks.push((Instant::now(), ms));
            result.measured.push((s, f));
        } else {
            result.warm.push((s, f));
        }
        Ok(())
    }
}
