//! Child processes under test: spawning `compc-serve` on a state
//! directory, talking NDJSON to it, and reading resource figures
//! (`VmHWM`, child `ru_maxrss`) from outside the program.

use compc::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's flush policy, unchanged by the benchmark.
pub const FLUSH_POLICY: &str =
    "journal write + fsync (sync_data) once per group commit; acks after the fsync";

/// Daemon flags a workload runs with (recorded in the environment line).
#[derive(Clone, Copy)]
pub struct DaemonFlags {
    pub commit_batch: u64,
    pub dispatch_shards: u64,
    /// `--checkpoint` and `--journal` in the state directory. Without
    /// them the daemon keeps sessions in memory only and never touches
    /// the disk.
    pub durable: bool,
}

/// A running `compc-serve` whose socket (and, when durable, checkpoint
/// and journal) live in one state directory.
pub struct Daemon {
    child: Child,
    pub socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon with its working directory set to `dir`, so the
    /// socket path stays short however deep the checkout is.
    fn spawn(bin: &Path, dir: &Path, flags: DaemonFlags) -> Result<Daemon, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("daemon.log"))
            .map_err(|e| format!("cannot open daemon log in {}: {e}", dir.display()))?;
        let durability: &[&str] = if flags.durable {
            &["--checkpoint", "state.json", "--journal", "journal.ndjson"]
        } else {
            &[]
        };
        let child = Command::new(bin)
            .current_dir(dir)
            .args(durability)
            .args([
                "--socket",
                "serve.sock",
                "--commit-batch",
                &flags.commit_batch.to_string(),
                "--dispatch-shards",
                &flags.dispatch_shards.to_string(),
                "--max-conns",
                "16",
                "--idle-timeout-ms",
                "0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        Ok(Daemon {
            child,
            socket: dir.join("serve.sock"),
        })
    }

    /// Spawns the daemon and waits until `{"op":"stats"}` answers; returns
    /// the daemon and the seconds that took (`setup_s` / `recover_s`).
    ///
    /// The daemon binds its socket once restore and replay are done, and
    /// its accept loop then polls every 15 ms. A client connecting the
    /// instant the socket appears races that loop's first poll, which
    /// makes single start-ups bimodal (about 2 or 17 ms). So the driver
    /// connects 3 ms after the socket appears, and every start-up
    /// includes the first poll period.
    pub fn start(bin: &Path, dir: &Path, flags: DaemonFlags) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut daemon = Daemon::spawn(bin, dir, flags)?;
        let deadline = started + Duration::from_secs(150);
        let mut bound = false;
        loop {
            if !bound && daemon.socket.exists() {
                bound = true;
                std::thread::sleep(Duration::from_millis(3));
            }
            if bound {
                if let Some(stats) = request_once(&daemon.socket, r#"{"op":"stats"}"#) {
                    if stats.get("ok").and_then(Value::as_bool) == Some(true) {
                        return Ok((daemon, started.elapsed().as_secs_f64()));
                    }
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if Instant::now() >= deadline {
                daemon.kill();
                return Err("daemon did not answer stats within 150 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let writer = UnixStream::connect(&self.socket)
            .map_err(|e| format!("cannot connect to {}: {e}", self.socket.display()))?;
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer,
            line: String::new(),
        })
    }

    pub fn stats(&self, session: &str) -> Result<Value, String> {
        let line = Value::Object(vec![
            ("op".into(), Value::from("stats")),
            ("session".into(), Value::from(session)),
        ])
        .to_compact();
        request_once(&self.socket, &line).ok_or_else(|| "no answer to stats".to_string())
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".to_string())
    }

    /// SIGKILL and reap: the crash every recovery measurement starts from.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: newline-terminated requests out, one JSON
/// response line per request back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    /// Sends one request line (which must end in a newline).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Reads the next response line.
    pub fn recv(&mut self) -> Result<Value, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => compc::json::parse(self.line.trim_end())
                .map_err(|e| format!("unparseable response {:?}: {e}", self.line)),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    pub fn call(&mut self, line: &str) -> Result<Value, String> {
        self.send(line)?;
        self.recv()
    }
}

/// Polls `stats` on its own connection while a workload runs and keeps
/// the largest dispatch queue depth seen (traced runs only: each poll is
/// one extra op on a shard).
pub struct QueueSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl QueueSampler {
    pub fn start(socket: &Path) -> QueueSampler {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let socket = socket.to_path_buf();
        let handle = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(Ordering::SeqCst) {
                if let Some(stats) = request_once(&socket, r#"{"op":"stats"}"#) {
                    max = max.max(
                        stats
                            .get("queue_depth")
                            .and_then(Value::as_u64)
                            .unwrap_or(0),
                    );
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            max
        });
        QueueSampler { stop, handle }
    }

    pub fn finish(self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle
            .join()
            .expect("the queue sampler does not panic")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One request on a fresh connection; `None` when the daemon does not
/// answer (yet).
pub fn request_once(socket: &Path, line: &str) -> Option<Value> {
    let mut stream = UnixStream::connect(socket).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .ok()?;
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).ok()?;
    compc::json::parse(response.trim_end()).ok()
}

/// A fresh, empty state directory.
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// Makes `to` hold exactly the checkpoint and journal files `from` holds,
/// so each restart starts from the same crashed state (a restart compacts
/// the journal into the checkpoint).
pub fn copy_state(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    for name in ["state.json", "journal.ndjson"] {
        let (src, dst) = (from.join(name), to.join(name));
        if dst.exists() {
            std::fs::remove_file(&dst)
                .map_err(|e| format!("cannot remove {}: {e}", dst.display()))?;
        }
        if src.exists() {
            std::fs::copy(&src, &dst).map_err(|e| format!("cannot copy {}: {e}", src.display()))?;
        }
    }
    Ok(())
}

/// Median of several daemon start-ups on an empty state directory.
pub fn setup_samples(
    bin: &Path,
    dir: &Path,
    flags: DaemonFlags,
    samples: usize,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        fresh_dir(dir)?;
        let (mut daemon, secs) = Daemon::start(bin, dir, flags)?;
        daemon.kill();
        out.push(secs);
    }
    Ok(out)
}

#[repr(C)]
struct RUsage {
    /// `ru_utime` and `ru_stime` (two `timeval`s), then the 14 `long`
    /// counters starting with `ru_maxrss`.
    fields: [i64; 18],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sync();
}

/// Flushes dirty page cache (the build's output, the generated inputs)
/// before timing starts, so that write-back of earlier work does not land
/// in the journal's fsyncs.
pub fn flush_page_cache() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() };
}

/// Largest peak resident set (MiB) of any child this process has reaped.
pub fn children_max_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a live, writable struct laid out as the C
    // `struct rusage` on 64-bit Linux (two 16-byte `timeval`s followed by
    // 14 `long`s), so the kernel writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.fields[4] as f64 / 1024.0
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}
