//! `compc-perfbench` — the repository benchmark's load generator, output
//! checker and layer tracer. `perfbench/run.py` builds the program under
//! test and this driver, then runs:
//!
//! ```text
//! compc-perfbench --workload grow|fanin|batch --seed N --seconds S --trace 0|1
//!                 --bin-dir DIR --state-dir DIR --source-root DIR
//!                 [--tiny] [--plant-wrong-verdict]
//! ```
//!
//! `--trace 0` drives the shipped binaries (`compc-serve`, `compc-check`)
//! and prints the end-to-end metrics; `--trace 1` runs the same workload,
//! then replays its exact inputs in-process with a timer around each call
//! into a layer and prints the per-layer metrics. Either way the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; an `{"env": ...}` line before it records the host and
//! settings. A wrong verdict, a refused append or a lost acked append
//! fails the run: it prints `"correct": false` with no metrics and exits 1.
//!
//! `--tiny` shrinks every workload for the benchmark's self-test, and
//! `--plant-wrong-verdict` flips one expected verdict to show that the
//! output check trips.

mod batch;
mod fanin;
mod gen;
mod grow;
mod layers;
mod proc;
mod replay;

use compc::json::Value;
use layers::{Layers, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics with their units, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MiB"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub state_dir: PathBuf,
    pub source_root: PathBuf,
    pub tiny: bool,
    pub plant_wrong_verdict: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs (verdicts, lost appends, labels); any entry fails
    /// the run.
    pub mismatches: Vec<String>,
    pub ops_per_s: f64,
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    pub setup_s: f64,
    pub recover_s: f64,
    pub peak_rss_mb: f64,
    pub layers: Layers,
    /// Which layer metric dominates each end-to-end figure (traced run).
    pub dominant: Vec<(&'static str, &'static str)>,
    /// Run facts for the environment line (settings, sample counts).
    pub env: Vec<(String, Value)>,
}

impl Outcome {
    /// Records a wrong output; the first few are kept for the report.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 8 {
            eprintln!("mismatch: {what}");
            self.mismatches.push(what);
        }
    }

    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.env.push((key.to_string(), value.into()));
    }
}

const USAGE: &str = "usage: compc-perfbench --workload grow|fanin|batch --seed N --seconds S \
--trace 0|1 --bin-dir DIR --state-dir DIR --source-root DIR [--tiny] [--plant-wrong-verdict]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        bin_dir: PathBuf::new(),
        state_dir: PathBuf::new(),
        source_root: PathBuf::from("."),
        tiny: false,
        plant_wrong_verdict: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            // Absolute, because the daemon is started inside its state
            // directory.
            "--bin-dir" => {
                let dir = value()?;
                args.bin_dir =
                    std::fs::canonicalize(&dir).map_err(|e| format!("--bin-dir {dir}: {e}"))?;
            }
            "--state-dir" => args.state_dir = PathBuf::from(value()?),
            "--source-root" => args.source_root = PathBuf::from(value()?),
            "--tiny" => args.tiny = true,
            "--plant-wrong-verdict" => args.plant_wrong_verdict = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !matches!(args.workload.as_str(), "grow" | "fanin" | "batch") {
        return Err("--workload must be grow, fanin or batch".into());
    }
    if args.seconds <= 0.0 || args.bin_dir.as_os_str().is_empty() {
        return Err("--seconds and --bin-dir are required".into());
    }
    if args.state_dir.as_os_str().is_empty() {
        return Err("--state-dir is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu_before = cpu_ticks();
    let result = match args.workload.as_str() {
        "grow" => grow::run(&args),
        "fanin" => fanin::run(&args),
        _ => batch::run(&args),
    };
    let cpu_after = cpu_ticks();
    let _ = std::fs::remove_dir_all(&args.state_dir);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("compc-perfbench {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    // Time the hypervisor gave other guests while this run wanted the CPU:
    // on a shared host it explains most run-to-run drift.
    let total: u64 = cpu_after.iter().zip(&cpu_before).map(|(a, b)| a - b).sum();
    if let (Some(after), Some(before)) = (cpu_after.get(7), cpu_before.get(7)) {
        let steal = 100.0 * (after - before) as f64 / total.max(1) as f64;
        outcome.note("cpu_steal_pct", (steal * 10.0).round() / 10.0);
    }
    println!("{}", env_line(&args, &outcome).to_compact());
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    let mut metrics = Vec::new();
    if correct {
        if args.trace {
            for (name, unit) in PER_LAYER {
                metrics.push(metric(name, outcome.layers.get(name), unit));
            }
        } else {
            let values = [
                outcome.ops_per_s,
                outcome.lat_p50_ms,
                outcome.lat_p99_ms,
                outcome.setup_s,
                outcome.recover_s,
                outcome.peak_rss_mb,
            ];
            for ((name, unit), value) in END_TO_END.iter().zip(values) {
                metrics.push(metric(name, value, unit));
            }
        }
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::from(correct)),
        ("attempted".into(), Value::from(outcome.attempted.max(1))),
        ("failed".into(), Value::from(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    (
        name.to_string(),
        Value::Object(vec![
            ("value".into(), Value::from(value)),
            ("unit".into(), Value::from(unit)),
        ]),
    )
}

/// The environment line: enough to tell a changed host or setting from a
/// regression.
fn env_line(args: &Args, outcome: &Outcome) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields: Vec<(String, Value)> = vec![
        ("workload".into(), Value::from(args.workload.as_str())),
        ("seed".into(), Value::from(args.seed)),
        ("seconds".into(), Value::from(args.seconds)),
        ("trace".into(), Value::from(args.trace)),
        ("nproc".into(), Value::from(nproc)),
        ("cpu".into(), Value::from(cpu_model())),
        ("git_rev".into(), Value::from(git_rev(&args.source_root))),
        (
            "source_digest".into(),
            Value::from(source_digest(&args.source_root)),
        ),
    ];
    fields.extend(outcome.env.iter().cloned());
    if !outcome.dominant.is_empty() {
        fields.push((
            "dominant_layer".into(),
            Value::Object(
                outcome
                    .dominant
                    .iter()
                    .map(|(e2e, layer)| (e2e.to_string(), Value::from(*layer)))
                    .collect(),
            ),
        ));
    }
    if !outcome.mismatches.is_empty() {
        fields.push(("mismatches".into(), Value::from(outcome.mismatches.clone())));
    }
    Value::Object(vec![("env".into(), Value::Object(fields))])
}

/// The aggregate `cpu` line of `/proc/stat` (user, nice, system, idle,
/// iowait, irq, softirq, steal, ...), in clock ticks.
fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines().next().map(|line| {
                line.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision, when the sources are a git checkout.
fn git_rev(root: &std::path::Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".into())
}

/// FNV-1a over the program's sources (root manifests, `src/`, `crates/`,
/// `vendor/`), so a result names the code it measured even without git.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let bytes = std::fs::read(&file).unwrap_or_default();
        for byte in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
