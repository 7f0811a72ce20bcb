//! `batch`: `compc-check --jobs 2` over a seeded directory spanning the
//! three closure routing bands — under 64 nodes (sparse), 64–4 095
//! (dense) and 4 096 or more (compressed). Half the systems are Comp-C
//! (simulator exports; a conflict-free stack in the compressed band),
//! half are violating random systems. No serve path: JSON parsing,
//! `build`, the reduction and the closure backends do all the work.

use crate::gen;
use crate::layers::Layers;
use crate::proc;
use crate::{median, percentile, Args, Outcome};
use compc::core::CheckOptions;
use compc::engine::{Batch, BatchItem};
use compc::sim::Protocol;
use compc::spec::SystemSpec;
use compc::trace::TraceEvent;
use compc::workload::random::{GenParams, Shape};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const JOBS: usize = 2;
/// Directory passes per second of `--seconds` (fixed work per run, sized
/// as for `grow`).
const PASSES_PER_SECOND: f64 = 0.3;
/// Single-system start-ups before each pass (`setup_s` is their median).
const SETUP_SAMPLES_PER_PASS: usize = 5;

/// Items per band (each count is split evenly between Comp-C and
/// violating systems).
struct Sizing {
    sparse: usize,
    dense: usize,
    compressed: usize,
    dense_clients: usize,
    stack_roots: usize,
}

const FULL: Sizing = Sizing {
    sparse: 160,
    dense: 16,
    compressed: 2,
    dense_clients: 30,
    stack_roots: 620,
};
const TINY: Sizing = Sizing {
    sparse: 4,
    dense: 2,
    compressed: 0,
    dense_clients: 10,
    stack_roots: 0,
};

/// JSON sizes of the two compressed-band items (±1%). Their parse, which
/// is quadratic in bytes today, is most of a pass, so the seed changes
/// their content but not their size.
const COMPRESSED_CORRECT_BYTES: usize = 272_000;
const COMPRESSED_VIOLATING_BYTES: usize = 302_000;

struct Item {
    file: PathBuf,
    band: &'static str,
    correct: bool,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let sizing = if args.tiny { TINY } else { FULL };
    let root = args.state_dir.join("batch");
    let corpus = root.join("corpus");
    proc::fresh_dir(&corpus)?;
    let mut items = write_corpus(&corpus, &sizing, args.seed)?;
    if args.plant_wrong_verdict {
        items[0].correct = !items[0].correct;
    }
    let expected: BTreeMap<String, bool> = items
        .iter()
        .map(|it| (it.file.display().to_string(), it.correct))
        .collect();

    let mut out = Outcome::default();
    let bin = args.bin_dir.join("compc-check");
    out.note("state_dir", root.display().to_string());
    out.note("fs_type", proc::fs_type(&root));
    out.note("jobs", JOBS as u64);
    for band in ["sparse", "dense", "compressed"] {
        let n = items.iter().filter(|it| it.band == band).count();
        out.note(&format!("items_{band}"), n as u64);
    }
    out.note(
        "flush_policy",
        "none (compc-check writes no state without --checkpoint)",
    );

    proc::flush_page_cache();
    // Set-up: a start on a one-system directory, several times.
    let single = root.join("single");
    proc::fresh_dir(&single)?;
    let smallest = items
        .iter()
        .filter_map(|it| Some((std::fs::metadata(&it.file).ok()?.len(), &it.file)))
        .min()
        .ok_or("empty corpus")?
        .1;
    std::fs::copy(smallest, single.join("one.json"))
        .map_err(|e| format!("cannot copy a spec: {e}"))?;
    let passes = if args.tiny {
        1
    } else {
        ((args.seconds * PASSES_PER_SECOND).ceil() as usize).max(2)
    };

    // Recovery: record a whole pass in a checkpoint; the restarts below
    // read it and find nothing left to check.
    let cp = root.join("checkpoint.txt");
    let cp_arg = cp.display().to_string();
    let (_, stdout, code) = check(&bin, &corpus, &["--checkpoint", &cp_arg])?;
    verify(&stdout, code, &expected, &mut out);

    // Start-ups, a pass and a restart, in turn: each figure's samples are
    // spread over the whole run, so a slow stretch of the shared host has
    // to cover all of them to move `recover_s`, the fastest restart, and
    // most of them to move `setup_s`, the median start-up.
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut recovers = Vec::new();
    for _ in 0..passes {
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            let (secs, _, code) = check(&bin, &single, &[])?;
            if code == Some(2) {
                return Err("compc-check failed on a single valid system".into());
            }
            setups.push(secs);
        }
        let (secs, stdout, code) = check(&bin, &corpus, &[])?;
        out.attempted += items.len() as u64;
        verify(&stdout, code, &expected, &mut out);
        walls.push(secs);

        let (secs, stdout, code) = check(&bin, &corpus, &["--checkpoint", &cp_arg])?;
        out.attempted += 1;
        if !stdout.contains("nothing left to check") || code == Some(2) {
            out.mismatch(format!("restart on a full checkpoint answered {stdout:?}"));
        }
        recovers.push(secs);
    }
    out.setup_s = median(&setups);
    out.note("setup_samples", setups.len() as u64);
    let rates: Vec<f64> = walls.iter().map(|w| items.len() as f64 / w).collect();
    out.ops_per_s = median(&rates);
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    out.lat_p50_ms = percentile(&sorted, 50.0) * 1e3;
    out.lat_p99_ms = percentile(&sorted, 99.0) * 1e3;
    out.note("passes", passes as u64);
    out.recover_s = recovers.iter().copied().fold(f64::INFINITY, f64::min);
    out.note("recover_samples", recovers.len() as u64);
    out.peak_rss_mb = proc::children_max_rss_mb();

    if args.trace {
        let files: Vec<PathBuf> = expected.keys().map(PathBuf::from).collect();
        let layers = &mut out.layers;
        let started = Instant::now();
        let (systems, on_path) = load(layers, &files)?;
        let report = Batch::with_options(CheckOptions::default())
            .workers(JOBS)
            .tracing(true)
            .check_all(systems);
        let timed_wall = started.elapsed().as_secs_f64();
        let mut wrong = Vec::new();
        layers.set("engine.wall_ms", report.stats.wall.as_secs_f64() * 1e3);
        layers.set("engine.busy_ms", report.stats.busy.as_secs_f64() * 1e3);
        layers.set("engine.utilization", report.stats.utilization());
        for o in &report.outcomes {
            let ms = o.elapsed.as_secs_f64() * 1e3;
            layers.add("core.check.ms", ms);
            let counts = [
                ("core.check.sparse.ms", o.sparse_closures),
                ("core.check.dense.ms", o.dense_closures),
                ("core.check.compressed.ms", o.compressed_closures),
            ];
            let closures: u64 = counts.iter().map(|(_, n)| n).sum();
            for (name, n) in counts {
                if closures > 0 {
                    layers.add(name, ms * n as f64 / closures as f64);
                }
            }
            for event in &o.events {
                if let TraceEvent::Level { elapsed_ns, .. } = event {
                    layers.add("core.level.ms", *elapsed_ns as f64 / 1e6);
                }
            }
            let want = expected.get(&o.label).copied();
            if o.verdict().map(|v| v.is_correct()) != want {
                wrong.push(format!(
                    "{}: in-process verdict differs from the expected {want:?}",
                    o.label
                ));
            }
        }
        let wall_ms = median(&walls) * 1e3;
        layers.set(
            "trace.covered_share",
            (on_path + layers.get("engine.wall_ms")) / wall_ms,
        );

        // Bare pass: the same load, and the check without the engine's
        // per-level tracing; its wall time is the base of trace.overhead.
        let started = Instant::now();
        let mut bare = Layers::default();
        let (systems, _) = load(&mut bare, &files)?;
        let _ = Batch::with_options(CheckOptions::default())
            .workers(JOBS)
            .check_all(systems);
        let bare_wall = started.elapsed().as_secs_f64();
        layers.set("trace.overhead", timed_wall / bare_wall);

        for what in wrong {
            out.mismatch(what);
        }
        let layers = &out.layers;
        let throughput = layers.dominant(&[
            "json.parse.ms",
            "spec.from_json.ms",
            "spec.build.ms",
            "engine.wall_ms",
        ]);
        let backend = layers.dominant(&[
            "core.check.sparse.ms",
            "core.check.dense.ms",
            "core.check.compressed.ms",
        ]);
        out.dominant = vec![
            ("ops_per_s", throughput),
            ("lat_p50_ms", throughput),
            ("lat_p99_ms", throughput),
            ("recover_s", "json.parse.ms"),
            ("peak_rss_mb", backend),
        ];
    }
    Ok(out)
}

/// Reads, parses and builds every file as `compc-check`'s serial load
/// phase does. Returns the systems and the load's timed milliseconds.
fn load(layers: &mut Layers, files: &[PathBuf]) -> Result<(Vec<BatchItem>, f64), String> {
    let mut systems = Vec::with_capacity(files.len());
    let before =
        layers.get("json.parse.ms") + layers.get("spec.from_json.ms") + layers.get("spec.build.ms");
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        layers.add("json.parse.bytes", text.len() as f64);
        let value = layers
            .time("json.parse.ms", || compc::json::parse(&text))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let spec = layers
            .time("spec.from_json.ms", || SystemSpec::from_json(&value))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let sys = layers
            .time("spec.build.ms", || spec.build())
            .map_err(|e| format!("{}: {e}", file.display()))?;
        layers.add("spec.nodes", sys.node_count() as f64);
        systems.push(BatchItem::new(file.display().to_string(), sys));
    }
    let after =
        layers.get("json.parse.ms") + layers.get("spec.from_json.ms") + layers.get("spec.build.ms");
    Ok((systems, after - before))
}

/// Runs `compc-check DIR --jobs 2 [extra]`; returns its wall seconds,
/// stdout and exit code.
fn check(bin: &Path, dir: &Path, extra: &[&str]) -> Result<(f64, String, Option<i32>), String> {
    let started = Instant::now();
    let output = Command::new(bin)
        .arg(dir)
        .args(["--jobs", &JOBS.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let secs = started.elapsed().as_secs_f64();
    Ok((
        secs,
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.code(),
    ))
}

/// Every label must be reported once with the expected verdict, and the
/// exit code must say "some system is not Comp-C" (1) or "all are" (0).
fn verify(stdout: &str, code: Option<i32>, expected: &BTreeMap<String, bool>, out: &mut Outcome) {
    let mut seen: BTreeMap<&str, bool> = BTreeMap::new();
    for line in stdout.lines() {
        let verdict = if let Some(label) = line.strip_suffix(": Comp-C") {
            Some((label, true))
        } else {
            line.split_once(": NOT Comp-C")
                .map(|(label, _)| (label, false))
        };
        if let Some((label, correct)) = verdict {
            seen.insert(label, correct);
        }
    }
    for (label, want) in expected {
        match seen.get(label.as_str()) {
            Some(got) if got == want => {}
            got => out.mismatch(format!(
                "{label}: compc-check said {got:?}, expected {want}"
            )),
        }
    }
    let want_code = if expected.values().all(|c| *c) { 0 } else { 1 };
    if code != Some(want_code) {
        out.mismatch(format!("compc-check exited {code:?}, expected {want_code}"));
    }
}

/// Writes the seeded corpus (shuffled so the bands interleave on the
/// pool) and returns each file with its expected verdict.
fn write_corpus(dir: &Path, sizing: &Sizing, seed: u64) -> Result<Vec<Item>, String> {
    let mut specs: Vec<(&'static str, SystemSpec)> = Vec::new();
    for i in 0..sizing.sparse / 2 {
        let s = gen::mix(seed, 30, i as u64);
        specs.push((
            "sparse",
            SystemSpec::from_system(&gen::sim_export(4, Protocol::Timestamp, s)?),
        ));
        specs.push((
            "sparse",
            gen::violating(
                GenParams {
                    roots: 5,
                    conflict_density: 0.5,
                    seed: s,
                    ..GenParams::default()
                },
                None,
            )?,
        ));
    }
    for i in 0..sizing.dense / 2 {
        let s = gen::mix(seed, 31, i as u64);
        specs.push((
            "dense",
            SystemSpec::from_system(&gen::sim_export(
                sizing.dense_clients,
                Protocol::Timestamp,
                s,
            )?),
        ));
        specs.push((
            "dense",
            gen::violating(
                GenParams {
                    roots: 40,
                    conflict_density: 0.3,
                    seed: s,
                    ..GenParams::default()
                },
                None,
            )?,
        ));
    }
    for i in 0..sizing.compressed / 2 {
        let s = gen::mix(seed, 32, i as u64);
        specs.push((
            "compressed",
            gen::conflict_free_stack(sizing.stack_roots, s, COMPRESSED_CORRECT_BYTES)?,
        ));
        specs.push((
            "compressed",
            gen::violating(
                GenParams {
                    shape: Shape::Stack { depth: 2 },
                    roots: sizing.stack_roots,
                    conflict_density: 0.0002,
                    seed: s,
                    ..GenParams::default()
                },
                Some(COMPRESSED_VIOLATING_BYTES),
            )?,
        ));
    }
    // Seeded Fisher–Yates shuffle.
    for i in (1..specs.len()).rev() {
        let j = (gen::mix(seed, 33, i as u64) % (i as u64 + 1)) as usize;
        specs.swap(i, j);
    }
    let mut items = Vec::with_capacity(specs.len());
    for (index, (band, spec)) in specs.into_iter().enumerate() {
        let sys = spec.build().map_err(|e| format!("generated spec: {e}"))?;
        let correct = compc::core::Checker::new().check(&sys).is_correct();
        let file = dir.join(format!("item-{index:04}.json"));
        std::fs::write(&file, spec.to_json().to_compact())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        items.push(Item {
            file,
            band,
            correct,
        });
    }
    Ok(items)
}
