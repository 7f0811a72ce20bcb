//! Seeded inputs for the three workloads, and the expected verdicts the
//! program's outputs are checked against. Everything here runs before
//! timing starts; the program under test sees only the generated request
//! lines and files.

use compc::core::{Checker, Verdict};
use compc::json::Value;
use compc::model::CompositeSystem;
use compc::sim::{Engine, Protocol, SimConfig};
use compc::spec::SystemSpec;
use compc::workload::random::{generate, GenParams, Shape};
use compc::workload::random_sim::{generate_sim, SimGenParams};

/// Independent seed per (run seed, stream, index) — splitmix64 — so that
/// adding a stream never reshuffles another.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a verdict response carries that a from-scratch check can
/// reproduce: verdict, size, and the failing level, phase and cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct Expect {
    pub correct: bool,
    pub nodes: u64,
    pub order: u64,
    pub failure: Option<(u64, String, Vec<String>)>,
}

impl Expect {
    pub fn of(sys: &CompositeSystem) -> Expect {
        Expect::from_verdict(sys, &Checker::new().check(sys))
    }

    pub fn from_verdict(sys: &CompositeSystem, verdict: &Verdict) -> Expect {
        Expect {
            correct: verdict.is_correct(),
            nodes: sys.node_count() as u64,
            order: sys.order() as u64,
            failure: match verdict {
                Verdict::Correct(_) => None,
                Verdict::Incorrect(cex) => Some((
                    cex.level as u64,
                    cex.phase.tag().to_string(),
                    cex.cycle_names.clone(),
                )),
            },
        }
    }

    /// Reads a daemon verdict response (`None` if it is not one).
    pub fn from_response(v: &Value) -> Option<Expect> {
        let correct = match v.get("verdict")?.as_str()? {
            "comp-c" => true,
            "not-comp-c" => false,
            _ => return None,
        };
        let failure = if correct {
            None
        } else {
            let cycle = v
                .get("cycle")?
                .as_array()?
                .iter()
                .map(|c| c.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?;
            Some((
                v.get("level")?.as_u64()?,
                v.get("phase")?.as_str()?.to_string(),
                cycle,
            ))
        };
        Some(Expect {
            correct,
            nodes: v.get("nodes")?.as_u64()?,
            order: v.get("order")?.as_u64()?,
            failure,
        })
    }
}

/// A simulator export (retrying sub-seeds until the run exports).
pub fn sim_export(
    clients: usize,
    protocol: Protocol,
    seed: u64,
) -> Result<CompositeSystem, String> {
    for attempt in 0..64 {
        let seed = mix(seed, 1, attempt);
        let params = SimGenParams {
            seed,
            clients,
            ..SimGenParams::default()
        };
        let (topo, templates) = generate_sim(&params, protocol);
        let report = Engine::new(
            topo,
            templates,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .run();
        if let Ok(sys) = report.export_system() {
            return Ok(sys);
        }
    }
    Err(format!("no simulator export for seed {seed}"))
}

/// One session's append stream: the request lines sent for it, and the
/// verdict its fully merged spec must get.
pub struct Stream {
    pub name: String,
    pub fragments: Vec<SystemSpec>,
    pub lines: Vec<String>,
    pub expect: Expect,
}

impl Stream {
    /// `fragments` (a prefix-valid `into_appends` sequence) as requests
    /// for session `name`.
    pub fn new(name: String, fragments: Vec<SystemSpec>) -> Result<Stream, String> {
        let mut merged = SystemSpec {
            auto_propagate: false,
            ..SystemSpec::default()
        };
        for fragment in &fragments {
            merged.merge(fragment).map_err(|e| format!("{name}: {e}"))?;
        }
        let sys = merged.build().map_err(|e| format!("{name}: {e}"))?;
        let lines = fragments
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("session".into(), Value::from(name.as_str())),
                    ("append".into(), f.to_json()),
                ])
                .to_compact()
                    + "\n"
            })
            .collect();
        Ok(Stream {
            expect: Expect::of(&sys),
            name,
            fragments,
            lines,
        })
    }
}

/// A growing session: a Timestamp-ordering simulator export (Comp-C by
/// construction), streamed root by root until it holds `target_nodes`.
pub fn grow_stream(
    name: String,
    seed: u64,
    clients: usize,
    target_nodes: usize,
) -> Result<Stream, String> {
    let sys = sim_export(clients, Protocol::Timestamp, seed)?;
    let mut fragments = Vec::new();
    let mut nodes = 0;
    for fragment in SystemSpec::from_system(&sys).into_appends() {
        if nodes >= target_nodes {
            break;
        }
        nodes += fragment.nodes.len();
        fragments.push(fragment);
    }
    Stream::new(name, fragments)
}

/// A small fixed system for one fan-in session: Timestamp-ordering
/// exports on even sessions, uncoordinated SGT exports (which may violate
/// Comp-C) on odd ones. Sub-seeds are retried until the system has
/// `nodes` nodes (±1), so that sessions, and runs, cost alike.
pub fn fanin_stream(
    name: String,
    seed: u64,
    index: usize,
    clients: usize,
    nodes: usize,
) -> Result<Stream, String> {
    let protocol = if index.is_multiple_of(2) {
        Protocol::Timestamp
    } else {
        Protocol::Sgt
    };
    for attempt in 0..256 {
        let sys = sim_export(clients, protocol, mix(seed, 3, attempt))?;
        if sys.node_count().abs_diff(nodes) <= 1 {
            return Stream::new(name, SystemSpec::from_system(&sys).into_appends());
        }
    }
    Err(format!(
        "{name}: no {clients}-client export of about {nodes} nodes"
    ))
}

/// A random system that violates Comp-C (retrying sub-seeds), with its
/// compact JSON within 1% of `bytes` when given.
pub fn violating(params: GenParams, bytes: Option<usize>) -> Result<SystemSpec, String> {
    for attempt in 0..256 {
        let spec = SystemSpec::from_system(&generate(&GenParams {
            seed: mix(params.seed, 2, attempt),
            ..params
        }));
        if bytes.is_some_and(|b| !within_one_percent(&spec, b)) {
            continue;
        }
        let sys = spec.build().map_err(|e| e.to_string())?;
        if !Checker::new().check(&sys).is_correct() {
            return Ok(spec);
        }
    }
    Err(format!("no violating system for {params:?}"))
}

/// The Comp-C system of the compressed band: a two-level stack with no
/// declared conflicts, its compact JSON within 1% of `bytes`. A simulator
/// export of this size is megabytes of JSON; this keeps the item's bytes,
/// and so its parse time, small.
pub fn conflict_free_stack(roots: usize, seed: u64, bytes: usize) -> Result<SystemSpec, String> {
    for attempt in 0..256 {
        let spec = SystemSpec::from_system(&generate(&GenParams {
            shape: Shape::Stack { depth: 2 },
            roots,
            conflict_density: 0.0,
            seed: mix(seed, 4, attempt),
            ..GenParams::default()
        }));
        if within_one_percent(&spec, bytes) {
            return Ok(spec);
        }
    }
    Err(format!("no {roots}-root stack of about {bytes} bytes"))
}

fn within_one_percent(spec: &SystemSpec, bytes: usize) -> bool {
    spec.to_json().to_compact().len().abs_diff(bytes) * 100 <= bytes
}
