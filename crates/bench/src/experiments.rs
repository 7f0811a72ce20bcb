//! The experiment implementations (DESIGN.md §4, E5–E12).
//!
//! Each function computes one experiment's data; the binaries render it.

use crate::table::Table;
use compc_classic::{is_llsr_stack, is_opsr_stack};
use compc_configs::{is_fcc, is_jcc, is_scc};
use compc_core::{check, Backend, CheckOptions, Checker, Reducer};
use compc_graph::{transitive_closure_with, BitGraph, ChunkedBitGraph, DiGraph, ReachScratch};
use compc_json::{object, Value};
use compc_model::CompositeSystem;
use compc_sim::{Engine, LockScope, Protocol, SimConfig, SimReport};
use compc_workload::random::{generate, GenParams, Shape};
use compc_workload::scenarios::{
    banking_tpmonitor, enterprise_diamond, federated_travel, inventory_join, Scenario,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Implements `to_json` for a flat experiment-row struct by listing its
/// fields; the exp_* binaries print these as NDJSON.
macro_rules! impl_row_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $ty {
            /// The row as a JSON object, field order preserved.
            pub fn to_json(&self) -> Value {
                object(vec![
                    $((stringify!($field), Value::from(self.$field.clone()))),+
                ])
            }
        }
    };
}

/// Classification of one simulated run by the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Exported and proven Comp-C.
    CompC,
    /// Exported but the reduction found a counterexample.
    NotCompC,
    /// The committed execution violates Definition 3/4 (a component ignored
    /// an obligation) — flagged before reduction.
    ModelViolation,
}

/// Checks one report.
pub fn classify(report: &SimReport) -> RunOutcome {
    match report.export_system() {
        Err(_) => RunOutcome::ModelViolation,
        Ok(sys) => {
            if check(&sys).is_correct() {
                RunOutcome::CompC
            } else {
                RunOutcome::NotCompC
            }
        }
    }
}

// ---------------------------------------------------------------------
// E6–E8: theorem-equivalence measurements
// ---------------------------------------------------------------------

/// One shape's agreement statistics between a direct criterion and Comp-C.
#[derive(Clone, Debug)]
pub struct EquivalenceRow {
    /// The configuration family.
    pub shape: String,
    /// Samples drawn.
    pub samples: usize,
    /// How many the direct criterion accepted.
    pub direct_accepts: usize,
    /// How many Comp-C accepted.
    pub comp_c_accepts: usize,
    /// Verdict disagreements (must be 0 — Theorems 2–4).
    pub disagreements: usize,
}

/// E6–E8: runs `samples` random systems per shape and per conflict density
/// and compares SCC/FCC/JCC with the reduction verdict.
///
/// The populations use sound conflict abstractions (see EXPERIMENTS.md,
/// "Theorem 4 requires sound abstractions") — the hypothesis under which
/// the paper's equivalence proofs operate.
pub fn equivalence_experiment(samples: usize, densities: &[f64]) -> Vec<EquivalenceRow> {
    let mut rows = Vec::new();
    for &density in densities {
        for (label, shape) in [
            ("stack/3", Shape::Stack { depth: 3 }),
            ("fork/3", Shape::Fork { branches: 3 }),
            ("join/3", Shape::Join { branches: 3 }),
        ] {
            let mut direct_accepts = 0;
            let mut comp_c_accepts = 0;
            let mut disagreements = 0;
            for seed in 0..samples as u64 {
                let sys = generate(&GenParams {
                    shape,
                    roots: 4,
                    ops_per_tx: (1, 3),
                    conflict_density: density,
                    sequential_tx_prob: 0.7,
                    client_input_prob: 0.0,
                    strong_input_prob: 0.0,
                    sound_abstractions: true,
                    seed: seed.wrapping_mul(7919) + (density * 1000.0) as u64,
                });
                let direct = match shape {
                    Shape::Stack { .. } => is_scc(&sys),
                    Shape::Fork { .. } => is_fcc(&sys).expect("fork"),
                    Shape::Join { .. } => is_jcc(&sys).expect("join"),
                    Shape::General { .. } => unreachable!(),
                };
                let comp_c = check(&sys).is_correct();
                direct_accepts += direct as usize;
                comp_c_accepts += comp_c as usize;
                disagreements += (direct != comp_c) as usize;
            }
            rows.push(EquivalenceRow {
                shape: format!("{label} @d={density:.1}"),
                samples,
                direct_accepts,
                comp_c_accepts,
                disagreements,
            });
        }
    }
    rows
}

/// Renders E6–E8.
pub fn equivalence_table(rows: &[EquivalenceRow]) -> Table {
    let mut t = Table::new(["shape", "samples", "direct", "Comp-C", "disagree"]);
    for r in rows {
        t.row([
            r.shape.clone(),
            r.samples.to_string(),
            r.direct_accepts.to_string(),
            r.comp_c_accepts.to_string(),
            r.disagreements.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E9: permissiveness of the criteria chain
// ---------------------------------------------------------------------

/// Acceptance counts of each criterion over one random-stack population.
#[derive(Clone, Debug)]
pub struct PermissivenessRow {
    /// Conflict density of the population.
    pub density: f64,
    /// Samples drawn.
    pub samples: usize,
    /// LLSR acceptances.
    pub llsr: usize,
    /// OPSR acceptances.
    pub opsr: usize,
    /// SCC acceptances.
    pub scc: usize,
    /// Comp-C acceptances (must equal `scc` on stacks).
    pub comp_c: usize,
}

/// E9: sweeps conflict density over random 3-stacks and counts which
/// criteria accept, reproducing the paper's `LLSR ⊆ OPSR ⊆ SCC ≡ Comp-C`
/// permissiveness claim quantitatively.
pub fn permissiveness_experiment(samples: usize, densities: &[f64]) -> Vec<PermissivenessRow> {
    densities
        .iter()
        .map(|&density| {
            let mut row = PermissivenessRow {
                density,
                samples,
                llsr: 0,
                opsr: 0,
                scc: 0,
                comp_c: 0,
            };
            for seed in 0..samples as u64 {
                let sys = generate(&GenParams {
                    shape: Shape::Stack { depth: 3 },
                    roots: 4,
                    ops_per_tx: (1, 3),
                    conflict_density: density,
                    sequential_tx_prob: 0.7,
                    client_input_prob: 0.0,
                    strong_input_prob: 0.0,
                    sound_abstractions: false,
                    seed: seed.wrapping_mul(104_729) + (density * 1000.0) as u64,
                });
                row.llsr += is_llsr_stack(&sys).expect("stack") as usize;
                row.opsr += is_opsr_stack(&sys).expect("stack") as usize;
                row.scc += is_scc(&sys) as usize;
                row.comp_c += check(&sys).is_correct() as usize;
            }
            row
        })
        .collect()
}

/// Renders E9.
pub fn permissiveness_table(rows: &[PermissivenessRow]) -> Table {
    let mut t = Table::new(["density", "samples", "LLSR", "OPSR", "SCC", "Comp-C"]);
    for r in rows {
        t.row([
            format!("{:.2}", r.density),
            r.samples.to_string(),
            r.llsr.to_string(),
            r.opsr.to_string(),
            r.scc.to_string(),
            r.comp_c.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E10: reduction scaling
// ---------------------------------------------------------------------

/// A scaling measurement point.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Sweep label (what grew).
    pub label: String,
    /// Nodes in the generated system.
    pub nodes: usize,
    /// Schedules in the system.
    pub schedules: usize,
    /// Mean check time in microseconds.
    pub mean_us: f64,
    /// Fraction of sampled systems that were Comp-C.
    pub accept_rate: f64,
}

/// E10: measures `check` wall time while growing the system along one axis.
pub fn scaling_experiment(points: &[(usize, usize, usize)], reps: usize) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &(levels, roots, max_ops) in points {
        let mut total = std::time::Duration::ZERO;
        let mut accepted = 0usize;
        let mut nodes = 0;
        let mut schedules = 0;
        for seed in 0..reps as u64 {
            let sys = generate(&GenParams {
                shape: Shape::General {
                    levels,
                    scheds_per_level: 2,
                },
                roots,
                ops_per_tx: (1, max_ops),
                conflict_density: 0.3,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.0,
                strong_input_prob: 0.0,
                sound_abstractions: false,
                seed: seed + 31,
            });
            nodes = nodes.max(sys.node_count());
            schedules = sys.schedule_count();
            let start = std::time::Instant::now();
            let v = check(&sys);
            total += start.elapsed();
            accepted += v.is_correct() as usize;
        }
        rows.push(ScalingRow {
            label: format!("levels={levels} roots={roots} ops≤{max_ops}"),
            nodes,
            schedules,
            mean_us: total.as_secs_f64() * 1e6 / reps as f64,
            accept_rate: accepted as f64 / reps as f64,
        });
    }
    rows
}

/// Renders E10.
pub fn scaling_table(rows: &[ScalingRow]) -> Table {
    let mut t = Table::new(["sweep", "max nodes", "schedules", "mean µs", "accept"]);
    for r in rows {
        t.row([
            r.label.clone(),
            r.nodes.to_string(),
            r.schedules.to_string(),
            format!("{:.1}", r.mean_us),
            format!("{:.2}", r.accept_rate),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E11: simulator protocol × scenario matrix
// ---------------------------------------------------------------------

/// One protocol × scenario measurement.
#[derive(Clone, Debug)]
pub struct SimulatorRow {
    /// Scenario name.
    pub scenario: String,
    /// Protocol tag.
    pub protocol: String,
    /// Runs performed.
    pub runs: usize,
    /// Mean committed transactions per run.
    pub committed: f64,
    /// Mean aborted attempts per run.
    pub aborts: f64,
    /// Mean throughput (commits per 1000 ticks).
    pub throughput: f64,
    /// Mean commit latency in ticks.
    pub latency: f64,
    /// Runs proven Comp-C.
    pub comp_c: usize,
    /// Runs with a Comp-C counterexample.
    pub not_comp_c: usize,
    /// Runs flagged as model violations.
    pub violations: usize,
}

/// A named scenario factory used by the E11 matrix.
type ScenarioFactory<'a> = (&'a str, Box<dyn Fn(u64) -> Scenario>);

/// The protocols compared by E11/E12.
pub fn all_protocols() -> Vec<Protocol> {
    vec![
        Protocol::TwoPhase {
            scope: LockScope::Composite,
        },
        Protocol::TwoPhase {
            scope: LockScope::Subtransaction,
        },
        Protocol::Sgt,
        Protocol::Timestamp,
        Protocol::CcSched,
        Protocol::None,
    ]
}

/// E11: runs every protocol on every scenario for `runs` seeds; reports
/// performance and the checker's classification. The 2PL rows appear twice:
/// once with deadlock detection, once under wound-wait (suffix `/ww`).
pub fn simulator_experiment(runs: usize, clients: usize) -> Vec<SimulatorRow> {
    use compc_sim::DeadlockPolicy;
    let mut variants: Vec<(Protocol, DeadlockPolicy, String)> = Vec::new();
    for protocol in all_protocols() {
        variants.push((protocol, DeadlockPolicy::Detect, protocol.tag().to_string()));
        if matches!(protocol, Protocol::TwoPhase { .. }) {
            variants.push((
                protocol,
                DeadlockPolicy::WoundWait,
                format!("{}/ww", protocol.tag()),
            ));
        }
    }
    let mut rows = Vec::new();
    for (protocol, deadlock, tag) in variants {
        let scenarios: Vec<ScenarioFactory> = vec![
            (
                "banking (stack)",
                Box::new(move |seed| banking_tpmonitor(protocol, clients, 4, seed)),
            ),
            (
                "travel (fork)",
                Box::new(move |seed| federated_travel(protocol, clients, 3, seed)),
            ),
            (
                "inventory (join)",
                Box::new(move |seed| inventory_join(protocol, clients, 3, seed)),
            ),
            (
                "diamond (general)",
                Box::new(move |seed| enterprise_diamond(protocol, clients, 3, seed)),
            ),
        ];
        for (name, make) in scenarios {
            let mut row = SimulatorRow {
                scenario: name.to_string(),
                protocol: tag.clone(),
                runs,
                committed: 0.0,
                aborts: 0.0,
                throughput: 0.0,
                latency: 0.0,
                comp_c: 0,
                not_comp_c: 0,
                violations: 0,
            };
            for seed in 0..runs as u64 {
                let s = make(seed);
                let report = Engine::new(
                    s.topology,
                    s.templates,
                    SimConfig {
                        seed,
                        deadlock,
                        ..SimConfig::default()
                    },
                )
                .run();
                row.committed += report.metrics.committed as f64;
                row.aborts += report.metrics.aborts as f64;
                row.throughput += report.metrics.throughput();
                row.latency += report.metrics.mean_latency();
                match classify(&report) {
                    RunOutcome::CompC => row.comp_c += 1,
                    RunOutcome::NotCompC => row.not_comp_c += 1,
                    RunOutcome::ModelViolation => row.violations += 1,
                }
            }
            row.committed /= runs as f64;
            row.aborts /= runs as f64;
            row.throughput /= runs as f64;
            row.latency /= runs as f64;
            rows.push(row);
        }
    }
    rows
}

/// Renders E11.
pub fn simulator_table(rows: &[SimulatorRow]) -> Table {
    let mut t = Table::new([
        "scenario",
        "protocol",
        "runs",
        "commit",
        "aborts",
        "thrpt",
        "latency",
        "Comp-C",
        "incorrect",
        "violation",
    ]);
    for r in rows {
        t.row([
            r.scenario.clone(),
            r.protocol.clone(),
            r.runs.to_string(),
            format!("{:.1}", r.committed),
            format!("{:.1}", r.aborts),
            format!("{:.2}", r.throughput),
            format!("{:.1}", r.latency),
            r.comp_c.to_string(),
            r.not_comp_c.to_string(),
            r.violations.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E12: semantic-parallelism gain
// ---------------------------------------------------------------------

/// Semantic vs read/write table comparison on the same workload.
#[derive(Clone, Debug)]
pub struct SemanticsRow {
    /// Which commutativity table the stores used.
    pub table: String,
    /// Mean throughput.
    pub throughput: f64,
    /// Mean latency.
    pub latency: f64,
    /// Mean aborted attempts per run.
    pub aborts: f64,
}

/// E12: the §2 claim that semantic (weak-order) knowledge admits more
/// parallelism — an increment-heavy inventory workload under semantic vs
/// classical read/write lock tables.
pub fn semantics_experiment(runs: usize, clients: usize) -> Vec<SemanticsRow> {
    use compc_model::{CommutativityTable, ItemId, OpSpec};
    use compc_sim::{Topology, TxNode, TxTemplate};

    let run_with = |semantic: bool| -> SemanticsRow {
        let mut throughput = 0.0;
        let mut latency = 0.0;
        let mut aborts = 0.0;
        for seed in 0..runs as u64 {
            let table = if semantic {
                CommutativityTable::semantic()
            } else {
                CommutativityTable::read_write()
            };
            let mut topo = Topology::new();
            let front = topo.add(
                "front",
                Protocol::TwoPhase {
                    scope: LockScope::Subtransaction,
                },
                table.clone(),
            );
            let store = topo.add(
                "store",
                Protocol::TwoPhase {
                    scope: LockScope::Subtransaction,
                },
                table.clone(),
            );
            // Everyone increments the same hot counter.
            let templates: Vec<TxTemplate> = (0..clients)
                .map(|i| TxTemplate {
                    name: format!("inc{i}"),
                    home: front,
                    body: vec![TxNode::call(
                        store,
                        OpSpec::increment(ItemId(0)),
                        vec![TxNode::data(OpSpec::increment(ItemId(0)))],
                    )],
                })
                .collect();
            let report = Engine::new(
                topo,
                templates,
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .run();
            throughput += report.metrics.throughput();
            latency += report.metrics.mean_latency();
            aborts += report.metrics.aborts as f64;
        }
        SemanticsRow {
            table: if semantic { "semantic" } else { "read/write" }.into(),
            throughput: throughput / runs as f64,
            latency: latency / runs as f64,
            aborts: aborts / runs as f64,
        }
    };
    vec![run_with(false), run_with(true)]
}

/// Renders E12.
pub fn semantics_table(rows: &[SemanticsRow]) -> Table {
    let mut t = Table::new(["lock table", "thrpt", "latency", "aborts"]);
    for r in rows {
        t.row([
            r.table.clone(),
            format!("{:.2}", r.throughput),
            format!("{:.1}", r.latency),
            format!("{:.1}", r.aborts),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Ablation: literal Definition-13 CC vs commuting-aware CC
// ---------------------------------------------------------------------

/// Acceptance with and without Definition 10's order forgetting
/// (DESIGN.md §5.3).
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Conflict density.
    pub density: f64,
    /// Samples.
    pub samples: usize,
    /// Accepted by the faithful reduction (forgetting on).
    pub with_forgetting: usize,
    /// Accepted with forgetting disabled (every pulled pair binds).
    pub without_forgetting: usize,
}

/// Quantifies how much of Comp-C's permissiveness comes from trusting the
/// schedules' commutativity declarations: the same populations are checked
/// with the faithful reduction and with forgetting disabled.
pub fn cc_ablation_experiment(samples: usize, densities: &[f64]) -> Vec<AblationRow> {
    densities
        .iter()
        .map(|&density| {
            let mut with_forgetting = 0;
            let mut without_forgetting = 0;
            for seed in 0..samples as u64 {
                let sys = generate(&GenParams {
                    shape: Shape::General {
                        levels: 3,
                        scheds_per_level: 2,
                    },
                    roots: 4,
                    ops_per_tx: (1, 3),
                    conflict_density: density,
                    sequential_tx_prob: 0.7,
                    client_input_prob: 0.0,
                    strong_input_prob: 0.0,
                    sound_abstractions: false,
                    seed: seed.wrapping_mul(613) + 7,
                });
                let faithful = check(&sys).is_correct();
                let strict = Checker::with_options(CheckOptions::new().forgetting(false))
                    .check(&sys)
                    .is_correct();
                with_forgetting += faithful as usize;
                without_forgetting += strict as usize;
                debug_assert!(!strict || faithful, "no-forgetting must be stricter");
            }
            AblationRow {
                density,
                samples,
                with_forgetting,
                without_forgetting,
            }
        })
        .collect()
}

/// One full reduction, exposed for the Criterion benches.
pub fn bench_check(sys: &CompositeSystem) -> bool {
    check(sys).is_correct()
}

/// One stepwise reduction via the public `Reducer`, for the observed-order
/// bench.
pub fn bench_reduce_steps(sys: &CompositeSystem) -> usize {
    let mut red = Reducer::new(sys);
    let mut steps = 0;
    for level in 1..=sys.order() {
        if red.step(level).is_err() {
            break;
        }
        steps += 1;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_rows_never_disagree() {
        let rows = equivalence_experiment(30, &[0.4]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.disagreements, 0, "{}", r.shape);
        }
    }

    #[test]
    fn permissiveness_is_monotone() {
        for r in permissiveness_experiment(40, &[0.3, 0.6]) {
            assert!(r.llsr <= r.opsr);
            assert!(r.opsr <= r.scc);
            assert_eq!(r.scc, r.comp_c);
        }
    }

    #[test]
    fn simulator_experiment_classifies_everything() {
        for r in simulator_experiment(2, 6) {
            assert_eq!(r.comp_c + r.not_comp_c + r.violations, r.runs);
        }
    }

    #[test]
    fn semantics_experiment_shows_the_gain() {
        let rows = semantics_experiment(3, 10);
        assert_eq!(rows.len(), 2);
        // Semantic locking on a pure-increment workload must not be slower.
        assert!(rows[1].throughput >= rows[0].throughput);
        assert!(rows[1].aborts <= rows[0].aborts);
    }

    #[test]
    fn scaling_reports_points() {
        let rows = scaling_experiment(&[(2, 3, 2), (3, 4, 2)], 3);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.mean_us > 0.0));
    }

    #[test]
    fn kernel_rows_cover_all_kernels_and_sizes() {
        // Includes a word-boundary size; the in-experiment assertions are
        // the real check (backends must agree before timing).
        let rows = kernel_experiment(&[16, 65], 2, 7);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.btree_ns > 0.0 && r.bit_ns > 0.0));
        let doc = kernel_report_json(&rows, 2, 7);
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("BENCH_4"));
        assert_eq!(
            doc.get("kernels")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(6)
        );
    }

    #[test]
    fn backends_agree_on_verdicts() {
        assert_eq!(backend_equivalence(10, 42), 0);
    }
}

// ---------------------------------------------------------------------
// E13: expressiveness of earlier models
// ---------------------------------------------------------------------

/// How much of a random composite population earlier models can describe.
#[derive(Clone, Debug)]
pub struct ExpressivenessRow {
    /// Population label.
    pub population: String,
    /// Samples drawn.
    pub samples: usize,
    /// Expressible as multilevel transactions (stack configuration).
    pub multilevel: usize,
    /// Expressible as nested transactions (pairwise shared scheduler).
    pub nested_pairwise: usize,
    /// Expressible under the centralized nested reading (one scheduler
    /// common to all transactions).
    pub nested_centralized: usize,
}

/// E13: the §1 expressiveness argument measured — every composite system is
/// checkable by Comp-C, but only a fraction fits the earlier frameworks.
pub fn expressiveness_experiment(samples: usize) -> Vec<ExpressivenessRow> {
    use compc_configs::{
        multilevel_expressible, nested_expressible_centralized, nested_expressible_pairwise,
    };
    let populations = [
        (
            "general 3x2",
            Shape::General {
                levels: 3,
                scheds_per_level: 2,
            },
        ),
        ("stack/3", Shape::Stack { depth: 3 }),
        ("fork/3", Shape::Fork { branches: 3 }),
        ("join/3", Shape::Join { branches: 3 }),
    ];
    populations
        .into_iter()
        .map(|(label, shape)| {
            let mut row = ExpressivenessRow {
                population: label.to_string(),
                samples,
                multilevel: 0,
                nested_pairwise: 0,
                nested_centralized: 0,
            };
            for seed in 0..samples as u64 {
                let sys = generate(&GenParams {
                    shape,
                    roots: 4,
                    ops_per_tx: (1, 3),
                    conflict_density: 0.4,
                    sequential_tx_prob: 0.7,
                    client_input_prob: 0.0,
                    strong_input_prob: 0.0,
                    sound_abstractions: false,
                    seed: seed.wrapping_mul(17) + 3,
                });
                row.multilevel += multilevel_expressible(&sys) as usize;
                row.nested_pairwise += nested_expressible_pairwise(&sys) as usize;
                row.nested_centralized += nested_expressible_centralized(&sys) as usize;
            }
            row
        })
        .collect()
}

/// Renders E13.
pub fn expressiveness_table(rows: &[ExpressivenessRow]) -> Table {
    let mut t = Table::new([
        "population",
        "samples",
        "multilevel",
        "nested (pairwise)",
        "nested (central)",
    ]);
    for r in rows {
        t.row([
            r.population.clone(),
            r.samples.to_string(),
            r.multilevel.to_string(),
            r.nested_pairwise.to_string(),
            r.nested_centralized.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn expressiveness_general_population_is_mostly_inexpressible() {
        let rows = expressiveness_experiment(40);
        let general = &rows[0];
        assert_eq!(general.multilevel, 0, "general configs are never stacks");
        assert!(general.nested_pairwise < general.samples);
        assert!(general.nested_centralized <= general.nested_pairwise);
        let stack = &rows[1];
        assert_eq!(stack.multilevel, stack.samples);
    }

    #[test]
    fn ablation_is_monotone() {
        for r in cc_ablation_experiment(60, &[0.2, 0.6]) {
            assert!(
                r.without_forgetting <= r.with_forgetting,
                "no-forgetting must be stricter"
            );
        }
    }

    #[test]
    fn simulator_has_wound_wait_rows() {
        let rows = simulator_experiment(1, 4);
        assert!(rows.iter().any(|r| r.protocol.ends_with("/ww")));
        // Wound-wait rows are also fully classified.
        for r in rows.iter().filter(|r| r.protocol.ends_with("/ww")) {
            assert_eq!(r.comp_c + r.not_comp_c + r.violations, r.runs);
        }
    }
}

// ---------------------------------------------------------------------
// E21: bitset relation kernels vs the BTree baseline
// ---------------------------------------------------------------------

/// One relation-kernel measurement at one size: the sparse BTree-backed
/// baseline against the dense word-parallel bitset implementation. Dense
/// timings *include* the sparse→dense conversion (and dense→sparse where
/// the hot path converts back), so the numbers reflect what the checker
/// actually pays when it routes a closure through [`BitGraph`].
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel name (`closure-dag`, `closure-cyclic`, `reach`).
    pub kernel: String,
    /// Nodes in the input graph.
    pub nodes: usize,
    /// Edges in the input graph.
    pub edges: usize,
    /// Mean nanoseconds per operation, BTree baseline.
    pub btree_ns: f64,
    /// Mean nanoseconds per operation, bitset backend.
    pub bit_ns: f64,
    /// `btree_ns / bit_ns` (>1 means the bitset backend wins).
    pub speedup: f64,
}

/// A random DAG (`u -> v` only for `u < v`) with expected out-degree
/// `avg_degree` — sparse at every size, like the checker's observed orders.
fn random_dag(n: usize, avg_degree: f64, rng: &mut StdRng) -> DiGraph {
    let p = (avg_degree / n.max(1) as f64).min(1.0);
    let mut g = DiGraph::with_nodes(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A random directed graph with both edge directions allowed (almost surely
/// cyclic at these densities) — exercises the SCC-condensation closure.
fn random_cyclic(n: usize, avg_degree: f64, rng: &mut StdRng) -> DiGraph {
    let p = (avg_degree / n.max(1) as f64).min(1.0);
    let mut g = DiGraph::with_nodes(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let iters = iters.max(1);
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The full closure round-trip the checker's dense path pays:
/// load + word-parallel close + convert back to sparse.
fn dense_closure(g: &DiGraph, bits: &mut BitGraph) -> DiGraph {
    bits.load_from(g);
    bits.close_transitively();
    bits.to_digraph()
}

/// E21: times the three relation kernels on both backends across `sizes`.
///
/// Before timing, every kernel's outputs are asserted pair-for-pair equal
/// across backends — a benchmark of two implementations that disagree would
/// be meaningless.
pub fn kernel_experiment(sizes: &[usize], iters: usize, seed: u64) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    let mut reach = ReachScratch::new();
    let mut bits = BitGraph::new();
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let dag = random_dag(n, 4.0, &mut rng);
        let cyc = random_cyclic(n, 4.0, &mut rng);

        // closure-dag: reverse-topological OR sweep vs per-source DFS.
        let sparse_closed = transitive_closure_with(&dag, &mut reach);
        assert_eq!(
            sparse_closed,
            dense_closure(&dag, &mut bits),
            "closure-dag backends disagree at n={n}"
        );
        let btree_ns = time_ns(iters, || {
            black_box(transitive_closure_with(black_box(&dag), &mut reach));
        });
        let bit_ns = time_ns(iters, || {
            black_box(dense_closure(black_box(&dag), &mut bits));
        });
        rows.push(KernelRow {
            kernel: "closure-dag".into(),
            nodes: n,
            edges: dag.edge_count(),
            btree_ns,
            bit_ns,
            speedup: btree_ns / bit_ns,
        });

        // closure-cyclic: bitset SCC-condensation closure vs per-source DFS.
        assert_eq!(
            transitive_closure_with(&cyc, &mut reach),
            dense_closure(&cyc, &mut bits),
            "closure-cyclic backends disagree at n={n}"
        );
        let btree_ns = time_ns(iters, || {
            black_box(transitive_closure_with(black_box(&cyc), &mut reach));
        });
        let bit_ns = time_ns(iters, || {
            black_box(dense_closure(black_box(&cyc), &mut bits));
        });
        rows.push(KernelRow {
            kernel: "closure-cyclic".into(),
            nodes: n,
            edges: cyc.edge_count(),
            btree_ns,
            bit_ns,
            speedup: btree_ns / bit_ns,
        });

        // reach: one op = reachability from every source (what the sparse
        // closure does per source); dense loads once, then bitset BFS.
        bits.load_from(&cyc);
        let mut row_buf = vec![0u64; bits.words_per_row()];
        for u in 0..n {
            bits.reachable_into(u, &mut row_buf);
            let dense_set: Vec<usize> = bits.reachable_from(u);
            assert_eq!(
                compc_graph::reachable_from_with(&cyc, u, &mut reach),
                dense_set,
                "reach backends disagree at n={n} source={u}"
            );
        }
        let btree_ns = time_ns(iters, || {
            for u in 0..n {
                black_box(compc_graph::reachable_from_with(
                    black_box(&cyc),
                    u,
                    &mut reach,
                ));
            }
        });
        let bit_ns = time_ns(iters, || {
            bits.load_from(black_box(&cyc));
            for u in 0..n {
                bits.reachable_into(u, &mut row_buf);
                black_box(&row_buf);
            }
        });
        rows.push(KernelRow {
            kernel: "reach".into(),
            nodes: n,
            edges: cyc.edge_count(),
            btree_ns,
            bit_ns,
            speedup: btree_ns / bit_ns,
        });
    }
    rows
}

/// Renders E21.
pub fn kernel_table(rows: &[KernelRow]) -> Table {
    let mut t = Table::new([
        "kernel",
        "nodes",
        "edges",
        "BTree ns",
        "bitset ns",
        "speedup",
    ]);
    for r in rows {
        t.row([
            r.kernel.clone(),
            r.nodes.to_string(),
            r.edges.to_string(),
            format!("{:.0}", r.btree_ns),
            format!("{:.0}", r.bit_ns),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t
}

/// The machine-readable E21 document (`BENCH_4.json` schema): run metadata
/// plus one object per kernel × size measurement.
pub fn kernel_report_json(rows: &[KernelRow], iters: usize, seed: u64) -> Value {
    object(vec![
        ("bench", Value::from("BENCH_4")),
        ("experiment", Value::from("E21")),
        ("generated_by", Value::from("exp_scaling --kernels")),
        ("iters", Value::from(iters as u64)),
        ("seed", Value::from(seed)),
        (
            "crossover_default",
            Value::from(compc_core::DENSE_CROSSOVER_DEFAULT as u64),
        ),
        (
            "kernels",
            Value::Array(rows.iter().map(|r| r.to_json()).collect()),
        ),
    ])
}

/// Backend verdict-equivalence spot check: `samples` random general systems
/// are checked with the closure forced sparse, forced dense, forced
/// compressed, and on the default crossovers; returns the number of systems
/// whose verdict or stepped fronts disagree (must be 0 — every backend
/// computes the same closure, so Theorem 1's reduction cannot tell them
/// apart).
pub fn backend_equivalence(samples: usize, seed: u64) -> usize {
    let mut mismatches = 0;
    for i in 0..samples as u64 {
        let sys = generate(&GenParams {
            shape: Shape::General {
                levels: 3,
                scheds_per_level: 2,
            },
            roots: 4 + (i % 4) as usize,
            ops_per_tx: (1, 3),
            conflict_density: 0.2 + 0.1 * (i % 5) as f64,
            sequential_tx_prob: 0.7,
            client_input_prob: 0.0,
            strong_input_prob: 0.0,
            sound_abstractions: false,
            seed: seed.wrapping_add(i.wrapping_mul(2_654_435_761)),
        });
        // The verdict and every front a stepped reduction reaches.
        let fingerprint = |backend: Backend| -> String {
            let checker = Checker::with_options(CheckOptions::new().backend(backend));
            let mut out = match checker.check(&sys) {
                compc_core::Verdict::Correct(p) => format!("ok:{:?}", p.serial_witness),
                compc_core::Verdict::Incorrect(c) => format!("cex:{c}"),
            };
            let mut reducer = checker.reducer(&sys);
            let mut push = |f: &compc_core::Front| {
                out += &format!(
                    "|L{}:{:?}o{:?}c{:?}i{:?}",
                    f.level,
                    f.nodes,
                    f.observed_pairs(),
                    f.conflict_pairs(&sys),
                    f.input_pairs()
                );
            };
            push(reducer.front());
            for level in 1..=sys.order() {
                let stepped = reducer.step(level);
                push(reducer.front());
                if stepped.is_err() {
                    break;
                }
            }
            out
        };
        let sparse = fingerprint(Backend::Sparse);
        if sparse != fingerprint(Backend::Dense)
            || sparse != fingerprint(Backend::Compressed)
            || sparse != fingerprint(Backend::Auto)
        {
            mismatches += 1;
        }
    }
    mismatches
}

// ---------------------------------------------------------------------
// E22: relation-kernel scaling sweep to 10⁶ nodes (BENCH_7)
// ---------------------------------------------------------------------

/// Node sizes for the E22 scaling sweep: from below the dense↔compressed
/// crossover default (4096) up to 10⁶ nodes, where only the compressed
/// backend is feasible at all.
pub const SCALE_SIZES: [usize; 8] = [
    1024, 4096, 16_384, 65_536, 131_072, 262_144, 524_288, 1_048_576,
];

/// Memory budget for one backend's working set in the sweep. A backend
/// whose *projected* footprint exceeds this is skipped with a recorded
/// reason instead of being allowed to OOM the host — the skip itself is the
/// data point (dense rows are `n²/8` bytes: 34 GiB at 2¹⁹ nodes, 128 GiB
/// at 2²⁰).
pub const SCALE_MEM_BUDGET: u64 = 16 * (1 << 30);

/// How many sampled sources the `reach16` kernel traverses per op — a
/// fixed-size probe, so the kernel measures per-source traversal cost
/// instead of the `Θ(n · …)` all-sources sweep that would drown 10⁶-node
/// rows in output volume.
pub const REACH_SAMPLE_SOURCES: usize = 16;

/// One E22 measurement: one kernel × backend × size. `mean_ns` is `None`
/// exactly when the cell was skipped, with `skipped` saying why.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Kernel name (`closure-dag`, `closure-cyclic`, `reach16`).
    pub kernel: String,
    /// Backend name (`btree`, `dense`, `compressed`).
    pub backend: String,
    /// Nodes in the input graph.
    pub nodes: usize,
    /// Edges in the input graph.
    pub edges: usize,
    /// Mean nanoseconds per op, or `None` if skipped.
    pub mean_ns: Option<f64>,
    /// Why the cell was skipped (`None` when measured).
    pub skipped: Option<String>,
}

impl ScaleRow {
    /// The row as a JSON object (`mean_ns`/`skipped` are nullable).
    pub fn to_json(&self) -> Value {
        object(vec![
            ("kernel", Value::from(self.kernel.clone())),
            ("backend", Value::from(self.backend.clone())),
            ("nodes", Value::from(self.nodes as u64)),
            ("edges", Value::from(self.edges as u64)),
            (
                "mean_ns",
                self.mean_ns.map(Value::from).unwrap_or(Value::Null),
            ),
            (
                "skipped",
                self.skipped.clone().map(Value::from).unwrap_or(Value::Null),
            ),
        ])
    }
}

/// A sparse random DAG in `O(edges)` time: `⌊avg_degree · n⌋` forward edge
/// samples (duplicates collapse). The per-pair Bernoulli generator E21 uses
/// is `Θ(n²)` coin flips — `10¹²` at a million nodes — so the scaling sweep
/// needs this sampler to even construct its inputs.
fn fast_random_dag(n: usize, avg_degree: f64, rng: &mut StdRng) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    if n < 2 {
        return g;
    }
    let m = (avg_degree * n as f64) as usize;
    for _ in 0..m {
        let u = rng.gen_range(0..n - 1);
        let v = rng.gen_range(u + 1..n);
        g.add_edge(u, v);
    }
    g
}

/// A sparse random directed graph (edges in both directions) in `O(edges)`
/// time. At mean degree 4 the digraph almost surely has a giant strongly
/// connected component — the shape the SCC-condensed closure exists for.
fn fast_random_cyclic(n: usize, avg_degree: f64, rng: &mut StdRng) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    if n < 2 {
        return g;
    }
    let m = (avg_degree * n as f64) as usize;
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// Projected bytes of the dense backend's working set at `n` nodes: the
/// flat closure rows (`n · ⌈n/64⌉` words) plus the same again for the
/// parallel path's output buffer — `load_from` + `close_transitively` keep
/// one copy, so one copy is the floor.
fn dense_projected_bytes(n: usize) -> u64 {
    let words = n.div_ceil(64) as u64;
    n as u64 * words * 8
}

/// Iterations actually run at size `n`: big graphs take seconds per op, so
/// the sweep caps repetitions instead of multiplying them.
fn scale_iters(n: usize, iters: usize) -> usize {
    if n >= 65_536 {
        1
    } else if n >= 16_384 {
        iters.min(2)
    } else {
        iters.max(1)
    }
}

/// Cross-checks the compressed closure against an independent BFS oracle on
/// `samples` evenly spaced sources: `CondensedClosure::row_into` must equal
/// `ChunkedBitGraph::reachable_into` (a plain worklist BFS that never looks
/// at components) bit for bit.
fn spot_check_condensed(
    g: &ChunkedBitGraph,
    closed: &compc_graph::CondensedClosure,
    samples: usize,
    context: &str,
) {
    let n = g.node_count();
    let words = g.words_per_row();
    let mut via_closure = vec![0u64; words];
    let mut via_bfs = vec![0u64; words];
    let step = (n / samples.max(1)).max(1);
    for u in (0..n).step_by(step) {
        closed.row_into(u, &mut via_closure);
        g.reachable_into(u, &mut via_bfs);
        assert_eq!(
            via_closure, via_bfs,
            "condensed closure disagrees with BFS oracle at {context}, source {u}"
        );
    }
}

/// E22: times closure and reachability kernels on the BTree, dense-bitset,
/// and compressed (chunked + SCC-condensed) backends across `sizes`, with
/// per-cell feasibility gates.
///
/// Gates (each recorded as a `skipped` reason, never a silent omission):
/// - the BTree closure materializes `Θ(n²)` `BTreeSet` pairs, so closure
///   kernels cap it at 4096 nodes;
/// - the dense backend's flat rows are `n²/8` bytes, so any cell whose
///   projection exceeds [`SCALE_MEM_BUDGET`] is skipped — this is the
///   "dense hits the memory wall" evidence, while compressed keeps going;
/// - `closure-dag` output is itself `Θ(n²)` for *every* representation
///   (singleton components give condensation nothing to share), so both
///   non-BTree backends cap it at the budget projection too.
///
/// Correctness before speed: at sizes where the BTree baseline runs, all
/// three closures are asserted pair-for-pair equal; above that, dense and
/// compressed closure edge counts must match while both run, and the
/// compressed rows are spot-checked against an independent BFS oracle.
pub fn scale_experiment(sizes: &[usize], iters: usize, seed: u64) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    let mut reach = ReachScratch::new();
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let it = scale_iters(n, iters);
        let dag = fast_random_dag(n, 4.0, &mut rng);
        let cyc = fast_random_cyclic(n, 4.0, &mut rng);
        let dense_fits = dense_projected_bytes(n) <= SCALE_MEM_BUDGET;
        let dense_skip = || {
            Some(format!(
                "projected {:.1} GiB dense rows exceed the {} GiB budget",
                dense_projected_bytes(n) as f64 / (1u64 << 30) as f64,
                SCALE_MEM_BUDGET >> 30
            ))
        };
        let btree_closure_ok = n <= 4096;
        let btree_skip = || Some("Θ(n²) BTreeSet closure pairs at this size".to_string());

        for (kernel, g) in [("closure-dag", &dag), ("closure-cyclic", &cyc)] {
            // The DAG closure's output is Θ(n²) on every backend; the cyclic
            // closure condenses, so only dense pays the n² rows.
            let compressed_fits = kernel == "closure-cyclic" || dense_fits;
            let mut btree_ns = None;
            let mut dense_ns = None;
            let mut compressed_ns = None;

            // Correctness first, on whichever backends will run.
            let mut bits = BitGraph::new();
            let chunked = ChunkedBitGraph::from_digraph(g);
            if compressed_fits {
                let closed = chunked.condensed_closure();
                spot_check_condensed(&chunked, &closed, 8, &format!("{kernel} n={n}"));
                if dense_fits {
                    bits.load_from(g);
                    bits.close_transitively();
                    assert_eq!(
                        bits.edge_count(),
                        closed.edge_count(),
                        "dense and condensed closure sizes disagree at {kernel} n={n}"
                    );
                    if btree_closure_ok {
                        let sparse = transitive_closure_with(g, &mut reach);
                        assert_eq!(
                            closed.to_digraph(),
                            sparse,
                            "condensed closure diverges from sparse at {kernel} n={n}"
                        );
                        assert_eq!(
                            bits.to_digraph(),
                            sparse,
                            "dense closure diverges from sparse at {kernel} n={n}"
                        );
                    }
                }
            }

            if btree_closure_ok {
                btree_ns = Some(time_ns(it, || {
                    black_box(transitive_closure_with(black_box(g), &mut reach));
                }));
            }
            if dense_fits {
                dense_ns = Some(time_ns(it, || {
                    bits.load_from(black_box(g));
                    bits.close_transitively();
                    black_box(&bits);
                }));
            }
            if compressed_fits {
                let mut cb = ChunkedBitGraph::new();
                compressed_ns = Some(time_ns(it, || {
                    cb.load_from(black_box(g));
                    black_box(cb.condensed_closure());
                }));
            }
            for (backend, ns, skip) in [
                (
                    "btree",
                    btree_ns,
                    if btree_closure_ok { None } else { btree_skip() },
                ),
                (
                    "dense",
                    dense_ns,
                    if dense_fits { None } else { dense_skip() },
                ),
                (
                    "compressed",
                    compressed_ns,
                    if compressed_fits {
                        None
                    } else {
                        Some("Θ(n²) promoted rows for a DAG closure at this size".to_string())
                    },
                ),
            ] {
                rows.push(ScaleRow {
                    kernel: kernel.into(),
                    backend: backend.into(),
                    nodes: n,
                    edges: g.edge_count(),
                    mean_ns: ns,
                    skipped: skip,
                });
            }
        }

        // reach16: per-source reachability from 16 evenly spaced sources —
        // one op = 16 traversals. The chunked backend needs only the input
        // edges plus one row buffer, so it reaches 10⁶ nodes; dense still
        // needs its n²/8-byte adjacency.
        let step = (n / REACH_SAMPLE_SOURCES).max(1);
        let sources: Vec<usize> = (0..n).step_by(step).take(REACH_SAMPLE_SOURCES).collect();
        let chunked = ChunkedBitGraph::from_digraph(&cyc);
        let words = chunked.words_per_row();
        let mut row_buf = vec![0u64; words];
        // Chunked BFS vs sparse DFS, always.
        for &u in &sources {
            chunked.reachable_into(u, &mut row_buf);
            let via_chunked: Vec<usize> = (0..n)
                .filter(|&v| row_buf[v / 64] >> (v % 64) & 1 == 1)
                .collect();
            assert_eq!(
                via_chunked,
                compc_graph::reachable_from_with(&cyc, u, &mut reach),
                "chunked reachability diverges at n={n} source={u}"
            );
        }
        let btree_ns = Some(time_ns(it, || {
            for &u in &sources {
                black_box(compc_graph::reachable_from_with(
                    black_box(&cyc),
                    u,
                    &mut reach,
                ));
            }
        }));
        let mut dense_ns = None;
        if dense_fits {
            let mut bits = BitGraph::new();
            bits.load_from(&cyc);
            let mut dense_buf = vec![0u64; words];
            for &u in &sources {
                bits.reachable_into(u, &mut dense_buf);
                chunked.reachable_into(u, &mut row_buf);
                assert_eq!(
                    dense_buf, row_buf,
                    "dense and chunked reachability diverge at n={n} source={u}"
                );
            }
            dense_ns = Some(time_ns(it, || {
                for &u in &sources {
                    bits.reachable_into(u, &mut row_buf);
                    black_box(&row_buf);
                }
            }));
        }
        let compressed_ns = Some(time_ns(it, || {
            for &u in &sources {
                chunked.reachable_into(u, &mut row_buf);
                black_box(&row_buf);
            }
        }));
        for (backend, ns, skip) in [
            ("btree", btree_ns, None),
            (
                "dense",
                dense_ns,
                if dense_fits { None } else { dense_skip() },
            ),
            ("compressed", compressed_ns, None),
        ] {
            rows.push(ScaleRow {
                kernel: "reach16".into(),
                backend: backend.into(),
                nodes: n,
                edges: cyc.edge_count(),
                mean_ns: ns,
                skipped: skip,
            });
        }
    }
    rows
}

/// Per-kernel backend crossover points derived from E22 rows: the smallest
/// size where dense beats the BTree baseline, and the smallest size where
/// compressed beats dense — including "wins by default" sizes where the
/// slower backend could not run at all.
pub fn scale_crossovers(rows: &[ScaleRow]) -> Vec<(String, Option<usize>, Option<usize>)> {
    let mut kernels: Vec<String> = Vec::new();
    for r in rows {
        if !kernels.contains(&r.kernel) {
            kernels.push(r.kernel.clone());
        }
    }
    let cell = |kernel: &str, backend: &str, n: usize| -> Option<&ScaleRow> {
        rows.iter()
            .find(|r| r.kernel == kernel && r.backend == backend && r.nodes == n)
    };
    let mut out = Vec::new();
    for kernel in kernels {
        let mut sizes: Vec<usize> = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .map(|r| r.nodes)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        let beats = |fast: &str, slow: &str| -> Option<usize> {
            sizes.iter().copied().find(|&n| {
                let f = cell(&kernel, fast, n).and_then(|r| r.mean_ns);
                let s = cell(&kernel, slow, n).and_then(|r| r.mean_ns);
                match (f, s) {
                    (Some(f), Some(s)) => f < s,
                    // The faster backend measured where the slower one
                    // could not run at all: a win by forfeit.
                    (Some(_), None) => true,
                    _ => false,
                }
            })
        };
        let dense_beats_btree = beats("dense", "btree");
        let compressed_beats_dense = beats("compressed", "dense");
        out.push((kernel, dense_beats_btree, compressed_beats_dense));
    }
    out
}

/// Renders E22.
pub fn scale_table(rows: &[ScaleRow]) -> Table {
    let mut t = Table::new(["kernel", "backend", "nodes", "edges", "mean ns", "note"]);
    for r in rows {
        t.row([
            r.kernel.clone(),
            r.backend.clone(),
            r.nodes.to_string(),
            r.edges.to_string(),
            r.mean_ns
                .map_or_else(|| "-".into(), |ns| format!("{ns:.0}")),
            r.skipped.clone().unwrap_or_default(),
        ]);
    }
    t
}

/// The machine-readable E22 document (`BENCH_7.json` schema): run metadata,
/// one object per kernel × backend × size cell (skipped cells carry a
/// reason instead of a time), and the derived per-kernel crossover points.
pub fn scale_report_json(rows: &[ScaleRow], iters: usize, seed: u64) -> Value {
    let crossovers = scale_crossovers(rows)
        .into_iter()
        .map(|(kernel, dense_at, compressed_at)| {
            object(vec![
                ("kernel", Value::from(kernel)),
                (
                    "dense_beats_btree_at",
                    dense_at
                        .map(|n| Value::from(n as u64))
                        .unwrap_or(Value::Null),
                ),
                (
                    "compressed_beats_dense_at",
                    compressed_at
                        .map(|n| Value::from(n as u64))
                        .unwrap_or(Value::Null),
                ),
            ])
        })
        .collect();
    object(vec![
        ("bench", Value::from("BENCH_7")),
        ("experiment", Value::from("E22")),
        ("generated_by", Value::from("exp_scaling --kernels")),
        ("iters", Value::from(iters as u64)),
        ("seed", Value::from(seed)),
        (
            "dense_crossover_default",
            Value::from(compc_core::DENSE_CROSSOVER_DEFAULT as u64),
        ),
        (
            "compressed_crossover_default",
            Value::from(compc_core::COMPRESSED_CROSSOVER_DEFAULT as u64),
        ),
        ("mem_budget_bytes", Value::from(SCALE_MEM_BUDGET)),
        (
            "reach_sample_sources",
            Value::from(REACH_SAMPLE_SOURCES as u64),
        ),
        (
            "kernels",
            Value::Array(rows.iter().map(|r| r.to_json()).collect()),
        ),
        ("crossovers", Value::Array(crossovers)),
    ])
}

impl_row_json!(EquivalenceRow {
    shape,
    samples,
    direct_accepts,
    comp_c_accepts,
    disagreements
});
impl_row_json!(PermissivenessRow {
    density,
    samples,
    llsr,
    opsr,
    scc,
    comp_c
});
impl_row_json!(ScalingRow {
    label,
    nodes,
    schedules,
    mean_us,
    accept_rate
});
impl_row_json!(SimulatorRow {
    scenario,
    protocol,
    runs,
    committed,
    aborts,
    throughput,
    latency,
    comp_c,
    not_comp_c,
    violations
});
impl_row_json!(SemanticsRow {
    table,
    throughput,
    latency,
    aborts
});
impl_row_json!(AblationRow {
    density,
    samples,
    with_forgetting,
    without_forgetting
});
impl_row_json!(ExpressivenessRow {
    population,
    samples,
    multilevel,
    nested_pairwise,
    nested_centralized
});
impl_row_json!(KernelRow {
    kernel,
    nodes,
    edges,
    btree_ns,
    bit_ns,
    speedup
});

#[cfg(test)]
mod json_row_tests {
    use super::*;

    #[test]
    fn rows_render_as_json_objects() {
        let row = EquivalenceRow {
            shape: "stack/3".into(),
            samples: 10,
            direct_accepts: 7,
            comp_c_accepts: 7,
            disagreements: 0,
        };
        let line = row.to_json().to_compact();
        assert_eq!(
            line,
            r#"{"shape":"stack/3","samples":10,"direct_accepts":7,"comp_c_accepts":7,"disagreements":0}"#
        );
    }
}
