//! Differential test of the per-thread check scratch.
//!
//! A check runs in buffers its thread keeps from one check to the next.
//! Here one thread checks a shuffled sequence of systems — the corpus,
//! generated systems of every shape, a system past the compressed
//! crossover, systems smaller than the one before them, checks cut short
//! by a zero deadline or a cancel token, and a second reducer alive
//! beside a first — and every verdict (its full `Debug` form) and every
//! stepped front must equal a check of the same system on a fresh thread,
//! whose scratch is new. A reset that left stale rows or dense words
//! behind would leak one system's pairs into the next.

use compc::core::{Backend, CheckCtx, CheckOptions, Checker, Front, Reducer};
use compc::model::CompositeSystem;
use compc::spec::SystemSpec;
use compc::workload::random::{generate, GenParams, Shape};
use compc_fuzz::corpus::{stepped_fronts, FrontFields};
use std::path::Path;
use std::sync::atomic::AtomicBool;

/// A verdict and the fronts stepping reaches.
type Fingerprint = (String, Vec<FrontFields>);

fn fingerprint(sys: &CompositeSystem, options: CheckOptions) -> Fingerprint {
    let verdict = Checker::with_options(options).check(sys);
    (format!("{verdict:?}"), stepped_fronts(sys, options))
}

/// The fingerprint on a thread of its own, whose scratch is fresh.
fn fresh(sys: &CompositeSystem, options: CheckOptions) -> Fingerprint {
    std::thread::scope(|s| {
        s.spawn(|| fingerprint(sys, options))
            .join()
            .expect("the reference check does not panic")
    })
}

fn corpus() -> Vec<(String, CompositeSystem)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the corpus directory exists")
        .map(|e| e.expect("a corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("a readable corpus file");
            let sys = SystemSpec::parse(&text)
                .and_then(|spec| spec.build())
                .expect("a valid corpus system");
            (p.display().to_string(), sys)
        })
        .collect()
}

fn generated() -> Vec<(String, CompositeSystem)> {
    let shapes = [
        Shape::General {
            levels: 3,
            scheds_per_level: 2,
        },
        Shape::Stack { depth: 3 },
        Shape::Fork { branches: 3 },
        Shape::Join { branches: 2 },
    ];
    let mut out = Vec::new();
    for seed in 0..12u64 {
        for (k, &shape) in shapes.iter().enumerate() {
            let params = GenParams {
                shape,
                roots: 3 + (seed as usize * 5 + k * 7) % 40,
                conflict_density: [0.05, 0.2, 0.4][seed as usize % 3],
                client_input_prob: 0.2,
                seed,
                ..GenParams::default()
            };
            out.push((format!("{shape:?} seed {seed}"), generate(&params)));
        }
    }
    out
}

/// A two-level stack of at least 4,096 nodes, closed on the compressed
/// backend under `Backend::Auto`.
fn large() -> (String, CompositeSystem) {
    let sys = generate(&GenParams {
        shape: Shape::Stack { depth: 2 },
        roots: 800,
        ops_per_tx: (2, 3),
        conflict_density: 0.0005,
        seed: 7,
        ..GenParams::default()
    });
    assert!(
        sys.node_count() >= compc::core::COMPRESSED_CROSSOVER_DEFAULT,
        "{} nodes",
        sys.node_count()
    );
    ("stack of 800 roots".to_string(), sys)
}

/// Seeded Fisher–Yates.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

#[test]
fn one_thread_checks_like_fresh_threads() {
    let mut systems = corpus();
    systems.extend(generated());
    systems.push(large());
    shuffle(&mut systems, 0x5eed);
    // The large system first, then a smaller one: `n` shrinks at once.
    let at = systems
        .iter()
        .position(|(label, _)| label.starts_with("stack of"))
        .expect("the large system is in the sequence");
    systems.swap(0, at);
    let expected: Vec<Fingerprint> = systems
        .iter()
        .map(|(_, sys)| fresh(sys, CheckOptions::new()))
        .collect();
    let mut shrinks = 0;
    for (i, ((label, sys), want)) in systems.iter().zip(&expected).enumerate() {
        if i > 0 && sys.node_count() < systems[i - 1].1.node_count() {
            shrinks += 1;
        }
        assert_eq!(
            &fingerprint(sys, CheckOptions::new()),
            want,
            "{label} (position {i}) checked after other systems"
        );
        // Every fourth system is first cut short, both ways; the check
        // after an interruption must not see its leftovers.
        if i % 4 == 1 {
            let zero = CheckOptions::new().deadline(std::time::Duration::ZERO);
            assert!(Checker::with_options(zero)
                .try_check(sys, &mut CheckCtx::new())
                .is_err());
        }
        if i % 4 == 3 {
            let stop = AtomicBool::new(true);
            assert!(Reducer::new(sys).cancel_token(&stop).try_run().is_err());
        }
    }
    assert!(
        shrinks > 10,
        "only {shrinks} systems were smaller than the last"
    );
}

/// A front as `stepped_fronts` records it.
fn fields(sys: &CompositeSystem, f: &Front) -> FrontFields {
    (
        f.level(),
        f.members().collect(),
        f.observed_pairs(),
        f.conflict_pairs(sys),
        f.input_pairs(),
    )
}

#[test]
fn two_reducers_alive_at_once_check_like_fresh_threads() {
    let systems = generated();
    for pair in systems.chunks(2) {
        let [(_, a), (_, b)] = pair else { continue };
        let (want_a, want_b) = (fresh(a, CheckOptions::new()), fresh(b, CheckOptions::new()));
        // The first reducer holds the thread's scratch mid-reduction while
        // the second system is checked and stepped beside it.
        let mut first = Reducer::new(a);
        let mut fronts = vec![fields(a, first.front())];
        for level in 1..=a.order() {
            let stepped = first.step(level);
            fronts.push(fields(a, first.front()));
            if level == 1 {
                assert_eq!(fingerprint(b, CheckOptions::new()), want_b);
            }
            if stepped.is_err() {
                break;
            }
        }
        assert_eq!(fronts, want_a.1);
        drop(first);
        assert_eq!(fingerprint(a, CheckOptions::new()), want_a);
        assert_eq!(fingerprint(b, CheckOptions::new()), want_b);
    }
}

#[test]
fn forced_backends_and_ablation_reuse_the_scratch_alike() {
    let mut systems = corpus();
    systems.extend(generated().into_iter().step_by(3));
    shuffle(&mut systems, 7);
    let options = [
        CheckOptions::new().backend(Backend::Dense),
        CheckOptions::new().backend(Backend::Sparse),
        CheckOptions::new().backend(Backend::Compressed),
        CheckOptions::new().forgetting(false),
    ];
    for (i, (label, sys)) in systems.iter().enumerate() {
        let options = options[i % options.len()];
        assert_eq!(
            fingerprint(sys, options),
            fresh(sys, options),
            "{label} under {options:?}"
        );
    }
}
