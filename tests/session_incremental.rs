//! Differential pinning of the session against batch checking.
//!
//! The contract under test (DESIGN.md §8): feeding a system to a
//! [`SpecSession`] fragment-by-fragment — one fragment per root subtree,
//! via [`SystemSpec::into_appends`] — produces, after every prefix, a
//! verdict *bit-identical* (full `Debug` structure: the serial witness or
//! the counterexample cycle) to a from-scratch batch check of the same
//! merged prefix system, and the forced-backend rows step through the same
//! complete fronts as the default backend. Pinned on the committed
//! 16-file adversarial corpus (under the sparse and dense closure
//! backends and without forgetting), on random generated
//! systems under proptest, and against the brute-force oracle on systems
//! within its node cap. The system the
//! session extends in place must equal a from-scratch build of the merged
//! spec at every prefix, on the corpus and on simulator exports.

use compc::core::{Backend, CheckOptions, Checker, SessionError, Verdict};
use compc::session::{SpecSession, SpecSessionError};
use compc::sim::{Engine, Protocol, SimConfig};
use compc::spec::SystemSpec;
use compc::workload::random::{generate, GenParams, Shape};
use compc::workload::random_sim::{generate_sim, SimGenParams};
use compc_fuzz::corpus::stepped_fronts;
use proptest::prelude::*;
use std::path::Path;

/// Everything observable about a verdict. `Debug` covers the whole proof
/// (the witness) or counterexample (level, phase, cycle), so equality here
/// is bit-identity of the structures.
fn fingerprint(v: &Verdict) -> String {
    format!("{v:?}")
}

/// Replays `spec` through a session with `options`, asserting after every
/// fragment that the session's verdict equals a from-scratch check of the
/// session's merged system and, when `options` only force a backend, that
/// the stepped fronts equal the default backend's. Returns the final
/// verdict.
fn replay_and_pin(spec: &SystemSpec, options: CheckOptions, context: &str) -> Verdict {
    let fragments = spec.into_appends();
    assert!(!fragments.is_empty(), "{context}: no fragments");
    let mut session = SpecSession::with_options(options);
    for (k, fragment) in fragments.iter().enumerate() {
        let incremental = session
            .append(fragment)
            .unwrap_or_else(|e| {
                panic!(
                    "{context}: fragment {}/{} rejected: {e}",
                    k + 1,
                    fragments.len()
                )
            })
            .clone();
        let prefix = session.system().expect("append installed a system");
        assert_eq!(
            Some(prefix),
            session.spec().build().ok().as_ref(),
            "{context}: prefix {}/{} extended in place differs from a from-scratch build",
            k + 1,
            fragments.len()
        );
        let batch = Checker::with_options(options).check(prefix);
        assert_eq!(
            fingerprint(&incremental),
            fingerprint(&batch),
            "{context}: prefix {}/{} diverged from batch",
            k + 1,
            fragments.len()
        );
        if options.forgetting {
            assert_eq!(
                stepped_fronts(prefix, options),
                stepped_fronts(prefix, CheckOptions::new()),
                "{context}: prefix {}/{} fronts differ from the default backend's",
                k + 1,
                fragments.len()
            );
        }
    }
    session.verdict().expect("at least one append").clone()
}

/// Every committed corpus file, prefix-by-prefix, on both forced backends
/// and without forgetting. The filename encodes the expected
/// acceptance (`.correct.json` / `.incorrect.json`) under default
/// forgetting, so those replays are also checked against ground truth.
#[test]
fn corpus_replays_bit_identically_on_both_backends() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    files.sort();
    assert!(files.len() >= 16, "corpus shrank: {} files", files.len());
    for file in files {
        let name = file.file_name().unwrap().to_string_lossy().to_string();
        let expect_correct = name.ends_with(".correct.json");
        let text = std::fs::read_to_string(&file).unwrap();
        let spec = SystemSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: corpus file must parse: {e}"));
        let rows = [
            ("sparse", CheckOptions::new().backend(Backend::Sparse)),
            ("dense", CheckOptions::new().backend(Backend::Dense)),
            ("no forgetting", CheckOptions::new().forgetting(false)),
        ];
        for (row, options) in rows {
            let context = format!("{name} [{row}]");
            let verdict = replay_and_pin(&spec, options, &context);
            if options.forgetting {
                assert_eq!(
                    verdict.is_correct(),
                    expect_correct,
                    "{context}: replayed acceptance contradicts the filename"
                );
            }
        }
    }
}

/// Timestamp-ordering simulator exports (the shape a growing daemon
/// session streams): extended in place, every prefix equals the
/// from-scratch build and checks bit-identically.
#[test]
fn simulator_exports_extend_in_place_like_a_from_scratch_build() {
    let mut checked = 0;
    for seed in 0..6 {
        let params = SimGenParams {
            seed,
            clients: 8,
            ..SimGenParams::default()
        };
        let (topo, templates) = generate_sim(&params, Protocol::Timestamp);
        let config = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let Ok(sys) = Engine::new(topo, templates, config).run().export_system() else {
            continue;
        };
        let spec = SystemSpec::from_system(&sys);
        let verdict = replay_and_pin(&spec, CheckOptions::default(), &format!("sim seed {seed}"));
        assert!(
            verdict.is_correct(),
            "sim seed {seed}: Timestamp ordering is Comp-C"
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} simulator runs exported a system"
    );
}

/// An interrupted replay recovers: cancelling the session interrupts the
/// first append, and re-sending the same fragment after clearing the token
/// checks it again — landing on the same verdict an uninterrupted replay
/// reaches.
#[test]
fn corpus_replay_resumes_after_interruption() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/figure3.incorrect.json");
    let spec = SystemSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let fragments = spec.into_appends();

    let mut session = SpecSession::new();
    session
        .cancel_token()
        .store(true, std::sync::atomic::Ordering::Relaxed);
    let err = session.append(&fragments[0]).unwrap_err();
    assert!(
        matches!(err, SpecSessionError::Session(SessionError::Interrupted(_))),
        "cancel must interrupt: {err}"
    );
    assert!(session.verdict().is_none());

    session
        .cancel_token()
        .store(false, std::sync::atomic::Ordering::Relaxed);
    for fragment in &fragments {
        session.append(fragment).unwrap();
    }
    let batch = Checker::new().check(session.system().unwrap());
    assert_eq!(
        fingerprint(session.verdict().unwrap()),
        fingerprint(&batch),
        "a replay after an interruption must still be bit-identical"
    );
    assert!(!session.verdict().unwrap().is_correct());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random layered systems: append-order replay is bit-identical to the
    /// batch check at every prefix, on auto, forced-sparse and forced-dense
    /// backends.
    #[test]
    fn random_systems_replay_bit_identically(
        seed in 0u64..100_000,
        roots in 2usize..=6,
        density in 0u8..=90,
    ) {
        let sys = generate(&GenParams {
            shape: Shape::General { levels: 3, scheds_per_level: 2 },
            roots,
            ops_per_tx: (1, 3),
            conflict_density: density as f64 / 100.0,
            sequential_tx_prob: 0.7,
            client_input_prob: 0.0,
            strong_input_prob: 0.0,
            sound_abstractions: false,
            seed,
        });
        let spec = SystemSpec::from_system(&sys);
        for backend in [Backend::Auto, Backend::Sparse, Backend::Dense] {
            let context = format!("seed {seed} [{backend}]");
            replay_and_pin(&spec, CheckOptions::new().backend(backend), &context);
        }
    }

    /// Small random systems, cross-checked against the brute-force oracle:
    /// the replayed incremental verdict agrees with the definitional
    /// decision on the merged system.
    #[test]
    fn small_replays_agree_with_the_oracle(
        seed in 0u64..100_000,
        roots in 2usize..=4,
        density in 0u8..=80,
    ) {
        let sys = generate(&GenParams {
            shape: Shape::General { levels: 2, scheds_per_level: 2 },
            roots,
            ops_per_tx: (1, 2),
            conflict_density: density as f64 / 100.0,
            sequential_tx_prob: 0.8,
            client_input_prob: 0.0,
            strong_input_prob: 0.0,
            sound_abstractions: false,
            seed,
        });
        prop_assume!(sys.node_count() <= compc::oracle::RECOMMENDED_NODE_CAP);
        let spec = SystemSpec::from_system(&sys);
        let mut session = SpecSession::with_options(CheckOptions::new().oracle(true));
        for fragment in &spec.into_appends() {
            // SpecSession's own oracle hook cross-checks every prefix; an
            // OracleDisagreement error here would fail the test.
            session.append(fragment).unwrap();
        }
        let merged = session.system().unwrap();
        prop_assert_eq!(
            session.verdict().unwrap().is_correct(),
            compc::oracle::decide(merged).accepted(),
            "seed {}: replayed verdict contradicts the oracle", seed
        );
    }
}
