//! Verdict equivalence of the parallel batch engine.
//!
//! A batch spreads items across worker threads and checks each one
//! sequentially, so every worker count must give not just the same
//! accept/reject answer but the *identical* verdict per item — same serial
//! witness, same counterexample cycle — as checking that item alone. This test pins that down on random systems across densities, at
//! `workers ∈ {1, 2, 4}`.

use compc::core::{check, Verdict};
use compc::engine::{Batch, BatchItem};
use compc::workload::random::{generate, GenParams, Shape};
use proptest::prelude::*;

fn params(shape: Shape, roots: usize, density: f64, orders: f64, seed: u64) -> GenParams {
    GenParams {
        shape,
        roots,
        ops_per_tx: (1, 3),
        conflict_density: density,
        sequential_tx_prob: 0.7,
        client_input_prob: orders,
        strong_input_prob: orders / 2.0,
        sound_abstractions: false,
        seed,
    }
}

/// Everything observable about a verdict, as comparable data.
fn fingerprint(v: &Verdict) -> String {
    match v {
        Verdict::Correct(p) => format!("correct|witness={:?}", p.serial_witness),
        Verdict::Incorrect(c) => format!(
            "incorrect|level={}|phase={:?}|cycle={:?}",
            c.level, c.phase, c.cycle
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The batch engine preserves per-item verdicts exactly, regardless of
    /// worker count.
    #[test]
    fn batch_outcomes_identical_to_solo_checks(
        seed in 0u64..100_000,
        density in 0u8..=90,
    ) {
        let systems: Vec<_> = (0..6u64)
            .map(|i| generate(&params(
                Shape::General { levels: 3, scheds_per_level: 2 },
                4,
                density as f64 / 100.0,
                0.0,
                seed.wrapping_add(i * 9973),
            )))
            .collect();
        let solo: Vec<String> = systems.iter().map(|s| fingerprint(&check(s))).collect();
        for workers in [1usize, 2, 4] {
            let items: Vec<BatchItem> = systems
                .iter()
                .enumerate()
                .map(|(i, s)| BatchItem::new(format!("sys-{i}"), s.clone()))
                .collect();
            let report = Batch::new().workers(workers).check_all(items);
            let got: Vec<String> = report
                .outcomes
                .iter()
                .map(|o| fingerprint(o.verdict().expect("no faults in this batch")))
                .collect();
            prop_assert_eq!(&got, &solo, "workers={}", workers);
        }
    }
}
