//! Quickstart: build a small composite system by hand, check it, and read
//! the verdict.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The scenario: two clients go through a shared middleware component into
//! a shared database. The database serializes their conflicting accesses in
//! one consistent direction, so the composite execution is correct, and the
//! checker produces a serial witness.

use compc::core::{CheckOptions, Checker, Verdict};
use compc::model::SystemBuilder;

fn main() {
    // 1. Declare the components (schedules) of the composite system.
    let mut b = SystemBuilder::new();
    let middleware = b.schedule("middleware");
    let database = b.schedule("database");

    // 2. Declare the computational forest: two root transactions at the
    //    middleware, each delegating one subtransaction to the database.
    let t1 = b.root("T1", middleware);
    let t2 = b.root("T2", middleware);
    let u1 = b.subtx("debit", t1, database);
    let u2 = b.subtx("credit", t2, database);
    let r1 = b.leaf("r1(x)", u1);
    let w1 = b.leaf("w1(x)", u1);
    let r2 = b.leaf("r2(x)", u2);
    let w2 = b.leaf("w2(x)", u2);

    // 3. Describe the execution each scheduler produced. The database knows
    //    its reads and writes of x conflict, and it ran T1's subtransaction
    //    entirely before T2's:
    for (a, bnode) in [(r1, r2), (r1, w2), (w1, r2), (w1, w2)] {
        b.conflict(a, bnode).expect("same-schedule pair");
        b.output_weak(a, bnode).expect("consistent execution");
    }
    // Program order within each subtransaction.
    b.tx_weak_order(r1, w1).unwrap();
    b.output_weak(r1, w1).unwrap();
    b.tx_weak_order(r2, w2).unwrap();
    b.output_weak(r2, w2).unwrap();
    // The middleware declares the two delegations conflicting as well and
    // executed them in the matching order; Definition 4.7 propagates that
    // order down as the database's input order.
    b.conflict(u1, u2).unwrap();
    b.output_weak(u1, u2).unwrap();
    b.propagate_orders().unwrap();

    // 4. Validate (Definitions 2-4) and check correctness (Theorem 1).
    let system = b.build().expect("the declared execution is well-formed");
    println!(
        "composite system: {} schedules, order N = {}",
        system.schedule_count(),
        system.order()
    );

    // `Checker` is the configurable entry point: `forgetting` toggles the
    // Definition-10 ablation and `backend` picks the closure
    // representation (plain `compc::check(&system)` is the shorthand for
    // the defaults).
    let checker = Checker::with_options(CheckOptions::new().forgetting(true));
    match checker.check(&system) {
        Verdict::Correct(proof) => {
            println!("verdict: Comp-C (correct)");
            // The verdict carries only the witness; stepping a reducer
            // recomputes the fronts that lead to it.
            println!("reduction trace:");
            let mut reducer = checker.reducer(&system);
            for level in 0..=system.order() {
                if level > 0 {
                    reducer
                        .step(level)
                        .expect("a Comp-C system reduces every level");
                }
                let front = reducer.front();
                let names: Vec<&str> = front.members().map(|n| system.name(n)).collect();
                println!("  level-{} front: [{}]", front.level(), names.join(", "));
            }
            let witness: Vec<&str> = proof
                .serial_witness
                .iter()
                .map(|&n| system.name(n))
                .collect();
            println!("equivalent serial execution: {}", witness.join(" ; "));
        }
        Verdict::Incorrect(cex) => {
            println!("verdict: NOT Comp-C — {cex}");
        }
    }
}
