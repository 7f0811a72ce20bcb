//! E1–E4: the paper's Figures 1–4, executed and checked.
//!
//! Prints each figure's structure, the reduction trace (front by front), and
//! the verdict with its witness — the machine-checked counterpart of the
//! paper's §3.6/§3.7 walkthroughs.

use compc_core::{check, Checker, Front};
use compc_model::CompositeSystem;
use compc_workload::figures::{figure1, figure2, figure3_incorrect, figure4_correct, Figure};

/// Fronts 0..=N of a Comp-C system, by stepping the reduction.
fn fronts(sys: &CompositeSystem) -> Vec<Front> {
    let mut reducer = Checker::new().reducer(sys);
    let mut fronts = vec![reducer.front().clone()];
    for level in 1..=sys.order() {
        reducer
            .step(level)
            .expect("a Comp-C system reduces every level");
        fronts.push(reducer.front().clone());
    }
    fronts
}

fn dump_dots(fig: &Figure, tag: &str, dir: &str) {
    if check(&fig.system).is_correct() {
        for front in fronts(&fig.system) {
            let path = format!("{dir}/{tag}_front{}.dot", front.level);
            let _ = std::fs::write(&path, front.to_dot(&fig.system));
        }
    }
    let _ = std::fs::write(format!("{dir}/{tag}_forest.dot"), fig.system.forest_dot());
}

fn describe(fig: &Figure, title: &str, expect_correct: bool) {
    let sys = &fig.system;
    println!("== {title} ==");
    println!(
        "schedules: {}   nodes: {}   order N = {}",
        sys.schedule_count(),
        sys.node_count(),
        sys.order()
    );
    for s in sys.schedules() {
        println!(
            "  {} ({}): level {}, {} transactions, {} conflicts",
            s.name,
            s.id,
            sys.level(s.id),
            s.transactions.len(),
            s.conflicts.len()
        );
    }
    match check(sys) {
        compc_core::Verdict::Correct(proof) => {
            assert!(expect_correct, "{title}: expected incorrect, got correct");
            println!("verdict: Comp-C (correct)");
            for f in fronts(sys) {
                let observed = f.observed_pairs();
                println!(
                    "  level-{} front: {} nodes, {} observed pairs, {} conflicts, {} input pairs",
                    f.level,
                    f.nodes.len(),
                    observed.len(),
                    f.conflict_pairs(sys).len(),
                    f.input_pairs().len()
                );
                for (a, b) in observed {
                    println!("    {} <o {}", sys.name(a), sys.name(b));
                }
            }
            let witness: Vec<&str> = proof.serial_witness.iter().map(|&n| sys.name(n)).collect();
            println!("  serial witness: {}", witness.join(" ; "));
        }
        compc_core::Verdict::Incorrect(cex) => {
            assert!(!expect_correct, "{title}: expected correct, got {cex}");
            println!("verdict: NOT Comp-C");
            println!("  {cex}");
        }
    }
    println!();
}

fn main() {
    println!("Reproduction of the paper's figures (E1-E4)\n");
    // With --dot <dir>, front DOT renderings are written per figure.
    let dot_dir = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--dot")
            .and_then(|i| args.get(i + 1).cloned())
    };
    let _ = &dot_dir;
    describe(&figure1(), "Figure 1: a general composite system", true);
    describe(&figure2(), "Figure 2: conflict and observed order", true);
    describe(
        &figure3_incorrect(),
        "Figure 3: an incorrect execution",
        false,
    );
    describe(&figure4_correct(), "Figure 4: a correct execution", true);
    if let Some(dir) = &dot_dir {
        std::fs::create_dir_all(dir).expect("create dot dir");
        dump_dots(&figure1(), "fig1", dir);
        dump_dots(&figure2(), "fig2", dir);
        dump_dots(&figure3_incorrect(), "fig3", dir);
        dump_dots(&figure4_correct(), "fig4", dir);
        println!("DOT files written to {dir}");
    }

    // Figure 2's specific claim: the observed order relates (T1,T2) and
    // (T1,T3) at the top front.
    let fig2 = figure2();
    let top = fronts(&fig2.system).pop().unwrap().observed_pairs();
    let t1 = fig2.node("T1");
    assert!(top.contains(&(t1, fig2.node("T2"))));
    assert!(top.contains(&(t1, fig2.node("T3"))));
    println!("figure 2 check: (T1,T2) and (T1,T3) related, as the paper states ✓");
}
