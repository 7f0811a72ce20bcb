//! The paper's figures as executable scenarios.
//!
//! The original figures are hand-drawn and only partially described by the
//! running text, so each builder here reconstructs the *shape the text
//! relies on* and records which textual claims it must satisfy; the
//! assertions live in the integration tests and the `fig_examples` harness.

use compc_model::{CompositeSystem, NodeId, SystemBuilder};

/// Handles into a figure scenario: the built system plus the nodes the
/// paper's narrative talks about.
pub struct Figure {
    /// The composite system.
    pub system: CompositeSystem,
    /// Named nodes of interest, in figure order (see each builder's docs).
    pub nodes: Vec<(String, NodeId)>,
}

impl Figure {
    /// Looks up a node of interest by name.
    pub fn node(&self, name: &str) -> NodeId {
        self.nodes
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("figure has no node {name}"))
            .1
    }
}

/// **Figure 1** — a general composite system: five schedulers in an
/// arbitrary acyclic configuration with levels 1–3, five composite
/// transactions of different heights, and two transactions (`T4`, `T5`)
/// that share **no** schedule yet can interfere transitively through the
/// stores. The execution is consistent, so the system is Comp-C.
///
/// Nodes of interest: `T1`–`T5`.
pub fn figure1() -> Figure {
    let mut b = SystemBuilder::new();
    // Level 3: an application server; level 2: two middleware components;
    // level 1: two stores.
    let s_app = b.schedule("app");
    let s_mw1 = b.schedule("mw1");
    let s_mw2 = b.schedule("mw2");
    let s_db1 = b.schedule("db1");
    let s_db2 = b.schedule("db2");

    // T1: tall tree through mw1 down to both stores.
    let t1 = b.root("T1", s_app);
    let t1m = b.subtx("t1m", t1, s_mw1);
    let u11 = b.subtx("u11", t1m, s_db1);
    let u12 = b.subtx("u12", t1m, s_db2);
    let x11 = b.leaf("x11", u11);
    let x12 = b.leaf("x12", u12);

    // T2: through mw2 to db1.
    let t2 = b.root("T2", s_app);
    let t2m = b.subtx("t2m", t2, s_mw2);
    let u21 = b.subtx("u21", t2m, s_db1);
    let x21 = b.leaf("x21", u21);

    // T3: a client of mw1 directly (roots need not sit at the top level).
    let t3 = b.root("T3", s_mw1);
    let u31 = b.subtx("u31", t3, s_db2);
    let x31 = b.leaf("x31", u31);

    // T4 and T5: clients of the two stores directly — they share no
    // schedule with each other.
    let t4 = b.root("T4", s_db1);
    let x41 = b.leaf("x41", t4);
    let t5 = b.root("T5", s_db2);
    let x51 = b.leaf("x51", t5);

    // A consistent execution: db1 serializes everyone T1-side first, db2
    // likewise in a compatible direction.
    b.conflict(x11, x21).unwrap();
    b.output_weak(x11, x21).unwrap();
    b.conflict(x21, x41).unwrap();
    b.output_weak(x21, x41).unwrap();
    b.conflict(x12, x31).unwrap();
    b.output_weak(x12, x31).unwrap();
    b.conflict(x31, x51).unwrap();
    b.output_weak(x31, x51).unwrap();
    let system = b.build().expect("figure 1 must validate");
    Figure {
        system,
        nodes: vec![
            ("T1".into(), t1),
            ("T2".into(), t2),
            ("T3".into(), t3),
            ("T4".into(), t4),
            ("T5".into(), t5),
        ],
    }
}

/// **Figure 2** — the conflict/observed-order illustration: leaves `o13`
/// and `o25` both live on schedule `S4`, conflict, and are ordered by `S4`;
/// the observed order and generalized conflict then incrementally relate
/// the root pairs `(T1, T2)` and — through a second store `S5` — `(T1, T3)`.
///
/// Nodes of interest: `T1`, `T2`, `T3`, `o13`, `o25`.
pub fn figure2() -> Figure {
    let mut b = SystemBuilder::new();
    let s1 = b.schedule("S1");
    let s2 = b.schedule("S2");
    let s3 = b.schedule("S3");
    let s4 = b.schedule("S4"); // shared store of T1 and T2
    let s5 = b.schedule("S5"); // shared store of T1 and T3

    let t1 = b.root("T1", s1);
    let t2 = b.root("T2", s2);
    let t3 = b.root("T3", s3);

    let t13 = b.subtx("t13", t1, s4);
    let o13 = b.leaf("o13", t13);
    let t25 = b.subtx("t25", t2, s4);
    let o25 = b.leaf("o25", t25);

    let t15 = b.subtx("t15", t1, s5);
    let o15 = b.leaf("o15", t15);
    let t35 = b.subtx("t35", t3, s5);
    let o35 = b.leaf("o35", t35);

    b.conflict(o13, o25).unwrap();
    b.output_weak(o13, o25).unwrap();
    b.conflict(o15, o35).unwrap();
    b.output_weak(o15, o35).unwrap();

    let system = b.build().expect("figure 2 must validate");
    Figure {
        system,
        nodes: vec![
            ("T1".into(), t1),
            ("T2".into(), t2),
            ("T3".into(), t3),
            ("o13".into(), o13),
            ("o25".into(), o25),
        ],
    }
}

/// **Figure 3** — an execution that is **not** Comp-C: two stores serialize
/// the subtrees of `T1` and `T2` in opposite directions; the conflicts pull
/// up through mid-level schedules that the pairs do *not* share, so nothing
/// forgets them, and at the top no isolated execution (calculation) for
/// `T1` exists. The figure's (f)→(g) "vanishing conflict" also appears: a
/// conflicting leaf pair under parents that *do* share a schedule (which
/// declares them non-conflicting) drops out during the reduction.
///
/// Nodes of interest: `T1`, `T2`, `T4`.
pub fn figure3_incorrect() -> Figure {
    let mut b = SystemBuilder::new();
    let s_c1 = b.schedule("C1"); // level-3 client of T1, T4
    let s_c2 = b.schedule("C2"); // level-3 client of T2
    let s_m1 = b.schedule("M1");
    let s_m2 = b.schedule("M2");
    let s_m3 = b.schedule("M3");
    let s_m4 = b.schedule("M4");
    let s_a = b.schedule("A"); // store
    let s_b = b.schedule("B"); // store

    let t1 = b.root("T1", s_c1);
    let t2 = b.root("T2", s_c2);
    let t4 = b.root("T4", s_c1);

    // T1's two arms through M1 and M3; T2's through M2 and M4.
    let t11 = b.subtx("t11", t1, s_m1);
    let t12 = b.subtx("t12", t1, s_m3);
    let t21 = b.subtx("t21", t2, s_m2);
    let t22 = b.subtx("t22", t2, s_m4);
    // T4 shares M1 with T1 — the vanishing-conflict pair.
    let t41 = b.subtx("t41", t4, s_m1);

    let u11 = b.subtx("u11", t11, s_a);
    let u21 = b.subtx("u21", t21, s_a);
    let u12 = b.subtx("u12", t12, s_b);
    let u22 = b.subtx("u22", t22, s_b);
    let u41 = b.subtx("u41", t41, s_a);

    let x11 = b.leaf("x11", u11);
    let x21 = b.leaf("x21", u21);
    let x12 = b.leaf("x12", u12);
    let x22 = b.leaf("x22", u22);
    let x41 = b.leaf("x41", u41);

    // Store A serializes T1's arm before T2's; store B the opposite.
    b.conflict(x11, x21).unwrap();
    b.output_weak(x11, x21).unwrap();
    b.conflict(x22, x12).unwrap();
    b.output_weak(x22, x12).unwrap();
    // The vanishing conflict: x11 vs x41 conflict and are ordered at A, but
    // u11 and u41 are both operations of M1, which declares no conflict
    // between them — the pulled-up pair becomes irrelevant (Fig. 3 (f)→(g)).
    b.conflict(x11, x41).unwrap();
    b.output_weak(x11, x41).unwrap();

    let system = b.build().expect("figure 3 must validate");
    Figure {
        system,
        nodes: vec![("T1".into(), t1), ("T2".into(), t2), ("T4".into(), t4)],
    }
}

/// **Figure 4** — a correct execution with the same opposing lower-level
/// serializations as Figure 3, but here the two roots share their top
/// schedule, and that schedule declares the pulled-up subtransaction pairs
/// non-conflicting: "the orders obtained … in the previous step are
/// forgotten (since they can be trusted to be irrelevant)", and the
/// reduction completes to a level-3 front of roots.
///
/// Nodes of interest: `T1`, `T2`.
pub fn figure4_correct() -> Figure {
    let mut b = SystemBuilder::new();
    let s_top = b.schedule("top"); // level-3 schedule shared by both roots
    let s_m1 = b.schedule("M1");
    let s_m2 = b.schedule("M2");
    let s_m3 = b.schedule("M3");
    let s_m4 = b.schedule("M4");
    let s_a = b.schedule("A");
    let s_b = b.schedule("B");

    let t1 = b.root("T1", s_top);
    let t2 = b.root("T2", s_top);

    let t11 = b.subtx("t11", t1, s_m1);
    let t12 = b.subtx("t12", t1, s_m3);
    let t21 = b.subtx("t21", t2, s_m2);
    let t22 = b.subtx("t22", t2, s_m4);

    let u11 = b.subtx("u11", t11, s_a);
    let u21 = b.subtx("u21", t21, s_a);
    let u12 = b.subtx("u12", t12, s_b);
    let u22 = b.subtx("u22", t22, s_b);

    let x11 = b.leaf("x11", u11);
    let x21 = b.leaf("x21", u21);
    let x12 = b.leaf("x12", u12);
    let x22 = b.leaf("x22", u22);

    // Same opposing serializations as Figure 3 …
    b.conflict(x11, x21).unwrap();
    b.output_weak(x11, x21).unwrap();
    b.conflict(x22, x12).unwrap();
    b.output_weak(x22, x12).unwrap();
    // … but t11/t21 and t12/t22 are all operations of `top`, which declares
    // no conflicts among them: the pulled-up orders are forgotten.

    let system = b.build().expect("figure 4 must validate");
    Figure {
        system,
        nodes: vec![("T1".into(), t1), ("T2".into(), t2)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compc_core::{check, Checker, FailurePhase, Front};

    /// The level-N front of a Comp-C system, by stepping the reduction.
    fn top_front(sys: &CompositeSystem) -> Front {
        let mut reducer = Checker::new().reducer(sys);
        for level in 1..=sys.order() {
            reducer
                .step(level)
                .expect("a Comp-C system reduces every level");
        }
        reducer.front().clone()
    }

    #[test]
    fn figure1_structure_and_verdict() {
        let fig = figure1();
        let sys = &fig.system;
        assert_eq!(sys.schedule_count(), 5);
        assert_eq!(sys.order(), 3);
        assert_eq!(sys.roots().count(), 5);
        // T4 and T5 share no schedule: the sets of schedules their composite
        // transactions touch are disjoint.
        let touched = |root| {
            let mut s: Vec<_> = sys
                .composite_transaction(root)
                .into_iter()
                .flat_map(|n| [sys.node(n).home, sys.node(n).container])
                .flatten()
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let t4 = touched(fig.node("T4"));
        let t5 = touched(fig.node("T5"));
        assert!(t4.iter().all(|s| !t5.contains(s)));
        // … which is exactly why Figure 1 is outside the nested-transaction
        // model (paper §1).
        assert!(!compc_configs::nested_expressible_pairwise(sys));
        assert!(!compc_configs::multilevel_expressible(sys));
        assert!(check(sys).is_correct());
    }

    #[test]
    fn figure2_observed_order_relates_roots() {
        let fig = figure2();
        assert!(check(&fig.system).is_correct(), "figure 2 is correct");
        let last = top_front(&fig.system);
        let observed = last.observed_pairs();
        let (t1, t2, t3) = (fig.node("T1"), fig.node("T2"), fig.node("T3"));
        assert!(observed.contains(&(t1, t2)));
        assert!(observed.contains(&(t1, t3)));
        assert!(!observed.contains(&(t2, t3)));
        // And the generalized conflict relation contains the same pairs.
        let conflicts = last.conflict_pairs(&fig.system);
        assert!(conflicts.contains(&(t1, t2)));
        assert!(conflicts.contains(&(t1, t3)));
    }

    #[test]
    fn figure3_fails_at_the_top_calculation() {
        let fig = figure3_incorrect();
        let v = check(&fig.system);
        let cex = v.counterexample().expect("figure 3 is incorrect");
        assert_eq!(cex.level, 3);
        assert_eq!(cex.phase, FailurePhase::Calculation);
        assert!(cex.cycle.contains(&fig.node("T1")));
        assert!(cex.cycle.contains(&fig.node("T2")));
        // T4 is not part of the problem.
        assert!(!cex.cycle.contains(&fig.node("T4")));
    }

    #[test]
    fn figure4_forgets_and_succeeds() {
        let fig = figure4_correct();
        let v = check(&fig.system);
        assert!(v.is_correct(), "{:?}", v.counterexample());
        // The final front holds exactly the two roots, unordered (all
        // pulled-up orders were forgotten at the top schedule).
        let last = top_front(&fig.system);
        assert_eq!(
            last.members().collect::<Vec<_>>(),
            vec![fig.node("T1"), fig.node("T2")]
        );
        assert!(last.conflict_pairs(&fig.system).is_empty());
    }

    #[test]
    fn figure3_matches_figure4_except_for_the_shared_top() {
        // The two figures differ only in who the roots' home schedule is
        // (and the extra T4 arm); sanity-check that the orders of both
        // systems validate and produce opposite verdicts.
        assert!(!check(&figure3_incorrect().system).is_correct());
        assert!(check(&figure4_correct().system).is_correct());
    }
}
