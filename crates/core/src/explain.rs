//! Explainable verdicts: turn a [`Counterexample`] into a human-readable
//! story of the failing reduction.
//!
//! Theorem 1's decision procedure is level-by-level, so a failure has a
//! natural narrative: which levels reduced cleanly (and what they did to
//! the front), which level broke, in which phase, and on which cycle. An
//! [`Explanation`] re-runs the reduction by stepping a [`crate::Reducer`]
//! to recover that story, keeps the front at the point of failure (render
//! it with [`Front::to_dot`]), and shrinks the blame to a 1-minimal root
//! set with [`crate::minimize`].

use crate::front::Front;
use crate::minimize::minimize;
use crate::reduce::{CheckOptions, Checker, Counterexample, FailurePhase};
use compc_model::CompositeSystem;

/// A rendered, self-contained account of why a system is not Comp-C.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The failing reduction level (1-based; 0 = the level-0 front itself).
    pub level: usize,
    /// Which phase of the step failed.
    pub phase: FailurePhase,
    /// The system's order `N` (total reduction levels).
    pub total_levels: usize,
    /// The witness cycle, as node names, closed (first name repeated at the
    /// end when the cycle has more than one node).
    pub cycle: Vec<String>,
    /// One line per reduction level: what was reduced and how the front
    /// evolved, ending with the failing step.
    pub story: Vec<String>,
    /// The front the failure is about: the pre-step front for calculation
    /// failures (the cycle lives in its contracted constraint graph), the
    /// new cyclic front for conflict-consistency failures.
    pub failing_front: Front,
    /// A 1-minimal set of root-transaction names whose projection is still
    /// incorrect (empty when minimization does not apply).
    pub minimal_roots: Vec<String>,
    /// Total roots in the system (for "2 of 7" phrasing).
    pub root_count: usize,
}

fn closed_cycle(names: &[String]) -> Vec<String> {
    let mut cycle: Vec<String> = names.to_vec();
    if names.len() > 1 {
        cycle.push(names[0].clone());
    }
    cycle
}

impl Counterexample {
    /// Explains this counterexample against the system it came from, under
    /// default options (the ones [`crate::check`] uses). See
    /// [`Counterexample::explain_with`] for non-default options.
    pub fn explain(&self, sys: &CompositeSystem) -> Explanation {
        self.explain_with(sys, CheckOptions::default())
    }

    /// Explains this counterexample by re-running the reduction under
    /// `options`, narrating each level up to the failure. If the re-run does
    /// not reproduce a failure (e.g. the counterexample came from different
    /// options), the explanation falls back to this counterexample's own
    /// data and says so in the story.
    pub fn explain_with(&self, sys: &CompositeSystem, options: CheckOptions) -> Explanation {
        let mut reducer = Checker::with_options(options).reducer(sys);
        let mut story = vec![format!(
            "level 0: front of {} leaf operation(s)",
            reducer.front().member_count()
        )];
        let mut failed: Option<Counterexample> = None;

        if let Some(cycle_nodes) = reducer.front().is_cc() {
            // Degenerate: the level-0 front itself is inconsistent.
            let names: Vec<String> = cycle_nodes
                .iter()
                .map(|&n| sys.name(n).to_string())
                .collect();
            story.push(format!(
                "level 0: FAILED — the level-0 front is not conflict consistent: cycle {}",
                closed_cycle(&names).join(" -> ")
            ));
            failed = Some(Counterexample {
                level: 0,
                phase: FailurePhase::ConflictConsistency,
                cycle: cycle_nodes,
                cycle_names: names,
            });
        } else {
            for level in 1..=sys.order() {
                let sched_names: Vec<&str> = sys
                    .schedules_at_level(level)
                    .map(|s| s.name.as_str())
                    .collect();
                let before = reducer.front().member_count();
                match reducer.step(level) {
                    Ok(()) => {
                        story.push(format!(
                            "level {level}: reduced [{}]; front {before} -> {} node(s)",
                            sched_names.join(", "),
                            reducer.front().member_count()
                        ));
                    }
                    Err(cex) => {
                        let cyc = closed_cycle(&cex.cycle_names).join(" -> ");
                        match cex.phase {
                            FailurePhase::Calculation => {
                                story.push(format!(
                                    "level {level}: FAILED reducing [{}] — no isolated \
                                     execution (calculation) exists for the level-{level} \
                                     transactions: contracting them in the constraint graph \
                                     leaves cycle {cyc}",
                                    sched_names.join(", ")
                                ));
                            }
                            FailurePhase::ConflictConsistency => {
                                story.push(format!(
                                    "level {level}: FAILED reducing [{}] — the new front is \
                                     not conflict consistent: the observed and input orders \
                                     close into cycle {cyc}",
                                    sched_names.join(", ")
                                ));
                            }
                        }
                        failed = Some(cex);
                        break;
                    }
                }
            }
        }

        if failed.is_none() {
            story.push(
                "(note: re-running the reduction under these options did not reproduce \
                 the failure; narrating the recorded counterexample instead)"
                    .to_string(),
            );
        }
        let cex = failed.as_ref().unwrap_or(self);
        let minimal_roots = minimize(sys)
            .map(|m| m.roots.iter().map(|&r| sys.name(r).to_string()).collect())
            .unwrap_or_default();
        Explanation {
            level: cex.level,
            phase: cex.phase,
            total_levels: sys.order(),
            cycle: closed_cycle(&cex.cycle_names),
            story,
            // A failed step leaves the front the failure is about (see
            // `Reducer::step`); a run that reproduced no failure, its last.
            failing_front: reducer.front().clone(),
            minimal_roots,
            root_count: sys.roots().count(),
        }
    }
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "reduction failed at level {} of {} ({})",
            self.level,
            self.total_levels,
            self.phase.describe()
        )?;
        for line in &self.story {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "witness cycle: {}", self.cycle.join(" -> "))?;
        if !self.minimal_roots.is_empty() {
            write!(
                f,
                "minimal violating transaction set ({} of {} roots): {}",
                self.minimal_roots.len(),
                self.root_count,
                self.minimal_roots.join(", ")
            )?;
        } else {
            write!(f, "minimal violating transaction set: (not available)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::check;
    use compc_model::SystemBuilder;

    /// The classical lost-update cycle plus a bystander transaction.
    fn lost_update_with_bystander() -> CompositeSystem {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let a1 = b.leaf("r1(x)", t1);
        let b1 = b.leaf("w1(y)", t1);
        let a2 = b.leaf("w2(x)", t2);
        let b2 = b.leaf("r2(y)", t2);
        b.conflict(a1, a2).unwrap();
        b.conflict(b1, b2).unwrap();
        b.output_weak(a1, a2).unwrap();
        b.output_weak(b2, b1).unwrap();
        let t3 = b.root("T3", s);
        b.leaf("r3(z)", t3);
        b.build().unwrap()
    }

    #[test]
    fn explanation_names_level_cycle_and_minimal_set() {
        let sys = lost_update_with_bystander();
        let cex = check(&sys).counterexample().cloned().expect("incorrect");
        let ex = cex.explain(&sys);
        assert_eq!(ex.level, 1);
        assert_eq!(ex.phase, FailurePhase::Calculation);
        assert_eq!(ex.total_levels, 1);
        // Closed cycle: T1 -> T2 -> T1 (order may rotate).
        assert!(ex.cycle.len() >= 3);
        assert_eq!(ex.cycle.first(), ex.cycle.last());
        assert!(ex.cycle.iter().any(|n| n == "T1"));
        assert!(ex.cycle.iter().any(|n| n == "T2"));
        // The bystander is minimized away.
        assert_eq!(ex.minimal_roots, vec!["T1", "T2"]);
        assert_eq!(ex.root_count, 3);
        // The story ends with the failing level.
        assert!(
            ex.story.last().unwrap().contains("FAILED"),
            "{:?}",
            ex.story
        );
        // Rendered narrative mentions everything a human needs.
        let text = ex.to_string();
        assert!(text.contains("failed at level 1 of 1"), "{text}");
        assert!(text.contains("no calculation exists"), "{text}");
        assert!(text.contains("witness cycle:"), "{text}");
        assert!(
            text.contains("minimal violating transaction set (2 of 3 roots)"),
            "{text}"
        );
        // The failing front is the pre-step level-0 front, and renders as
        // DOT.
        assert_eq!(ex.failing_front.level(), 0);
        let dot = ex.failing_front.to_dot(&sys);
        assert!(dot.starts_with("digraph"), "{dot}");
    }

    #[test]
    fn conflict_consistency_failures_explain_the_new_front() {
        // A mixed input/serialization cycle that honors Definition 3: the
        // serialization edges T1 -> T2 and T3 -> T4 come from conflicting
        // leaves, the input orders T2 -> T3 and T4 -> T1 relate pairs with
        // no conflicting operations, and no conflicting pair contradicts
        // the (transitively closed) input order.
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let t3 = b.root("T3", s);
        let t4 = b.root("T4", s);
        let o1 = b.leaf("o1", t1);
        let o2 = b.leaf("o2", t2);
        let o3 = b.leaf("o3", t3);
        let o4 = b.leaf("o4", t4);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        b.conflict(o3, o4).unwrap();
        b.output_weak(o3, o4).unwrap();
        b.input_weak(t2, t3).unwrap();
        b.input_weak(t4, t1).unwrap();
        let sys = b.build().unwrap();
        let cex = check(&sys).counterexample().cloned().expect("incorrect");
        assert_eq!(cex.phase, FailurePhase::ConflictConsistency);
        let ex = cex.explain(&sys);
        assert_eq!(ex.phase, FailurePhase::ConflictConsistency);
        assert!(ex.to_string().contains("not conflict consistent"));
        // The failing front is the new (root-level) front, where the cycle
        // lives.
        assert_eq!(ex.failing_front.level(), cex.level);
    }

    #[test]
    fn correct_figure4_run_reaches_level_n_and_has_nothing_to_explain() {
        // Figure 4 of the paper: two roots fanning out through four
        // intermediate schedulers into two shared leaf schedules, with
        // opposing serialization orders at the leaves that order forgetting
        // erases. The default reduction accepts it — the success path of
        // the explainer story: a full ladder of fronts 0..=N and no
        // counterexample to narrate.
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
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
        b.conflict(x11, x21).unwrap();
        b.output_weak(x11, x21).unwrap();
        b.conflict(x22, x12).unwrap();
        b.output_weak(x22, x12).unwrap();
        let sys = b.build().unwrap();

        let verdict = check(&sys);
        assert!(verdict.is_correct(), "Figure 4 is Comp-C under forgetting");
        assert!(
            verdict.counterexample().is_none(),
            "a correct run has nothing to explain"
        );
        let proof = match verdict {
            crate::Verdict::Correct(p) => p,
            crate::Verdict::Incorrect(c) => panic!("unexpected counterexample: {c}"),
        };
        // The reduction climbs the whole ladder: fronts 0..=N inclusive.
        assert_eq!(sys.order(), 3);
        let mut reducer = Checker::new().reducer(&sys);
        assert_eq!(reducer.front().level(), 0);
        for level in 1..=sys.order() {
            reducer.step(level).unwrap();
            assert_eq!(reducer.front().level(), level);
        }
        assert_eq!(reducer.front().members().collect::<Vec<_>>(), vec![t1, t2]);
        // The witness serializes exactly the roots.
        assert_eq!(proof.serial_witness.len(), 2);
        for &n in &proof.serial_witness {
            assert!([t1, t2].contains(&n));
        }
    }

    #[test]
    fn correct_systems_explain_gracefully_from_stale_counterexamples() {
        // A counterexample explained against a *correct* system (stale or
        // mismatched data) must not panic and must say the failure did not
        // reproduce.
        let sys = lost_update_with_bystander();
        let cex = check(&sys).counterexample().cloned().unwrap();
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t = b.root("T", s);
        b.leaf("o", t);
        let ok_sys = b.build().unwrap();
        let ex = cex.explain(&ok_sys);
        assert!(
            ex.story.iter().any(|l| l.contains("did not reproduce")),
            "{:?}",
            ex.story
        );
    }
}
