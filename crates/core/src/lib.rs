//! The Comp-C correctness engine (Definitions 10–20 and Theorem 1 of the
//! PODS'99 composite-systems paper).
//!
//! # What this crate decides
//!
//! Given a validated [`compc_model::CompositeSystem`] — an arbitrary acyclic
//! configuration of transactional schedulers with their recorded executions —
//! [`check`] answers: *is the composite execution correct*, i.e. equivalent
//! to some serial execution of the root transactions (**Comp-C**,
//! Definition 20)?
//!
//! By Theorem 1 this is decidable constructively: starting from the level-0
//! front (all leaf operations, Definition 15), reduce level by level
//! (Definition 16). At step `i` every transaction of a level-`i` schedule
//! must admit a *calculation* — an isolated execution sequence not
//! contradicting the observed order (Definition 14) — after which its
//! operations are replaced by the transaction itself, observed orders and
//! generalized conflicts are pulled up (Definitions 10–11), the level-`i`
//! schedules' input orders join the front, and the front must remain
//! *conflict consistent* (Definition 13). If the process reaches a level-`N`
//! front (roots only), the execution is Comp-C and a serial witness — a
//! topological order of the roots — is produced; otherwise a counterexample
//! cycle pinpoints the failure. The [`Verdict`] carries only that witness or
//! cycle; the fronts are read by stepping a [`Reducer`].
//!
//! # Interpretive notes (see DESIGN.md §5)
//!
//! * **Calculations via contraction.** Simultaneous existence of isolated
//!   sequences for all level-`i` transactions is checked by contracting each
//!   transaction's operation set in the front's *constraint graph* and
//!   testing acyclicity; a forced interleaving `a <ₒ x <ₒ b` (`a, b ∈ T`,
//!   `x ∉ T`) appears as a contracted cycle. A brute-force linearization
//!   search cross-validates this on small fronts (property tests).
//! * **Commuting pairs are reorderable in calculations; Definition 13 is
//!   literal.** Definition 16 step 1 allows reordering commuting operation
//!   pairs, so the calculation constraint graph is the union of the input
//!   orders, the *conflicting* observed pairs, and the schedule-declared
//!   conflicting same-schedule pairs (which never join `<ₒ` themselves —
//!   see [`Front::constraint_graph`]). The per-front conflict-consistency
//!   check ([`Front::is_cc`]) is the literal `<ₒ ∪ →` acyclicity of
//!   Definition 13: every observed pair counts, commuting or not.
//! * **Order forgetting.** Pulled-up pairs whose endpoints land in a common
//!   schedule survive only if that schedule declares the pair conflicting
//!   (Figure 4's "forgotten" orders; Figure 3(f)→(g)'s vanishing conflict).
//!
//! # Example
//!
//! ```
//! use compc_core::{check, Verdict};
//! use compc_model::SystemBuilder;
//!
//! // Two clients through one database; conflicting accesses serialized
//! // consistently — a correct composite execution.
//! let mut b = SystemBuilder::new();
//! let db = b.schedule("db");
//! let t1 = b.root("T1", db);
//! let t2 = b.root("T2", db);
//! let w1 = b.leaf("w1(x)", t1);
//! let w2 = b.leaf("w2(x)", t2);
//! b.conflict(w1, w2)?;
//! b.output_weak(w1, w2)?;
//! let sys = b.build()?;
//!
//! match check(&sys) {
//!     Verdict::Correct(proof) => assert_eq!(proof.serial_witness, vec![t1, t2]),
//!     Verdict::Incorrect(cex) => panic!("unexpected: {cex}"),
//! }
//! # Ok::<(), compc_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calculation;
mod closure;
mod explain;
mod front;
mod minimize;
mod reduce;
mod session;

pub use calculation::calculations_exist_bruteforce;
pub use closure::{BackendCounts, COMPRESSED_CROSSOVER_DEFAULT, DENSE_CROSSOVER_DEFAULT};
pub use explain::Explanation;
pub use front::Front;
pub use minimize::{minimize, MinimalCounterexample};
pub use reduce::{
    check, Backend, CheckCtx, CheckOptions, Checker, Counterexample, Deadline, FailurePhase,
    Interrupted, Proof, Reducer, Verdict,
};
pub use session::{Session, SessionError, SessionStats};
