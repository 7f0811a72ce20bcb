//! The level-by-level reduction (Definition 16) and the Comp-C decision
//! procedure (Definition 20 / Theorem 1).

use crate::closure::{self, BackendCounts, CheckScratch, COMPRESSED_CROSSOVER_DEFAULT};
use crate::front::Front;
use compc_graph::{ChunkedBitGraph, ChunkedRow};
use compc_model::{CompositeSystem, NodeId, SchedId};
use compc_trace::{TraceEvent, TraceSink};
use std::time::Instant;

/// Which phase of a reduction step failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailurePhase {
    /// Definition 16 step 1: no simultaneous calculations exist for the
    /// level's transactions (a forced interleaving or order contradiction).
    Calculation,
    /// Definition 16 step 6: the new front is not conflict consistent.
    ConflictConsistency,
}

impl FailurePhase {
    /// A stable machine-readable tag (used in trace events and NDJSON).
    pub fn tag(self) -> &'static str {
        match self {
            FailurePhase::Calculation => "calculation",
            FailurePhase::ConflictConsistency => "conflict-consistency",
        }
    }

    /// The paper-language description of what failed.
    pub fn describe(self) -> &'static str {
        match self {
            FailurePhase::Calculation => "no calculation exists",
            FailurePhase::ConflictConsistency => "front not conflict consistent",
        }
    }
}

/// Why a composite schedule is not Comp-C: the reduction level that failed,
/// the phase, and a cycle witness over (representatives of) front nodes.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The reduction step (1-based level) at which the failure occurred.
    pub level: usize,
    /// Which check failed.
    pub phase: FailurePhase,
    /// The nodes on the offending cycle. For calculation failures these are
    /// group representatives: a transaction id where a whole transaction was
    /// contracted, a plain node otherwise.
    pub cycle: Vec<NodeId>,
    /// Human-readable names for `cycle`, resolved against the system.
    pub cycle_names: Vec<String>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reduction failed at level {} ({}): cycle {}",
            self.level,
            self.phase.describe(),
            self.cycle_names.join(" -> ")
        )
    }
}

/// Evidence of correctness: a serial witness — a total order of the roots
/// to which the execution is conflict equivalent (the topological sort of
/// the level-N front's `<ₒ ∪ →` from Theorem 1's proof). The fronts that
/// lead there are recomputed by stepping a [`Reducer`].
#[derive(Clone, Debug)]
pub struct Proof {
    /// The equivalent serial order over the root transactions.
    pub serial_witness: Vec<NodeId>,
}

/// The outcome of a Comp-C check: the certificate, witness or cycle.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The composite schedule is Comp-C (has a level-N front, Theorem 1).
    Correct(Proof),
    /// The composite schedule is not Comp-C.
    Incorrect(Counterexample),
}

impl Verdict {
    /// Whether the verdict is `Correct`.
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct(_))
    }

    /// The proof, if correct.
    pub fn proof(&self) -> Option<&Proof> {
        match self {
            Verdict::Correct(p) => Some(p),
            Verdict::Incorrect(_) => None,
        }
    }

    /// The counterexample, if incorrect.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Correct(_) => None,
            Verdict::Incorrect(c) => Some(c),
        }
    }
}

/// Decides Comp-C for a composite system (Theorem 1): runs the reduction to
/// the system's order `N` and reports a proof or a counterexample.
pub fn check(sys: &CompositeSystem) -> Verdict {
    Reducer::new(sys).run()
}

/// A wall-clock cancellation point for a reduction, checked cooperatively at
/// level boundaries. `Deadline::none()` (the default) never expires and
/// costs one `Option` branch per level.
#[derive(Clone, Copy, Debug, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Self {
        Deadline::default()
    }

    /// Expires `budget` from now. A zero budget expires at the first level
    /// boundary — useful for deterministic timeout tests.
    pub fn after(budget: std::time::Duration) -> Self {
        Deadline {
            at: Some(Instant::now() + budget),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|t| Instant::now() >= t)
    }
}

/// A reduction stopped cooperatively — its [`Deadline`] expired or its
/// cancel token was set — before reaching a verdict. The system is neither
/// proven Comp-C nor refuted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted {
    /// The reduction level whose step did not run.
    pub level: usize,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "reduction interrupted before level {}", self.level)
    }
}

impl std::error::Error for Interrupted {}

/// Which transitive-closure backend a check runs on. Every choice yields a
/// bit-identical [`Verdict`]; the knob only trades per-node DFS against
/// word-parallel bitset sweeps against compressed condensation rows (see
/// [`closure::DENSE_CROSSOVER_DEFAULT`], [`closure::COMPRESSED_CROSSOVER_DEFAULT`],
/// and EXPERIMENTS.md E21/E22 for the measured break-evens).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Size-based crossovers at the measured defaults (the recommended
    /// mode): sparse below 64 nodes, dense to the compressed crossover,
    /// compressed above.
    #[default]
    Auto,
    /// Word-parallel bitset closures everywhere.
    Dense,
    /// Per-source DFS closures everywhere.
    Sparse,
    /// Compressed closures (hybrid chunked rows + SCC condensation)
    /// everywhere.
    Compressed,
}

impl Backend {
    /// Parses a CLI-style backend name (`auto`, `dense`, `sparse`,
    /// `compressed`).
    pub fn parse(name: &str) -> Option<Backend> {
        match name {
            "auto" => Some(Backend::Auto),
            "dense" => Some(Backend::Dense),
            "sparse" => Some(Backend::Sparse),
            "compressed" => Some(Backend::Compressed),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Auto => write!(f, "auto"),
            Backend::Dense => write!(f, "dense"),
            Backend::Sparse => write!(f, "sparse"),
            Backend::Compressed => write!(f, "compressed"),
        }
    }
}

/// The one options struct every entry point shares: [`Checker`], the batch
/// engine (`compc-engine`), the long-lived [`crate::Session`], the sweep
/// verifier (`compc-sim`), and the `compc-check`/`compc-serve` CLIs all
/// configure from a `CheckOptions`, so a setting means the same thing
/// everywhere.
///
/// Build one fluently and hand it to [`Checker::with_options`]:
///
/// ```
/// use compc_core::{Backend, Checker, CheckOptions};
/// # use compc_model::SystemBuilder;
/// # let mut b = SystemBuilder::new();
/// # let s = b.schedule("S");
/// # let _t = b.root("T", s);
/// # let sys = b.build().unwrap();
/// let options = CheckOptions::new().backend(Backend::Auto);
/// let verdict = Checker::with_options(options).check(&sys);
/// assert!(verdict.is_correct());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckOptions {
    /// Definition 10's *forgetting*: a pulled-up pair whose endpoints land
    /// in a common schedule survives only if that schedule declares the
    /// pair conflicting (default `true`). Disabling it (the conservative
    /// ablation) keeps every pulled pair binding — Figure 4's execution
    /// then flips to incorrect, quantifying how much permissiveness the
    /// schedules' commutativity knowledge buys.
    pub forgetting: bool,
    /// Transitive-closure backend (size-based [`Backend::Auto`] by
    /// default). Verdict-neutral.
    pub backend: Backend,
    /// Per-check wall-clock budget, polled cooperatively at level
    /// boundaries. `None` (the default) never interrupts.
    pub deadline: Option<std::time::Duration>,
    /// Cross-check every verdict against the brute-force definitional
    /// oracle (`compc-oracle`), where the consuming layer supports it: the
    /// CLIs, the sweep verifier and the spec-level session honor this flag;
    /// the core [`Checker`] and [`crate::Session`] cannot see the oracle
    /// crate and document it as ignored.
    pub oracle: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            forgetting: true,
            backend: Backend::Auto,
            deadline: None,
            oracle: false,
        }
    }
}

impl CheckOptions {
    /// Default options: forgetting on, sequential, auto backend, no
    /// deadline, no oracle.
    pub fn new() -> Self {
        CheckOptions::default()
    }

    /// Enable/disable Definition 10's commutativity forgetting.
    pub fn forgetting(mut self, on: bool) -> Self {
        self.forgetting = on;
        self
    }

    /// Transitive-closure backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Per-check wall-clock budget.
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Request an oracle cross-check in layers that support it.
    pub fn oracle(mut self, on: bool) -> Self {
        self.oracle = on;
        self
    }
}

/// Per-call state for [`Checker::try_check`]: an optional [`TraceSink`] in,
/// the check's closure-backend counts out.
///
/// A check's buffers are its thread's (see [`Checker`]), so a hot loop
/// needs nothing but a fresh `CheckCtx` per system. With a sink attached
/// the check emits `check_start`, one `level` event per reduction step and
/// `check_end`; an interrupted check emits its `check_start` and completed
/// `level` events but no `check_end`.
#[derive(Default)]
pub struct CheckCtx<'a> {
    /// Receives the check's structured events, if set.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// The transitive closures the checks run with this context took on
    /// each backend, added to by every check.
    pub closures: BackendCounts,
}

impl<'a> CheckCtx<'a> {
    /// A context with no sink and zero counts.
    pub fn new() -> Self {
        CheckCtx::default()
    }

    /// Attaches a [`TraceSink`].
    pub fn traced(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// Reusable configuration for Comp-C checks — the single entry point for
/// anything beyond the plain [`check`] convenience wrapper.
///
/// ```
/// use compc_core::{CheckCtx, CheckOptions, Checker};
/// # use compc_model::SystemBuilder;
/// # let mut b = SystemBuilder::new();
/// # let s = b.schedule("S");
/// # let _t = b.root("T", s);
/// # let sys = b.build().unwrap();
/// let checker = Checker::with_options(CheckOptions::new());
/// assert!(checker.check(&sys).is_correct());
///
/// // Deadlines and cancellation surface as errors; the context counts
/// // the closure backends the check used.
/// let mut ctx = CheckCtx::new();
/// let verdict = checker.try_check(&sys, &mut ctx);
/// assert!(verdict.unwrap().is_correct());
/// assert_eq!(ctx.closures.sparse, 1);
/// ```
///
/// A `Checker` is `Copy` and cheap: it is just validated options. Every
/// check runs in its thread's buffers, which grow to the largest system
/// the thread has checked and are then reused, so checking many systems
/// on one thread reallocates next to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checker {
    options: CheckOptions,
}

impl From<CheckOptions> for Checker {
    fn from(options: CheckOptions) -> Self {
        Checker::with_options(options)
    }
}

impl Checker {
    /// A checker with default options (forgetting on, sequential).
    pub fn new() -> Self {
        Checker::default()
    }

    /// A checker running with the given [`CheckOptions`].
    pub fn with_options(options: CheckOptions) -> Self {
        Checker { options }
    }

    /// The options this checker runs with.
    pub fn options(&self) -> CheckOptions {
        self.options
    }

    /// Decides Comp-C for `sys` (Theorem 1) under this configuration.
    ///
    /// # Panics
    /// If [`CheckOptions::deadline`] is set and expires mid-check; use
    /// [`Checker::try_check`] to handle interruption.
    pub fn check(&self, sys: &CompositeSystem) -> Verdict {
        self.try_check(sys, &mut CheckCtx::new())
            .unwrap_or_else(interruption_panic)
    }

    /// [`Checker::check`] emitting to `ctx`'s sink and counting into its
    /// closure counts, surfacing deadline/cancel interruption instead of
    /// panicking.
    pub fn try_check(
        &self,
        sys: &CompositeSystem,
        ctx: &mut CheckCtx<'_>,
    ) -> Result<Verdict, Interrupted> {
        let mut reducer = Reducer::with_options(sys, self.options);
        if let Some(sink) = ctx.sink.as_deref_mut() {
            reducer = reducer.traced(sink);
        }
        let verdict = reducer.try_run();
        ctx.closures.add(reducer.backend_counts());
        verdict
    }

    /// A stepwise [`Reducer`] over `sys` under this configuration, for
    /// traces and per-level inspection.
    pub fn reducer<'a>(&self, sys: &'a CompositeSystem) -> Reducer<'a> {
        Reducer::with_options(sys, self.options)
    }
}

fn interruption_panic(i: Interrupted) -> Verdict {
    panic!("{i}; use Checker::try_check when setting a deadline or a cancel token")
}

/// Per-step counters carried to the `level` trace event (see
/// `Reducer::emit_level`); `elapsed_ns` and `observed_edges` are resolved at
/// emission time.
#[derive(Clone, Copy)]
struct LevelCounts {
    level: usize,
    schedules_reduced: usize,
    front_before: usize,
    front_after: usize,
    constraint_edges: usize,
    closure_edges: usize,
    pairs_forgotten: usize,
    serialization_pairs: usize,
    ok: bool,
}

/// The stepwise reduction engine. Use [`check`] for the one-shot API; the
/// `Reducer` itself exposes per-level stepping, the one way to inspect the
/// fronts ([`Reducer::step`], then [`Reducer::front`]).
///
/// A reducer works in its thread's check buffers: it takes them when it
/// is made and hands them back, with its last front, when it is dropped.
pub struct Reducer<'a> {
    sys: &'a CompositeSystem,
    front: Front,
    options: CheckOptions,
    scratch: CheckScratch,
    /// How long taking the scratch and building front 0 took, so a traced
    /// run's `check_end` covers them.
    setup: std::time::Duration,
    /// Structured-event sink. `None` costs one branch per level — the
    /// `trace_overhead` bench pins the disabled path at <2% of a check.
    sink: Option<&'a mut dyn TraceSink>,
    /// Cooperative wall-clock bound, polled at level boundaries; an unset
    /// deadline costs the same single branch as the disabled sink.
    deadline: Deadline,
    /// External cancel token, also polled at level boundaries.
    cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

impl Drop for Reducer<'_> {
    fn drop(&mut self) {
        // A reducer unwound mid-level may leave its buffers half updated:
        // its scratch is dropped, and the thread's next reducer starts
        // from a fresh one. So is the scratch of a system past the
        // compressed crossover, so that a thread does not hold a large
        // system's buffers once it is done with it; reuse saves little
        // next to such a check's own work.
        if !std::thread::panicking() && self.sys.node_count() < COMPRESSED_CROSSOVER_DEFAULT {
            let mut scratch = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut scratch.front, &mut self.front);
            scratch.put_back();
        }
    }
}

impl<'a> Reducer<'a> {
    /// Starts a reduction at the level-0 front with default options.
    pub fn new(sys: &'a CompositeSystem) -> Self {
        Self::with_options(sys, CheckOptions::default())
    }

    /// Starts a reduction with explicit options (the [`Checker`] entry
    /// points construct reducers through this). The options' deadline, if
    /// any, starts counting now.
    pub(crate) fn with_options(sys: &'a CompositeSystem, options: CheckOptions) -> Self {
        let t0 = Instant::now();
        let deadline = options
            .deadline
            .map_or_else(Deadline::none, Deadline::after);
        let mut scratch = CheckScratch::take();
        let mut front = std::mem::take(&mut scratch.front);
        front.reset_to_level0(sys);
        scratch.leaves.clear();
        scratch.leaves.or_from(&front.members, sys.node_count());
        scratch.closure.counts = BackendCounts::default();
        Reducer {
            sys,
            front,
            options,
            scratch,
            setup: t0.elapsed(),
            sink: None,
            deadline,
            cancel: None,
        }
    }

    /// Bounds the reduction by a [`Deadline`], polled at level boundaries;
    /// observe expiry through [`Reducer::try_run`].
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches a cancel token, polled at level boundaries: setting it to
    /// `true` interrupts the reduction at the next boundary.
    pub fn cancel_token(mut self, token: &'a std::sync::atomic::AtomicBool) -> Self {
        self.cancel = Some(token);
        self
    }

    fn interrupted(&self) -> bool {
        self.deadline.expired()
            || self
                .cancel
                .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Attaches a [`TraceSink`]: every subsequent [`Reducer::step`] emits a
    /// `level` event, and [`Reducer::run`] brackets them with `check_start`
    /// / `check_end`.
    pub fn traced(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The current front.
    pub fn front(&self) -> &Front {
        &self.front
    }

    /// How many transitive closures this reducer has run on each backend.
    pub fn backend_counts(&self) -> BackendCounts {
        self.scratch.closure.counts
    }

    /// Runs the reduction to completion. Idempotent only from a fresh
    /// reducer: a completed run leaves the front at the final level.
    ///
    /// With a sink attached (see [`Reducer::traced`]), the run is bracketed
    /// by `check_start` / `check_end` events around the per-level events.
    ///
    /// # Panics
    /// If a [`Reducer::deadline`] or cancel token interrupts the run; use
    /// [`Reducer::try_run`] to handle interruption.
    pub fn run(&mut self) -> Verdict {
        self.try_run().unwrap_or_else(interruption_panic)
    }

    /// [`Reducer::run`] that surfaces deadline/cancel interruption instead
    /// of panicking. An interrupted traced run has emitted `check_start`
    /// and the completed `level` events, but no `check_end`, whose
    /// `elapsed_ns` covers building front 0 as well as the run.
    pub fn try_run(&mut self) -> Result<Verdict, Interrupted> {
        let t0 = self.sink.is_some().then(Instant::now);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(&TraceEvent::CheckStart {
                nodes: self.sys.node_count(),
                schedules: self.sys.schedule_count(),
                order: self.sys.order(),
            });
        }
        let verdict = self.run_levels()?;
        if let Some(sink) = self.sink.as_deref_mut() {
            let (correct, levels_completed, failed_level, failed_phase) = match &verdict {
                Verdict::Correct(_) => (true, self.sys.order(), None, None),
                Verdict::Incorrect(c) => (
                    false,
                    c.level.saturating_sub(1),
                    Some(c.level),
                    Some(c.phase.tag()),
                ),
            };
            sink.emit(&TraceEvent::CheckEnd {
                correct,
                levels_completed,
                failed_level,
                failed_phase,
                elapsed_ns: t0.map_or(0, |t| (self.setup + t.elapsed()).as_nanos() as u64),
            });
        }
        Ok(verdict)
    }

    fn run_levels(&mut self) -> Result<Verdict, Interrupted> {
        // Front 0 is CC by construction: its observed order is a union of
        // strict partial orders over disjoint leaf sets (one per schedule),
        // and it has no input orders.
        debug_assert!(
            self.front.cc_cycle(&mut self.scratch.search).is_none(),
            "front 0 is acyclic"
        );
        for level in 1..=self.sys.order() {
            // The cooperative cancellation point: one branch per level when
            // no deadline/token is set.
            if self.interrupted() {
                return Err(Interrupted { level });
            }
            if let Err(cex) = self.step(level) {
                return Ok(Verdict::Incorrect(cex));
            }
        }
        debug_assert!(
            self.front.members().eq(self.sys.roots()),
            "a completed reduction must leave exactly the roots"
        );
        Ok(Verdict::Correct(Proof {
            serial_witness: self.serial_witness(),
        }))
    }

    /// Performs reduction step `level` (Definition 16), replacing the
    /// current front by the level-`level` front or failing with a
    /// counterexample. After a failure the front is the one the failure is
    /// about: unchanged for a calculation failure (the cycle lives in its
    /// contracted constraint graph), the new cyclic front for a
    /// conflict-consistency failure.
    pub fn step(&mut self, level: usize) -> Result<(), Counterexample> {
        let mut scheds = std::mem::take(&mut self.scratch.scheds);
        scheds.clear();
        scheds.extend(self.sys.schedules_at_level(level).map(|s| s.id));
        let stepped = self.step_schedules(&scheds, level);
        self.scratch.scheds = scheds;
        stepped
    }

    /// Reduces an arbitrary set of schedules at once — the level-by-level
    /// [`Reducer::step`] is the batch instance. A schedule may be reduced
    /// only after every schedule it invokes (its transactions' operations
    /// must all be in the front); the `confluence` property tests verify
    /// that any invocation-respecting reduction order yields the same
    /// verdict as the canonical level order.
    pub fn step_schedules(
        &mut self,
        scheds: &[SchedId],
        level: usize,
    ) -> Result<(), Counterexample> {
        let t0 = self.sink.is_some().then(Instant::now);
        let front_before = self.front.member_count();
        let mut counts = LevelCounts {
            level,
            schedules_reduced: scheds.len(),
            front_before,
            front_after: front_before,
            constraint_edges: 0,
            closure_edges: 0,
            pairs_forgotten: 0,
            serialization_pairs: 0,
            ok: false,
        };
        self.group_operations(scheds, level);
        if let Some(cycle) = self.calculation_cycle(t0.map(|_| &mut counts.constraint_edges)) {
            self.emit_level(t0, counts);
            return Err(self.counterexample(level, FailurePhase::Calculation, cycle));
        }
        self.pull_up(scheds, level, t0.is_some(), &mut counts);
        counts.front_after = self.front.member_count();
        // --- Step 6: the new front must be conflict consistent.
        if let Some(cycle) = self.front.cc_cycle(&mut self.scratch.search) {
            self.emit_level(t0, counts);
            return Err(self.counterexample(level, FailurePhase::ConflictConsistency, cycle));
        }
        self.emit_level(t0, LevelCounts { ok: true, ..counts });
        Ok(())
    }

    /// Groups the operations of `scheds`' transactions: `comp` maps each of
    /// them to the owning transaction and every other node to itself,
    /// `replaced` holds them, `ops_of` them per schedule, and the scratch
    /// members become the next front's (step 5, propagation: kept members
    /// stay, the new transactions enter).
    fn group_operations(&mut self, scheds: &[SchedId], level: usize) {
        let (sys, n) = (self.sys, self.sys.node_count());
        let members = &self.front.members;
        let sc = &mut self.scratch;
        sc.comp.clear();
        sc.comp.extend(0..n);
        sc.replaced.clear();
        sc.ops_of
            .resize_with(sys.schedule_count(), ChunkedRow::default);
        sc.new_txs.clear();
        for s in scheds.iter().map(|&sid| sys.schedule(sid)) {
            let ops = &mut sc.ops_of[s.id.index()];
            ops.clear();
            for t in &s.transactions {
                sc.new_txs.push(t.id);
                for &o in &t.ops {
                    debug_assert!(
                        members.contains(o.index()),
                        "operation {o} of {t:?} must be in the level-{} front",
                        level - 1
                    );
                    sc.comp[o.index()] = t.id.index();
                    sc.replaced.insert(o.index(), n);
                    ops.insert(o.index(), n);
                }
            }
        }
        sc.members.clear();
        sc.members.or_masked(members, None, Some(&sc.replaced), n);
        for &t in &sc.new_txs {
            sc.members.insert(t.index(), n);
        }
    }

    /// Definition 16 step 1: simultaneous calculations exist iff the
    /// constraint graph, contracted by transaction grouping, is acyclic —
    /// and each group's *internal* constraints are acyclic too (a
    /// calculation is a single execution sequence, so a contradictory
    /// non-reorderable pair between two operations of one transaction also
    /// rules it out; contraction alone cannot see those, it drops
    /// self-edges). Under the no-forgetting ablation every observed pair
    /// constrains. Returns the cycle if calculations do not exist; with
    /// `constraint_edges` set, counts the constraint graph's edges into it.
    fn calculation_cycle(&mut self, constraint_edges: Option<&mut usize>) -> Option<Vec<NodeId>> {
        let (sys, n) = (self.sys, self.sys.node_count());
        let front = &self.front;
        let sc = &mut self.scratch;
        // Only the members' constraint rows are built: every other node's
        // row is its input row, which the shortcut walk reads in place.
        if self.options.forgetting {
            front.constraint_rows_into(sys, &mut sc.by_container, &mut sc.constraint);
        } else {
            sc.constraint.reset(n);
            for u in front.members.iter() {
                let row = sc.constraint.row_mut(u);
                row.or_from(front.input.row(u), n);
                row.or_from(front.observed.row(u), n);
            }
        }
        if let Some(edges) = constraint_edges {
            let outside = (0..n).filter(|&u| !front.members.contains(u));
            *edges = sc.constraint.edge_count()
                + outside.map(|u| front.input.row(u).count()).sum::<usize>();
        }
        // Definition 14 constrains a calculation only through *pairs of
        // front members*. Accumulated input pairs keep their original
        // endpoints (step 6 stores them verbatim), so an endpoint reduced
        // away at an earlier level is not a node of the serialization
        // problem any more — it acts as a pass-through: a chain
        // `a ≺ stale ≺ b` with `a`, `b` on the front induces the front
        // obligation `a ≺ b` by transitivity of →, nothing else. Keeping
        // stale nodes as distinct vertices instead would manufacture
        // phantom group -> stale -> group cycles out of chains that live
        // entirely inside one transaction (and break Theorem 2 on stacks).
        sc.constraint.shortcut_outside(
            &front.input,
            &front.members,
            &mut sc.calc,
            &mut sc.closure.walk,
        );
        sc.calc.contract(&sc.comp, &sc.replaced, &mut sc.contracted);
        // Contracted rows belong to the next front's members; edges inside
        // one transaction start at replaced operations.
        let (calc, contracted, comp) = (&sc.calc, &sc.contracted, &sc.comp);
        sc.search
            .find_cycle(n, sc.members.iter(), |v, out| {
                out.extend(contracted.successors(v))
            })
            .or_else(|| {
                sc.search.find_cycle(n, sc.replaced.iter(), |u, out| {
                    out.extend(calc.successors(u).filter(|&v| v != u && comp[v] == comp[u]))
                })
            })
            .map(|c| c.nodes.into_iter().map(|i| NodeId(i as u32)).collect())
    }

    /// Steps 2–6 for `scheds`, whose operations are grouped: replaces the
    /// operations by their transactions, pulls the observed order up
    /// (Definition 10 rules 2–4, Definition 11), closes it, adds the
    /// schedules' input orders and installs the result as the level-`level`
    /// front. When `traced`, fills the level's trace counts.
    fn pull_up(
        &mut self,
        scheds: &[SchedId],
        level: usize,
        traced: bool,
        counts: &mut LevelCounts,
    ) {
        let (sys, n) = (self.sys, self.sys.node_count());
        let forgetting = self.options.forgetting;
        let front = &mut self.front;
        let sc = &mut self.scratch;
        let (comp, replaced, ops_of) = (&sc.comp, &sc.replaced, &sc.ops_of);
        let observed = &mut sc.observed;
        observed.reset(n);
        // Per observed row: a pair between kept members persists, and a
        // pair from a replaced operation to a kept member is pushed to the
        // transaction (rule 3: no reduced schedule contains a kept member,
        // so no such pair crosses a common schedule). A pair to a replaced
        // operation is pushed to both transactions, except that under
        // Definition 10's forgetting a pair between two transactions of one
        // schedule is pushed only via rule 2 — the schedule's own order and
        // conflict declaration, added below from schedule data. Pairs inside
        // one transaction are absorbed.
        for a in front.members.iter() {
            let row = front.observed.row(a);
            let big_a = comp[a];
            let same = match sys.node(NodeId(a as u32)).container {
                Some(c) if forgetting && big_a != a => Some(&ops_of[c.index()]),
                _ => None,
            };
            if let Some(same) = same.filter(|_| traced) {
                let absorbed = sys.children(NodeId(big_a as u32));
                counts.pairs_forgotten += row.count_and(same)
                    - absorbed.iter().filter(|o| row.contains(o.index())).count();
            }
            let dst = observed.row_mut(big_a);
            dst.or_masked(row, None, Some(replaced), n);
            row.for_each_masked(Some(replaced), same, |b| {
                dst.insert(comp[b], n);
            });
            dst.remove(big_a);
        }
        // Rule 2 for the schedules being reduced: conflicting operation
        // pairs executed `o ≺_S o'` serialize their parents (the
        // schedule's serialization pairs). This also covers conflicting
        // internal pairs whose subtrees never interacted.
        for s in scheds.iter().map(|&sid| sys.schedule(sid)) {
            sc.pairs.clear();
            for (o, o2) in s.conflicts.iter() {
                let (t, t2) = (comp[o.index()], comp[o2.index()]);
                if t == t2 || !replaced.contains(o.index()) || !replaced.contains(o2.index()) {
                    continue;
                }
                if s.output.weak_lt(o, o2) {
                    sc.pairs.push((t, t2));
                }
                if s.output.weak_lt(o2, o) {
                    sc.pairs.push((t2, t));
                }
            }
            sc.pairs.sort_unstable();
            sc.pairs.dedup();
            counts.serialization_pairs += sc.pairs.len();
            for &(t, t2) in &sc.pairs {
                observed.add_edge(t, t2);
            }
        }
        // Entry-time observed pairs between new transactions and other
        // members of their *container* schedules (rule 1 when the other
        // member is a leaf; the conflicting-output rule otherwise).
        sc.leaf_members.clear();
        sc.leaf_members
            .or_masked(&sc.members, Some(&sc.leaves), None, n);
        entry_pairs(
            sys,
            &sc.new_txs,
            &sc.leaf_members,
            (&mut sc.entered, &mut sc.containers),
            observed,
        );
        // Rule 4: transitive closure.
        let pre_closure_edges = traced.then(|| observed.edge_count());
        closure::transitive_closure(observed, self.options.backend, &mut sc.closure);
        if let Some(pre) = pre_closure_edges {
            counts.closure_edges = observed.edge_count().saturating_sub(pre);
        }
        // Step 6: add the level's input orders; the old front's member and
        // observed buffers go back to the scratch.
        for s in scheds.iter().map(|&sid| sys.schedule(sid)) {
            for (a, row) in s.input.weak().rows() {
                front.input.row_mut(a).or_from(row, n);
            }
        }
        std::mem::swap(&mut front.members, &mut sc.members);
        std::mem::swap(&mut front.observed, &mut sc.observed);
        front.level = level;
    }

    /// Emits a `level` event for the step just performed (no-op without a
    /// sink). `observed_edges` and `elapsed_ns` are resolved here so the
    /// callers stay branch-free.
    fn emit_level(&mut self, t0: Option<Instant>, counts: LevelCounts) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let observed_edges = self.front.observed.edge_count();
            sink.emit(&TraceEvent::Level {
                level: counts.level,
                schedules_reduced: counts.schedules_reduced,
                front_before: counts.front_before,
                front_after: counts.front_after,
                constraint_edges: counts.constraint_edges,
                observed_edges,
                closure_edges: counts.closure_edges,
                pairs_forgotten: counts.pairs_forgotten,
                serialization_pairs: counts.serialization_pairs,
                elapsed_ns: t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
                ok: counts.ok,
            });
        }
    }

    /// A total serial order over the final front (the roots), obtained by
    /// topologically sorting `<ₒ ∪ →` — the constructive half of Theorem 1's
    /// proof ("by topological sorting, we convert (<ₒ, →) into a total
    /// order").
    fn serial_witness(&mut self) -> Vec<NodeId> {
        let front = &self.front;
        let order = self
            .scratch
            .search
            .topological_sort(self.sys.node_count(), front.ordered_nodes(), |u, out| {
                front.order_successors(u, out)
            })
            .expect("a conflict-consistent front's order union is acyclic");
        let mut witness = Vec::with_capacity(front.member_count());
        witness.extend(
            (order.iter().copied())
                .filter(|&i| front.members.contains(i))
                .map(|i| NodeId(i as u32)),
        );
        witness
    }

    /// Resolves a failure cycle's names against the system.
    fn counterexample(
        &self,
        level: usize,
        phase: FailurePhase,
        cycle: Vec<NodeId>,
    ) -> Counterexample {
        let cycle_names = cycle
            .iter()
            .map(|&n| self.sys.name(n).to_string())
            .collect();
        Counterexample {
            level,
            phase,
            cycle,
            cycle_names,
        }
    }
}

/// Observed pairs created when the transactions `entering` enter the
/// front, against members of the schedules that contain them as
/// operations. Definition 10 rule 1 relates a pair as soon as *either*
/// side is a leaf, in the schedule's weak output order. Internal–internal
/// pairs of a common schedule are deliberately NOT added to `<ₒ` — no rule
/// derives them; their conflicting instances constrain calculations via
/// [`Front::constraint_graph`] instead, and their parent-level effect is
/// rule 2's serialization pairs. Reads only successor rows of the
/// containers' output orders: an entering transaction's row masked by the
/// leaf members (one masked OR), and a leaf member's row masked by the
/// entering transactions.
/// `buffers` are the entered-transaction row and container list it fills.
fn entry_pairs(
    sys: &CompositeSystem,
    entering: &[NodeId],
    leaf_members: &ChunkedRow,
    (entered, containers): (&mut ChunkedRow, &mut Vec<SchedId>),
    observed: &mut ChunkedBitGraph,
) {
    let n = observed.node_count();
    entered.clear();
    containers.clear();
    for &t in entering {
        let Some(container) = sys.node(t).container else {
            continue; // roots are operations of nothing
        };
        let (t, weak) = (t.index(), sys.schedule(container).output.weak());
        observed
            .row_mut(t)
            .or_masked(weak.above_row(t), Some(leaf_members), None, n);
        entered.insert(t, n);
        containers.push(container);
    }
    containers.sort_unstable();
    containers.dedup();
    for &c in containers.iter() {
        for (member, row) in sys.schedule(c).output.weak().rows() {
            if leaf_members.contains(member) {
                row.for_each_masked(Some(&*entered), None, |t| {
                    observed.add_edge(member, t);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compc_model::SystemBuilder;

    /// Flat serializable execution: two roots on one schedule, conflicting
    /// leaves executed in one consistent direction.
    #[test]
    fn flat_serializable_is_correct() {
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
        b.output_weak(b1, b2).unwrap();
        let sys = b.build().unwrap();
        let v = check(&sys);
        assert!(v.is_correct(), "{:?}", v.counterexample());
        let proof = v.proof().unwrap();
        assert_eq!(proof.serial_witness, vec![t1, t2]);
        assert_eq!(sys.order(), 1); // one step: level 0 to level 1
    }

    fn flat_two_root_system() -> compc_model::CompositeSystem {
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
        b.output_weak(b1, b2).unwrap();
        b.build().unwrap()
    }

    /// A zero deadline expires at the first level boundary — deterministic
    /// interruption — while the plain path is unaffected.
    #[test]
    fn zero_deadline_interrupts_at_level_one() {
        let sys = flat_two_root_system();
        let checker =
            Checker::with_options(CheckOptions::new().deadline(std::time::Duration::ZERO));
        assert!(matches!(
            checker.try_check(&sys, &mut CheckCtx::new()),
            Err(Interrupted { level: 1 })
        ));
        // Without a deadline the thread's next check completes normally.
        let v = Checker::new().try_check(&sys, &mut CheckCtx::new());
        assert!(v.unwrap().is_correct());
    }

    /// A generous deadline never fires; verdicts match the plain path.
    #[test]
    fn generous_deadline_completes_normally() {
        let sys = flat_two_root_system();
        let v = Checker::with_options(
            CheckOptions::new().deadline(std::time::Duration::from_secs(3600)),
        )
        .try_check(&sys, &mut CheckCtx::new())
        .expect("an hour is plenty");
        assert!(v.is_correct());
    }

    /// A pre-set cancel token interrupts the run at the first boundary.
    #[test]
    fn cancel_token_interrupts_reduction() {
        use std::sync::atomic::AtomicBool;
        let sys = flat_two_root_system();
        let stop = AtomicBool::new(true);
        let mut reducer = Reducer::new(&sys).cancel_token(&stop);
        assert!(matches!(reducer.try_run(), Err(Interrupted { level: 1 })));
        let go = AtomicBool::new(false);
        let mut reducer = Reducer::new(&sys).cancel_token(&go);
        assert!(reducer.try_run().unwrap().is_correct());
    }

    /// An interrupted traced run leaves `check_start` without `check_end`.
    #[test]
    fn interrupted_traced_run_has_no_check_end() {
        use compc_trace::MemorySink;
        let sys = flat_two_root_system();
        let mut sink = MemorySink::new();
        let checker =
            Checker::with_options(CheckOptions::new().deadline(std::time::Duration::ZERO));
        let r = checker.try_check(&sys, &mut CheckCtx::new().traced(&mut sink));
        assert!(matches!(r, Err(Interrupted { level: 1 })));
        let kinds: Vec<&str> = sink.events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["check_start"]);
    }

    /// Flat non-serializable execution: the two conflicts point opposite
    /// ways, so no serial order exists — the classical lost-update cycle.
    #[test]
    fn flat_nonserializable_is_incorrect() {
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
        b.output_weak(a1, a2).unwrap(); // T1 before T2 on x
        b.output_weak(b2, b1).unwrap(); // T2 before T1 on y
        let sys = b.build().unwrap();
        let v = check(&sys);
        let cex = v.counterexample().expect("must be incorrect");
        assert_eq!(cex.level, 1);
        assert_eq!(cex.phase, FailurePhase::Calculation);
        assert!(cex.cycle.contains(&t1) && cex.cycle.contains(&t2));
    }

    /// Interleaving without conflicts is fine: the observed orders commute.
    #[test]
    fn commuting_interleaving_is_correct() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let a1 = b.leaf("a1", t1);
        let b1 = b.leaf("b1", t1);
        let a2 = b.leaf("a2", t2);
        // Executed a1, a2, b1 — t2's op between t1's ops, but nothing
        // conflicts, so calculations exist.
        b.output_weak(a1, a2).unwrap();
        b.output_weak(a2, b1).unwrap();
        let sys = b.build().unwrap();
        assert!(check(&sys).is_correct());
    }

    /// A conflicting wrap-around: t2's conflicting op forced between two of
    /// t1's ops. No isolated execution of T1 can exist.
    #[test]
    fn forced_interleaving_is_incorrect() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T1", s);
        let t2 = b.root("T2", s);
        let a1 = b.leaf("r1(x)", t1);
        let b1 = b.leaf("r1(y)", t1);
        let a2 = b.leaf("w2(xy)", t2);
        b.conflict(a1, a2).unwrap();
        b.conflict(b1, a2).unwrap();
        b.output_weak(a1, a2).unwrap();
        b.output_weak(a2, b1).unwrap();
        let sys = b.build().unwrap();
        let v = check(&sys);
        let cex = v.counterexample().expect("wrap-around must fail");
        assert_eq!(cex.phase, FailurePhase::Calculation);
    }

    /// Two-level stack where the lower schedule serializes consistently.
    #[test]
    fn stack_consistent_is_correct() {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_bot = b.schedule("bot");
        let t1 = b.root("T1", s_top);
        let t2 = b.root("T2", s_top);
        let u1 = b.subtx("u1", t1, s_bot);
        let u2 = b.subtx("u2", t2, s_bot);
        let o1 = b.leaf("w1(x)", u1);
        let o2 = b.leaf("w2(x)", u2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        let sys = b.build().unwrap();
        let v = check(&sys);
        assert!(v.is_correct(), "{:?}", v.counterexample());
        assert_eq!(v.proof().unwrap().serial_witness, vec![t1, t2]);
    }

    /// Cross-schedule interference with no common schedule between the
    /// roots: the observed order must still propagate and detect the cycle
    /// (the key capability beyond nested-transaction models).
    #[test]
    fn transitive_cross_schedule_cycle_detected() {
        let mut b = SystemBuilder::new();
        let s_a = b.schedule("A"); // home of T1
        let s_b = b.schedule("B"); // home of T2
        let s_x = b.schedule("X"); // shared low-level store 1
        let s_y = b.schedule("Y"); // shared low-level store 2
        let t1 = b.root("T1", s_a);
        let t2 = b.root("T2", s_b);
        let u1x = b.subtx("u1x", t1, s_x);
        let u1y = b.subtx("u1y", t1, s_y);
        let u2x = b.subtx("u2x", t2, s_x);
        let u2y = b.subtx("u2y", t2, s_y);
        let o1x = b.leaf("o1x", u1x);
        let o2x = b.leaf("o2x", u2x);
        let o1y = b.leaf("o1y", u1y);
        let o2y = b.leaf("o2y", u2y);
        b.conflict(o1x, o2x).unwrap();
        b.conflict(o1y, o2y).unwrap();
        // X serializes T1 before T2; Y serializes T2 before T1.
        b.output_weak(o1x, o2x).unwrap();
        b.output_weak(o2y, o1y).unwrap();
        let sys = b.build().unwrap();
        let v = check(&sys);
        let cex = v.counterexample().expect("cross-schedule cycle must fail");
        assert_eq!(cex.phase, FailurePhase::Calculation);
        assert_eq!(cex.level, 2);
    }

    /// Same shape, consistent directions: correct, with the right witness.
    #[test]
    fn transitive_cross_schedule_consistent_is_correct() {
        let mut b = SystemBuilder::new();
        let s_a = b.schedule("A");
        let s_b = b.schedule("B");
        let s_x = b.schedule("X");
        let s_y = b.schedule("Y");
        let t1 = b.root("T1", s_a);
        let t2 = b.root("T2", s_b);
        let u1x = b.subtx("u1x", t1, s_x);
        let u1y = b.subtx("u1y", t1, s_y);
        let u2x = b.subtx("u2x", t2, s_x);
        let u2y = b.subtx("u2y", t2, s_y);
        let o1x = b.leaf("o1x", u1x);
        let o2x = b.leaf("o2x", u2x);
        let o1y = b.leaf("o1y", u1y);
        let o2y = b.leaf("o2y", u2y);
        b.conflict(o1x, o2x).unwrap();
        b.conflict(o1y, o2y).unwrap();
        b.output_weak(o1x, o2x).unwrap();
        b.output_weak(o1y, o2y).unwrap();
        let sys = b.build().unwrap();
        let v = check(&sys);
        assert!(v.is_correct(), "{:?}", v.counterexample());
        assert_eq!(v.proof().unwrap().serial_witness, vec![t1, t2]);
    }

    /// The "forgetting" behaviour of Figure 4: two subtransactions interfere
    /// through a lower schedule, but their common *upper* schedule declares
    /// them non-conflicting, so the pulled-up order must NOT make the
    /// outcome incorrect even when a sibling pair points the other way.
    #[test]
    fn common_schedule_forgets_nonconflicting_orders() {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top"); // level 3: hosts T1, T2
        let s_mid = b.schedule("mid"); // level 2: hosts t11, t12, t21, t22
        let s_l1 = b.schedule("l1"); // level 1 stores
        let s_l2 = b.schedule("l2");
        let t1 = b.root("T1", s_top);
        let t2 = b.root("T2", s_top);
        let t11 = b.subtx("t11", t1, s_mid);
        let t21 = b.subtx("t21", t2, s_mid);
        let u11 = b.subtx("u11", t11, s_l1);
        let u21 = b.subtx("u21", t21, s_l1);
        let u12 = b.subtx("u12", t11, s_l2);
        let u22 = b.subtx("u22", t21, s_l2);
        let o11 = b.leaf("o11", u11);
        let o21 = b.leaf("o21", u21);
        let o12 = b.leaf("o12", u12);
        let o22 = b.leaf("o22", u22);
        // l1 serializes t11-side before t21-side; l2 the opposite.
        b.conflict(o11, o21).unwrap();
        b.conflict(o12, o22).unwrap();
        b.output_weak(o11, o21).unwrap();
        b.output_weak(o22, o12).unwrap();
        // The mid schedule declares NO conflict between the u-nodes: it
        // knows they commute, so the opposing pulled-up orders are forgotten
        // at mid (Definition 11 rule 1 / Figure 4) and T1/T2 are never
        // forced into a cycle.
        let sys = b.build().unwrap();
        let v = check(&sys);
        assert!(
            v.is_correct(),
            "orders through a non-conflicting common schedule must be forgotten: {:?}",
            v.counterexample()
        );
    }

    /// Same topology, but the mid schedule DECLARES the subtransaction pairs
    /// conflicting (and, per Definition 3, orders each pair the way it
    /// executed them). The opposing directions now survive the pull-up as
    /// generalized conflicts, and no calculation for t11/t21 exists.
    #[test]
    fn common_schedule_keeps_conflicting_orders() {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_mid = b.schedule("mid");
        let s_l1 = b.schedule("l1");
        let s_l2 = b.schedule("l2");
        let t1 = b.root("T1", s_top);
        let t2 = b.root("T2", s_top);
        let t11 = b.subtx("t11", t1, s_mid);
        let t21 = b.subtx("t21", t2, s_mid);
        let u11 = b.subtx("u11", t11, s_l1);
        let u21 = b.subtx("u21", t21, s_l1);
        let u12 = b.subtx("u12", t11, s_l2);
        let u22 = b.subtx("u22", t21, s_l2);
        let o11 = b.leaf("o11", u11);
        let o21 = b.leaf("o21", u21);
        let o12 = b.leaf("o12", u12);
        let o22 = b.leaf("o22", u22);
        b.conflict(o11, o21).unwrap();
        b.conflict(o12, o22).unwrap();
        b.output_weak(o11, o21).unwrap();
        b.output_weak(o22, o12).unwrap();
        // mid declares the u-pairs conflicting and orders them the way the
        // lower schedules executed them — one pair each way.
        b.conflict(u11, u21).unwrap();
        b.conflict(u12, u22).unwrap();
        b.output_weak(u11, u21).unwrap();
        b.output_weak(u22, u12).unwrap();
        // Definition 4.7: mid's output orders over l1/l2 transactions become
        // l1/l2 input orders.
        b.propagate_orders().unwrap();
        let sys = b.build().unwrap();
        let v = check(&sys);
        let cex = v
            .counterexample()
            .expect("conflicting common-schedule pairs must keep both pulled orders and cycle");
        assert_eq!(cex.level, 2);
        assert_eq!(cex.phase, FailurePhase::Calculation);
    }

    /// Backend names round-trip through the CLI parser and display.
    #[test]
    fn backend_parse_and_display() {
        assert_eq!(Backend::parse("gpu"), None);
        for (name, backend) in [
            ("auto", Backend::Auto),
            ("dense", Backend::Dense),
            ("sparse", Backend::Sparse),
            ("compressed", Backend::Compressed),
        ] {
            assert_eq!(Backend::parse(name), Some(backend));
            assert_eq!(backend.to_string(), name);
        }
    }

    /// Transactions with no operations reduce trivially.
    #[test]
    fn empty_transaction_is_correct() {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let _t = b.root("T", s);
        let sys = b.build().unwrap();
        assert!(check(&sys).is_correct());
    }

    /// Stepped fronts carry the pulled-up conflicts (Figure 2's shape).
    #[test]
    fn stepping_exposes_front_evolution() {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_bot = b.schedule("bot");
        let t1 = b.root("T1", s_top);
        let t2 = b.root("T2", s_top);
        let u1 = b.subtx("u1", t1, s_bot);
        let u2 = b.subtx("u2", t2, s_bot);
        let o1 = b.leaf("o1", u1);
        let o2 = b.leaf("o2", u2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        // The top schedule also declares the subtransactions conflicting and
        // ordered the way they ran; Definition 4.7 propagates that order to
        // the bottom schedule's input.
        b.conflict(u1, u2).unwrap();
        b.output_weak(u1, u2).unwrap();
        b.propagate_orders().unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.order(), 2);
        let mut reducer = Checker::new().reducer(&sys);
        // Level-1 front: u1, u2 with a (declared) conflict and the
        // serialization order pulled up by Definition 10 rule 2.
        reducer.step(1).unwrap();
        let f1 = reducer.front();
        assert_eq!(f1.members().collect::<Vec<_>>(), vec![u1, u2]);
        assert!(f1.observed_pairs().contains(&(u1, u2)));
        assert!(f1.conflict_pairs(&sys).contains(&(u1, u2)));
        // Level-2 front: the roots, serialized T1 before T2.
        reducer.step(2).unwrap();
        let f2 = reducer.front();
        assert_eq!(f2.members().collect::<Vec<_>>(), vec![t1, t2]);
        assert!(f2.observed_pairs().contains(&(t1, t2)));
        assert_eq!(check(&sys).proof().unwrap().serial_witness, vec![t1, t2]);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use compc_model::SystemBuilder;
    use compc_trace::{MemorySink, TraceEvent};

    fn traced_check(sys: &CompositeSystem, sink: &mut MemorySink) -> Verdict {
        Checker::new()
            .try_check(sys, &mut CheckCtx::new().traced(sink))
            .expect("no deadline set")
    }

    fn two_level_correct() -> CompositeSystem {
        let mut b = SystemBuilder::new();
        let s_top = b.schedule("top");
        let s_bot = b.schedule("bot");
        let t1 = b.root("T1", s_top);
        let t2 = b.root("T2", s_top);
        let u1 = b.subtx("u1", t1, s_bot);
        let u2 = b.subtx("u2", t2, s_bot);
        let o1 = b.leaf("o1", u1);
        let o2 = b.leaf("o2", u2);
        b.conflict(o1, o2).unwrap();
        b.output_weak(o1, o2).unwrap();
        b.build().unwrap()
    }

    fn lost_update() -> CompositeSystem {
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
        b.build().unwrap()
    }

    /// A correct check emits check_start, one ok level event per reduction
    /// step, and a correct check_end — and the traced verdict matches the
    /// untraced one.
    /// One schedule running `roots` transactions of `leaves` leaf
    /// operations each, serially except that the first operation of `T1`
    /// runs between the first two of `T0`, conflicting with both: front
    /// 0's observed order holds every pair of the leaf chain, and level 1
    /// finds no calculation.
    fn interleaved_chain(roots: usize, leaves: usize) -> CompositeSystem {
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let txs: Vec<NodeId> = (0..roots).map(|r| b.root(format!("T{r}"), s)).collect();
        let ops: Vec<Vec<NodeId>> = (0..roots)
            .map(|r| {
                (0..leaves)
                    .map(|l| b.leaf(format!("o{r}.{l}"), txs[r]))
                    .collect()
            })
            .collect();
        let mut run = vec![ops[0][0], ops[1][0]];
        run.extend(&ops[0][1..]);
        run.extend(&ops[1][1..]);
        run.extend(ops[2..].iter().flatten());
        for w in run.windows(2) {
            b.output_weak(w[0], w[1]).unwrap();
        }
        b.conflict(ops[0][0], ops[1][0]).unwrap();
        b.conflict(ops[1][0], ops[0][1]).unwrap();
        b.build().unwrap()
    }

    /// `check_end.elapsed_ns` covers building front 0, which happens when
    /// the reducer is made. The check fails at level 1, so no serial
    /// witness is sorted: what it spends outside its one level is front 0
    /// and the events, at least half of what building front 0 alone takes.
    #[test]
    fn check_end_covers_building_front_zero() {
        let sys = interleaved_chain(40, 50);
        let front0 = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(Front::level0(&sys));
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap();
        let outside_levels = (0..5)
            .map(|_| {
                let mut sink = MemorySink::new();
                assert!(!traced_check(&sys, &mut sink).is_correct());
                let (mut total, mut levels) = (0, 0);
                for e in &sink.events {
                    match e {
                        TraceEvent::Level { elapsed_ns, .. } => levels += elapsed_ns,
                        TraceEvent::CheckEnd { elapsed_ns, .. } => total = *elapsed_ns,
                        _ => {}
                    }
                }
                total.saturating_sub(levels)
            })
            .max()
            .unwrap();
        assert!(
            outside_levels >= front0 / 2,
            "{outside_levels} ns outside the levels, front 0 takes {front0} ns"
        );
    }

    #[test]
    fn traced_check_narrates_every_level() {
        let sys = two_level_correct();
        let mut sink = MemorySink::new();
        let v = traced_check(&sys, &mut sink);
        assert!(v.is_correct());
        assert_eq!(sink.events.len(), 2 + sys.order());
        assert!(matches!(
            sink.events[0],
            TraceEvent::CheckStart { order: 2, .. }
        ));
        for (i, ev) in sink.events[1..=sys.order()].iter().enumerate() {
            match *ev {
                TraceEvent::Level {
                    level,
                    ok,
                    front_before,
                    front_after,
                    ..
                } => {
                    assert_eq!(level, i + 1);
                    assert!(ok);
                    assert!(front_after <= front_before);
                }
                ref other => panic!("expected a level event, got {other:?}"),
            }
        }
        match *sink.events.last().unwrap() {
            TraceEvent::CheckEnd {
                correct,
                levels_completed,
                failed_level,
                ..
            } => {
                assert!(correct);
                assert_eq!(levels_completed, 2);
                assert_eq!(failed_level, None);
            }
            ref other => panic!("expected check_end, got {other:?}"),
        }
    }

    /// A failing check emits a failing level event and a check_end naming
    /// the level and phase.
    #[test]
    fn traced_failure_names_level_and_phase() {
        let sys = lost_update();
        let mut sink = MemorySink::new();
        let v = traced_check(&sys, &mut sink);
        assert!(!v.is_correct());
        let kinds: Vec<&str> = sink.events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["check_start", "level", "check_end"]);
        assert!(matches!(
            sink.events[1],
            TraceEvent::Level {
                level: 1,
                ok: false,
                ..
            }
        ));
        assert!(matches!(
            sink.events[2],
            TraceEvent::CheckEnd {
                correct: false,
                failed_level: Some(1),
                failed_phase: Some("calculation"),
                ..
            }
        ));
    }

    /// The level events record the work the reduction actually did
    /// (serialization pairs and, in a forgetting scenario, dropped pairs).
    #[test]
    fn level_events_count_reduction_work() {
        let sys = two_level_correct();
        let mut sink = MemorySink::new();
        traced_check(&sys, &mut sink);
        let TraceEvent::Level {
            serialization_pairs,
            schedules_reduced,
            ..
        } = sink.events[1]
        else {
            panic!("expected level event");
        };
        // Level 1 reduces `bot`, whose conflicting pair (o1, o2) serializes
        // u1 before u2.
        assert_eq!(schedules_reduced, 1);
        assert_eq!(serialization_pairs, 1);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use compc_model::SystemBuilder;

    /// The Figure-4 shape: correct with forgetting, incorrect without.
    fn figure4_shape() -> CompositeSystem {
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
        b.build().unwrap()
    }

    /// The ablation isolates exactly the schedules'-commutativity
    /// contribution: forgetting accepts Figure 4's shape, the ablation
    /// rejects it.
    #[test]
    fn forgetting_ablation_flips_figure4() {
        let sys = figure4_shape();
        assert!(check(&sys).is_correct());
        let strict = Checker::with_options(CheckOptions::new().forgetting(false)).check(&sys);
        assert!(
            !strict.is_correct(),
            "without forgetting the opposing pulled-up orders must cycle"
        );
    }

    /// An explanation re-runs the reduction under the options the failing
    /// check used: under the ablation it reproduces the failure and names
    /// its level instead of falling back to the recorded counterexample.
    #[test]
    fn explain_with_ablation_options_reproduces_the_failure() {
        let sys = figure4_shape();
        let options = CheckOptions::new().forgetting(false);
        let verdict = Checker::with_options(options).check(&sys);
        let cex = verdict.counterexample().expect("the ablation rejects");
        let explanation = cex.explain_with(&sys, options);
        assert_eq!(explanation.level, cex.level);
        assert_eq!(explanation.phase, cex.phase);
        let story = explanation.story.join("\n");
        assert!(
            story.contains(&format!("level {}: FAILED", cex.level)),
            "{story}"
        );
        assert!(!story.contains("did not reproduce"), "{story}");
        // Default options accept the system, so they cannot reproduce it.
        let fallback = cex.explain(&sys).story.join("\n");
        assert!(fallback.contains("did not reproduce"), "{fallback}");
    }

    /// No-forgetting is strictly more conservative: it never accepts a
    /// system the default reduction rejects.
    #[test]
    fn no_forgetting_is_monotonically_stricter() {
        use compc_model::SystemBuilder;
        // A couple of hand shapes; the randomized version lives in the
        // workspace-level test suite.
        for correct_first in [true, false] {
            let mut b = SystemBuilder::new();
            let s = b.schedule("S");
            let t1 = b.root("T1", s);
            let t2 = b.root("T2", s);
            let a1 = b.leaf("a1", t1);
            let a2 = b.leaf("a2", t2);
            let b1 = b.leaf("b1", t1);
            let b2 = b.leaf("b2", t2);
            b.conflict(a1, a2).unwrap();
            b.conflict(b1, b2).unwrap();
            b.output_weak(a1, a2).unwrap();
            if correct_first {
                b.output_weak(b1, b2).unwrap();
            } else {
                b.output_weak(b2, b1).unwrap();
            }
            let sys = b.build().unwrap();
            let default = check(&sys).is_correct();
            let strict = Checker::with_options(CheckOptions::new().forgetting(false))
                .check(&sys)
                .is_correct();
            if strict {
                assert!(default, "strict acceptance must imply default acceptance");
            }
            assert_eq!(default, correct_first);
        }
    }
}
