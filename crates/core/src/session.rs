//! Incremental Comp-C checking: a long-lived [`Session`] that re-checks a
//! growing composite system after every append, reusing the previous
//! append's per-level reduction state instead of starting from scratch.
//!
//! # What is cached, and when it is safe to reuse
//!
//! A from-scratch check (see [`crate::Reducer`]) computes a [`Front`] per
//! level; the expensive part of each level is the transitive closure of the
//! pulled-up observed order. The session caches, per level, the front and
//! its *pre-closure* observed graph. On append it recomputes a level only
//! when the append could have changed it, and even then re-closes only the
//! *dirty* `BitGraph` rows via [`compc_graph::delta_closure`] (a closure
//! row can change only if its node reaches the source of an added edge).
//!
//! A cached level `k ≥ 1` is reused wholesale iff **all** of:
//!
//! 1. the incoming level-`k-1` front is identical to the cached one
//!    (modulo node-count padding — appends only add trailing nodes);
//! 2. the set of schedules reduced at level `k` is unchanged;
//! 3. none of those schedules was touched by the append;
//! 4. globally, the append added **no** relation pair (conflict or weak
//!    order) between two *pre-existing* nodes.
//!
//! Condition 4 is the subtle one: the constraint graph and generalized
//! conflicts at step `k` consult conflict declarations and output orders of
//! *container* schedules at any level ≥ `k` (`Front::gen_con`,
//! `entry_pairs`), so a pair added between old nodes in a high-level
//! schedule can change a low-level step even when the incoming front is
//! identical. Pairs involving a *new* node are covered by condition 1
//! instead — a new node sits in every front below its reduction level, so
//! any level it can influence sees a changed incoming front. When condition
//! 4 fails every level recomputes, but each still delta-closes against its
//! cached rows.
//!
//! # Two entry points, one computation
//!
//! [`Session::append`] takes a whole new system and finds what changed by
//! diffing it against the current one (the touched schedules of
//! conditions 3 and 4). [`Session::reopen`] hands the current system out
//! as a [`SystemBuilder`] instead; the caller extends it in place, and
//! [`Session::append_extension`] takes the builder's [`SystemDelta`] as
//! is, with no diff. Both run the same `run_append`.
//!
//! # Why verdicts stay bit-identical
//!
//! Reused or delta-closed state can never change a verdict because (a) the
//! non-closure work of a step runs through the *same*
//! `reduce::step_pre_closure` code as the batch checker, (b) a transitive
//! closure's edge set is uniquely determined by its input graph, so the
//! delta path and the from-scratch path produce equal graphs, and (c) a
//! [`Verdict`] is built only from front-membership-filtered pair lists,
//! cycle searches and topological sorts over those graphs — all
//! deterministic functions of the edge sets, insensitive to trailing
//! node-count padding. DESIGN.md §8 spells out the full argument.

use crate::front::{self, Front};
use crate::par::{self, CheckScratch};
use crate::reduce::{
    front_snapshot, make_counterexample, serial_witness, step_pre_closure, CheckOptions, Deadline,
    FailurePhase, FrontSnapshot, Interrupted, Proof, Verdict,
};
use compc_graph::{added_edges, delta_closure, DiGraph};
use compc_model::{CompositeSystem, NodeId, SchedId, Schedule, SystemBuilder, SystemDelta};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why a [`Session`] operation failed.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// The appended system is not a valid extension of the session's
    /// current system (renamed/re-parented nodes, dropped schedules,
    /// removed relation pairs, …). The session state is unchanged.
    Invalid(String),
    /// The append's re-check was interrupted by the session deadline or
    /// cancel token. The session keeps the appended system and every
    /// completed level; re-appending the same system resumes from there.
    Interrupted(Interrupted),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Invalid(msg) => write!(f, "invalid append: {msg}"),
            SessionError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Invalid(_) => None,
            SessionError::Interrupted(i) => Some(i),
        }
    }
}

impl From<Interrupted> for SessionError {
    fn from(i: Interrupted) -> Self {
        SessionError::Interrupted(i)
    }
}

/// Counters describing how much work the incremental path actually saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Appends accepted (including ones that ended in an incorrect verdict
    /// or an interruption).
    pub appends: u64,
    /// Levels recomputed across all appends.
    pub levels_computed: u64,
    /// Levels reused wholesale from the previous append.
    pub levels_reused: u64,
    /// Closure rows recomputed (dirty rows, plus every row of a
    /// full-closure fallback).
    pub rows_recomputed: u64,
    /// Closure rows spliced unchanged from a cached closure.
    pub rows_spliced: u64,
}

/// One completed reduction level, cached across appends.
#[derive(Clone, Debug)]
struct LevelCache {
    /// The level's front; `front.observed` is the transitive closure of
    /// `pre_observed` (possibly padded with trailing edge-free nodes).
    front: Front,
    /// The level's observed graph before closure — the delta base for the
    /// next append's closure at this level.
    pre_observed: DiGraph,
    /// The schedule ids reduced at this level (empty for level 0).
    sched_ids: Vec<SchedId>,
}

/// An incremental Comp-C checker over a growing composite system.
///
/// ```
/// use compc_core::Session;
/// use compc_model::SystemBuilder;
///
/// let mut b = SystemBuilder::new();
/// let s = b.schedule("S");
/// let t1 = b.root("T1", s);
/// let _o1 = b.leaf("o1", t1);
/// let sys = b.build().unwrap();
///
/// let mut session = Session::open(sys).unwrap();
/// assert!(session.verdict().unwrap().is_correct());
/// ```
///
/// Every append replaces the session's system with the given *extension*
/// (same nodes plus new ones, same relations plus new ones) and returns the
/// verdict for the extended system — bit-identical to what
/// [`crate::Checker`] would produce from scratch, but computed against the
/// previous append's cached fronts.
#[derive(Debug)]
pub struct Session {
    options: CheckOptions,
    sys: Option<CompositeSystem>,
    levels: Vec<LevelCache>,
    scratch: CheckScratch,
    cancel: Arc<AtomicBool>,
    last_verdict: Option<Verdict>,
    stats: SessionStats,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session with default [`CheckOptions`].
    pub fn new() -> Session {
        Session::with_options(CheckOptions::default())
    }

    /// An empty session with the given options. The `oracle` flag is
    /// ignored at this layer (the core crate cannot see the oracle);
    /// spec-level wrappers honor it.
    pub fn with_options(options: CheckOptions) -> Session {
        Session {
            options,
            sys: None,
            levels: Vec::new(),
            scratch: CheckScratch::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            last_verdict: None,
            stats: SessionStats::default(),
        }
    }

    /// Opens a session over an initial system and checks it.
    pub fn open(sys: CompositeSystem) -> Result<Session, SessionError> {
        Session::open_with_options(sys, CheckOptions::default())
    }

    /// [`Session::open`] with explicit options.
    pub fn open_with_options(
        sys: CompositeSystem,
        options: CheckOptions,
    ) -> Result<Session, SessionError> {
        let mut session = Session::with_options(options);
        session.append(sys)?;
        Ok(session)
    }

    /// The options this session checks with.
    pub fn options(&self) -> CheckOptions {
        self.options
    }

    /// Replaces the per-append wall-clock budget (`None` disables it).
    ///
    /// The deadline is read afresh at the start of every append, so this
    /// is safe mid-session — unlike the backend or forgetting options,
    /// which shape the cached level state and are fixed at construction.
    /// `compc-serve` uses this to replay its write-ahead journal at
    /// startup without the replay itself being interrupted by
    /// `--deadline-ms`.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.options.deadline = deadline;
    }

    /// The session's cooperative cancel token: set it to `true` (from any
    /// thread) to interrupt the current or next append at a level boundary.
    /// The token is *not* auto-reset; clear it to resume.
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// The current system, if any append has been accepted.
    pub fn system(&self) -> Option<&CompositeSystem> {
        self.sys.as_ref()
    }

    /// The verdict of the last *completed* append (`None` before the first
    /// append or after an interrupted one).
    pub fn verdict(&self) -> Option<&Verdict> {
        self.last_verdict.as_ref()
    }

    /// Work counters for the incremental path.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Replaces the session's system with the given extension and returns
    /// the verdict for it, recomputing only what the append could have
    /// changed. What changed is found by diffing `sys` against the current
    /// system; [`Session::append_extension`] is the entry point for a
    /// caller that extended the system in place and already knows.
    ///
    /// On [`SessionError::Invalid`] the session is left untouched. On
    /// [`SessionError::Interrupted`] the session keeps the new system and
    /// the completed level prefix; re-appending the identical system
    /// resumes from the first uncached level.
    pub fn append(&mut self, sys: CompositeSystem) -> Result<&Verdict, SessionError> {
        self.validate_extension(&sys)?;
        let delta = match &self.sys {
            None => from_scratch(),
            Some(old) => diff_schedules(old, &sys),
        };
        self.append_extension(sys, &delta)
    }

    /// Moves the current system out so the caller can extend it in place
    /// (an empty builder before the first append). The session has no
    /// system until the extension comes back through
    /// [`Session::append_extension`] (or [`Session::recheck`]); its cached
    /// levels stay those of the system that was taken.
    pub fn reopen(&mut self) -> SystemBuilder {
        self.sys
            .take()
            .map_or_else(SystemBuilder::new, CompositeSystem::into_builder)
    }

    /// Puts back a rebuilt copy of the system [`Session::reopen`] took, for
    /// an extension that failed before it was appended: the cached levels,
    /// verdict and counters are still that system's.
    pub fn reinstate(&mut self, sys: CompositeSystem) {
        self.sys = Some(sys);
    }

    /// [`Session::append`] for a system extended in place from
    /// [`Session::reopen`]'s builder, with the [`SystemDelta`] its
    /// [`SystemBuilder::build_extension`] reported: no diff against the
    /// previous system is needed, and none is possible (it was moved).
    pub fn append_extension(
        &mut self,
        sys: CompositeSystem,
        delta: &SystemDelta,
    ) -> Result<&Verdict, SessionError> {
        let deadline = self
            .options
            .deadline
            .map_or_else(Deadline::none, Deadline::after);
        self.stats.appends += 1;
        self.run(sys, delta, deadline)
    }

    /// Discards the cached levels and checks `sys` from scratch without a
    /// deadline, then sets the counters to `stats`: the slow path of a
    /// rollback, which rebuilds an earlier system and must leave the
    /// session as if the later appends never happened. `None` empties the
    /// session.
    pub fn recheck(&mut self, sys: Option<CompositeSystem>, stats: SessionStats) {
        self.sys = None;
        self.levels.clear();
        self.last_verdict = None;
        if let Some(sys) = sys {
            // Only the cancel token can interrupt it; an interrupted check
            // keeps its completed levels, and the next append resumes.
            let _ = self.run(sys, &from_scratch(), Deadline::none());
        }
        self.stats = stats;
    }

    /// Installs `sys` and checks it against the cached levels.
    fn run(
        &mut self,
        sys: CompositeSystem,
        delta: &SystemDelta,
        deadline: Deadline,
    ) -> Result<&Verdict, SessionError> {
        let old_levels = std::mem::take(&mut self.levels);
        self.last_verdict = None;
        let outcome = run_append(
            &sys,
            self.options,
            &old_levels,
            delta,
            &mut self.scratch,
            &mut self.stats,
            &self.cancel,
            deadline,
        );
        self.sys = Some(sys);
        match outcome {
            Ok((levels, verdict)) => {
                self.levels = levels;
                self.last_verdict = Some(verdict);
                Ok(self.last_verdict.as_ref().expect("just set"))
            }
            Err((levels, interrupted)) => {
                self.levels = levels;
                Err(SessionError::Interrupted(interrupted))
            }
        }
    }

    /// Checks that `new` extends the current system: every existing node
    /// keeps its identity (name, parent, home), every existing schedule its
    /// name and transactions, and no relation pair disappears. Appends that
    /// shrink or rewrite state must open a fresh session instead.
    fn validate_extension(&self, new: &CompositeSystem) -> Result<(), SessionError> {
        let Some(old) = &self.sys else {
            return Ok(());
        };
        let invalid = |msg: String| Err(SessionError::Invalid(msg));
        if new.node_count() < old.node_count() {
            return invalid(format!(
                "extension has {} nodes, current system has {}",
                new.node_count(),
                old.node_count()
            ));
        }
        if new.schedule_count() < old.schedule_count() {
            return invalid(format!(
                "extension has {} schedules, current system has {}",
                new.schedule_count(),
                old.schedule_count()
            ));
        }
        for i in 0..old.node_count() {
            let id = NodeId(i as u32);
            let (a, b) = (old.node(id), new.node(id));
            if a.name != b.name || a.parent != b.parent || a.home != b.home {
                return invalid(format!(
                    "node {} ({:?}) changed identity (got {:?}, parent {:?}, home {:?})",
                    i, a.name, b.name, b.parent, b.home
                ));
            }
        }
        for s_old in old.schedules() {
            let s_new = new.schedule(s_old.id);
            if s_old.name != s_new.name {
                return invalid(format!(
                    "schedule {:?} renamed to {:?}",
                    s_old.name, s_new.name
                ));
            }
            for t_old in &s_old.transactions {
                let Some(t_new) = s_new.transaction(t_old.id) else {
                    return invalid(format!(
                        "transaction {} dropped from schedule {:?}",
                        old.name(t_old.id),
                        s_old.name
                    ));
                };
                if !t_old.ops.iter().all(|o| t_new.ops.contains(o)) {
                    return invalid(format!(
                        "transaction {} lost operations",
                        old.name(t_old.id)
                    ));
                }
            }
            if let Some(pair) = first_removed_pair(s_old, s_new) {
                return invalid(format!(
                    "relation pair ({}, {}) removed from schedule {:?}",
                    old.name(pair.0),
                    old.name(pair.1),
                    s_old.name
                ));
            }
        }
        Ok(())
    }
}

/// The append computation, shared by both append entry points and
/// separated from them so the new system can be installed on the session
/// regardless of the outcome. `delta` is what changed since the system the
/// cached `old_levels` belong to. `Err` carries the completed level prefix
/// alongside the interruption.
#[allow(clippy::too_many_arguments)]
fn run_append(
    sys: &CompositeSystem,
    options: CheckOptions,
    old_levels: &[LevelCache],
    delta: &SystemDelta,
    scratch: &mut CheckScratch,
    stats: &mut SessionStats,
    cancel: &AtomicBool,
    deadline: Deadline,
) -> Result<(Vec<LevelCache>, Verdict), (Vec<LevelCache>, Interrupted)> {
    let n = sys.node_count();
    let mut levels: Vec<LevelCache> = Vec::with_capacity(sys.order() + 1);
    let mut fronts: Vec<FrontSnapshot> = Vec::new();
    let touched = &delta.touched;

    // --- Level 0. Reusable only when the system is structurally unchanged
    // (its observed order reads every schedule's leaf output pairs). New
    // nodes and new schedules always touch a schedule.
    if touched.is_empty() && !delta.old_pairs_touched && !old_levels.is_empty() {
        levels.push(old_levels[0].clone());
        stats.levels_reused += 1;
    } else {
        let pre0 = front::level0_pre(sys);
        let observed = close_incremental(old_levels.first(), &pre0, options, scratch, stats);
        stats.levels_computed += 1;
        levels.push(LevelCache {
            front: Front {
                level: 0,
                nodes: sys.leaves().collect(),
                observed,
                input: DiGraph::with_nodes(n),
            },
            pre_observed: pre0,
            sched_ids: Vec::new(),
        });
    }
    fronts.push(front_snapshot(sys, &levels[0].front));
    // Front 0 is CC by construction, but the batch path checks anyway so
    // the invariant is uniform — mirror it exactly.
    if let Some(cycle) = levels[0].front.is_cc() {
        let verdict = Verdict::Incorrect(make_counterexample(
            sys,
            0,
            FailurePhase::ConflictConsistency,
            cycle,
        ));
        return Ok((levels, verdict));
    }

    for level in 1..=sys.order() {
        if deadline.expired() || cancel.load(Ordering::Relaxed) {
            levels.truncate(level);
            return Err((levels, Interrupted { level }));
        }
        let scheds: Vec<SchedId> = sys.schedules_at_level(level).map(|s| s.id).collect();
        let reusable = !delta.old_pairs_touched
            && old_levels.len() > level
            && old_levels[level].sched_ids == scheds
            && scheds.iter().all(|sid| !touched.contains(sid))
            && fronts_equal(&levels[level - 1].front, &old_levels[level - 1].front);
        if reusable {
            // The cached level was computed from an identical incoming
            // front by untouched schedules, with no old-node relation pair
            // added anywhere the step could consult — so it is *the* result
            // of this step, already conflict-consistent. Grow its graphs to
            // the current node count so downstream comparisons line up.
            let mut cache = old_levels[level].clone();
            grow_front(&mut cache.front, n);
            fronts.push(front_snapshot(sys, &cache.front));
            levels.push(cache);
            stats.levels_reused += 1;
            continue;
        }
        let pre = match step_pre_closure(sys, &levels[level - 1].front, options, &scheds, level) {
            Ok(pre) => pre,
            Err(fail) => {
                let verdict = Verdict::Incorrect(make_counterexample(
                    sys,
                    level,
                    FailurePhase::Calculation,
                    fail.cycle,
                ));
                return Ok((levels, verdict));
            }
        };
        // Delta-close against this level's previous closure whenever the
        // old pre-closure graph is a subgraph of the new one; otherwise
        // (shape changed, relation removed) fall back to a full closure —
        // correctness never depends on the extension being well-behaved.
        let observed = close_incremental(
            old_levels.get(level),
            &pre.pre_observed,
            options,
            scratch,
            stats,
        );
        stats.levels_computed += 1;
        let front = Front {
            level,
            nodes: pre.new_nodes,
            observed,
            input: pre.input,
        };
        if let Some(cycle) = front.is_cc() {
            let verdict = Verdict::Incorrect(make_counterexample(
                sys,
                level,
                FailurePhase::ConflictConsistency,
                cycle,
            ));
            return Ok((levels, verdict));
        }
        fronts.push(front_snapshot(sys, &front));
        levels.push(LevelCache {
            front,
            pre_observed: pre.pre_observed,
            sched_ids: scheds,
        });
    }

    debug_assert_eq!(
        levels.last().map(|c| c.front.nodes.clone()),
        Some(sys.roots().collect::<BTreeSet<_>>()),
        "a completed reduction must leave exactly the roots"
    );
    let witness = serial_witness(sys, &levels.last().expect("level 0 always present").front);
    let verdict = Verdict::Correct(Proof {
        fronts,
        serial_witness: witness,
    });
    Ok((levels, verdict))
}

/// Transitively closes `pre`, reusing `base`'s cached closure rows when
/// `base.pre_observed` is a subgraph of `pre` (the append-only fast path).
fn close_incremental(
    base: Option<&LevelCache>,
    pre: &DiGraph,
    options: CheckOptions,
    scratch: &mut CheckScratch,
    stats: &mut SessionStats,
) -> DiGraph {
    if let Some(cache) = base {
        if let Some(added) = added_edges(&cache.pre_observed, pre) {
            let delta = delta_closure(&cache.front.observed, pre, &added);
            stats.rows_recomputed += delta.dirty_rows as u64;
            stats.rows_spliced += (pre.node_count() - delta.dirty_rows) as u64;
            return delta.closed;
        }
    }
    stats.rows_recomputed += pre.node_count() as u64;
    par::transitive_closure_jobs(pre, options.jobs, options.backend, scratch)
}

/// Structural front equality modulo trailing node-count padding: appends
/// only ever add edge-free trailing nodes to cached graphs, so membership
/// plus ordered edge-set equality is exact.
fn fronts_equal(new: &Front, old: &Front) -> bool {
    new.level == old.level
        && new.nodes == old.nodes
        && graph_edges_equal(&new.observed, &old.observed)
        && graph_edges_equal(&new.input, &old.input)
}

fn graph_edges_equal(a: &DiGraph, b: &DiGraph) -> bool {
    a.edge_count() == b.edge_count() && a.edges().eq(b.edges())
}

/// Pads a cached front's graphs with edge-free nodes up to the current
/// node count, so unions and cycle searches downstream see graphs of the
/// same shape a from-scratch check would build.
fn grow_front(front: &mut Front, n: usize) {
    if n > 0 {
        front.observed.ensure_node(n - 1);
        front.input.ensure_node(n - 1);
    }
}

/// The delta that reuses nothing: for a system with no predecessor to
/// compare against.
fn from_scratch() -> SystemDelta {
    SystemDelta {
        touched: BTreeSet::new(),
        old_pairs_touched: true,
    }
}

/// Which schedules changed between `old` and `new` (by whole-schedule
/// equality; new schedules always count), and whether any relation pair
/// between two *pre-existing* nodes was added anywhere — the global reuse
/// veto of condition 4 (see the module docs).
fn diff_schedules(old: &CompositeSystem, new: &CompositeSystem) -> SystemDelta {
    let old_n = old.node_count();
    let mut touched = BTreeSet::new();
    let mut old_pairs_touched = false;
    for s_new in new.schedules() {
        if s_new.id.index() >= old.schedule_count() {
            touched.insert(s_new.id);
            continue;
        }
        let s_old = old.schedule(s_new.id);
        if s_old == s_new {
            continue;
        }
        touched.insert(s_new.id);
        if added_pair_between_old_nodes(s_old, s_new, old_n) {
            old_pairs_touched = true;
        }
    }
    SystemDelta {
        touched,
        old_pairs_touched,
    }
}

/// Whether `s_new` declares a relation pair over two nodes that already
/// existed, absent from `s_old`. Only the relations the reduction step
/// consults matter: conflicts and *weak* output/input orders (strong orders
/// are contained in weak by Definition 3; intra-transaction orders must be
/// reflected in the output order by axiom 2).
fn added_pair_between_old_nodes(s_old: &Schedule, s_new: &Schedule, old_n: usize) -> bool {
    let both_old = |a: NodeId, b: NodeId| a.index() < old_n && b.index() < old_n;
    s_new
        .conflicts
        .iter()
        .any(|(a, b)| both_old(a, b) && !s_old.conflicts.conflicts(a, b))
        || s_new
            .output
            .weak_pairs()
            .any(|(a, b)| both_old(a, b) && !s_old.output.weak_lt(a, b))
        || s_new
            .input
            .weak_pairs()
            .any(|(a, b)| both_old(a, b) && !s_old.input.weak_lt(a, b))
}

/// The first relation pair present in `s_old` but missing from `s_new`, if
/// any — extensions may only add pairs.
fn first_removed_pair(s_old: &Schedule, s_new: &Schedule) -> Option<(NodeId, NodeId)> {
    s_old
        .conflicts
        .iter()
        .find(|&(a, b)| !s_new.conflicts.conflicts(a, b))
        .or_else(|| {
            s_old
                .output
                .weak_pairs()
                .find(|&(a, b)| !s_new.output.weak_lt(a, b))
        })
        .or_else(|| {
            s_old
                .input
                .weak_pairs()
                .find(|&(a, b)| !s_new.input.weak_lt(a, b))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::Checker;
    use compc_model::SystemBuilder;

    /// A compact structural fingerprint of a verdict, for bit-identity
    /// assertions between the session and the from-scratch checker.
    fn fingerprint(v: &Verdict) -> String {
        match v {
            Verdict::Correct(p) => {
                let mut out = String::from("correct;");
                for f in &p.fronts {
                    out.push_str(&format!(
                        "L{}:{:?}|o{:?}|c{:?}|i{:?};",
                        f.level, f.nodes, f.observed, f.conflicts, f.input
                    ));
                }
                out.push_str(&format!("w{:?}", p.serial_witness));
                out
            }
            Verdict::Incorrect(c) => format!(
                "incorrect;L{};{};{:?};{:?}",
                c.level,
                c.phase.tag(),
                c.cycle,
                c.cycle_names
            ),
        }
    }

    fn stack(extra_conflict: bool) -> CompositeSystem {
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
        if extra_conflict {
            let o3 = b.leaf("o3", u1);
            let o4 = b.leaf("o4", u2);
            b.conflict(o3, o4).unwrap();
            b.output_weak(o4, o3).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn open_checks_the_initial_system() {
        let session = Session::open(stack(false)).unwrap();
        assert!(session.verdict().unwrap().is_correct());
        assert_eq!(session.stats().appends, 1);
    }

    #[test]
    fn append_matches_from_scratch_check() {
        let mut session = Session::open(stack(false)).unwrap();
        let extended = stack(true);
        let batch = Checker::new().check(&extended);
        let incremental = session.append(extended).unwrap().clone();
        assert_eq!(fingerprint(&incremental), fingerprint(&batch));
        // o4 ≺ o3 opposes o1 ≺ o2 through conflicting pairs of `bot`:
        // the serialization pairs cycle u1/u2.
        assert!(!incremental.is_correct());
    }

    #[test]
    fn identical_reappend_reuses_every_level() {
        let sys = stack(false);
        let mut session = Session::open(sys.clone()).unwrap();
        let computed_before = session.stats().levels_computed;
        let v = session.append(sys).unwrap();
        assert!(v.is_correct());
        let stats = session.stats();
        assert_eq!(stats.levels_computed, computed_before);
        assert_eq!(stats.levels_reused, 3, "levels 0..=2 all reused");
    }

    #[test]
    fn growing_append_reuses_untouched_levels() {
        // Two independent stacks side by side; extending one must not
        // recompute... actually level sets are shared, but the delta path
        // must splice the untouched stack's closure rows.
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
        let mut session = Session::open(b.build().unwrap()).unwrap();

        // Extend: a third root with its own subtransaction and leaf, no new
        // relations between old nodes.
        let mut b2 = SystemBuilder::new();
        let s_top = b2.schedule("top");
        let s_bot = b2.schedule("bot");
        let t1 = b2.root("T1", s_top);
        let t2 = b2.root("T2", s_top);
        let u1 = b2.subtx("u1", t1, s_bot);
        let u2 = b2.subtx("u2", t2, s_bot);
        let o1 = b2.leaf("o1", u1);
        let o2 = b2.leaf("o2", u2);
        b2.conflict(o1, o2).unwrap();
        b2.output_weak(o1, o2).unwrap();
        let t3 = b2.root("T3", s_top);
        let u3 = b2.subtx("u3", t3, s_bot);
        let o3 = b2.leaf("o3", u3);
        b2.conflict(o2, o3).unwrap();
        b2.output_weak(o2, o3).unwrap();
        let extended = b2.build().unwrap();

        let batch = Checker::new().check(&extended);
        let incremental = session.append(extended).unwrap().clone();
        assert_eq!(fingerprint(&incremental), fingerprint(&batch));
        let stats = session.stats();
        assert!(
            stats.rows_spliced > 0,
            "the untouched rows must be spliced, not recomputed: {stats:?}"
        );
    }

    #[test]
    fn pair_between_old_nodes_vetoes_reuse_but_stays_identical() {
        // stack(true) adds o3/o4 with a *new-node* conflict; here no node is
        // added at all — the append declares a conflict and order between
        // two OLD leaves, the condition-4 veto, so every level must
        // recompute and the verdict must still match from-scratch.
        let build = |declare: bool| {
            let mut b = SystemBuilder::new();
            let s_top = b.schedule("top");
            let s_bot = b.schedule("bot");
            let mut leaves = Vec::new();
            for i in 1..=3 {
                let t = b.root(format!("T{i}"), s_top);
                let u = b.subtx(format!("u{i}"), t, s_bot);
                leaves.push(b.leaf(format!("o{i}"), u));
            }
            b.conflict(leaves[0], leaves[1]).unwrap();
            b.output_weak(leaves[0], leaves[1]).unwrap();
            if declare {
                b.conflict(leaves[1], leaves[2]).unwrap();
                b.output_weak(leaves[1], leaves[2]).unwrap();
            }
            b.build().unwrap()
        };
        let mut session = Session::open(build(false)).unwrap();
        let reused_before = session.stats().levels_reused;
        let extended = build(true);
        let batch = Checker::new().check(&extended);
        let incremental = session.append(extended).unwrap().clone();
        assert_eq!(fingerprint(&incremental), fingerprint(&batch));
        assert_eq!(
            session.stats().levels_reused,
            reused_before,
            "an old-old relation pair must veto every level reuse"
        );
    }

    #[test]
    fn invalid_extension_is_rejected_and_state_kept() {
        let mut session = Session::open(stack(false)).unwrap();
        // A different system entirely: same node count but renamed nodes.
        let mut b = SystemBuilder::new();
        let s = b.schedule("other");
        let t = b.root("X", s);
        let _o = b.leaf("y", t);
        let err = session.append(b.build().unwrap()).unwrap_err();
        assert!(matches!(err, SessionError::Invalid(_)), "{err}");
        assert!(
            session.verdict().unwrap().is_correct(),
            "rejected appends must leave the previous verdict intact"
        );
        // Error plumbing: Display + Error are wired.
        let _: &dyn std::error::Error = &err;
        assert!(err.to_string().contains("invalid append"));
    }

    #[test]
    fn cancelled_append_resumes_from_completed_levels() {
        let sys = stack(false);
        let mut session = Session::open(sys.clone()).unwrap();
        let token = session.cancel_token();
        token.store(true, Ordering::Relaxed);
        let err = session.append(sys.clone()).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Interrupted(Interrupted { level: 1 })
        ));
        assert!(
            session.verdict().is_none(),
            "interrupted append has no verdict"
        );
        token.store(false, Ordering::Relaxed);
        let v = session.append(sys).unwrap();
        assert!(v.is_correct());
    }

    #[test]
    fn zero_deadline_interrupts_and_maps_through_session_error() {
        let sys = stack(false);
        let mut session =
            Session::with_options(CheckOptions::new().deadline(std::time::Duration::ZERO));
        let err = session.append(sys).unwrap_err();
        let SessionError::Interrupted(i) = &err else {
            panic!("expected interruption, got {err}");
        };
        assert_eq!(i.level, 1);
        use std::error::Error;
        assert!(err.source().is_some(), "Interrupted is the source");
    }

    #[test]
    fn recheck_rolls_back_to_an_earlier_system() {
        let mut session = Session::open(stack(false)).unwrap();
        let stats = session.stats();
        assert!(!session.append(stack(true)).unwrap().is_correct());
        session.recheck(Some(stack(false)), stats);
        assert!(session.verdict().unwrap().is_correct());
        assert_eq!(session.stats(), stats);
        // The rolled-back session keeps checking correctly from there.
        let v = session.append(stack(true)).unwrap().clone();
        let batch = Checker::new().check(&stack(true));
        assert_eq!(fingerprint(&v), fingerprint(&batch));
    }

    #[test]
    fn extension_in_place_matches_the_diffing_append() {
        let mut diffing = Session::open(stack(false)).unwrap();
        let mut in_place = Session::open(stack(false)).unwrap();
        let mut b = in_place.reopen();
        let (u1, u2) = (NodeId(2), NodeId(3));
        let o3 = b.leaf("o3", u1);
        let o4 = b.leaf("o4", u2);
        b.conflict(o3, o4).unwrap();
        b.output_weak(o4, o3).unwrap();
        let (sys, delta) = b.build_extension().unwrap();
        assert_eq!(sys, stack(true), "the extension is the from-scratch build");
        assert_eq!(
            delta,
            diff_schedules(diffing.system().unwrap(), &sys),
            "the builder reports the delta a diff finds"
        );
        let v = in_place.append_extension(sys, &delta).unwrap().clone();
        let w = diffing.append(stack(true)).unwrap();
        assert_eq!(fingerprint(&v), fingerprint(w));
        assert_eq!(in_place.stats(), diffing.stats());
    }

    #[test]
    fn backend_choice_does_not_change_session_verdicts() {
        use crate::reduce::Backend;
        for backend in [Backend::Dense, Backend::Sparse] {
            let mut session = Session::with_options(CheckOptions::new().backend(backend));
            session.append(stack(false)).unwrap();
            let v = session.append(stack(true)).unwrap().clone();
            let batch = Checker::new().check(&stack(true));
            assert_eq!(fingerprint(&v), fingerprint(&batch), "{backend}");
        }
    }
}
