//! A [`Session`] over a growing composite system: every append installs a
//! whole extended system, checks that it extends the current one, and
//! checks it from scratch with the ordinary [`crate::Reducer`], so a
//! session verdict is bit-identical to [`crate::Checker`]'s on the same
//! system by construction. The spec-level session of the `compc` crate
//! extends its system in place instead and runs the reducer itself; this
//! type serves callers that hold whole systems.
//!
//! # Why there is no level cache
//!
//! On streamed growth every append adds a root whose subtree reaches every
//! level, so every level's incoming front changes and no cached level could
//! be reused; a per-level cache with delta closure lost to a from-scratch
//! check at every measured size (DESIGN.md §8.2, EXPERIMENTS.md E24 and
//! E27).

use crate::reduce::{CheckOptions, Checker, Interrupted, Verdict};
use compc_model::{CompositeSystem, NodeId, Schedule};

/// Why a [`Session`] operation failed.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// The appended system is not a valid extension of the session's
    /// current system (renamed/re-parented nodes, dropped schedules,
    /// removed relation pairs, …). The session state is unchanged.
    Invalid(String),
    /// The append's check was interrupted by the session deadline or
    /// cancel token. The session keeps the appended system with no verdict;
    /// re-appending the same system checks it again from scratch.
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

/// Session counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Appends accepted (including ones that ended in an incorrect verdict
    /// or an interruption).
    pub appends: u64,
    /// Always 0: sessions reuse no level. Kept because the repository
    /// benchmark's driver still reads it.
    pub levels_reused: u64,
    /// Always 0: sessions keep no closure rows to recompute. Kept because
    /// the repository benchmark's driver still reads it.
    pub rows_recomputed: u64,
    /// Always 0: sessions splice no closure rows. Kept because the
    /// repository benchmark's driver still reads it.
    pub rows_spliced: u64,
}

/// A Comp-C checker over a growing composite system.
///
/// ```
/// use compc_core::{CheckOptions, Session};
/// use compc_model::SystemBuilder;
///
/// let mut b = SystemBuilder::new();
/// let s = b.schedule("S");
/// let t1 = b.root("T1", s);
/// let _o1 = b.leaf("o1", t1);
/// let sys = b.build().unwrap();
///
/// let mut session = Session::with_options(CheckOptions::default());
/// assert!(session.append(sys).unwrap().is_correct());
/// ```
///
/// Every append replaces the session's system with the given *extension*
/// (same nodes plus new ones, same relations plus new ones) and returns the
/// verdict for the extended system, checked from scratch.
#[derive(Debug)]
pub struct Session {
    options: CheckOptions,
    sys: Option<CompositeSystem>,
    verdict: Option<Verdict>,
    stats: SessionStats,
}

impl Session {
    /// An empty session with the given options. The `oracle` flag is
    /// ignored at this layer (the core crate cannot see the oracle);
    /// spec-level wrappers honor it.
    pub fn with_options(options: CheckOptions) -> Session {
        Session {
            options,
            sys: None,
            verdict: None,
            stats: SessionStats::default(),
        }
    }

    /// The current system, if any append has been accepted.
    pub fn system(&self) -> Option<&CompositeSystem> {
        self.sys.as_ref()
    }

    /// Session counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Replaces the session's system with the given extension and returns
    /// the verdict for it, after checking that `sys` extends the current
    /// system.
    ///
    /// On [`SessionError::Invalid`] the session is left untouched. On
    /// [`SessionError::Interrupted`] the session keeps the new system with
    /// no verdict; re-appending the identical system checks it again.
    pub fn append(&mut self, sys: CompositeSystem) -> Result<&Verdict, SessionError> {
        self.validate_extension(&sys)?;
        self.stats.appends += 1;
        self.verdict = None;
        let sys = self.sys.insert(sys);
        let verdict = Checker::with_options(self.options).reducer(sys).try_run()?;
        Ok(self.verdict.insert(verdict))
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
            Verdict::Correct(p) => format!("correct;w{:?}", p.serial_witness),
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

    /// A session whose first append was `sys`.
    fn opened(sys: CompositeSystem) -> Session {
        let mut session = Session::with_options(CheckOptions::default());
        assert!(session.append(sys).unwrap().is_correct());
        session
    }

    #[test]
    fn first_append_checks_the_initial_system() {
        let session = opened(stack(false));
        assert_eq!(session.system(), Some(&stack(false)));
        assert_eq!(session.stats().appends, 1);
    }

    #[test]
    fn append_matches_from_scratch_check() {
        let mut session = opened(stack(false));
        let extended = stack(true);
        let batch = Checker::new().check(&extended);
        let incremental = session.append(extended).unwrap().clone();
        assert_eq!(fingerprint(&incremental), fingerprint(&batch));
        // o4 ≺ o3 opposes o1 ≺ o2 through conflicting pairs of `bot`:
        // the serialization pairs cycle u1/u2.
        assert!(!incremental.is_correct());
    }

    #[test]
    fn invalid_extension_is_rejected_and_state_kept() {
        let mut session = opened(stack(false));
        // A different system entirely: same node count but renamed nodes.
        let mut b = SystemBuilder::new();
        let s = b.schedule("other");
        let t = b.root("X", s);
        let _o = b.leaf("y", t);
        let err = session.append(b.build().unwrap()).unwrap_err();
        assert!(matches!(err, SessionError::Invalid(_)), "{err}");
        assert_eq!(session.system(), Some(&stack(false)));
        assert_eq!(session.stats().appends, 1);
        // Error plumbing: Display + Error are wired.
        let _: &dyn std::error::Error = &err;
        assert!(err.to_string().contains("invalid append"));
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

    /// Every front a stepped reduction of `sys` under `options` reaches,
    /// up to the first failing step: level, members, member observed
    /// pairs, conflict pairs and member input pairs.
    fn stepped_fronts(sys: &CompositeSystem, options: CheckOptions) -> Vec<String> {
        let mut reducer = Checker::with_options(options).reducer(sys);
        let render = |f: &crate::Front| {
            format!(
                "L{}:{:?}|o{:?}|c{:?}|i{:?}",
                f.level(),
                f.members().collect::<Vec<_>>(),
                f.observed_pairs(),
                f.conflict_pairs(sys),
                f.input_pairs()
            )
        };
        let mut out = vec![render(reducer.front())];
        for level in 1..=sys.order() {
            let stepped = reducer.step(level);
            out.push(render(reducer.front()));
            if stepped.is_err() {
                break;
            }
        }
        out
    }

    #[test]
    fn backend_choice_does_not_change_session_verdicts() {
        use crate::reduce::Backend;
        for backend in [Backend::Dense, Backend::Sparse] {
            let options = CheckOptions::new().backend(backend);
            let mut session = Session::with_options(options);
            session.append(stack(false)).unwrap();
            let v = session.append(stack(true)).unwrap().clone();
            let batch = Checker::new().check(&stack(true));
            assert_eq!(fingerprint(&v), fingerprint(&batch), "{backend}");
            for sys in [stack(false), stack(true)] {
                assert_eq!(
                    stepped_fronts(&sys, options),
                    stepped_fronts(&sys, CheckOptions::new()),
                    "{backend}"
                );
            }
        }
    }
}
