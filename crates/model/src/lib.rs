//! The formal model of composite transactional systems.
//!
//! This crate encodes Definitions 1–9 of Alonso, Feßler, Pardon & Schek,
//! *Correctness in General Configurations of Transactional Components*
//! (PODS 1999):
//!
//! * **Definition 1** — strong (`≪`), weak (`<`) and unrestricted (`‖`)
//!   orders between transactions ([`orders`](OrderPair)).
//! * **Definition 2** — transactions as `(O_t, ≺_t, ≪_t)` with `≪_t ⊆ ≺_t`
//!   ([`Transaction`]).
//! * **Definition 3** — schedules as six-tuples
//!   `(T, →, →→, ≺, ≪, CON_S)` with the four output-order axioms
//!   ([`Schedule`]).
//! * **Definition 4** — composite systems: disjoint transaction sets,
//!   leaf/internal schedules, the no-recursion rule, and output-to-input
//!   order propagation ([`CompositeSystem`]).
//! * **Definitions 5–6** — parents and composite transactions (execution
//!   trees).
//! * **Definitions 7–9** — the invocation graph and schedule levels.
//!
//! # Node identity
//!
//! The paper's universe `Õ` lets an operation of one schedule *be* a
//! transaction of another. We therefore use a single dense [`NodeId`] space
//! for every transactional node in the computational forest — root
//! transactions, internal subtransaction nodes, and leaf operations — and
//! record for each node its *parent* (the transaction it is an operation of),
//! its *home* schedule (the schedule it is a transaction of, absent for
//! leaves) and its *container* schedule (the schedule in whose operation set
//! it appears, absent for roots).
//!
//! # Building systems
//!
//! [`SystemBuilder`] is the ergonomic front door: declare schedules, roots,
//! subtransactions and leaves; declare per-schedule conflicts and orders; and
//! `build()` validates every Definition-3/4 axiom, returning precise
//! [`ModelError`]s on violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod conflict;
mod error;
mod ids;
mod orders;
mod schedule;
mod system;

pub mod semantics;

pub use builder::SystemBuilder;
pub use conflict::ConflictRel;
pub use error::ModelError;
pub use ids::{ItemId, NodeId, SchedId};
pub use orders::{OrderKind, OrderPair};
pub use schedule::{Schedule, Transaction};
pub use semantics::{AccessMode, CommutativityTable, OpSpec};
pub use system::{CompositeSystem, NodeInfo, NodeRole};
