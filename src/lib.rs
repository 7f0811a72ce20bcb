//! Umbrella crate re-exporting the composite-transactions workspace.
//!
//! See the repository README for the architecture overview; the individual
//! crates carry the definitional documentation:
//!
//! * [`model`] — Definitions 1–9 (transactions, schedules, composite systems)
//! * [`core`] — Definitions 10–20 and Theorem 1 (the Comp-C checker)
//! * [`engine`] — the parallel batch-checking engine (worker pools, stats)
//! * [`configs`] — stacks/forks/joins and SCC/FCC/JCC (Definitions 21–27)
//! * [`classic`] — CSR/OPSR/LLSR baselines and embeddings
//! * [`sim`] — the composite-system simulator
//! * [`workload`] — figures, scenarios and random system generation
//! * [`spec`] — the versioned JSON system format consumed by `compc-check`
//! * [`session`] — spec-level session checking (backs `compc-serve`)
//! * [`cli`] — the check flags `compc-check` and `compc-serve` share
//! * [`serve`] — the daemon serving core: concurrent dispatch, write-ahead
//!   journal, overload/drain control, and the resilient NDJSON client
//! * [`json`] — the dependency-free JSON value/parser the spec format uses
//! * [`trace`] — structured reduction events, NDJSON sinks and histograms
//! * [`oracle`] — the brute-force Comp-C decision oracle (differential testing)

pub mod cli;
pub mod serve;
pub mod session;
pub mod spec;

pub use compc_classic as classic;
pub use compc_configs as configs;
pub use compc_core as core;
pub use compc_engine as engine;
pub use compc_graph as graph;
pub use compc_json as json;
pub use compc_model as model;
pub use compc_oracle as oracle;
pub use compc_sim as sim;
pub use compc_trace as trace;
pub use compc_workload as workload;

pub use compc_core::{
    check, Backend, CheckOptions, Checker, Session, SessionError, SessionStats, Verdict,
};
pub use compc_engine::{Batch, BatchItem, BatchReport};
pub use session::{SpecSession, SpecSessionError, SpecSnapshot};
