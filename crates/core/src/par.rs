//! Closure backend routing for the within-level checks.
//!
//! The reduction is strictly sequential *across* levels (level `i` needs the
//! level-`i-1` front), and each level runs on the calling thread. The
//! observed order's transitive closure is the one step with several
//! representations: this module picks sparse, dense or compressed rows by
//! backend and node count, and every choice gives the same closure (the
//! backend-equivalence property tests pin this down). Parallelism lives one
//! layer up, across the items of a batch.

use crate::reduce::Backend;
use compc_graph::{BitGraph, ChunkedBitGraph, DiGraph, ReachScratch, SccScratch};

/// Default node-count crossover above which closures run on the dense
/// word-parallel [`BitGraph`] backend instead of the sparse per-source DFS.
/// Measured on this container (EXPERIMENTS.md E21): the dense kernel wins
/// from roughly one machine word of nodes upward once the sparse↔dense
/// conversion is amortized by the closure itself; Figure-scale fronts
/// (< 64 nodes) stay sparse with zero overhead. [`Backend::Auto`] applies
/// it; the other backends ignore it.
pub const DENSE_CROSSOVER_DEFAULT: usize = 64;

/// Default node-count crossover above which closures leave the flat dense
/// rows for the compressed backend ([`ChunkedBitGraph`] + SCC-condensed
/// closure). Dense rows cost `n²/64` words no matter how sparse the
/// relation; from a few thousand nodes up the hybrid rows' `O(edges)`
/// footprint and the condensation's shared per-component rows win
/// (EXPERIMENTS.md E22 measures the crossover on this container).
/// [`Backend::Auto`] applies it; the other backends ignore it.
pub const COMPRESSED_CROSSOVER_DEFAULT: usize = 4096;

/// How many transitive closures a [`CheckScratch`] has run on each backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCounts {
    /// Closures on the flat dense bitset rows.
    pub dense: u64,
    /// Closures on the sparse per-source DFS.
    pub sparse: u64,
    /// Closures on the compressed (chunked rows + SCC condensation) backend.
    pub compressed: u64,
}

/// Resolves a worker count (`--jobs`, `Batch::workers`): `0` means one per
/// available core.
pub fn effective_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Reusable allocation state for one checking session.
///
/// Holds a reachability buffer (epoch-stamped visited set) and a Tarjan
/// scratch. A `CheckScratch` kept across systems — as the batch engine's
/// workers do — makes repeated checks allocation-light: buffers grow to the
/// largest system seen and are then reused.
#[derive(Debug, Default)]
pub struct CheckScratch {
    pub(crate) reach: ReachScratch,
    /// Exposed for callers that interleave their own SCC passes with checks.
    pub scc: SccScratch,
    /// Reusable dense adjacency rows for the word-parallel closure backend:
    /// one sparse→dense load per level reuses this allocation, so batch
    /// items reallocate nothing once the buffer has grown.
    pub(crate) dense: BitGraph,
    /// Reusable hybrid rows for the compressed closure backend; like
    /// `dense`, grown once and then reused across batch items.
    pub(crate) chunked: ChunkedBitGraph,
    counts: BackendCounts,
}

impl CheckScratch {
    /// An empty scratch; buffers are created on first use.
    pub fn new() -> Self {
        CheckScratch::default()
    }

    /// How many transitive closures this scratch has run on each backend
    /// since creation — the engine snapshots these around each item so
    /// `compc-check --stats` can report which representation a check
    /// actually used.
    pub fn backend_counts(&self) -> BackendCounts {
        self.counts
    }
}

/// Transitive closure on the calling thread, reusing `scratch` buffers.
///
/// `backend` and the node count pick the representation. Under
/// [`Backend::Auto`], graphs of at least [`COMPRESSED_CROSSOVER_DEFAULT`]
/// nodes run on the compressed backend (hybrid chunked rows, SCC-condensed
/// closure); from [`DENSE_CROSSOVER_DEFAULT`] up they run on the dense
/// bitset backend — one sparse→dense conversion, then 64 edges per word OR.
/// Smaller graphs keep the sparse per-source DFS; the other backends force
/// one representation at every size. Deterministic and bit-identical across
/// backends (pinned by `tests/bitgraph_equiv.rs`).
pub(crate) fn transitive_closure(
    g: &DiGraph,
    backend: Backend,
    scratch: &mut CheckScratch,
) -> DiGraph {
    let n = g.node_count();
    let backend = match backend {
        Backend::Auto if n >= COMPRESSED_CROSSOVER_DEFAULT => Backend::Compressed,
        Backend::Auto if n >= DENSE_CROSSOVER_DEFAULT => Backend::Dense,
        other => other,
    };
    match backend {
        Backend::Compressed => {
            scratch.counts.compressed += 1;
            let CheckScratch { chunked, scc, .. } = scratch;
            chunked.load_from(g);
            chunked.condensed_closure_with(scc).to_digraph()
        }
        Backend::Dense => {
            scratch.counts.dense += 1;
            scratch.dense.load_from(g);
            scratch.dense.close_transitively();
            scratch.dense.to_digraph()
        }
        Backend::Sparse | Backend::Auto => {
            scratch.counts.sparse += 1;
            compc_graph::transitive_closure_with(g, &mut scratch.reach)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolves_auto() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn parallel_closure_matches_sequential() {
        // A graph past the dense crossover, with interesting SCCs.
        let n = 150;
        let mut g = DiGraph::with_nodes(n);
        for i in 0..n {
            g.add_edge(i, (i * 7 + 3) % n);
            if i % 3 == 0 {
                g.add_edge(i, (i + 1) % n);
            }
        }
        let seq = compc_graph::transitive_closure(&g);
        // Force each backend outright, plus the default mix.
        let backends = [
            Backend::Dense,
            Backend::Sparse,
            Backend::Compressed,
            Backend::Auto,
        ];
        for backend in backends {
            let closed = transitive_closure(&g, backend, &mut CheckScratch::new());
            assert_eq!(
                seq.edges().collect::<Vec<_>>(),
                closed.edges().collect::<Vec<_>>(),
                "closure must be identical on backend={backend}"
            );
        }
    }

    #[test]
    fn backend_counters_track_routing() {
        let mut g = DiGraph::with_nodes(10);
        g.add_edge(0, 1);
        let mut scratch = CheckScratch::new();
        for backend in [
            Backend::Sparse,
            Backend::Dense,
            Backend::Dense,
            Backend::Compressed,
        ] {
            transitive_closure(&g, backend, &mut scratch);
        }
        assert_eq!(
            scratch.backend_counts(),
            BackendCounts {
                dense: 2,
                sparse: 1,
                compressed: 1
            }
        );
    }
}
