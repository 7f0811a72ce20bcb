//! Closure backend routing: the observed order's transitive closure is the
//! one step of a check with several algorithms. This module picks the
//! per-source, dense or condensed closure of the front's rows by
//! [`Backend`] and node count, counts the choices, and holds the reusable
//! buffers the backends close in ([`CheckScratch`]). Every choice gives the
//! same closure (the backend-equivalence property tests pin this down).

use crate::reduce::Backend;
use compc_graph::{BitGraph, ChunkedBitGraph, SccScratch};

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

/// Reusable allocation state for one checking session.
///
/// Holds the dense backend's flat rows and a Tarjan scratch. A
/// `CheckScratch` kept across systems — as the batch engine's workers do —
/// makes repeated checks allocation-light: buffers grow to the largest
/// system seen and are then reused.
#[derive(Debug, Default)]
pub struct CheckScratch {
    /// Exposed for callers that interleave their own SCC passes with checks.
    pub scc: SccScratch,
    /// Reusable flat rows for the word-parallel dense closure: one load
    /// per closure reuses this allocation, so batch items reallocate
    /// nothing once the buffer has grown.
    pub(crate) dense: BitGraph,
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

/// Closes `g` transitively in place on the calling thread, reusing
/// `scratch` buffers.
///
/// `backend` and the node count pick the algorithm. Under
/// [`Backend::Auto`], graphs of at least [`COMPRESSED_CROSSOVER_DEFAULT`]
/// nodes close through their SCC condensation (one closed row per strong
/// component); from [`DENSE_CROSSOVER_DEFAULT`] up they close on flat
/// dense rows, 64 edges per word OR. Smaller graphs take one reachability
/// pass per source; the other backends force one algorithm at every size.
/// Deterministic and identical across backends (pinned by
/// `tests/bitgraph_equiv.rs`).
pub(crate) fn transitive_closure(
    g: &mut ChunkedBitGraph,
    backend: Backend,
    scratch: &mut CheckScratch,
) {
    let n = g.node_count();
    let backend = match backend {
        Backend::Auto if n >= COMPRESSED_CROSSOVER_DEFAULT => Backend::Compressed,
        Backend::Auto if n >= DENSE_CROSSOVER_DEFAULT => Backend::Dense,
        other => other,
    };
    match backend {
        Backend::Compressed => {
            scratch.counts.compressed += 1;
            g.close_condensed(&mut scratch.scc);
        }
        Backend::Dense => {
            scratch.counts.dense += 1;
            g.close_dense(&mut scratch.dense);
        }
        Backend::Sparse | Backend::Auto => {
            scratch.counts.sparse += 1;
            g.close_by_dfs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_identical_on_every_backend() {
        use compc_graph::DiGraph;
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
        let rows = ChunkedBitGraph::from_digraph(&g);
        // Force each backend outright, plus the default mix.
        let backends = [
            Backend::Dense,
            Backend::Sparse,
            Backend::Compressed,
            Backend::Auto,
        ];
        for backend in backends {
            let mut closed = rows.clone();
            transitive_closure(&mut closed, backend, &mut CheckScratch::new());
            assert_eq!(
                seq.edges().collect::<Vec<_>>(),
                closed.edges().collect::<Vec<_>>(),
                "closure must be identical on backend={backend}"
            );
        }
    }

    #[test]
    fn backend_counters_track_routing() {
        let mut g = ChunkedBitGraph::with_nodes(10);
        g.add_edge(0, 1);
        let mut scratch = CheckScratch::new();
        for backend in [
            Backend::Sparse,
            Backend::Dense,
            Backend::Dense,
            Backend::Compressed,
        ] {
            transitive_closure(&mut g, backend, &mut scratch);
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
