//! Closure backend routing and the per-thread check scratch: the observed
//! order's transitive closure is the one step of a check with several
//! algorithms. This module picks the per-source, dense or condensed
//! closure of the front's rows by [`Backend`] and node count, and holds the
//! reusable buffers a check's levels build in ([`CheckScratch`]). Every
//! choice gives the same closure (the backend-equivalence property tests
//! pin this down).

use crate::front::Front;
use crate::reduce::Backend;
use compc_graph::{
    BitGraph, ChunkedBitGraph, ChunkedRow, CloseScratch, SccScratch, SearchScratch, WalkScratch,
};
use compc_model::{NodeId, SchedId};
use std::cell::Cell;

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

/// How many transitive closures a check ran on each backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCounts {
    /// Closures on the flat dense bitset rows.
    pub dense: u64,
    /// Closures on the sparse per-source DFS.
    pub sparse: u64,
    /// Closures on the compressed (chunked rows + SCC condensation) backend.
    pub compressed: u64,
}

impl BackendCounts {
    /// Counts one closure on `backend` (never [`Backend::Auto`]).
    fn count(&mut self, backend: Backend) {
        match backend {
            Backend::Compressed => self.compressed += 1,
            Backend::Dense => self.dense += 1,
            Backend::Sparse | Backend::Auto => self.sparse += 1,
        }
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: BackendCounts) {
        self.dense += other.dense;
        self.sparse += other.sparse;
        self.compressed += other.compressed;
    }
}

/// The buffers the closure backends close in.
#[derive(Debug, Default)]
pub(crate) struct ClosureScratch {
    scc: SccScratch,
    /// Flat rows for the word-parallel dense closure, and its sort buffers.
    dense: BitGraph,
    close: CloseScratch,
    /// Walk buffers, shared with the calculation graph's shortcut walk.
    pub(crate) walk: WalkScratch,
    /// Closures run on each backend since the current reducer was made.
    pub(crate) counts: BackendCounts,
}

/// Everything a check's levels build in, kept per thread: a [`Reducer`]
/// takes its thread's scratch when it is made and puts it back when it is
/// dropped, so a thread's checks reuse one set of buffers. Each buffer
/// grows to the largest system the thread has checked and is reset, keeping
/// its capacity, before every use. A second reducer alive on the same
/// thread gets a fresh scratch; a reducer dropped by a panic, or of a
/// system past [`COMPRESSED_CROSSOVER_DEFAULT`], drops its own.
///
/// [`Reducer`]: crate::Reducer
#[derive(Debug, Default)]
pub(crate) struct CheckScratch {
    pub(crate) closure: ClosureScratch,
    pub(crate) search: SearchScratch,
    /// The front a dropped reducer left, reused for the next front 0.
    pub(crate) front: Front,
    /// The system's leaves, the level-0 members.
    pub(crate) leaves: ChunkedRow,
    /// Per level: the schedules reduced and the transactions entering.
    pub(crate) scheds: Vec<SchedId>,
    pub(crate) new_txs: Vec<NodeId>,
    /// Per node, its transaction if reduced at this level, else itself.
    pub(crate) comp: Vec<usize>,
    /// The operations reduced at this level, all and per schedule.
    pub(crate) replaced: ChunkedRow,
    pub(crate) ops_of: Vec<ChunkedRow>,
    /// Per schedule, the front members it contains.
    pub(crate) by_container: Vec<ChunkedRow>,
    /// The constraint rows of front members, the calculation graph and its
    /// contraction.
    pub(crate) constraint: ChunkedBitGraph,
    pub(crate) calc: ChunkedBitGraph,
    pub(crate) contracted: ChunkedBitGraph,
    /// The next front's members and observed order, swapped with the
    /// current front's once the level is done.
    pub(crate) members: ChunkedRow,
    pub(crate) observed: ChunkedBitGraph,
    /// The next front's leaf members, the transactions entering at this
    /// level, their containers, and the serialization pairs.
    pub(crate) leaf_members: ChunkedRow,
    pub(crate) entered: ChunkedRow,
    pub(crate) containers: Vec<SchedId>,
    pub(crate) pairs: Vec<(usize, usize)>,
}

thread_local! {
    static SCRATCH: Cell<Option<CheckScratch>> = const { Cell::new(None) };
}

impl CheckScratch {
    /// The calling thread's scratch, or a fresh one if it is in use.
    pub(crate) fn take() -> CheckScratch {
        SCRATCH.with(Cell::take).unwrap_or_default()
    }

    /// Hands the scratch back to the calling thread.
    pub(crate) fn put_back(self) {
        // During thread teardown the scratch is simply dropped.
        let _ = SCRATCH.try_with(|s| s.set(Some(self)));
    }
}

/// Closes `g` transitively in place on the calling thread, reusing
/// `scratch` buffers and counting the backend used.
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
    scratch: &mut ClosureScratch,
) {
    let n = g.node_count();
    let backend = match backend {
        Backend::Auto if n >= COMPRESSED_CROSSOVER_DEFAULT => Backend::Compressed,
        Backend::Auto if n >= DENSE_CROSSOVER_DEFAULT => Backend::Dense,
        other => other,
    };
    scratch.counts.count(backend);
    match backend {
        Backend::Compressed => g.close_condensed(&mut scratch.scc),
        Backend::Dense => g.close_dense_with(&mut scratch.dense, &mut scratch.close),
        Backend::Sparse | Backend::Auto => g.close_by_dfs_with(&mut scratch.walk),
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
            transitive_closure(&mut closed, backend, &mut ClosureScratch::default());
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
        let mut scratch = ClosureScratch::default();
        for backend in [
            Backend::Sparse,
            Backend::Dense,
            Backend::Dense,
            Backend::Compressed,
        ] {
            transitive_closure(&mut g, backend, &mut scratch);
        }
        assert_eq!(
            scratch.counts,
            BackendCounts {
                dense: 2,
                sparse: 1,
                compressed: 1
            }
        );
    }
}
