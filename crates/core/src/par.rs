//! Scoped-thread parallel helpers for the within-level checks.
//!
//! The reduction is strictly sequential *across* levels (level `i` needs the
//! level-`i-1` front), but inside one level the expensive work — per-source
//! reachability for the observed order's transitive closure, the `O(n²)`
//! generalized-conflict scans, and the per-schedule serialization pairs — is
//! embarrassingly parallel. These helpers split index ranges into contiguous
//! chunks across `std::thread::scope` workers and reassemble results in
//! chunk order, so the outcome is bit-identical to the sequential path for
//! any `jobs` value (the verdict-equivalence property tests pin this down).
//!
//! No thread pool is kept alive: scoped threads borrow the graph and scratch
//! directly, which keeps the engine dependency-free. Thread spawn costs
//! ~10–50 µs, so small inputs stay on the sequential path.

use crate::reduce::Backend;
use compc_graph::{
    reachable_from_with, BitGraph, ChunkedBitGraph, DiGraph, ReachScratch, SccScratch,
};

/// Below this many nodes a transitive closure is not worth spawning threads
/// for (the closure is `O(V·E)`, the spawn overhead a few tens of µs).
const CLOSURE_PAR_THRESHOLD: usize = 64;

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

/// Below this many items a generic index map stays sequential.
const MAP_PAR_THRESHOLD: usize = 16;

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

/// Resolves a `jobs` knob: `0` means one worker per available core.
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
/// Holds per-worker reachability buffers (epoch-stamped visited sets) and a
/// Tarjan scratch. A `CheckScratch` kept across systems — as the batch
/// engine's workers do — makes repeated checks allocation-light: buffers grow
/// to the largest system seen and are then reused.
#[derive(Debug, Default)]
pub struct CheckScratch {
    pub(crate) reach: Vec<ReachScratch>,
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

    /// Make sure at least `jobs` per-worker reachability buffers exist.
    pub(crate) fn ensure_workers(&mut self, jobs: usize) {
        let want = jobs.max(1);
        while self.reach.len() < want {
            self.reach.push(ReachScratch::new());
        }
    }

    /// How many transitive closures this scratch has run on each backend
    /// since creation — the engine snapshots these around each item so
    /// `compc-check --stats` can report which representation a check
    /// actually used.
    pub fn backend_counts(&self) -> BackendCounts {
        self.counts
    }
}

/// Transitive closure with `jobs` workers, reusing `scratch` buffers.
///
/// `backend` and the node count pick the representation. Under
/// [`Backend::Auto`], graphs of at least [`COMPRESSED_CROSSOVER_DEFAULT`]
/// nodes run on the compressed backend (hybrid chunked rows, SCC-condensed
/// closure); from [`DENSE_CROSSOVER_DEFAULT`] up they run on the dense
/// bitset backend — one sparse→dense conversion, then 64 edges per word OR —
/// and with multiple jobs the rows are partitioned into contiguous source
/// ranges per worker. Smaller graphs keep the sparse per-source DFS; the
/// other backends force one representation at every size. Deterministic and
/// bit-identical across backends and every `jobs` value (pinned by
/// `tests/bitgraph_equiv.rs` and the parallel-equivalence suite).
pub(crate) fn transitive_closure_jobs(
    g: &DiGraph,
    jobs: usize,
    backend: Backend,
    scratch: &mut CheckScratch,
) -> DiGraph {
    let n = g.node_count();
    let jobs = effective_jobs(jobs).min(n.max(1));
    scratch.ensure_workers(jobs);
    let backend = match backend {
        Backend::Auto if n >= COMPRESSED_CROSSOVER_DEFAULT => Backend::Compressed,
        Backend::Auto if n >= DENSE_CROSSOVER_DEFAULT => Backend::Dense,
        other => other,
    };
    if backend == Backend::Compressed {
        scratch.counts.compressed += 1;
        return compressed_closure_jobs(g, jobs, scratch);
    }
    if backend == Backend::Dense {
        scratch.counts.dense += 1;
        return dense_closure_jobs(g, jobs, scratch);
    }
    scratch.counts.sparse += 1;
    if jobs <= 1 || n < CLOSURE_PAR_THRESHOLD {
        return compc_graph::transitive_closure_with(g, &mut scratch.reach[0]);
    }
    let chunk = n.div_ceil(jobs);
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = scratch
            .reach
            .iter_mut()
            .take(jobs)
            .enumerate()
            .map(|(i, sc)| {
                let lo = (i * chunk).min(n);
                let hi = ((i + 1) * chunk).min(n);
                s.spawn(move || {
                    (lo..hi)
                        .map(|u| reachable_from_with(g, u, sc))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            rows.extend(h.join().expect("closure worker panicked"));
        }
    });
    let mut out = DiGraph::with_nodes(n);
    for (u, row) in rows.iter().enumerate() {
        for &v in row {
            out.add_edge(u, v);
        }
    }
    out
}

/// The dense closure path: load the scratch [`BitGraph`] from `g`, close
/// word-parallel, convert back once. With multiple jobs, workers compute
/// closed rows for disjoint contiguous source ranges of the shared
/// read-only graph (row-range partitioning instead of source-list chunks).
fn dense_closure_jobs(g: &DiGraph, jobs: usize, scratch: &mut CheckScratch) -> DiGraph {
    let n = g.node_count();
    scratch.dense.load_from(g);
    if jobs <= 1 || n < CLOSURE_PAR_THRESHOLD {
        scratch.dense.close_transitively();
        return scratch.dense.to_digraph();
    }
    let words = scratch.dense.words_per_row();
    let bits = &scratch.dense;
    let chunk = n.div_ceil(jobs);
    let mut rows = vec![0u64; n * words];
    std::thread::scope(|s| {
        let mut rest = rows.as_mut_slice();
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let (mine, tail) = rest.split_at_mut((hi - lo) * words);
            rest = tail;
            s.spawn(move || bits.closure_rows_range(lo, hi, mine));
            lo = hi;
        }
    });
    BitGraph::from_rows(n, rows).to_digraph()
}

/// The compressed closure path: load the scratch [`ChunkedBitGraph`] from
/// `g`, close via SCC condensation (one shared closed row per strong
/// component), then expand. With one job the expansion reuses the
/// component-shared rows directly (`CondensedClosure::to_digraph`); with
/// multiple jobs workers expand disjoint contiguous source ranges through
/// the same `rows_range` contract the dense path partitions.
fn compressed_closure_jobs(g: &DiGraph, jobs: usize, scratch: &mut CheckScratch) -> DiGraph {
    let n = g.node_count();
    let CheckScratch { chunked, scc, .. } = scratch;
    chunked.load_from(g);
    let closed = chunked.condensed_closure_with(scc);
    if jobs <= 1 || n < CLOSURE_PAR_THRESHOLD {
        return closed.to_digraph();
    }
    let words = closed.words_per_row();
    let chunk = n.div_ceil(jobs);
    let mut rows = vec![0u64; n * words];
    std::thread::scope(|s| {
        let closed = &closed;
        let mut rest = rows.as_mut_slice();
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let (mine, tail) = rest.split_at_mut((hi - lo) * words);
            rest = tail;
            s.spawn(move || closed.rows_range(lo, hi, mine));
            lo = hi;
        }
    });
    BitGraph::from_rows(n, rows).to_digraph()
}

/// Maps `0..n` through `f` across `jobs` scoped workers, preserving index
/// order in the result. Falls back to a plain sequential map for small `n`
/// or `jobs <= 1`.
pub(crate) fn map_indices<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(n.max(1));
    if jobs <= 1 || n < MAP_PAR_THRESHOLD {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(jobs);
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                let lo = (i * chunk).min(n);
                let hi = ((i + 1) * chunk).min(n);
                let f = &f;
                s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("map worker panicked"));
        }
    });
    out
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
    fn map_indices_preserves_order() {
        for jobs in [1, 2, 3, 8] {
            let out = map_indices(100, jobs, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_closure_matches_sequential() {
        // A graph big enough to cross the threshold, with interesting SCCs.
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
        for jobs in [1, 2, 4, 8] {
            for backend in backends {
                let par = transitive_closure_jobs(&g, jobs, backend, &mut CheckScratch::new());
                assert_eq!(
                    seq.edges().collect::<Vec<_>>(),
                    par.edges().collect::<Vec<_>>(),
                    "closure must be identical at jobs={jobs} backend={backend}"
                );
            }
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
            transitive_closure_jobs(&g, 1, backend, &mut scratch);
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
