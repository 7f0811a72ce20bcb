//! Differential equivalence of the relation kernels.
//!
//! `BitGraph` and `ChunkedBitGraph` are word-parallel replacements for the
//! BTree-backed `DiGraph` closure. These tests pin them down pair-for-pair on
//! random DAGs and cyclic graphs (closure and reachability), plus the
//! crossover boundary sizes 63/64/65 where the row layout changes word
//! count, and end-to-end verdict equivalence of the checker across
//! forced-sparse, forced-dense, forced-compressed and auto backends on
//! random systems and the paper's Figure 1–4 examples. The hybrid rows'
//! masked operations are checked against set algebra at the 63/64/65 and
//! 127/128/129 word boundaries, in every mix of sparse and dense operands,
//! and each in-place row closure against the sparse closure. `PartialOrderRel`'s
//! incremental insert is checked against a brute-force reference closure,
//! including the exact `OrderError` on every failing step.

use compc::core::{Backend, CheckOptions, Checker, Verdict, COMPRESSED_CROSSOVER_DEFAULT};
use compc::graph::{
    reachable_from, transitive_closure, BitGraph, ChunkedBitGraph, ChunkedRow, DiGraph, OrderError,
    PartialOrderRel, SccScratch,
};
use compc::model::CompositeSystem;
use compc::workload::figures::{figure1, figure2, figure3_incorrect, figure4_correct};
use compc::workload::random::{generate, GenParams, Shape};
use compc_fuzz::corpus::stepped_fronts;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A random graph over `n` nodes: forward-only edges when `dag` (acyclic by
/// construction), any direction otherwise (almost surely cyclic when dense).
fn random_graph(n: usize, avg_degree: f64, dag: bool, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (avg_degree / n.max(1) as f64).min(1.0);
    let mut g = DiGraph::with_nodes(n);
    for u in 0..n {
        let lo = if dag { u + 1 } else { 0 };
        for v in lo..n {
            if u != v && rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Node counts that matter: small fronts, the 63/64/65 word-layout boundary,
/// and a couple of multi-word sizes.
fn arb_nodes() -> impl Strategy<Value = usize> {
    prop_oneof![
        2usize..=20,
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(100usize),
        Just(130usize),
    ]
}

/// Everything observable about a check of `sys` under `options`, as
/// comparable data: the verdict and every front a stepped reduction
/// reaches.
fn fingerprint(sys: &CompositeSystem, options: CheckOptions) -> String {
    let verdict = match Checker::with_options(options).check(sys) {
        Verdict::Correct(p) => format!("correct|witness={:?}", p.serial_witness),
        Verdict::Incorrect(c) => format!(
            "incorrect|level={}|phase={:?}|cycle={:?}",
            c.level, c.phase, c.cycle
        ),
    };
    format!("{verdict}|fronts={:?}", stepped_fronts(sys, options))
}

/// The brute-force reference for [`PartialOrderRel::insert`]: the accepted
/// pairs as a plain graph, closed from scratch by [`transitive_closure`]
/// after every accepted pair.
struct ReferenceOrder {
    accepted: DiGraph,
    closed: DiGraph,
}

impl ReferenceOrder {
    fn with_elements(n: usize) -> Self {
        ReferenceOrder {
            accepted: DiGraph::with_nodes(n),
            closed: DiGraph::with_nodes(n),
        }
    }

    /// `a == b` is reflexive, `b ≺* a` contradicts, `a ≺* b` is already
    /// known; anything else is accepted.
    fn insert(&mut self, a: usize, b: usize) -> Result<bool, OrderError> {
        if a == b {
            return Err(OrderError::Reflexive(a));
        }
        if self.closed.has_edge(b, a) {
            return Err(OrderError::Contradiction { attempted: (a, b) });
        }
        if self.closed.has_edge(a, b) {
            return Ok(false);
        }
        self.accepted.add_edge(a, b);
        self.closed = transitive_closure(&self.accepted);
        Ok(true)
    }
}

/// A random column set over `n` columns that favours the columns next to a
/// word boundary, as a sparse-first row (it promotes itself past its cap)
/// or as dense words whatever its size.
fn boundary_row(n: usize, dense: bool, rng: &mut StdRng) -> (ChunkedRow, BTreeSet<usize>) {
    let edges = [0, 1, 62, 63, 64, 65, 126, 127, 128, n - 2, n - 1];
    let mut set = BTreeSet::new();
    for _ in 0..rng.gen_range(0..=2 * n / 3) {
        let v = if rng.gen_bool(0.5) {
            edges[rng.gen_range(0..edges.len())]
        } else {
            rng.gen_range(0..n)
        };
        if v < n {
            set.insert(v);
        }
    }
    let row = if dense {
        let mut words = vec![0u64; n.div_ceil(64)];
        for &v in &set {
            words[v / 64] |= 1 << (v % 64);
        }
        ChunkedRow::Dense(words)
    } else {
        let mut row = ChunkedRow::new();
        for &v in &set {
            row.insert(v, n);
        }
        row
    };
    (row, set)
}

/// The row's columns, checked against the dense-words invariant that no
/// bit past the column count is set.
fn columns_of(row: &ChunkedRow, n: usize) -> Vec<usize> {
    if let ChunkedRow::Dense(words) = row {
        assert_eq!(words.len(), n.div_ceil(64), "dense row width");
        assert!((n..words.len() * 64).all(|v| words[v / 64] >> (v % 64) & 1 == 0));
    }
    row.iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Dense closure (topo sweep on DAGs, Warshall otherwise) equals the
    /// sparse per-source DFS closure, edge for edge.
    #[test]
    fn closure_identical_across_backends(
        seed in 0u64..100_000,
        n in arb_nodes(),
        degree in 1u8..=6,
        dag in proptest::bool::ANY,
    ) {
        let g = random_graph(n, degree as f64, dag, seed);
        let sparse = transitive_closure(&g);
        let mut bits = BitGraph::from_digraph(&g);
        bits.close_transitively();
        prop_assert_eq!(&bits.to_digraph(), &sparse, "n={} dag={}", n, dag);
        // And via the reusable-buffer load path the engine scratch uses.
        let mut reused = BitGraph::new();
        reused.load_from(&g);
        reused.close_transitively();
        prop_assert_eq!(&reused.to_digraph(), &sparse);
    }

    /// The hybrid rows' operations equal set algebra on columns around the
    /// word boundaries, for every mix of sparse and dense operands and with
    /// each mask present or absent.
    #[test]
    fn masked_row_operations_match_set_algebra(
        seed in 0u64..100_000,
        size in 0usize..6,
        dense in 0u8..32,
    ) {
        let n = [63, 64, 65, 127, 128, 129][size];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |bit: u8| boundary_row(n, dense >> bit & 1 == 1, &mut rng);
        let (src, src_set) = pick(0);
        let (keep, keep_set) = pick(1);
        let (drop, drop_set) = pick(2);
        let (dst, dst_set) = pick(3);
        let (other, other_set) = pick(4);
        prop_assert_eq!(columns_of(&src, n), src_set.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(src.count(), src_set.len());
        prop_assert_eq!(src.is_empty(), src_set.is_empty());
        for v in 0..n {
            prop_assert_eq!(src.contains(v), src_set.contains(&v), "column {}", v);
        }
        prop_assert_eq!(src.count_and(&keep), src_set.intersection(&keep_set).count());
        let mut words = vec![0u64; n.div_ceil(64)];
        for &v in &dst_set {
            words[v / 64] |= 1 << (v % 64);
        }
        prop_assert_eq!(&ChunkedRow::from_words(&words, n), &dst);
        prop_assert_eq!(&ChunkedRow::Dense(words), &dst);
        for (k, d) in [(None, None), (Some(&keep), None), (None, Some(&drop)), (Some(&keep), Some(&drop))] {
            let expected: Vec<usize> = src_set
                .iter()
                .copied()
                .filter(|v| k.is_none() || keep_set.contains(v))
                .filter(|v| d.is_none() || !drop_set.contains(v))
                .collect();
            let mut seen = Vec::new();
            src.for_each_masked(k, d, |v| seen.push(v));
            prop_assert_eq!(&seen, &expected, "for_each_masked keep={} drop={}", k.is_some(), d.is_some());
            let mut merged = dst.clone();
            merged.or_masked(&src, k, d, n);
            let union: BTreeSet<usize> = dst_set.iter().chain(&expected).copied().collect();
            prop_assert_eq!(columns_of(&merged, n), union.into_iter().collect::<Vec<_>>(), "or_masked");
        }
        let mut merged = dst.clone();
        merged.or_from(&other, n);
        prop_assert_eq!(columns_of(&merged, n), dst_set.union(&other_set).copied().collect::<Vec<_>>());
        let mut edited = src.clone();
        let mut edited_set = src_set.clone();
        for v in [0, 63, 64, 127, 128, n - 1].into_iter().filter(|&v| v < n) {
            prop_assert_eq!(edited.remove(v), edited_set.remove(&v));
            if rng.gen_bool(0.5) {
                prop_assert_eq!(edited.insert(v, n), edited_set.insert(v));
            }
        }
        prop_assert_eq!(columns_of(&edited, n), edited_set.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(dst == other, dst_set == other_set);
    }

    /// Per-source bitset BFS reaches exactly the nodes the sparse DFS does.
    #[test]
    fn reachability_identical_across_backends(
        seed in 0u64..100_000,
        n in arb_nodes(),
        degree in 1u8..=6,
    ) {
        let g = random_graph(n, degree as f64, false, seed);
        let bits = BitGraph::from_digraph(&g);
        for u in 0..n {
            prop_assert_eq!(
                bits.reachable_from(u),
                reachable_from(&g, u),
                "source {}", u
            );
        }
    }

    /// Inserting an unfiltered pair sequence gives, at every step, exactly
    /// the result the brute-force reference predicts — the same `Ok`/`Err`
    /// with the *same* error value — and the same closed pair set at the
    /// end. Self-pairs and cycle-closing pairs occur routinely, so every
    /// error path is exercised.
    #[test]
    fn order_insert_step_identical(
        seed in 0u64..100_000,
        n in 2usize..=70,
        pairs in 1usize..=120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rel = PartialOrderRel::with_elements(n);
        let mut reference = ReferenceOrder::with_elements(n);
        for step in 0..pairs {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            prop_assert_eq!(
                rel.insert(a, b),
                reference.insert(a, b),
                "step {} inserting ({}, {})", step, a, b
            );
        }
        prop_assert_eq!(
            rel.pairs().collect::<Vec<_>>(),
            reference.closed.edges().collect::<Vec<_>>()
        );
        prop_assert_eq!(rel.pair_count(), reference.closed.edge_count());
        prop_assert_eq!(rel.element_count(), reference.closed.node_count());
    }

    /// Closing once (`from_pairs`) gives what inserting each pair gives:
    /// the same order — pairs, transpose rows and element count — or the
    /// same first error. Pairs mostly follow a random topological order,
    /// so the sweep closes long acyclic inputs; a few go backwards, so
    /// cycles (and reflexive pairs) send it to the per-pair replay.
    #[test]
    fn order_from_pairs_matches_inserting_each(
        seed in 0u64..100_000,
        n in 2usize..=140,
        count in 0usize..=200,
        backwards in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank.swap(i, rng.gen_range(0..=i));
        }
        let pairs: Vec<(usize, usize)> = (0..count)
            .map(|_| {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let forward = rank[a] <= rank[b];
                if forward || rng.gen_range(0u32..400) < backwards { (a, b) } else { (b, a) }
            })
            .collect();
        let mut each = PartialOrderRel::new();
        let expected = pairs.iter().try_for_each(|&(a, b)| each.insert(a, b).map(drop));
        let once = PartialOrderRel::from_pairs(pairs.iter().copied());
        match (once, expected) {
            (Ok(once), Ok(())) => {
                prop_assert_eq!(&once, &each);
                for x in 0..n {
                    prop_assert!(once.below(x).eq(each.below(x)), "transpose row {}", x);
                }
            }
            (once, expected) => prop_assert_eq!(once.map(drop), expected),
        }
    }

    /// `restricted_to` keeps exactly the reference closure's pairs whose
    /// endpoints are both kept.
    #[test]
    fn union_contains_restrict_identical(
        seed in 0u64..100_000,
        n in 2usize..=70,
        pairs in 1usize..=40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rel = PartialOrderRel::with_elements(n);
        let mut reference = ReferenceOrder::with_elements(n);
        for _ in 0..pairs {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            prop_assert_eq!(rel.insert(a, b), reference.insert(a, b));
        }
        let keep: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
        prop_assert_eq!(
            rel.restricted_to(&keep).pairs().collect::<Vec<_>>(),
            reference
                .closed
                .edges()
                .filter(|(a, b)| keep.contains(a) && keep.contains(b))
                .collect::<Vec<_>>()
        );
    }

    /// End to end: the checker's verdict is bit-identical whether closures
    /// run forced-sparse, forced-dense, forced-compressed, or on the
    /// default crossovers.
    #[test]
    fn checker_verdict_identical_across_backends(
        seed in 0u64..100_000,
        roots in 2usize..=6,
        density in 0u8..=90,
    ) {
        let sys = generate(&GenParams {
            shape: Shape::General { levels: 3, scheds_per_level: 2 },
            roots,
            ops_per_tx: (1, 3),
            conflict_density: density as f64 / 100.0,
            sequential_tx_prob: 0.7,
            client_input_prob: 0.0,
            strong_input_prob: 0.0,
            sound_abstractions: false,
            seed,
        });
        // Below the compressed crossover `Auto` routes sparse and dense
        // only, so the compressed backend is exercised by forcing it.
        prop_assert!(sys.node_count() < COMPRESSED_CROSSOVER_DEFAULT);
        let baseline = fingerprint(&sys, CheckOptions::new());
        for backend in [
            Backend::Sparse,
            Backend::Dense,
            Backend::Compressed,
            Backend::Auto,
        ] {
            prop_assert_eq!(
                &fingerprint(&sys, CheckOptions::new().backend(backend)),
                &baseline,
                "verdict diverged at backend={}", backend
            );
        }
    }

    /// The SCC-condensed compressed closure is bit-identical to the sparse
    /// DFS closure and the dense bitset closure on random DAGs and cyclic
    /// graphs — the full cross-backend triangle, per edge.
    #[test]
    fn condensed_closure_identical_across_backends(
        seed in 0u64..100_000,
        n in arb_nodes(),
        degree in 1u8..=6,
        dag in proptest::bool::ANY,
    ) {
        let g = random_graph(n, degree as f64, dag, seed);
        let sparse = transitive_closure(&g);
        let mut dense = BitGraph::from_digraph(&g);
        dense.close_transitively();
        let condensed = ChunkedBitGraph::from_digraph(&g).condensed_closure();
        prop_assert_eq!(&condensed.to_digraph(), &sparse, "n={} dag={}", n, dag);
        prop_assert_eq!(&dense.to_digraph(), &sparse);
        prop_assert_eq!(condensed.edge_count(), sparse.edge_count());
        // The in-place row closures of all three backends.
        let expected: Vec<(usize, usize)> = sparse.edges().collect();
        let rows = ChunkedBitGraph::from_digraph(&g);
        let (mut by_dfs, mut by_dense, mut by_condensed) = (rows.clone(), rows.clone(), rows);
        by_dfs.close_by_dfs();
        by_dense.close_dense(&mut BitGraph::new());
        by_condensed.close_condensed(&mut SccScratch::new());
        for closed in [&by_dfs, &by_dense, &by_condensed] {
            prop_assert_eq!(&closed.edges().collect::<Vec<_>>(), &expected);
            prop_assert_eq!(closed.edge_count(), expected.len());
        }
        // And the chunked graph's own BFS reachability matches the closure.
        let chunked = ChunkedBitGraph::from_digraph(&g);
        let mut row = vec![0u64; chunked.words_per_row()];
        for u in 0..n {
            chunked.reachable_into(u, &mut row);
            let reached: Vec<usize> = (0..n).filter(|&v| row[v / 64] >> (v % 64) & 1 == 1).collect();
            prop_assert_eq!(reached, sparse.successors(u).collect::<Vec<_>>(), "source {}", u);
        }
    }

    /// Extreme component structure: one giant cycle (a single SCC whose
    /// closure is the complete relation), all singletons (a DAG chain), and
    /// a mixed graph gluing both — the condensed representation must agree
    /// with the dense closure on each.
    #[test]
    fn condensed_closure_extreme_components(
        n in 2usize..=130,
        shape in 0u8..=2,
    ) {
        let mut g = DiGraph::with_nodes(n);
        match shape {
            0 => {
                // One giant cycle: closure is all n² pairs.
                for i in 0..n {
                    g.add_edge(i, (i + 1) % n);
                }
            }
            1 => {
                // All singletons on a chain: closure is the strict order.
                for i in 0..n - 1 {
                    g.add_edge(i, i + 1);
                }
            }
            _ => {
                // Mixed: a cycle over the first half feeding a chain tail.
                let half = (n / 2).max(1);
                for i in 0..half {
                    g.add_edge(i, (i + 1) % half);
                }
                for i in half..n - 1 {
                    g.add_edge(i, i + 1);
                }
                if half < n {
                    g.add_edge(0, half);
                }
            }
        }
        let sparse = transitive_closure(&g);
        let condensed = ChunkedBitGraph::from_digraph(&g).condensed_closure();
        prop_assert_eq!(&condensed.to_digraph(), &sparse, "n={} shape={}", n, shape);
        if shape == 0 {
            prop_assert_eq!(condensed.component_count(), 1);
            prop_assert_eq!(condensed.edge_count(), n * n);
        }
        let mut dense = BitGraph::from_digraph(&g);
        dense.close_transitively();
        prop_assert_eq!(&dense.to_digraph(), &sparse);
    }
}

/// The word-layout boundary, exhaustively: complete DAGs and complete
/// digraphs (every off-diagonal edge) at 63, 64, and 65 nodes, where rows
/// span exactly one word, exactly fill one word, and spill into a second.
#[test]
fn crossover_boundary_sizes_match_exactly() {
    for n in [63usize, 64, 65] {
        for dag in [true, false] {
            let mut g = DiGraph::with_nodes(n);
            for u in 0..n {
                let lo = if dag { u + 1 } else { 0 };
                for v in lo..n {
                    if u != v {
                        g.add_edge(u, v);
                    }
                }
            }
            let sparse = transitive_closure(&g);
            let mut bits = BitGraph::from_digraph(&g);
            bits.close_transitively();
            assert_eq!(bits.to_digraph(), sparse, "n={n} dag={dag}");
            assert_eq!(bits.edge_count(), sparse.edge_count(), "n={n} dag={dag}");
        }
    }
}

/// The paper's worked examples decide identically on every backend.
#[test]
fn figure_examples_verdicts_unchanged_by_backend() {
    for (name, fig) in [
        ("figure1", figure1()),
        ("figure2", figure2()),
        ("figure3", figure3_incorrect()),
        ("figure4", figure4_correct()),
    ] {
        assert!(fig.system.node_count() < COMPRESSED_CROSSOVER_DEFAULT);
        let baseline = fingerprint(&fig.system, CheckOptions::new());
        for backend in [
            Backend::Sparse,
            Backend::Dense,
            Backend::Compressed,
            Backend::Auto,
        ] {
            assert_eq!(
                fingerprint(&fig.system, CheckOptions::new().backend(backend)),
                baseline,
                "{name} verdict changed at backend={backend}"
            );
        }
    }
}

/// Growing an already-populated graph across a word-boundary size change
/// (one row word → two, two → three) must re-stride the old rows: a bit at
/// column 62 lives in word 0 of a 1-word row but still word 0 of a 2-word
/// row *of different stride*. These pin the `load_from` reuse path — the
/// original boundary tests only covered fresh construction.
#[test]
fn grow_across_word_boundary_then_query() {
    for (small, big) in [
        (63usize, 64usize),
        (63, 65),
        (64, 65),
        (127, 128),
        (127, 129),
        (128, 129),
    ] {
        // A small graph with bits in the last word, near the boundary.
        let mut g_small = DiGraph::with_nodes(small);
        g_small.add_edge(0, small - 1);
        g_small.add_edge(small - 1, small - 2);
        let mut bits = BitGraph::from_digraph(&g_small);
        bits.close_transitively();
        assert!(bits.has_edge(0, small - 2), "small={small} closure");

        // Reuse the same buffer for a bigger graph whose word count differs.
        let mut g_big = DiGraph::with_nodes(big);
        g_big.add_edge(0, big - 1);
        g_big.add_edge(big - 1, 1);
        g_big.add_edge(1, 0);
        bits.load_from(&g_big);
        assert_eq!(bits.node_count(), big);
        assert_eq!(bits.edge_count(), 3, "{small}->{big} reload edge count");
        assert!(!bits.has_edge(0, small - 2), "stale bit survived regrow");
        bits.close_transitively();
        assert_eq!(
            bits.to_digraph(),
            transitive_closure(&g_big),
            "{small}->{big} closure after regrow"
        );

        // And shrinking back must not leave stale high-word bits either.
        bits.load_from(&g_small);
        assert_eq!(bits.node_count(), small);
        assert_eq!(bits.edge_count(), 2, "{big}->{small} shrink edge count");

        // The same boundary crossing for an order that grows by insertion.
        let mut rel = PartialOrderRel::with_elements(small);
        let mut reference = ReferenceOrder::with_elements(small);
        for (a, b) in [
            (0, small - 1),
            (small - 1, small - 2),
            (small - 2, big - 1),
            (big - 1, big - 2),
        ] {
            assert_eq!(
                rel.insert(a, b),
                reference.insert(a, b),
                "{small}->{big} grow-insert ({a}, {b})"
            );
        }
        assert_eq!(
            rel.pairs().collect::<Vec<_>>(),
            reference.closed.edges().collect::<Vec<_>>(),
            "{small}->{big} pairs after the regrow"
        );
        assert_eq!(rel.element_count(), reference.closed.node_count());
        assert!(rel.lt(0, big - 2), "transitivity across the regrow");
    }

    // The chunked backend's reload path crosses the same boundaries.
    for (small, big) in [(63usize, 65usize), (127, 129)] {
        let mut g_small = DiGraph::with_nodes(small);
        g_small.add_edge(0, small - 1);
        let mut chunked = ChunkedBitGraph::from_digraph(&g_small);
        let mut g_big = DiGraph::with_nodes(big);
        g_big.add_edge(big - 1, 0);
        chunked.load_from(&g_big);
        assert_eq!(chunked.edge_count(), 1);
        assert!(!chunked.has_edge(0, small - 1), "stale chunked edge");
        assert!(chunked.has_edge(big - 1, 0));
    }
}

/// A release-build caller handing `reachable_into` a short buffer must get
/// a panic, not silent truncation (the guards were `debug_assert` once).
#[test]
#[should_panic(expected = "words_per_row")]
fn bitgraph_reachable_into_rejects_short_buffer() {
    let g = BitGraph::from_digraph(&DiGraph::with_nodes(100));
    let mut short = vec![0u64; 1];
    g.reachable_into(0, &mut short);
}

/// `add_edge` with a target inside the trailing word but past `n` used to
/// set the bit silently, corrupting the "bits past n are zero" invariant
/// every word-parallel operation relies on. Now it panics like `u >= n`
/// always did.
#[test]
#[should_panic(expected = "out of range")]
fn bitgraph_add_edge_rejects_target_past_n_within_word() {
    let mut g = BitGraph::with_nodes(3);
    g.add_edge(0, 5);
}
