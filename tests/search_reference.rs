//! The graph searches against their reference implementations.
//!
//! A counterexample's cycle and a proof's serial witness are what a user
//! sees, and `compc-explore` and `docs/results/level_counts.txt` pin them,
//! so the searches behind them must return exactly what the per-start
//! allocating versions returned. Those versions are kept below verbatim as
//! references: on random graphs, many with isolated nodes, the library's
//! `find_cycle_by` and `topological_sort_by` — and a reused
//! `SearchScratch` started only from the nodes with successors — must give
//! the identical cycle witness and order.

use compc::graph::{find_cycle_by, topological_sort_by, CycleInfo, DiGraph, SearchScratch};
use proptest::prelude::*;

/// The reference cycle search: one successor vector per DFS frame and a
/// fresh stack per start.
fn ref_find_cycle_by<F>(n: usize, mut succs: F) -> Option<CycleInfo>
where
    F: FnMut(usize, &mut Vec<usize>),
{
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    let mut spare: Vec<Vec<usize>> = Vec::new();
    let mut frame = |v: usize, spare: &mut Vec<Vec<usize>>| {
        let mut out = spare.pop().unwrap_or_default();
        out.clear();
        succs(v, &mut out);
        (v, out)
    };
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, Vec<usize>)> = Vec::new();
        color[start] = Color::Gray;
        stack.push(frame(start, &mut spare));
        while let Some((u, succ)) = stack.last_mut() {
            if let Some(v) = succ.pop() {
                let u = *u;
                match color[v] {
                    Color::White => {
                        parent[v] = u;
                        color[v] = Color::Gray;
                        stack.push(frame(v, &mut spare));
                    }
                    Color::Gray => {
                        let mut nodes = vec![u];
                        let mut cur = u;
                        while cur != v {
                            cur = parent[cur];
                            nodes.push(cur);
                        }
                        nodes.reverse();
                        return Some(CycleInfo { nodes }.canonicalize());
                    }
                    Color::Black => {}
                }
            } else {
                color[*u] = Color::Black;
                if let Some((_, buf)) = stack.pop() {
                    spare.push(buf);
                }
            }
        }
    }
    None
}

/// The reference topological sort: Kahn's algorithm over an ordered set.
fn ref_topological_sort_by<F>(n: usize, mut succs: F) -> Result<Vec<usize>, CycleInfo>
where
    F: FnMut(usize, &mut Vec<usize>),
{
    let mut indeg = vec![0usize; n];
    let mut buf = Vec::new();
    for v in 0..n {
        buf.clear();
        succs(v, &mut buf);
        for &w in &buf {
            indeg[w] += 1;
        }
    }
    let mut ready: std::collections::BTreeSet<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(v) = ready.pop_first() {
        out.push(v);
        buf.clear();
        succs(v, &mut buf);
        for &w in &buf {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                ready.insert(w);
            }
        }
    }
    if out.len() == n {
        Ok(out)
    } else {
        Err(ref_find_cycle_by(n, succs).expect("Kahn's algorithm stalled"))
    }
}

/// A graph on up to `max_nodes` nodes whose edges touch only a random
/// subset of them (the rest are isolated), acyclic when `dag` is set.
fn arb_graph(max_nodes: usize, dag: bool) -> impl Strategy<Value = DiGraph> {
    (1..=max_nodes).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..=3 * n);
        let touched = proptest::collection::vec(proptest::bool::ANY, n);
        (edges, touched).prop_map(move |(edges, touched)| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v) in edges {
                if touched[u] && touched[v] && (!dag || u < v) {
                    g.add_edge(u, v);
                }
            }
            g
        })
    })
}

fn succs(g: &DiGraph) -> impl FnMut(usize, &mut Vec<usize>) + '_ {
    |v, out| out.extend(g.successors(v))
}

/// The nodes with successors, ascending.
fn sources(g: &DiGraph) -> Vec<usize> {
    (0..g.node_count())
        .filter(|&v| g.successors(v).next().is_some())
        .collect()
}

fn check_searches(g: &DiGraph, scratch: &mut SearchScratch) -> Result<(), String> {
    let n = g.node_count();
    let cycle = ref_find_cycle_by(n, succs(g));
    prop_assert_eq!(&find_cycle_by(n, succs(g)), &cycle);
    prop_assert_eq!(&scratch.find_cycle(n, 0..n, succs(g)), &cycle);
    prop_assert_eq!(&scratch.find_cycle(n, sources(g), succs(g)), &cycle);

    let order = ref_topological_sort_by(n, succs(g));
    prop_assert_eq!(
        topological_sort_by(n, succs(g)).map_err(|e| e.0),
        order.clone()
    );
    let from_sources = scratch
        .topological_sort(n, sources(g), succs(g))
        .map(<[usize]>::to_vec)
        .map_err(|e| e.0);
    match (&order, from_sources) {
        (Ok(all), Ok(part)) => {
            // The emitted nodes, in the order sorting all of them gives.
            let kept: Vec<usize> = all.iter().copied().filter(|v| part.contains(v)).collect();
            prop_assert_eq!(&kept, &part);
            prop_assert!(sources(g).iter().all(|v| part.contains(v)));
        }
        (Err(c), Err(c2)) => prop_assert_eq!(c, &c2),
        (want, got) => prop_assert!(false, "reference {:?}, scratch {:?}", want, got),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Cyclic and acyclic graphs alike, one scratch reused across a batch.
    #[test]
    fn searches_match_their_references(
        graphs in proptest::collection::vec(arb_graph(24, false), 1..6),
        dags in proptest::collection::vec(arb_graph(24, true), 1..6),
    ) {
        let mut scratch = SearchScratch::new();
        for g in graphs.iter().chain(&dags) {
            check_searches(g, &mut scratch)?;
        }
    }
}
