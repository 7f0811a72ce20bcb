//! Property-based tests for the graph substrate.

use compc_graph::{
    find_cycle, strongly_connected_components, topological_sort, transitive_closure, DiGraph,
    PartialOrderRel,
};
use proptest::prelude::*;

/// An arbitrary graph as (node_count, edge list).
fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=max_edges).prop_map(move |edges| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v) in edges {
                g.add_edge(u, v);
            }
            g
        })
    })
}

/// An arbitrary DAG: only edges from lower to higher (shuffled) ranks.
fn arb_dag(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=max_edges).prop_map(move |edges| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v) in edges {
                if u < v {
                    g.add_edge(u, v);
                }
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn closure_is_idempotent(g in arb_graph(12, 40)) {
        let c1 = transitive_closure(&g);
        let c2 = transitive_closure(&c1);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn topo_sort_respects_all_edges(g in arb_dag(14, 40)) {
        let order = topological_sort(&g).expect("DAG must sort");
        let mut pos = vec![0usize; g.node_count()];
        for (i, &v) in order.iter().enumerate() { pos[v] = i; }
        for (u, v) in g.edges() {
            prop_assert!(pos[u] < pos[v], "edge ({},{}) violated", u, v);
        }
    }

    #[test]
    fn cycle_witness_is_a_real_cycle(g in arb_graph(10, 30)) {
        if let Some(c) = find_cycle(&g) {
            for w in c.nodes.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
            prop_assert!(g.has_edge(*c.nodes.last().unwrap(), c.nodes[0]));
        } else {
            prop_assert!(topological_sort(&g).is_ok());
        }
    }

    #[test]
    fn scc_partitions_nodes(g in arb_graph(12, 40)) {
        let comps = strongly_connected_components(&g);
        let mut seen = vec![false; g.node_count()];
        for comp in &comps {
            for &v in comp {
                prop_assert!(!seen[v], "node {} in two components", v);
                seen[v] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn scc_members_mutually_reachable(g in arb_graph(10, 30)) {
        let closure = transitive_closure(&g);
        for comp in strongly_connected_components(&g) {
            for &a in &comp {
                for &b in &comp {
                    if a != b {
                        prop_assert!(closure.has_edge(a, b));
                        prop_assert!(closure.has_edge(b, a));
                    }
                }
            }
        }
    }

    #[test]
    fn order_inserts_from_dag_never_fail(g in arb_dag(12, 40)) {
        // Any DAG edge set, inserted in any (here: lexicographic) order, forms
        // a valid strict partial order.
        let mut rel = PartialOrderRel::with_elements(g.node_count());
        for (u, v) in g.edges() {
            prop_assert!(rel.extend(&[(u, v)], None).is_ok());
        }
        // The incremental closure equals the batch closure.
        let batch = transitive_closure(&g);
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                prop_assert_eq!(rel.lt(u, v), batch.has_edge(u, v), "pair ({},{})", u, v);
            }
        }
    }

    #[test]
    fn order_rejects_exactly_cycle_closing_pairs(g in arb_dag(10, 25)) {
        let rel = PartialOrderRel::from_pairs(g.edges()).unwrap();
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                if u == v { continue; }
                let mut probe = rel.clone();
                let res = probe.extend(&[(u, v)], None);
                if rel.lt(v, u) {
                    prop_assert!(res.is_err());
                } else {
                    prop_assert!(res.is_ok());
                }
            }
        }
    }

    #[test]
    fn linear_extension_is_permutation(g in arb_dag(12, 40)) {
        let mut rel = PartialOrderRel::with_elements(g.node_count());
        rel.extend(&g.edges().collect::<Vec<_>>(), None).unwrap();
        let ext = rel.linear_extension();
        let mut sorted = ext.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.node_count()).collect::<Vec<_>>());
    }
}
