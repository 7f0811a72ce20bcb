//! Brute-force existence check for calculations (Definition 14), used to
//! cross-validate the contraction-based check on small fronts.

use compc_graph::DiGraph;
use compc_model::NodeId;
use std::collections::BTreeMap;

/// Exhaustively decides whether a linearization of `nodes` exists that
/// respects every edge of `constraint` and keeps each group's members
/// contiguous (an *isolated execution sequence* per transaction,
/// Definition 14).
///
/// `groups` maps a node to its transaction's representative; ungrouped nodes
/// are implicitly singleton groups. Exponential — intended for fronts of a
/// dozen nodes or fewer in tests; the production path is the linear-time
/// contraction in [`crate::Reducer`].
pub fn calculations_exist_bruteforce(
    nodes: &[NodeId],
    constraint: &DiGraph,
    groups: &BTreeMap<NodeId, NodeId>,
) -> bool {
    // Depth-first search over linearization prefixes. State: which nodes are
    // placed, and (for contiguity) the currently "open" group, if any.
    fn group_of(groups: &BTreeMap<NodeId, NodeId>, n: NodeId) -> NodeId {
        groups.get(&n).copied().unwrap_or(n)
    }

    fn dfs(
        nodes: &[NodeId],
        constraint: &DiGraph,
        groups: &BTreeMap<NodeId, NodeId>,
        placed: &mut Vec<bool>,
        placed_count: usize,
        open_group: Option<(NodeId, usize)>, // (group rep, members still unplaced)
        group_sizes: &BTreeMap<NodeId, usize>,
    ) -> bool {
        if placed_count == nodes.len() {
            return true;
        }
        for (i, &n) in nodes.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let g = group_of(groups, n);
            // Contiguity: if a group is open, only its members may be placed.
            if let Some((open, _)) = open_group {
                if g != open {
                    continue;
                }
            }
            // All constraint predecessors must already be placed.
            let ready = nodes
                .iter()
                .enumerate()
                .all(|(j, &m)| placed[j] || !constraint.has_edge(m.index(), n.index()));
            if !ready {
                continue;
            }
            placed[i] = true;
            let remaining_in_group = match open_group {
                Some((_, k)) => k - 1,
                None => group_sizes[&g] - 1,
            };
            let next_open = if remaining_in_group > 0 {
                Some((g, remaining_in_group))
            } else {
                None
            };
            if dfs(
                nodes,
                constraint,
                groups,
                placed,
                placed_count + 1,
                next_open,
                group_sizes,
            ) {
                return true;
            }
            placed[i] = false;
        }
        false
    }

    let mut group_sizes: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &n in nodes {
        *group_sizes.entry(group_of(groups, n)).or_insert(0) += 1;
    }
    let mut placed = vec![false; nodes.len()];
    dfs(
        nodes,
        constraint,
        groups,
        &mut placed,
        0,
        None,
        &group_sizes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_front_trivially_ok() {
        assert!(calculations_exist_bruteforce(
            &[],
            &DiGraph::new(),
            &BTreeMap::new()
        ));
    }

    #[test]
    fn ungrouped_respects_constraints() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(calculations_exist_bruteforce(
            &[n(0), n(1), n(2)],
            &g,
            &BTreeMap::new()
        ));
        // A constraint cycle is unsatisfiable.
        g.add_edge(2, 0);
        assert!(!calculations_exist_bruteforce(
            &[n(0), n(1), n(2)],
            &g,
            &BTreeMap::new()
        ));
    }

    #[test]
    fn forced_interleaving_detected() {
        // Group A = {0, 2}; node 1 must sit between them: 0 -> 1 -> 2.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let groups: BTreeMap<NodeId, NodeId> = [(n(0), n(9)), (n(2), n(9))].into_iter().collect();
        assert!(!calculations_exist_bruteforce(
            &[n(0), n(1), n(2)],
            &g,
            &groups
        ));
    }

    #[test]
    fn contiguous_group_allowed() {
        // Group A = {0, 1}; 0 -> 1 -> 2 linearizes as [0 1] 2.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let groups: BTreeMap<NodeId, NodeId> = [(n(0), n(9)), (n(1), n(9))].into_iter().collect();
        assert!(calculations_exist_bruteforce(
            &[n(0), n(1), n(2)],
            &g,
            &groups
        ));
    }

    #[test]
    fn two_groups_opposing_edges_fail() {
        // A = {0, 1}, B = {2, 3}; 0 -> 2 and 3 -> 1 force A<B and B<A.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0, 2);
        g.add_edge(3, 1);
        let groups: BTreeMap<NodeId, NodeId> =
            [(n(0), n(8)), (n(1), n(8)), (n(2), n(9)), (n(3), n(9))]
                .into_iter()
                .collect();
        assert!(!calculations_exist_bruteforce(
            &[n(0), n(1), n(2), n(3)],
            &g,
            &groups
        ));
    }

    #[test]
    fn two_groups_agreeing_edges_ok() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        let groups: BTreeMap<NodeId, NodeId> =
            [(n(0), n(8)), (n(1), n(8)), (n(2), n(9)), (n(3), n(9))]
                .into_iter()
                .collect();
        assert!(calculations_exist_bruteforce(
            &[n(0), n(1), n(2), n(3)],
            &g,
            &groups
        ));
    }
}
