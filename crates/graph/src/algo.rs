//! Classic graph algorithms used throughout the composite-systems theory.

use crate::DiGraph;

/// A witness for non-acyclicity: the node sequence of a directed cycle.
///
/// `nodes` lists the cycle without repeating the closing node, e.g. the cycle
/// `1 -> 4 -> 2 -> 1` is reported as `[1, 4, 2]`. A self-loop is `[n]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleInfo {
    /// Nodes of the cycle in edge order.
    pub nodes: Vec<usize>,
}

impl CycleInfo {
    /// Rotates the cycle so its smallest node comes first — a canonical form
    /// that makes cycle witnesses comparable in tests.
    pub fn canonicalize(mut self) -> Self {
        if let Some(min_pos) = self
            .nodes
            .iter()
            .enumerate()
            .min_by_key(|(_, &n)| n)
            .map(|(i, _)| i)
        {
            self.nodes.rotate_left(min_pos);
        }
        self
    }
}

/// Error from [`topological_sort`]: the graph has a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoError(pub CycleInfo);

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph is cyclic: cycle through {:?}", self.0.nodes)
    }
}

impl std::error::Error for TopoError {}

/// Topologically sorts the graph, or returns a cycle witness.
///
/// Deterministic: among ready nodes, the smallest index is emitted first, so
/// the same graph always yields the same order (important for reproducible
/// serial witnesses in the reduction engine).
pub fn topological_sort(g: &DiGraph) -> Result<Vec<usize>, TopoError> {
    topological_sort_by(g.node_count(), |v, out| out.extend(g.successors(v)))
}

/// [`topological_sort`] over any adjacency source on `0..n`: `succs(v, out)`
/// pushes `v`'s successors, ascending, into `out`. The same relation gives
/// the same order (or cycle) as a [`DiGraph`] holding it.
pub fn topological_sort_by<F>(n: usize, succs: F) -> Result<Vec<usize>, TopoError>
where
    F: FnMut(usize, &mut Vec<usize>),
{
    SearchScratch::new()
        .topological_sort(n, 0..n, succs)
        .map(<[usize]>::to_vec)
}

/// Finds some directed cycle, if any, via iterative DFS with colors.
pub fn find_cycle(g: &DiGraph) -> Option<CycleInfo> {
    find_cycle_by(g.node_count(), |v, out| out.extend(g.successors(v)))
}

/// [`find_cycle`] over any adjacency source on `0..n`: `succs(v, out)`
/// pushes `v`'s successors, ascending, into `out`. Starts are tried in
/// ascending order and each node's successors are explored from the
/// largest down, so the same relation gives the same witness as a
/// [`DiGraph`] holding it.
pub fn find_cycle_by<F>(n: usize, succs: F) -> Option<CycleInfo>
where
    F: FnMut(usize, &mut Vec<usize>),
{
    SearchScratch::new().find_cycle(n, 0..n, succs)
}

/// Reusable buffers for the searches behind [`find_cycle_by`] and
/// [`topological_sort_by`]: a caller that keeps one allocates nothing but
/// a cycle witness once the buffers have grown to its largest graph.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    /// Per node: 0 unvisited, 1 on the DFS path, 2 finished (cycle search);
    /// the in-degree left (topological sort).
    state: Vec<usize>,
    parent: Vec<usize>,
    /// The DFS path: each frame's node and where its successors start in
    /// `pending`.
    frames: Vec<(usize, usize)>,
    /// Successors the path's frames have still to visit, frame after frame.
    pending: Vec<usize>,
    succ: Vec<usize>,
    ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>>,
    order: Vec<usize>,
}

const UNVISITED: usize = 0;
const ON_PATH: usize = 1;
const FINISHED: usize = 2;

impl SearchScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// [`find_cycle_by`] with the DFS started only from `starts`, which
    /// must be ascending. Leaving out nodes without successors gives the
    /// same witness as starting from every node: such a start finishes at
    /// once and touches no other node.
    pub fn find_cycle<F>(
        &mut self,
        n: usize,
        starts: impl IntoIterator<Item = usize>,
        mut succs: F,
    ) -> Option<CycleInfo>
    where
        F: FnMut(usize, &mut Vec<usize>),
    {
        self.state.clear();
        self.state.resize(n, UNVISITED);
        self.parent.resize(n, usize::MAX);
        self.frames.clear();
        self.pending.clear();
        for start in starts {
            if self.state[start] != UNVISITED {
                continue;
            }
            self.enter(start, &mut succs);
            while let Some(&(u, base)) = self.frames.last() {
                if self.pending.len() == base {
                    self.state[u] = FINISHED;
                    self.frames.pop();
                    continue;
                }
                let v = self.pending.pop().expect("the frame has successors left");
                match self.state[v] {
                    UNVISITED => {
                        self.parent[v] = u;
                        self.enter(v, &mut succs);
                    }
                    ON_PATH => {
                        // Back edge u -> v closes a cycle v ..-> u -> v.
                        let mut nodes = vec![u];
                        let mut cur = u;
                        while cur != v {
                            cur = self.parent[cur];
                            nodes.push(cur);
                        }
                        nodes.reverse();
                        return Some(CycleInfo { nodes }.canonicalize());
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Puts `v` on the DFS path with its successors pending.
    fn enter<F: FnMut(usize, &mut Vec<usize>)>(&mut self, v: usize, succs: &mut F) {
        self.state[v] = ON_PATH;
        self.succ.clear();
        succs(v, &mut self.succ);
        self.frames.push((v, self.pending.len()));
        self.pending.extend_from_slice(&self.succ);
    }

    /// [`topological_sort_by`] into this scratch's buffers, started from the
    /// ascending `nodes` alone, which must include every node with
    /// successors. The nodes it emits (`nodes` and those they reach) come
    /// in the order sorting every node gives them: a left-out node frees no
    /// other when it is emitted.
    pub fn topological_sort<F>(
        &mut self,
        n: usize,
        nodes: impl IntoIterator<Item = usize> + Clone,
        mut succs: F,
    ) -> Result<&[usize], TopoError>
    where
        F: FnMut(usize, &mut Vec<usize>),
    {
        let (indeg, succ, ready) = (&mut self.state, &mut self.succ, &mut self.ready);
        indeg.clear();
        indeg.resize(n, 0);
        for v in nodes.clone() {
            succ.clear();
            succs(v, succ);
            for &w in succ.iter() {
                indeg[w] += 1;
            }
        }
        ready.clear();
        let roots = nodes.clone().into_iter().filter(|&v| indeg[v] == 0);
        ready.extend(roots.map(std::cmp::Reverse));
        self.order.clear();
        while let Some(std::cmp::Reverse(v)) = ready.pop() {
            self.order.push(v);
            succ.clear();
            succs(v, succ);
            for &w in succ.iter() {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    ready.push(std::cmp::Reverse(w));
                }
            }
        }
        if nodes.clone().into_iter().all(|v| self.state[v] == 0) {
            Ok(&self.order)
        } else {
            Err(TopoError(
                self.find_cycle(n, nodes, succs)
                    .expect("Kahn's algorithm stalled, so a cycle must exist"),
            ))
        }
    }
}

/// The set of nodes reachable from `start` by paths of length ≥ 1.
pub fn reachable_from(g: &DiGraph, start: usize) -> Vec<usize> {
    reachable_from_with(g, start, &mut ReachScratch::new())
}

/// Reusable buffers for reachability traversals ([`reachable_from_with`],
/// [`transitive_closure_with`]).
///
/// The visited set is an epoch-stamped `Vec<u64>`: clearing it between
/// traversals is a counter increment, not an `O(n)` re-zeroing, so a closure
/// over `n` sources does `O(n)` total clearing work instead of `O(n²)`. One
/// scratch serves any number of graphs of any size; it grows to the largest
/// node count it has seen and is cheap to keep per worker thread.
#[derive(Clone, Debug, Default)]
pub struct ReachScratch {
    seen: Vec<u64>,
    epoch: u64,
    stack: Vec<usize>,
}

impl ReachScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        ReachScratch::default()
    }

    /// Begin a traversal over a graph with `n` nodes: bumps the epoch and
    /// grows the visited set if needed.
    fn begin(&mut self, n: usize) {
        self.epoch += 1;
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.stack.clear();
    }

    #[inline]
    fn visit(&mut self, x: usize) -> bool {
        if self.seen[x] == self.epoch {
            false
        } else {
            self.seen[x] = self.epoch;
            true
        }
    }
}

/// [`reachable_from`] reusing traversal buffers from `scratch`.
pub fn reachable_from_with(g: &DiGraph, start: usize, scratch: &mut ReachScratch) -> Vec<usize> {
    scratch.begin(g.node_count());
    scratch.stack.extend(g.successors(start));
    let mut out = Vec::new();
    while let Some(x) = scratch.stack.pop() {
        if scratch.visit(x) {
            out.push(x);
            scratch.stack.extend(g.successors(x));
        }
    }
    out.sort_unstable();
    out
}

/// Transitive closure: result has an edge `u -> v` iff `g` has a nonempty
/// path `u ->* v`.
pub fn transitive_closure(g: &DiGraph) -> DiGraph {
    transitive_closure_with(g, &mut ReachScratch::new())
}

/// [`transitive_closure`] reusing traversal buffers from `scratch`.
pub fn transitive_closure_with(g: &DiGraph, scratch: &mut ReachScratch) -> DiGraph {
    let mut out = DiGraph::with_nodes(g.node_count());
    for u in 0..g.node_count() {
        for v in reachable_from_with(g, u, scratch) {
            out.add_edge(u, v);
        }
    }
    out
}

/// Tarjan's strongly connected components, returned in reverse topological
/// order of the condensation (i.e. a component is emitted after all
/// components it can reach). Each component's node list is sorted.
pub fn strongly_connected_components(g: &DiGraph) -> Vec<Vec<usize>> {
    strongly_connected_components_with(g, &mut SccScratch::new())
}

/// Reusable buffers for Tarjan's SCC algorithm
/// ([`strongly_connected_components_with`]). Useful when condensing many
/// graphs in a loop — e.g. the batch checking engine, which runs one SCC/
/// cycle pass per reduction level per system — because the per-node index/
/// lowlink/on-stack arrays are allocated once and grown, not reallocated per
/// call.
#[derive(Clone, Debug, Default)]
pub struct SccScratch {
    index: Vec<usize>,
    low: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    call: Vec<(usize, Vec<usize>)>,
}

impl SccScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        SccScratch::default()
    }
}

/// [`strongly_connected_components`] reusing buffers from `scratch`.
pub fn strongly_connected_components_with(
    g: &DiGraph,
    scratch: &mut SccScratch,
) -> Vec<Vec<usize>> {
    scc_with_successors(
        g.node_count(),
        |v, out| out.extend(g.successors(v)),
        scratch,
    )
}

/// Tarjan over any adjacency source: `succs(v, out)` pushes `v`'s successors
/// (ascending, like [`DiGraph::successors`]) into `out`. This is the one SCC
/// implementation shared by the sparse [`DiGraph`] path and the dense/
/// compressed relation kernels, so component emission order — and therefore
/// every condensation-based closure — is identical across backends.
pub(crate) fn scc_with_successors<F>(
    n: usize,
    mut succs: F,
    scratch: &mut SccScratch,
) -> Vec<Vec<usize>>
where
    F: FnMut(usize, &mut Vec<usize>),
{
    scratch.index.clear();
    scratch.index.resize(n, usize::MAX);
    scratch.low.clear();
    scratch.low.resize(n, 0);
    scratch.on_stack.clear();
    scratch.on_stack.resize(n, false);
    scratch.stack.clear();
    scratch.call.clear();
    let index = &mut scratch.index;
    let low = &mut scratch.low;
    let on_stack = &mut scratch.on_stack;
    let stack = &mut scratch.stack;
    let call = &mut scratch.call;
    let mut next_index = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan to avoid recursion-depth limits on long chains.
    // Each call frame is (node, remaining successors).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        let mut root_succ = Vec::new();
        succs(root, &mut root_succ);
        call.push((root, root_succ));
        while let Some((v, succ)) = call.last_mut() {
            let v = *v;
            if let Some(w) = succ.pop() {
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    let mut w_succ = Vec::new();
                    succs(w, &mut w_succ);
                    call.push((w, w_succ));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// For a DAG, the length of the longest path *starting* at each node
/// (counted in edges). This is exactly the paper's Definition 9 level
/// computation (level = longest path + 1) applied to the invocation graph.
///
/// Panics if the graph is cyclic.
pub fn longest_path_lengths(g: &DiGraph) -> Vec<usize> {
    let order = topological_sort(g).expect("longest paths require a DAG");
    let mut len = vec![0usize; g.node_count()];
    for &u in order.iter().rev() {
        for v in g.successors(u) {
            len[u] = len[u].max(len[v] + 1);
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph {
        let mut g = DiGraph::with_nodes(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn topo_sort_chain() {
        let g = chain(5);
        assert_eq!(topological_sort(&g).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn topo_sort_detects_cycle() {
        let mut g = chain(3);
        g.add_edge(2, 0);
        let err = topological_sort(&g).unwrap_err();
        assert_eq!(err.0.nodes, vec![0, 1, 2]);
    }

    #[test]
    fn topo_sort_deterministic_among_ready() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(3, 1);
        // 0, 2, 3 are all ready; smallest first.
        let order = topological_sort(&g).unwrap();
        assert_eq!(order, vec![0, 2, 3, 1]);
    }

    #[test]
    fn find_cycle_none_on_dag() {
        assert!(find_cycle(&chain(4)).is_none());
    }

    #[test]
    fn find_cycle_self_loop() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(1, 1);
        assert_eq!(find_cycle(&g).unwrap().nodes, vec![1]);
    }

    #[test]
    fn find_cycle_reports_actual_cycle() {
        let mut g = DiGraph::with_nodes(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 1); // cycle 1->2->3->1
        let c = find_cycle(&g).unwrap();
        assert_eq!(c.nodes, vec![1, 2, 3]);
        // Every consecutive pair is an edge, and it closes.
        for w in c.nodes.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert!(g.has_edge(*c.nodes.last().unwrap(), c.nodes[0]));
    }

    #[test]
    fn closure_of_chain_is_full_upper_triangle() {
        let c = transitive_closure(&chain(4));
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(c.has_edge(u, v), u < v, "({u},{v})");
            }
        }
    }

    #[test]
    fn scc_singletons_on_dag() {
        let comps = strongly_connected_components(&chain(3));
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn scc_finds_cycle_component() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_edge(2, 3);
        let comps = strongly_connected_components(&g);
        assert!(comps.contains(&vec![1, 2]));
        assert_eq!(comps.len(), 3);
    }

    #[test]
    fn scc_reverse_topological_emission() {
        // 0 -> 1 -> 2; components must be emitted sink-first.
        let comps = strongly_connected_components(&chain(3));
        assert_eq!(comps, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn longest_paths_on_diamond() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        assert_eq!(longest_path_lengths(&g), vec![2, 1, 1, 0]);
    }

    #[test]
    fn reachable_excludes_start_without_cycle() {
        let g = chain(3);
        assert_eq!(reachable_from(&g, 0), vec![1, 2]);
        assert_eq!(reachable_from(&g, 2), Vec::<usize>::new());
    }
}
