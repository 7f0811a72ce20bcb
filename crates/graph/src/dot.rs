//! Graphviz DOT export, used by the bench harness to render figures.

use crate::DiGraph;

/// Renders the graph in DOT syntax with caller-provided node labels.
///
/// `label(i)` supplies the display label for node `i`; nodes with no edges
/// are still emitted so isolated operations remain visible.
pub fn dot_string(g: &DiGraph, name: &str, label: impl Fn(usize) -> String) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Writing to a String cannot fail; unwraps below are infallible.
    writeln!(out, "digraph \"{name}\" {{").unwrap();
    writeln!(out, "  rankdir=LR;").unwrap();
    for i in 0..g.node_count() {
        writeln!(out, "  n{i} [label=\"{}\"];", dot_escape(&label(i))).unwrap();
    }
    for (u, v) in g.edges() {
        writeln!(out, "  n{u} -> n{v};").unwrap();
    }
    out.push_str("}\n");
    out
}

/// Escapes a label for a double-quoted DOT string: backslashes first, then
/// quotes.
pub fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nodes_and_edges() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(0, 1);
        let dot = dot_string(&g, "t", |i| format!("op{i}"));
        assert!(dot.contains("digraph \"t\""));
        assert!(dot.contains("n0 [label=\"op0\"]"));
        assert!(dot.contains("n0 -> n1;"));
    }

    #[test]
    fn escapes_quotes_in_labels() {
        let g = DiGraph::with_nodes(1);
        let dot = dot_string(&g, "q", |_| "a\"b".into());
        assert!(dot.contains("a\\\"b"));
    }
}
