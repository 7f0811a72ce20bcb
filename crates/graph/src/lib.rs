//! Graph substrate for the composite-transactions library.
//!
//! Everything in the PODS'99 composite-systems theory is ultimately a question
//! about binary relations: weak/strong orders are strict partial orders, the
//! invocation graph must be acyclic, conflict consistency is acyclicity of a
//! union of relations, levels are longest paths, and serial witnesses are
//! topological orders. This crate provides those primitives over dense
//! `usize`-indexed directed graphs plus an id-interning layer so callers can
//! use their own node types.
//!
//! The crate is dependency-free and forms the bottom of the workspace stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod bitgraph;
mod chunked;
mod digraph;
mod dot;
mod order;

pub use algo::{
    find_cycle, find_cycle_by, longest_path_lengths, reachable_from, reachable_from_with,
    strongly_connected_components, strongly_connected_components_with, topological_sort,
    topological_sort_by, transitive_closure, transitive_closure_with, CycleInfo, ReachScratch,
    SccScratch, SearchScratch, TopoError,
};
pub use bitgraph::{BitGraph, CloseScratch};
pub use chunked::{ChunkedBitGraph, ChunkedRow, CondensedClosure, WalkScratch};
pub use digraph::DiGraph;
pub use dot::{dot_escape, dot_string};
pub use order::{OrderError, PartialOrderRel};
