//! Coverage tests for the model crate's auxiliary surfaces: error display,
//! node roles, forest navigation and semantics edge cases.

use compc_model::{
    AccessMode, CommutativityTable, CompositeSystem, ItemId, ModelError, NodeId, OpSpec, OrderKind,
    SchedId, SystemBuilder,
};

fn tiny() -> (CompositeSystem, NodeId, NodeId, NodeId) {
    let mut b = SystemBuilder::new();
    let top = b.schedule("top");
    let bot = b.schedule("bot");
    let t = b.root("T", top);
    let u = b.subtx("u", t, bot);
    let o = b.leaf("o", u);
    (b.build().unwrap(), t, u, o)
}

#[test]
fn descendants_and_composite_transaction() {
    let (sys, t, u, o) = tiny();
    assert_eq!(sys.descendants(t), vec![u, o]);
    assert_eq!(sys.composite_transaction(t), vec![t, u, o]);
    assert!(sys.descendants(o).is_empty());
}

#[test]
fn node_sets_partition() {
    let (sys, t, _, o) = tiny();
    assert_eq!(sys.roots().collect::<Vec<_>>(), vec![t]);
    assert_eq!(sys.leaves().collect::<Vec<_>>(), vec![o]);
}

#[test]
fn schedule_levels_and_order() {
    let (sys, ..) = tiny();
    assert_eq!(sys.level(SchedId(0)), 2);
    assert_eq!(sys.level(SchedId(1)), 1);
    assert_eq!(sys.order(), 2);
    assert_eq!(sys.schedules_at_level(1).count(), 1);
    assert_eq!(sys.schedules_at_level(3).count(), 0);
}

#[test]
fn error_displays_are_informative() {
    // Unordered conflict.
    let mut b = SystemBuilder::new();
    let s = b.schedule("S");
    let t1 = b.root("T1", s);
    let t2 = b.root("T2", s);
    let o1 = b.leaf("o1", t1);
    let o2 = b.leaf("o2", t2);
    b.conflict(o1, o2).unwrap();
    let err = b.build().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("Def. 3 axiom 1c"), "{msg}");

    // Recursion.
    let mut b = SystemBuilder::new();
    let s1 = b.schedule("S1");
    let s2 = b.schedule("S2");
    let t1 = b.root("T1", s1);
    b.subtx("u1", t1, s2);
    let t2 = b.root("T2", s2);
    b.subtx("u2", t2, s1);
    let msg = b.build().unwrap_err().to_string();
    assert!(msg.contains("recursive invocation"), "{msg}");
}

#[test]
fn order_violation_displays() {
    let mut b = SystemBuilder::new();
    let s = b.schedule("S");
    let t = b.root("T", s);
    let o1 = b.leaf("o1", t);
    let o2 = b.leaf("o2", t);
    b.output_weak(o1, o2).unwrap();
    let err = b.output_weak(o2, o1).unwrap_err();
    assert!(matches!(err, ModelError::OrderViolation { .. }));
    assert!(err.to_string().contains("cannot order"));
}

#[test]
fn strong_input_requires_strong_outputs_end_to_end() {
    let mut b = SystemBuilder::new();
    let s = b.schedule("S");
    let t1 = b.root("T1", s);
    let t2 = b.root("T2", s);
    let o1 = b.leaf("o1", t1);
    let o2 = b.leaf("o2", t2);
    b.input_strong(t1, t2).unwrap();
    b.output_strong(o1, o2).unwrap();
    let sys = b.build().unwrap();
    assert!(sys.schedule(s).input.strong_lt(t1, t2));
    assert_eq!(sys.schedule(s).input.kind(t1, t2), OrderKind::Strong);
    // Weak containment (Definition 2's ≪ ⊆ ≺).
    assert!(sys.schedule(s).input.weak_lt(t1, t2));
}

#[test]
fn commutativity_table_is_configurable() {
    let mut t = CommutativityTable::read_write();
    t.set(AccessMode::Write, AccessMode::Write, true); // CRDT-ish blind writes
    assert!(!t.conflicts(OpSpec::write(ItemId(0)), OpSpec::write(ItemId(0))));
    assert!(t.conflicts(OpSpec::read(ItemId(0)), OpSpec::write(ItemId(0))));
}

#[test]
fn forest_dot_is_well_formed() {
    let (sys, ..) = tiny();
    let dot = sys.forest_dot();
    assert!(dot.starts_with("digraph"));
    assert_eq!(dot.matches("->").count(), 2); // t -> u -> o
}

#[test]
fn invocation_graph_edges() {
    let (sys, ..) = tiny();
    let ig = sys.invocation_graph();
    assert!(ig.has_edge(0, 1)); // top invokes bot
    assert!(!ig.has_edge(1, 0));
}

#[test]
fn display_formats_for_ids_and_specs() {
    assert_eq!(SchedId(2).to_string(), "S2");
    assert_eq!(NodeId(5).to_string(), "n5");
    assert_eq!(OpSpec::decrement(ItemId(4)).to_string(), "dec(x4)");
    assert_eq!(AccessMode::Insert.to_string(), "ins");
}

#[test]
fn common_container_for_roots_is_none() {
    let (sys, t, u, _) = tiny();
    assert_eq!(sys.common_container(t, u), None);
}
