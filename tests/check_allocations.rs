//! Allocation gate for the warm check path.
//!
//! A counting global allocator (local to this test binary) counts the heap
//! allocations — `alloc`, `alloc_zeroed` and `realloc` calls — made on the
//! calling thread. The gate checks a fixed 160-node Timestamp-ordering
//! simulator export twice and counts the second check, whose thread-held
//! buffers have already grown; it then streams the same export through a
//! `SpecSession` and counts the last append (merge, extension, log and
//! check). The bounds pin the measured counts plus a small slack, so a
//! change that brings back per-level graph copies, per-start search
//! stacks or rebuilt closure rows fails here.

use compc::core::Checker;
use compc::model::CompositeSystem;
use compc::session::SpecSession;
use compc::sim::{Engine, Protocol, SimConfig};
use compc::spec::SystemSpec;
use compc::workload::random_sim::{generate_sim, SimGenParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// The Timestamp-ordering export of 25 clients at the first seed from 8
/// whose run exports: 160 nodes, three levels.
fn export() -> CompositeSystem {
    (8u64..72)
        .find_map(|seed| {
            let params = SimGenParams {
                seed,
                clients: 25,
                ..SimGenParams::default()
            };
            let (topo, templates) = generate_sim(&params, Protocol::Timestamp);
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            Engine::new(topo, templates, config)
                .run()
                .export_system()
                .ok()
        })
        .expect("a Timestamp run exports within 64 seeds")
}

/// Measured on the 160-node export: a warm check makes 1 allocation (its
/// serial witness; at the commit before the per-thread check scratch it
/// made 2,573), and the warm append 465 (2,977 before), most of them in
/// the merge, extension and log around the check.
const CHECK_BOUND: u64 = 4;
const APPEND_BOUND: u64 = 512;

#[test]
fn a_warm_check_and_append_allocate_within_their_bounds() {
    let sys = export();
    assert_eq!(sys.node_count(), 160);
    let checker = Checker::new();
    // Each check swaps the front's buffers with the scratch's once per
    // level, so two checks grow both sets.
    for _ in 0..3 {
        assert!(checker.check(&sys).is_correct());
    }
    let (count, verdict) = allocations(|| checker.check(&sys));
    assert!(verdict.is_correct());
    assert!(
        count <= CHECK_BOUND,
        "a warm check made {count} allocations (bound {CHECK_BOUND})"
    );

    let fragments = SystemSpec::from_system(&sys).into_appends();
    let (last, init) = fragments.split_last().expect("the export has roots");
    let mut session = SpecSession::new();
    for fragment in init {
        session
            .append(fragment)
            .expect("a prefix of an export appends");
    }
    let (count, verdict) = allocations(|| session.append(last).map(|v| v.is_correct()));
    assert!(verdict.expect("the last fragment appends"));
    assert!(
        count <= APPEND_BOUND,
        "a warm append made {count} allocations (bound {APPEND_BOUND})"
    );
}
