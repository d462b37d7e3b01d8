//! The search's per-class kernels allocate only their set-up: a warm label
//! refinement or pre-key allocates nothing, and an isomorphism search
//! allocates per label, never per configuration probe. A span opened with
//! no trace installed allocates nothing either, and a simulator run
//! allocates nothing per node. Allocations are counted per thread, so
//! tests running alongside do not disturb the counts.

use roundelim::core::iso::{fingerprint_and_ranks, isomorphism_ranked, pre_key, Refiner};
use roundelim::core::problem::Problem;
use roundelim::obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local!(static ALLOCS: Cell<usize> = const { Cell::new(0) });

struct Counting;

// SAFETY: every call goes unchanged to the system allocator; the counter
// is a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> usize {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// A 5-label, Δ = 3 problem with 42 configurations, spelled with `names`.
fn problem(names: [&str; 5]) -> Problem {
    let name = |t: &[usize]| t.iter().map(|&l| names[l]).collect::<Vec<_>>().join(" ");
    let triples = (0..5).flat_map(|x| (x..5).flat_map(move |y| (y..5).map(move |z| [x, y, z])));
    let node: Vec<String> =
        triples.enumerate().filter(|(i, _)| i % 7 != 3).map(|(_, t)| name(&t)).collect();
    let edge: Vec<String> = (0..5)
        .flat_map(|x| (x..5).map(move |y| [x, y]))
        .filter(|[x, y]| x + y != 4)
        .map(|t| name(&t))
        .collect();
    Problem::parse(&format!("name: p\nnode: {}\nedge: {}", node.join(" | "), edge.join(" | ")))
        .unwrap()
}

#[test]
fn a_warm_refiner_allocates_nothing() {
    let p = problem(["A", "B", "C", "D", "E"]);
    let mut refiner = Refiner::new();
    let fp = refiner.fingerprint(p.packed());
    assert_eq!(allocations(|| assert_eq!(refiner.fingerprint(p.packed()), fp)), 0);
}

#[test]
fn a_warm_pre_key_allocates_nothing() {
    let p = problem(["A", "B", "C", "D", "E"]);
    let mut counts = Vec::new();
    let key = pre_key(p.packed(), &mut counts);
    assert_eq!(allocations(|| assert_eq!(pre_key(p.packed(), &mut counts), key)), 0);
}

#[test]
fn untraced_spans_allocate_nothing() {
    let n = allocations(|| (0..10_000).for_each(|_| drop(obs::trace::span("stage.canon"))));
    assert_eq!(n, 0, "no trace is installed");
}

#[test]
fn the_isomorphism_search_allocates_per_label_not_per_probe() {
    let (p, q) = (problem(["A", "B", "C", "D", "E"]), problem(["E", "D", "C", "B", "A"]));
    assert_eq!(p.node().len() + p.edge().len(), 42);
    let ((_, rp), (_, rq)) = (fingerprint_and_ranks(p.packed()), fingerprint_and_ranks(q.packed()));
    let n = allocations(|| isomorphism_ranked(p.packed(), &rp, q.packed(), &rq).expect("iso"));
    // Every configuration is probed on the way to a mapping; the set-up
    // allocates a few buffers and one candidate list per label.
    assert!(n <= 20, "{n} allocations");
}

/// A one-thread simulator run allocates its arenas and buffers once, and
/// nothing per node or per round: adaptive greedy matching (more rounds
/// at more nodes) and fixed-schedule weak 2-coloring allocate as often at
/// 2^13 nodes as at 2^15.
#[test]
fn simulator_runs_allocate_nothing_per_node() {
    use roundelim::sim::algos::{greedy, weak2};
    use roundelim::sim::generate::{random_permutation, random_regular_seeded};
    use roundelim::sim::runner::{run_core, NodeInput};
    // One-thread runs stay on this thread, so every allocation is counted.
    let count = |n: usize| {
        let g = random_regular_seeded(n, 3, 64, 7, 1).expect("a cubic graph");
        let ids = random_permutation(n, 7, 1);
        let input = |v: usize| NodeInput { id: Some(u64::from(ids[v])), ..NodeInput::default() };
        let (matching, weak) = (greedy::GreedyMatching, weak2::WeakTwoColoring::for_n(n));
        let budget = greedy::matching_rounds(n);
        [
            allocations(|| run_core(&g, input, &matching, budget, true, 1)),
            allocations(|| run_core(&g, input, &weak, weak2::total_rounds(n), false, 1)),
        ]
    };
    count(1 << 10); // registers the runner's counters
    assert_eq!(count(1 << 13), count(1 << 15), "allocations at 2^13 and 2^15 nodes");
}
