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

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed; a block freed on
    /// another thread leaves its bytes here.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest value `LIVE` has reached since it was last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call goes unchanged to the system allocator; the counters
// are const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        let live = LIVE.with(|b| {
            b.set(b.get() + layout.size() as isize);
            b.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|b| b.set(b.get() - layout.size() as isize));
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

/// `f`'s allocations on this thread and its heap high-water mark there:
/// the most bytes it held live at once, beyond those live when it started.
fn allocations_and_peak<R>(f: impl FnOnce() -> R) -> (usize, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let count = allocations(f);
    (count, (PEAK.with(Cell::get) - before) as usize)
}

/// Runs `f` and returns its value with the bytes of it that stay live on
/// this thread.
fn retained<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.with(Cell::get);
    let value = f();
    (value, (LIVE.with(Cell::get) - before) as usize)
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
/// 2^13 nodes as at 2^15. Its memory is pinned per node at 2^15 cubic
/// nodes: the graph holds a `u32` offset per node and an 8-byte target
/// per port; matching's heap peaks at its 24-byte states, the 16-byte
/// message arena, the 4-byte frontier and the sparse rounds' 1-byte
/// stamps, and weak 2-coloring's at its 32-byte states and the arena. A
/// wider state or another per-node or per-port table crosses the bounds.
#[test]
fn simulator_runs_allocate_nothing_per_node() {
    use roundelim::sim::algos::{greedy, weak2};
    use roundelim::sim::generate::{random_permutation, random_regular_seeded};
    use roundelim::sim::runner::{run_core, NodeInput};
    // One-thread runs stay on this thread, so every allocation is counted.
    let measure = |n: usize| {
        let (g, graph_bytes) = retained(|| random_regular_seeded(n, 3, 64, 7, 1).expect("cubic"));
        let ids = random_permutation(n, 7, 1);
        let input = |v: usize| NodeInput { id: Some(u64::from(ids[v])), ..NodeInput::default() };
        let (matching, weak) = (greedy::GreedyMatching, weak2::WeakTwoColoring::for_n(n));
        let budget = greedy::matching_rounds(n);
        let (m, w) = (
            allocations_and_peak(|| run_core(&g, input, &matching, budget, true, 1)),
            allocations_and_peak(|| run_core(&g, input, &weak, weak2::total_rounds(n), false, 1)),
        );
        (graph_bytes, [m.0, w.0], [m.1, w.1])
    };
    measure(1 << 10); // registers the runner's counters
    let n = 1 << 15;
    let (small, (graph_bytes, allocs, [matching_peak, weak_peak])) =
        (measure(1 << 13).1, measure(n));
    assert_eq!(small, allocs, "allocations at 2^13 and 2^15 nodes");
    assert!(graph_bytes <= 4 * (n + 1) + 8 * 3 * n, "graph holds {graph_bytes} bytes");
    let slack = 4096; // chunk and executor bookkeeping, independent of n
    assert!(matching_peak <= 45 * n + slack, "matching peaks at {matching_peak} bytes");
    assert!(weak_peak <= 48 * n + slack, "weak 2-coloring peaks at {weak_peak} bytes");
}

/// An opened proof store holds its decoded records and, per record, only
/// an entry in its pre-key index: at most 128 bytes beyond decoding the
/// same frames. Another copy of each problem (say, interned into a
/// `CanonCache` as well) crosses that bound. A lookup miss keeps nothing,
/// also when it walks a bucket and runs an isomorphism check.
#[test]
fn the_proof_store_holds_its_records_and_a_small_index() {
    use roundelim::auto::binenc::decode_certificate;
    use roundelim::auto::certificate::Direction;
    use roundelim::auto::search::{autolb, SearchOptions};
    use roundelim::core::binenc::{decode_problem, read_frame, Dec};
    use roundelim::core::iso::canonical_key;
    use roundelim::daemon::store::{ProofStore, STORE_FILE};
    const RECORDS: usize = 100;
    let dir = std::env::temp_dir().join(format!("roundelim-store-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ProofStore::open(&dir).unwrap();
    // `p3` and `p4` share a pre-key but are not isomorphic: a lookup of
    // `p4` walks `p3`'s bucket.
    let p3 = Problem::parse("name: p3\nnode: C C | B C | A D\nedge: B D | A C | C D").unwrap();
    let p4 = Problem::parse("name: p4\nnode: A D | A A | B C\nedge: B D | A C | A D").unwrap();
    let one = SearchOptions { threads: 1, ..SearchOptions::default() };
    assert!(store.insert(p3.clone(), autolb(&p3, &one).unwrap().certificate.unwrap()).unwrap());
    // Fresh 3-label problems, one per isomorphism class, solved at a short
    // budget; those that certify are stored.
    let multisets = |len: usize| -> Vec<String> {
        let mut all = vec![String::new()];
        for _ in 0..len {
            all = all
                .iter()
                .flat_map(|s| ["x", "y", "z"].map(|l| format!("{s} {l}")))
                .filter(|s| s.split(' ').is_sorted())
                .collect();
        }
        all
    };
    let pick = |all: &[String], bits: u64| -> String {
        let picked: Vec<&str> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| bits >> i & 1 == 1)
            .map(|(_, s)| &s[1..])
            .collect();
        picked.join(" | ")
    };
    let short = SearchOptions {
        max_steps: 3,
        beam_width: 3,
        max_labels: 8,
        max_expansions: Some(3),
        ..one.clone()
    };
    let mut seen = std::collections::HashSet::new();
    let mut state = 1u64;
    while store.len() < RECORDS {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let bits = state >> 20;
        let node = pick(&multisets(2 + (bits & 1) as usize), bits >> 1);
        let edge = pick(&multisets(2), bits >> 11);
        let text = format!("name: f{}\nnode: {node}\nedge: {edge}", store.len());
        let Ok(p) = Problem::parse(&text) else { continue };
        if seen.insert(canonical_key(&p)) {
            if let Some(cert) = autolb(&p, &short).unwrap().certificate {
                assert!(store.insert(p, cert).unwrap(), "{text}");
            }
        }
    }
    drop(store);
    let bytes = std::fs::read(dir.join(STORE_FILE)).unwrap();
    let (decoded, decoded_bytes) = retained(|| {
        let (mut d, mut pairs) = (Dec::new(&bytes), Vec::new());
        while d.remaining() > 0 {
            let mut pd = Dec::new(read_frame(&mut d, "proof").unwrap());
            pairs.push((decode_problem(&mut pd).unwrap(), decode_certificate(&mut pd).unwrap()));
        }
        pairs
    });
    assert_eq!(decoded.len(), RECORDS);
    let (store, store_bytes) = retained(|| ProofStore::open(&dir).unwrap());
    let index_bytes = store_bytes - decoded_bytes;
    assert!(index_bytes <= 128 * RECORDS + 1024, "the index holds {index_bytes} bytes");
    // Misses: an empty bucket, a non-isomorphic bucket mate, and a stored
    // class in the other direction.
    let five = problem(["A", "B", "C", "D", "E"]);
    let (hits, kept) = retained(|| {
        [
            store.lookup(&five, Direction::Lower).is_some(),
            store.lookup(&p4, Direction::Lower).is_some(),
            store.lookup(&p3, Direction::Upper).is_some(),
        ]
    });
    assert_eq!((hits, kept), ([false; 3], 0));
    assert!(store.lookup(&p3, Direction::Lower).is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}
