//! Integration tests: the speedup theorem across crates (engine ×
//! problems × simulator).

use roundelim::core::iso::are_isomorphic;
use roundelim::core::label::Label;
use roundelim::core::relax::{is_relaxation_of, relaxation_map};
use roundelim::core::sequence::{iterate, StopReason};
use roundelim::core::speedup::{full_step, full_step_unsimplified};
use roundelim::problems::coloring::coloring;
use roundelim::problems::matching::maximal_matching;
use roundelim::problems::mis::mis;
use roundelim::problems::sinkless::{sinkless_coloring, sinkless_orientation};
use roundelim::problems::weak::weak_coloring_pointer;
use roundelim::sim::ring::{
    check_node_algorithm, slowdown, speedup_algorithm, RingClass, WindowAlgorithm,
};

#[test]
fn e1_sinkless_fixed_point_all_deltas() {
    for delta in 3..=7 {
        let sc = sinkless_coloring(delta).unwrap();
        let so = sinkless_orientation(delta).unwrap();
        let step = full_step(&sc, 1).unwrap();
        assert!(are_isomorphic(step.problem(), &sc), "Δ={delta}");
        // and the half step is sinkless orientation
        assert!(are_isomorphic(&step.half.problem, &so), "Δ={delta}");
        // so the driver finds a fixed point
        let seq = iterate(&sc, 5).unwrap();
        assert!(matches!(seq.stop, StopReason::FixedPoint { .. }), "Δ={delta}");
    }
}

#[test]
fn speedup_of_sinkless_orientation_is_sinkless_orientation_shifted() {
    // SO is SC's half step; the full step of SO must again loop.
    let so = sinkless_orientation(3).unwrap();
    let seq = iterate(&so, 5).unwrap();
    assert!(matches!(seq.stop, StopReason::FixedPoint { .. }));
}

#[test]
fn theorem2_simplified_and_unsimplified_agree_in_strength() {
    // On a tiny problem, the simplified and unsimplified derived problems
    // must be mutually relaxable (Theorem 2: the maximality restriction
    // costs nothing).
    let sc = sinkless_coloring(3).unwrap();
    let simp = full_step(&sc, 1).unwrap().problem().clone();
    let unsimp = full_step_unsimplified(&sc).unwrap().problem().clone();
    // unsimplified → simplified: every unsimplified output set extends to
    // a maximal one. The label-map witness search finds this.
    assert!(is_relaxation_of(&simp, &unsimp) || is_relaxation_of(&unsimp, &simp));
}

#[test]
fn coloring_speedup_explodes_without_relaxation() {
    // §2.1: "the description of an inferred problem Π_i is much more
    // complex than the description of the original problem … dealing with
    // this explosion is one of the main challenges". Concretely: the
    // second unaided speedup of 3-coloring on rings needs thousands of
    // labels; the engine reports the overflow instead of looping forever —
    // and the §4.5 relaxation (hardening to k′-coloring) is the paper's
    // documented way around it.
    let c3 = coloring(3, 2).unwrap();
    let step = full_step(&c3, 1).unwrap();
    assert!(step.problem().alphabet().len() <= 64);
    match full_step(step.problem(), 1) {
        Err(roundelim::core::error::Error::AlphabetOverflow { requested }) => {
            assert!(requested > 256, "the explosion is real: {requested} labels");
        }
        Ok(step2) => {
            // If a future engine compresses harder this may fit; both
            // outcomes are acceptable, silence is not.
            assert!(step2.problem().alphabet().len() <= 256);
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn weak_coloring_speedup_structure_is_stable_in_delta() {
    // §4.6: the derived structure (7 half-step labels; 9 node configs in
    // Π'₁ for Δ ≥ 6, fewer for small Δ) stabilizes.
    let mut node_counts = Vec::new();
    for delta in [3usize, 5, 7] {
        let w = weak_coloring_pointer(2, delta).unwrap();
        let half = roundelim::core::speedup::half_step_edge(&w, 1).unwrap();
        assert_eq!(half.meanings.len(), 7, "Δ={delta}: seven usable outputs");
        let step = full_step(&w, 1).unwrap();
        node_counts.push(step.problem().node().len());
    }
    // Stabilization at the paper's 9 elements for large Δ.
    assert_eq!(node_counts[1], node_counts[2], "h₁ size stabilizes");
    assert!(node_counts[2] <= 9);
}

#[test]
fn relaxation_chain_weak_to_superweak() {
    use roundelim::problems::weak::superweak_coloring;
    for delta in [3usize, 4] {
        let w = weak_coloring_pointer(2, delta).unwrap();
        let sw2 = superweak_coloring(2, delta).unwrap();
        let sw3 = superweak_coloring(3, delta).unwrap();
        // weak 2-coloring ⟶ superweak 2-coloring ⟶ superweak 3-coloring.
        assert!(is_relaxation_of(&w, &sw2), "Δ={delta}");
        assert!(is_relaxation_of(&sw2, &sw3), "Δ={delta}");
        // and transitively
        assert!(is_relaxation_of(&w, &sw3), "Δ={delta}");
    }
}

#[test]
fn matching_and_mis_survive_one_speedup() {
    for p in [maximal_matching(3).unwrap(), mis(3).unwrap()] {
        let step = full_step(&p, 1).unwrap();
        let q = step.problem();
        assert!(!q.node().is_empty(), "{}: derived node constraint nonempty", p.name());
        assert!(!q.edge().is_empty(), "{}: derived edge constraint nonempty", p.name());
        // A derived problem of a solvable problem stays solvable: the
        // trivial relaxation to "everything allowed" exists.
    }
}

#[test]
fn e8_ring_round_trip_for_multiple_palettes() {
    // Theorem 1 end-to-end on rings: for input palette c, the one-round
    // top-color reduction solves (c−1)-coloring; speed it up and slow it
    // back down. (Only the *top* class may recolor in a single round —
    // recoloring two classes simultaneously is incorrect, and the checker
    // catches it; see `bogus_simultaneous_reduction_rejected`.)
    for c in [4usize, 5] {
        let class = RingClass::proper_coloring(c);
        let target = coloring(c - 1, 2).unwrap();
        let a = WindowAlgorithm::from_fn(1, &class, |w| {
            let (x, y, z) = (w[0], w[1], w[2]);
            let col =
                if y == c - 1 { (0..c - 1).find(|&k| k != x && k != z).expect("room") } else { y };
            (Label::from_index(col), Label::from_index(col))
        });
        check_node_algorithm(&a, &target, &class).unwrap();
        let step = full_step(&target, 1).unwrap();
        let a1 = speedup_algorithm(&a, &target, &step, &class).unwrap();
        check_node_algorithm(&a1, step.problem(), &class).unwrap();
        let back = slowdown(&a1, &target, &step, &class).unwrap();
        check_node_algorithm(&back, &target, &class).unwrap();
    }
}

#[test]
fn bogus_simultaneous_reduction_rejected() {
    // Recoloring colors 4 and 3 in the same round is wrong (two adjacent
    // recolored nodes can collide); the checker must reject it.
    let class = RingClass::proper_coloring(5);
    let p3 = coloring(3, 2).unwrap();
    let a = WindowAlgorithm::from_fn(1, &class, |w| {
        let (x, y, z) = (w[0], w[1], w[2]);
        let mut col = y;
        while col >= 3 {
            col = (0..col).find(|&k| k != x && k != z).expect("room");
        }
        (Label::from_index(col), Label::from_index(col))
    });
    assert!(check_node_algorithm(&a, &p3, &class).is_err());
}

#[test]
fn derived_zero_round_algorithm_runs_on_a_real_ring() {
    // Bridge the window machinery and the graph simulator: derive the
    // 0-round algorithm for Π'₁(3-coloring), execute it on an actual
    // 12-cycle carrying a proper 4-coloring, and validate the outputs with
    // the graph checker.
    use roundelim::sim::checker::is_valid;
    use roundelim::sim::generate::cycle;

    let class = RingClass::proper_coloring(4);
    let p3 = coloring(3, 2).unwrap();
    let a = WindowAlgorithm::from_fn(1, &class, |w| {
        let (x, y, z) = (w[0], w[1], w[2]);
        let col = if y == 3 { (0..3).find(|&k| k != x && k != z).expect("room") } else { y };
        (Label::from_index(col), Label::from_index(col))
    });
    check_node_algorithm(&a, &p3, &class).unwrap();
    let step = full_step(&p3, 1).unwrap();
    let a1 = speedup_algorithm(&a, &p3, &step, &class).unwrap();
    assert_eq!(a1.t, 0);

    // A proper 4-coloring around a 12-cycle.
    let n = 12;
    let g = cycle(n);
    let input_color = |v: usize| v % 4;
    // Per-node outputs: a 0-round window is just the node's own color;
    // port 0/1 orientation: in `cycle(n)`, node 0 has (right, left) ports,
    // others (left, right).
    let outputs: Vec<Vec<Label>> = (0..n)
        .map(|v| {
            let (left, right) = *a1.map.get(&vec![input_color(v)]).expect("window present");
            if v == 0 {
                vec![right, left]
            } else {
                vec![left, right]
            }
        })
        .collect();
    assert!(is_valid(step.problem(), &g, &outputs));
}

#[test]
fn provenance_round_trip_through_text_format() {
    // Derived problems serialize through the text format loss-free.
    for delta in [3usize, 4] {
        let sc = sinkless_coloring(delta).unwrap();
        let step = full_step(&sc, 1).unwrap();
        let text = step.problem().to_text();
        let reparsed = roundelim::core::problem::Problem::parse(&text).unwrap();
        assert_eq!(&reparsed, step.problem());
    }
}

#[test]
fn relaxation_map_actually_translates_outputs() {
    let pm = roundelim::problems::matching::perfect_matching(3).unwrap();
    let mm = maximal_matching(3).unwrap();
    let map = relaxation_map(&pm, &mm).unwrap();
    // M maps to M, U maps to O.
    let m_pm = pm.alphabet().require("M").unwrap();
    let u_pm = pm.alphabet().require("U").unwrap();
    assert_eq!(mm.alphabet().name(map[m_pm.index()]), "M");
    assert_eq!(mm.alphabet().name(map[u_pm.index()]), "O");
}
