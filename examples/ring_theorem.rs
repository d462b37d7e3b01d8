//! E8: Theorem 1 made executable on rings — both directions.
//!
//! Takes the 1-round color-reduction algorithm for 3-coloring on
//! 4-colored rings, derives the 0-round algorithm for Π'₁ through the
//! proof's A → A_{1/2} → A₁ pipeline, verifies it, then reconstructs a
//! 1-round algorithm for 3-coloring from it (A* → A*₋₁/₂ → A*₋₁) and
//! verifies that too. Also iterates the forward direction through a
//! 2-round algorithm.
//!
//! ```sh
//! cargo run --example ring_theorem
//! ```

use roundelim::core::label::Label;
use roundelim::core::speedup::full_step;
use roundelim::problems::coloring::coloring;
use roundelim::sim::ring::{
    check_node_algorithm, slowdown, speedup_algorithm, RingClass, WindowAlgorithm,
};

/// 1-round reduction `c`-coloring → (`c`−1)-coloring on rings.
fn reduction(c: usize, class: &RingClass) -> WindowAlgorithm {
    WindowAlgorithm::from_fn(1, class, |w| {
        let (x, y, z) = (w[0], w[1], w[2]);
        let color = if y == c - 1 {
            (0..c - 1).find(|&k| k != x && k != z).expect("room below c-1")
        } else {
            y
        };
        (Label::from_index(color), Label::from_index(color))
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E8 — executable Theorem 1 on rings\n");

    // Forward: A solves 3-coloring in 1 round on 4-colored rings.
    let class = RingClass::proper_coloring(4);
    let p3 = coloring(3, 2)?;
    let a = reduction(4, &class);
    check_node_algorithm(&a, &p3, &class)?;
    println!("A (1 round) solves 3-coloring on proper-4-colored rings ✓");

    let step = full_step(&p3, 1)?;
    println!(
        "Π'₁(3-coloring): {} labels, |node| = {}, |edge| = {}",
        step.problem().alphabet().len(),
        step.problem().node().len(),
        step.problem().edge().len()
    );
    let a1 = speedup_algorithm(&a, &p3, &step, &class)?;
    check_node_algorithm(&a1, step.problem(), &class)?;
    println!("Derived A₁ ({} rounds) solves Π'₁ ✓  [(1) ⇒ (2) of Theorem 1]", a1.t);

    // Backward: reconstruct a 1-round algorithm for 3-coloring from A₁.
    let back = slowdown(&a1, &p3, &step, &class)?;
    check_node_algorithm(&back, &p3, &class)?;
    println!("Reconstructed A*₋₁ ({} round) solves 3-coloring ✓  [(2) ⇒ (1)]", back.t);

    // Two-round chain: 5 → 4 → 3 coloring in 2 rounds, sped up twice.
    let class5 = RingClass::proper_coloring(5);
    let two_round = WindowAlgorithm::from_fn(2, &class5, |w| {
        // Simulate two greedy reduction rounds on the 5-window.
        let reduce = |x: usize, y: usize, z: usize, c: usize| {
            if y == c - 1 {
                (0..c - 1).find(|&k| k != x && k != z).expect("room")
            } else {
                y
            }
        };
        let a1 = reduce(w[0], w[1], w[2], 5);
        let b1 = reduce(w[1], w[2], w[3], 5);
        let c1 = reduce(w[2], w[3], w[4], 5);
        let out = reduce(a1, b1, c1, 4);
        (Label::from_index(out), Label::from_index(out))
    });
    check_node_algorithm(&two_round, &p3, &class5)?;
    println!("\nA (2 rounds) solves 3-coloring on proper-5-colored rings ✓");
    let step1 = full_step(&p3, 1)?;
    let a1 = speedup_algorithm(&two_round, &p3, &step1, &class5)?;
    check_node_algorithm(&a1, step1.problem(), &class5)?;
    println!("First speedup: A₁ ({} round) solves Π'₁ ✓", a1.t);
    // And the reconstructed 2-round algorithm still works.
    let back2 = slowdown(&a1, &p3, &step1, &class5)?;
    check_node_algorithm(&back2, &p3, &class5)?;
    println!("Reconstructed A*₋₁ ({} rounds) solves 3-coloring ✓", back2.t);

    // §2.1's warning, reproduced: a second *unaided* speedup explodes.
    match full_step(step1.problem(), 1) {
        Err(e) => println!(
            "\nSecond unaided speedup of Π'₁: {e}\n\
             — exactly the §2.1 description-complexity explosion; the paper's\n\
             remedy is relaxation (for lower bounds) or hardening (§4.5: Π₁* is\n\
             just a k′-coloring), not iterating the raw transform."
        ),
        Ok(step2) => {
            println!("\nSecond speedup succeeded with {} labels", step2.problem().alphabet().len())
        }
    }
    Ok(())
}
