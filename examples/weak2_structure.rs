//! E3 (§4.6): the structure of the derived problems of weak 2-coloring.
//!
//! Regenerates, with the generic engine, the exact artifacts the paper
//! derives by hand:
//! * the five maximal `g_{1/2}` pairs (seven usable outputs);
//! * the trit-sequence description of Π'_{1/2};
//! * the nine-element `h₁` (for Δ large enough; fewer for tiny Δ).
//!
//! ```sh
//! cargo run --example weak2_structure
//! ```

use roundelim::core::speedup::{full_step, half_step_edge};
use roundelim::problems::weak::weak_coloring_pointer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E3 — §4.6 weak 2-coloring derived structure\n");

    for delta in [3usize, 5, 7] {
        let w = weak_coloring_pointer(2, delta)?;
        let half = half_step_edge(&w, 1)?;

        // Usable outputs of Π'_{1/2} and the maximal edge pairs.
        println!("Δ = {delta}:");
        println!(
            "  Π'_1/2: {} usable labels (paper: 7), {} maximal edge pairs (paper: 4 usable of 5 listed)",
            half.meanings.len(),
            half.problem.edge().len()
        );
        for cfg in half.problem.edge().iter() {
            let ls = cfg;
            let render = |ix: roundelim::core::label::Label| {
                let names: Vec<&str> =
                    half.meanings[ix.index()].iter().map(|b| w.alphabet().name(b)).collect();
                format!("{{{}}}", names.join(" "))
            };
            println!("    {}  —  {}", render(ls[0]), render(ls[1]));
        }

        // Full step: h₁ size (the paper's "exactly 9 elements" claim).
        let step = full_step(&w, 1)?;
        println!(
            "  Π'₁: {} node configurations (paper: 9 for large Δ), {} labels, {} edge configs",
            step.problem().node().len(),
            step.problem().alphabet().len(),
            step.problem().edge().len()
        );
        println!();
    }

    println!(
        "Note: the engine compresses unusable labels, so the '7 usable outputs'\n\
         appear directly as the derived alphabet; the pair with the empty set that\n\
         the paper lists and then discards never materializes."
    );
    Ok(())
}
