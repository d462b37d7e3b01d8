//! Quickstart: describe a problem, apply the automatic speedup, inspect
//! the derived problems and the verdict of the iterated driver, then
//! check 0-round solvability across the problem zoo.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use roundelim::core::problem::Problem;
use roundelim::core::sequence::{iterate, StopReason};
use roundelim::core::speedup::full_step;
use roundelim::core::zero_round::{zero_round_oriented, zero_round_pn};
use roundelim::problems::registry::families;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sinkless coloring at Δ = 3 (paper §4.4), in the text format.
    let sc = Problem::parse(
        "name: sinkless-coloring\n\
         node: 1 0 0\n\
         edge: 0 0 | 0 1",
    )?;
    println!("Input problem:\n{sc}");
    println!("Zero-round solvable (plain PN)?      {}", zero_round_pn(sc.packed()).is_some());
    println!("Zero-round solvable (oriented)?      {}", zero_round_oriented(sc.packed()).is_some());

    // One automatic speedup step: Π → Π'₁ (Theorems 1 + 2).
    let step = full_step(&sc, 1)?;
    println!("\nIntermediate problem Π'_1/2 (sinkless orientation):");
    println!("{}", step.half.problem);
    println!("Derived problem Π'₁ (one round faster):");
    println!("{}", step.problem());

    // Label provenance: what each derived label means over the base labels.
    println!("Label provenance (Π'₁ label → sets of base labels):");
    for l in step.problem().alphabet().labels() {
        let meaning = step.meaning_in_base(l);
        let rendered: Vec<String> = meaning
            .iter()
            .map(|set| {
                let names: Vec<&str> = set.iter().map(|b| sc.alphabet().name(b)).collect();
                format!("{{{}}}", names.join(","))
            })
            .collect();
        println!("  {} ↦ {{{}}}", step.problem().alphabet().name(l), rendered.join(", "));
    }

    // Iterate until a fixed point or a 0-round problem.
    let seq = iterate(&sc, 8)?;
    println!("\nIterated speedup: {} step(s); verdict: {:?}", seq.steps(), seq.stop);
    match seq.stop {
        StopReason::FixedPoint { index, earlier } => println!(
            "Π_{index} ≅ Π_{earlier}: the sequence loops — no 0-round problem is ever reached,\n\
             certifying the Ω(log n) lower bound for sinkless orientation [Brandt et al. STOC'16]."
        ),
        StopReason::ZeroRound { index } => {
            println!("Complexity on high-girth t-independent classes: exactly {index} rounds.")
        }
        StopReason::LimitReached => println!("No verdict within the step limit."),
    }

    // The 0-round deciders (§2.1's endgame check) across the problem zoo.
    println!("\nZero-round solvable across the zoo (k = 3, Δ = 3):");
    for f in families() {
        let Ok(p) = f.instantiate(3, 3) else { continue };
        println!(
            "  {:<22} plain PN: {:<5}  oriented: {}",
            f.name,
            zero_round_pn(p.packed()).is_some(),
            zero_round_oriented(p.packed()).is_some()
        );
    }
    Ok(())
}
