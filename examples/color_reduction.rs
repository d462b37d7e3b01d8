//! E2 (§4.5): doubly-exponential color reduction on rings.
//!
//! Regenerates the paper's numbers: the derived problem Π'_{1/2} of
//! 4-coloring (14 usable subsets, 7 complementary-partition edge configs),
//! the hardened problem Π₁* = k′-coloring with k′ = 2^{C(k,k/2)/2}, and
//! the resulting O(log* n) 3-coloring bound.
//!
//! ```sh
//! cargo run --example color_reduction
//! ```

use roundelim::core::speedup::half_step_edge;
use roundelim::problems::color_reduction::{families, k_prime, reduction_steps, verify_properties};
use roundelim::problems::coloring::coloring;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E2 — §4.5 color reduction on rings\n");

    // The engine's half step on 4-coloring, vs the paper's closed form.
    let c4 = coloring(4, 2)?;
    let hs = half_step_edge(&c4, 1)?;
    println!(
        "Π'_1/2(4-coloring): {} labels (paper: 14), {} edge configs (paper: 7)",
        hs.meanings.len(),
        hs.problem.edge().len()
    );
    assert_eq!(hs.meanings.len(), 14);
    assert_eq!(hs.problem.edge().len(), 7);

    // The hardening Π₁ → Π₁* and the k → k′ table.
    println!(
        "\n{:>3} | {:>12} | {:>22} | {:>10}",
        "k", "k′ (formula)", "#families (explicit)", "≥ 2^2^(k/2)"
    );
    println!("{}", "-".repeat(60));
    for k in [4usize, 6, 8] {
        let kp = k_prime(k)?;
        let explicit = if k <= 6 { families(k)?.len().to_string() } else { "(too many)".into() };
        let lower = 1u128 << (1u32 << (k as u32 / 2));
        println!("{k:>3} | {kp:>12} | {explicit:>22} | {:>10}", kp >= lower);
        if k <= 6 {
            let checked = verify_properties(k)?;
            println!("      properties 1 & 2 verified on all {checked} families ✓");
        }
    }

    // The upper-bound consequence: O(log* n) rounds to 3 colors.
    println!("\nRounds to reduce k₀ colors to 3 (each hardened speedup step = 1 round):");
    println!("{:>12} | {:>6}", "k₀", "steps");
    for exp in [4u32, 16, 64, 100] {
        let k0 = 1u128 << exp;
        println!("{:>12} | {:>6}", format!("2^{exp}"), reduction_steps(k0, 3));
    }
    println!("\nDoubly-exponential shrinkage ⇒ O(log* n) 3-coloring of rings — reproduced ✓");
    Ok(())
}
