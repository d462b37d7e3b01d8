//! E1 (§4.4): the sinkless-coloring / sinkless-orientation fixed point,
//! regenerated for a sweep of Δ.
//!
//! Expected output shape (matching the paper):
//! * Π'_{1/2}(sinkless coloring) ≅ sinkless orientation for every Δ;
//! * Π'₁(sinkless coloring) ≅ sinkless coloring (period ≤ 2 fixed point);
//! * the iterated driver therefore reports a fixed point, never a 0-round
//!   problem.
//!
//! ```sh
//! cargo run --example sinkless_fixed_point
//! ```

use roundelim::core::iso::are_isomorphic;
use roundelim::core::sequence::{iterate, StopReason};
use roundelim::core::speedup::{full_step, half_step_edge};
use roundelim::problems::sinkless::{sinkless_coloring, sinkless_orientation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E1 — §4.4 sinkless coloring fixed point");
    println!("{:>3} | {:>12} | {:>12} | {:>18}", "Δ", "Π'_1/2 ≅ SO", "Π'₁ ≅ SC", "driver verdict");
    println!("{}", "-".repeat(58));
    for delta in 3..=8 {
        let sc = sinkless_coloring(delta)?;
        let so = sinkless_orientation(delta)?;
        let half = half_step_edge(&sc, 1)?.problem;
        let full = full_step(&sc, 1)?.problem().clone();
        let half_is_so = are_isomorphic(&half, &so);
        let full_is_sc = are_isomorphic(&full, &sc);
        let verdict = match iterate(&sc, 6)?.stop {
            StopReason::FixedPoint { index, earlier } => format!("fixed point {earlier}→{index}"),
            StopReason::ZeroRound { index } => format!("0-round at {index} (!)"),
            StopReason::LimitReached => "limit".into(),
        };
        println!("{delta:>3} | {half_is_so:>12} | {full_is_sc:>12} | {verdict:>18}");
        assert!(half_is_so && full_is_sc, "paper structure must hold");
    }
    println!("\nPaper: both isomorphisms hold for all Δ ≥ 3 — reproduced ✓");
    Ok(())
}
