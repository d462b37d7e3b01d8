//! Cole–Vishkin 3-coloring of oriented rings in O(log* n) rounds — the
//! §4.5 upper bound realized as a running algorithm.
//!
//! Phase 1 (log* n + O(1) rounds): iterated bit-index color reduction from
//! IDs down to colors `{0, …, 5}`. Phase 2 (3 rounds): greedy elimination
//! of colors 5, 4, 3.

use crate::runner::{Distributed, Inbox, NodeCtx};
use roundelim_core::label::Label;

/// Number of Phase-1 iterations needed from an ID space of `bits` bits:
/// iterate `L ← ⌈log₂ L⌉ + 1` until `L ≤ 3` (colors < 8), plus one final
/// iteration at L = 3 that maps colors `{0..7}` into the 6-color fixed
/// point `{0..5}` (`2i + b` with `i < 3`).
pub fn phase1_rounds(bits: u32) -> usize {
    let ceil_log2 = |x: u32| 32 - (x - 1).leading_zeros();
    let mut l = bits.max(3);
    let mut rounds = 0;
    while l > 3 {
        l = ceil_log2(l) + 1;
        rounds += 1;
    }
    rounds + 1
}

/// Total round count of the algorithm for `n` ids.
pub fn total_rounds(n: usize) -> usize {
    let bits = usize::BITS - n.leading_zeros();
    phase1_rounds(bits.max(4)) + 3
}

/// The Cole–Vishkin ring coloring algorithm.
///
/// Requires each node input to carry a unique `id` and an `oriented_away`
/// vector with exactly one `true` port (a consistent ring orientation —
/// the successor direction). Run it for [`total_rounds`]`(n)` rounds.
#[derive(Debug, Clone)]
pub struct ColeVishkin {
    /// Rounds of Phase 1 (computed from n by the caller via
    /// [`total_rounds`]; stored so nodes can switch phases locally).
    pub phase1: usize,
}

impl ColeVishkin {
    /// Creates the algorithm for an instance with `n` ids.
    pub fn for_n(n: usize) -> ColeVishkin {
        let bits = usize::BITS - n.leading_zeros();
        ColeVishkin { phase1: phase1_rounds(bits.max(4)) }
    }
}

/// Node state for [`ColeVishkin`].
#[derive(Debug, Clone)]
pub struct CvState {
    color: u64,
    successor_port: usize,
}

/// One Cole–Vishkin step: from own color and successor color (both
/// distinct), derive a new color `2i + bit_i(own)` where `i` is the least
/// significant differing bit.
pub fn cv_step(own: u64, successor: u64) -> u64 {
    debug_assert_ne!(own, successor, "CV needs distinct colors along pointers");
    let i = (own ^ successor).trailing_zeros() as u64;
    2 * i + ((own >> i) & 1)
}

impl Distributed for ColeVishkin {
    type Message = u64;
    type State = CvState;

    fn init(&self, ctx: &NodeCtx<'_>) -> CvState {
        let successor_port = ctx
            .input
            .oriented_away
            .iter()
            .position(|&away| away)
            .expect("ColeVishkin needs an oriented ring (one away-port per node)");
        CvState { color: ctx.input.id.expect("ColeVishkin needs unique ids"), successor_port }
    }

    fn send(&self, state: &CvState, _round: usize) -> u64 {
        state.color
    }

    fn receive(&self, state: &mut CvState, round: usize, inbox: Inbox<'_, u64>) {
        if round < self.phase1 {
            let successor = *inbox.msg(state.successor_port);
            state.color = cv_step(state.color, successor);
        } else {
            // Phase 2: eliminate color c = 5, 4, 3 in successive rounds.
            let c = (5 - (round - self.phase1)) as u64;
            if state.color == c {
                let taken = |k: u64| (0..inbox.degree()).any(|p| *inbox.msg(p) == k);
                state.color = (0..c).find(|&k| !taken(k)).expect("degree 2 < c available colors");
            }
        }
    }

    fn output(&self, state: &CvState, out: &mut [Label]) {
        out.fill(Label::from_index(state.color as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::is_valid;
    use crate::generate::cycle;
    use crate::runner::{run, NodeInput};
    use roundelim_problems::coloring::coloring;

    /// Inputs for an oriented ring with shuffled ids.
    pub fn oriented_ring_inputs(n: usize, seed: u64) -> Vec<NodeInput> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(&mut rng);
        (0..n)
            .map(|v| {
                // cycle(n): node v's ports: for v ≥ 1, port 0 → v−1,
                // port 1 → v+1; node 0: port 0 → 1, port 1 → n−1.
                let oriented_away = if v == 0 { vec![true, false] } else { vec![false, true] };
                NodeInput { id: Some(ids[v]), color: None, oriented_away }
            })
            .collect()
    }

    #[test]
    fn cv_step_properties() {
        // distinct inputs give colors < 2·64 and chain-properness:
        {
            let (a, b, c) = (0b1010u64, 0b1000, 0b0110);
            let ab = cv_step(a, b);
            let bc = cv_step(b, c);
            assert_ne!(ab, bc, "consecutive new colors differ when chains differ");
        }
        assert_eq!(cv_step(0b1, 0b0), 1); // bit 0 differs, own bit 1
        assert_eq!(cv_step(0b10, 0b00), 3); // bit 1 differs, own bit 1
    }

    #[test]
    fn colors_rings_properly() {
        for &n in &[4usize, 7, 16, 33, 128] {
            let g = cycle(n);
            let inputs = oriented_ring_inputs(n, n as u64);
            let algo = ColeVishkin::for_n(n);
            let out = run(&g, &inputs, &algo, total_rounds(n));
            let p3 = coloring(3, 2).unwrap();
            // map color index → label index (identity: colors 0..2)
            assert!(is_valid(&p3, &g, &out), "n={n}: {out:?}");
        }
    }

    #[test]
    fn round_count_grows_like_log_star() {
        let r10 = total_rounds(10);
        let r_million = total_rounds(1 << 20);
        assert!(r_million <= r10 + 2, "log* growth: {r10} vs {r_million}");
        assert!(total_rounds(1 << 20) <= 10);
    }
}
