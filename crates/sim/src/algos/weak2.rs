//! Weak 2-coloring in O(log* n) rounds — the upper-bound companion of
//! Theorem 4, targeting the pointer version of weak 2-coloring (§4.6).
//!
//! Construction (provably correct on any graph of minimum degree ≥ 1):
//!
//! 1. **Pointer forest**: every node points to its largest-ID neighbor.
//! 2. **Cole–Vishkin** along pointers: a 6-coloring proper along pointer
//!    edges, in log* n + O(1) rounds.
//! 3. **Maximal matching of the pointer pseudoforest** in 6 propose/accept
//!    class rounds (color classes are independent along pointers, so
//!    proposals never collide with acceptances).
//! 4. **Bit assignment**: matched pairs 2-color by ID comparison (mutual,
//!    permanent witnesses); an unmatched node's pointer target is matched
//!    (maximality), so it outputs the opposite of its target's bit.
//!
//! Every node ends with a *witness port* (matching partner or pointer
//! target) whose endpoint provably carries the other color — exactly the
//! `→` pointer of the §4.6 problem encoding.
//!
//! Note on bounds: with IDs from `[n]` this is O(log* n) rounds. The
//! Naor–Stockmeyer O(log* Δ) upper bound additionally exploits
//! order-invariance at constant Δ; the matching Ω(log* Δ) lower bound is
//! the paper's Theorem 4 (see `roundelim-superweak`).

use crate::algos::cole_vishkin::{cv_step, phase1_rounds};
use crate::algos::NO_PORT;
use crate::runner::{Distributed, Inbox, NodeCtx};
use roundelim_core::label::Label;

/// Total rounds: 1 pointer round + phase-1 CV + 12 matching sub-rounds +
/// 1 bit round.
pub fn total_rounds(n: usize) -> usize {
    let bits = usize::BITS - n.leading_zeros();
    1 + phase1_rounds(bits.max(4)) + 12 + 1
}

/// The message a node broadcasts each round.
#[derive(Debug, Clone, Default)]
pub struct Msg {
    /// ID (round 0 and the matching sub-rounds) or current CV color (CV
    /// rounds).
    payload: u64,
    /// The port proposed on (propose sub-rounds) or accepted (accept
    /// sub-rounds), or [`NO_PORT`]. A receiver is addressed when
    /// it equals the receiver's [`Inbox::back_port`].
    port: u32,
    /// Final bit, 0/1, or 2 while unset (bit round).
    bit: u8,
}

/// The weak 2-coloring algorithm. Requires unique ids.
#[derive(Debug, Clone)]
pub struct WeakTwoColoring {
    phase1: usize,
}

impl WeakTwoColoring {
    /// Creates the algorithm for an instance with ids below `n`.
    pub fn for_n(n: usize) -> WeakTwoColoring {
        let bits = usize::BITS - n.leading_zeros();
        WeakTwoColoring { phase1: phase1_rounds(bits.max(4)) }
    }

    fn matching_start(&self) -> usize {
        1 + self.phase1
    }

    fn bit_round(&self) -> usize {
        self.matching_start() + 12
    }
}

/// Node state for [`WeakTwoColoring`]: 32 bytes, with nothing on the
/// heap. A node keeps no neighbour ids: the matching sub-rounds carry the
/// sender's id, so a node reads its partner's id when it matches.
#[derive(Debug, Clone)]
pub struct WeakState {
    id: u64,
    color: u64,
    pointer_port: u32,
    /// Matching partner port, or [`NO_PORT`] while unmatched.
    partner: u32,
    /// Accept target for the pending accept sub-round, or [`NO_PORT`].
    accepting: u32,
    /// Whether this node proposed in the pending sub-round.
    proposed: bool,
    /// Final output bit (0/1; 2 = unset).
    bit: u8,
}

impl Distributed for WeakTwoColoring {
    type Message = Msg;
    type State = WeakState;

    fn init(&self, ctx: &NodeCtx<'_>) -> WeakState {
        let id = ctx.input.id.expect("weak coloring needs unique ids");
        WeakState {
            id,
            color: id,
            pointer_port: 0,
            partner: NO_PORT,
            accepting: NO_PORT,
            proposed: false,
            bit: 2,
        }
    }

    fn send(&self, state: &WeakState, round: usize) -> Msg {
        let mut m = Msg::default();
        if round == 0 {
            m.payload = state.id;
        } else if round <= self.phase1 {
            m.payload = state.color;
        } else if round < self.bit_round() {
            m.payload = state.id;
            let sub = round - self.matching_start();
            let class = (sub / 2) as u64;
            m.port = if !sub.is_multiple_of(2) {
                // Accept sub-round.
                state.accepting
            } else if state.partner == NO_PORT && state.color == class {
                // Propose sub-round for color class `class`.
                state.pointer_port
            } else {
                NO_PORT
            };
        } else {
            m.bit = state.bit;
        }
        m
    }

    fn receive(&self, state: &mut WeakState, round: usize, inbox: Inbox<'_, Msg>) {
        if round == 0 {
            state.pointer_port = (0..inbox.degree() as u32)
                .max_by_key(|&p| inbox.msg(p as usize).payload)
                .expect("degree ≥ 1");
            return;
        }
        let pointer = state.pointer_port as usize;
        // Whether the neighbour at port `p` proposed to or accepted this
        // node.
        let addressed = |p: usize| inbox.msg(p).port == inbox.back_port(p);
        if round <= self.phase1 {
            let target = inbox.msg(pointer).payload;
            state.color = cv_step(state.color, target);
            return;
        }
        if round < self.bit_round() {
            let sub = round - self.matching_start();
            if sub.is_multiple_of(2) {
                // Saw proposals; decide acceptance (if still unmatched).
                // `accepting` is NO_PORT here: each accept sub-round resets it.
                let unmatched = state.partner == NO_PORT;
                state.proposed = unmatched && state.color == (sub / 2) as u64;
                if unmatched {
                    let found = (0..inbox.degree() as u32).find(|&p| addressed(p as usize));
                    state.accepting = found.unwrap_or(NO_PORT);
                    state.partner = state.accepting;
                }
            } else {
                // Learn acceptance of our proposal.
                if state.proposed && addressed(pointer) {
                    state.partner = state.pointer_port;
                }
                state.accepting = NO_PORT;
                state.proposed = false;
                // Matched nodes fix their bit as soon as matched, from the
                // id their partner sent this sub-round.
                if state.partner != NO_PORT && state.bit == 2 {
                    state.bit = u8::from(state.id > inbox.msg(state.partner as usize).payload);
                }
            }
            return;
        }
        // Bit round: unmatched nodes copy the opposite of their target.
        if state.bit == 2 {
            let tb = inbox.msg(pointer).bit;
            debug_assert!(tb < 2, "pointer target is matched by maximality");
            state.bit = 1 - tb;
        }
    }

    fn output(&self, state: &WeakState, out: &mut [Label]) {
        let c = state.bit as usize;
        debug_assert!(c < 2, "bit assigned by the final round");
        // Witness: matching partner if matched, else the pointer target.
        let witness = if state.partner == NO_PORT { state.pointer_port } else { state.partner };
        // weak_coloring_pointer(2, Δ) interns [1→, 1•, 2→, 2•]:
        out.fill(Label::from_index(2 * c + 1));
        out[witness as usize] = Label::from_index(2 * c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::is_valid;
    use crate::generate::{complete, cycle, random_regular};
    use crate::runner::{run, NodeInput};

    fn shuffled_id_inputs(n: usize, seed: u64) -> Vec<NodeInput> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(&mut rng);
        (0..n).map(|v| NodeInput { id: Some(ids[v]), ..NodeInput::default() }).collect()
    }

    #[test]
    fn weak_two_coloring_on_odd_regular_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for &(n, d) in &[(8usize, 3usize), (16, 5), (20, 3), (24, 7)] {
            let g = random_regular(n, d, 20000, &mut rng).unwrap();
            let p = roundelim_problems::weak::weak_coloring_pointer(2, d).unwrap();
            for seed in 0..3 {
                let algo = WeakTwoColoring::for_n(n);
                let out = run(&g, &shuffled_id_inputs(n, seed), &algo, total_rounds(n));
                assert!(is_valid(&p, &g, &out), "n={n}, d={d}, seed={seed}");
            }
        }
    }

    #[test]
    fn works_on_even_degree_and_rings_too() {
        // Correctness (unlike the Δ-independent *bound*) needs no odd
        // degrees.
        let g = complete(4);
        let p = roundelim_problems::weak::weak_coloring_pointer(2, 3).unwrap();
        let algo = WeakTwoColoring::for_n(4);
        let out = run(&g, &shuffled_id_inputs(4, 7), &algo, total_rounds(4));
        assert!(is_valid(&p, &g, &out));

        let g = cycle(10);
        let p = roundelim_problems::weak::weak_coloring_pointer(2, 2).unwrap();
        let algo = WeakTwoColoring::for_n(10);
        let out = run(&g, &shuffled_id_inputs(10, 8), &algo, total_rounds(10));
        assert!(is_valid(&p, &g, &out));
    }

    #[test]
    fn state_and_message_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<WeakState>(), 32);
        assert_eq!(std::mem::size_of::<Msg>(), 16);
    }

    #[test]
    fn round_count_is_log_star() {
        assert!(total_rounds(1 << 20) <= total_rounds(16) + 3);
    }
}
