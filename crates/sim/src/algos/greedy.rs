//! Greedy ID-based algorithms: maximal independent set and maximal
//! matching — the problems of the Balliu et al. follow-up lower bounds,
//! here as simple correct upper-bound companions.
//!
//! Both proceed in phases driven by local ID minima, so the worst-case
//! round count is O(n); they exist to *validate the problem encodings*
//! (every output is checked against `roundelim-problems`'s constraints),
//! not to be round-optimal.

use super::NO_PORT;
use crate::runner::{Distributed, Inbox, NodeCtx};
use roundelim_core::label::Label;

/// Node status during the greedy MIS computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MisStatus {
    Undecided,
    InMis,
    Covered,
}

/// Greedy MIS: an undecided node joins the MIS when its ID is smaller
/// than all undecided neighbors'; neighbors of MIS nodes become covered.
///
/// Output targets `roundelim_problems::mis::mis(Δ)`:
/// label indices `[A, P, O] = [0, 1, 2]` — `A` on every port of an MIS
/// node, `P` on a covered node's pointer to one MIS neighbor, `O`
/// elsewhere.
#[derive(Debug, Clone, Default)]
pub struct GreedyMis;

/// State for [`GreedyMis`].
#[derive(Debug, Clone)]
pub struct MisState {
    id: u64,
    status: MisStatus,
    /// Port of an MIS neighbor (witness), once covered.
    witness: Option<usize>,
}

/// Message: `(id, status_code)` with 0 = undecided, 1 = in MIS, 2 = covered.
pub type MisMsg = (u64, u8);

/// Rounds sufficient for [`GreedyMis`] on any n-node graph.
pub fn mis_rounds(n: usize) -> usize {
    n + 1
}

impl Distributed for GreedyMis {
    type Message = MisMsg;
    type State = MisState;

    fn init(&self, ctx: &NodeCtx<'_>) -> MisState {
        MisState {
            id: ctx.input.id.expect("GreedyMis needs unique ids"),
            status: MisStatus::Undecided,
            witness: None,
        }
    }

    fn send(&self, state: &MisState, _round: usize) -> MisMsg {
        let code = match state.status {
            MisStatus::Undecided => 0,
            MisStatus::InMis => 1,
            MisStatus::Covered => 2,
        };
        (state.id, code)
    }

    fn receive(&self, state: &mut MisState, _round: usize, inbox: Inbox<'_, MisMsg>) {
        let mis_port = || (0..inbox.degree()).find(|&p| inbox.msg(p).1 == 1);
        match state.status {
            MisStatus::InMis | MisStatus::Covered => {
                if state.status == MisStatus::Covered && state.witness.is_none() {
                    state.witness = mis_port();
                }
            }
            MisStatus::Undecided => {
                // Covered by an MIS neighbor?
                if let Some(p) = mis_port() {
                    state.status = MisStatus::Covered;
                    state.witness = Some(p);
                    return;
                }
                // Local minimum among undecided neighbors joins.
                let is_min = (0..inbox.degree())
                    .map(|p| inbox.msg(p))
                    .filter(|&&(_, c)| c == 0)
                    .all(|&(nid, _)| state.id < nid);
                if is_min {
                    state.status = MisStatus::InMis;
                }
            }
        }
    }

    fn output(&self, state: &MisState, out: &mut [Label]) {
        let a = Label::from_index(0);
        let p = Label::from_index(1);
        let o = Label::from_index(2);
        match state.status {
            MisStatus::InMis => out.fill(a),
            MisStatus::Covered => {
                let w = state.witness.expect("covered nodes saw an MIS neighbor");
                out.fill(o);
                out[w] = p;
            }
            // With mis_rounds(n) rounds this cannot happen; emit O's so
            // the checker reports it loudly rather than panicking.
            MisStatus::Undecided => out.fill(o),
        }
    }

    fn done(&self, state: &MisState) -> bool {
        // A decided node's output is final: covered nodes record their
        // witness at the transition, and the frozen status is all a done
        // node sends, which still covers its undecided neighbours. With
        // random IDs the phases retire nodes geometrically, so
        // `run_adaptive` finishes in O(log n) expected rounds instead of
        // the worst-case mis_rounds(n).
        state.status != MisStatus::Undecided
    }
}

/// Greedy maximal matching: an unmatched node proposes to its
/// smallest-ID unmatched neighbor; mutual proposals match.
///
/// A node keeps no neighbour ids: every round's messages carry them, so
/// it recomputes its proposal from the messages it receives. It knows its
/// matched neighbours by a `u64` port mask, so it supports degree ≤ 64;
/// `init` panics above that.
///
/// Output targets `roundelim_problems::matching::maximal_matching(Δ)`:
/// label indices `[M, O, P] = [0, 1, 2]` — matched nodes put `M` on the
/// matching port and `O` elsewhere; unmatched nodes (all neighbors
/// matched, by maximality) put `P` everywhere.
#[derive(Debug, Clone, Default)]
pub struct GreedyMatching;

/// State for [`GreedyMatching`]: 24 bytes, with nothing on the heap.
#[derive(Debug, Clone)]
pub struct MatchState {
    id: u64,
    /// Bit `p` is set once port `p`'s neighbor is known to be matched (to
    /// someone other than this node); the bits at and above the degree
    /// are set from the start.
    neighbor_matched: u64,
    /// The matched port, or [`NO_PORT`].
    matched_port: u32,
    /// [`proposal_port`], cached: computed from the round-0 messages and
    /// recomputed from a later round's when the target becomes
    /// known-matched. [`NO_PORT`] before round 0's receive.
    proposal: u32,
}

/// Message: `(id, proposal port or NO_PORT, i_am_matched)`. A receiver
/// is proposed to when the port equals its [`Inbox::back_port`].
pub type MatchMsg = (u64, u32, bool);

/// Rounds sufficient for [`GreedyMatching`] on any n-node graph.
pub fn matching_rounds(n: usize) -> usize {
    2 * n + 2
}

impl Distributed for GreedyMatching {
    type Message = MatchMsg;
    type State = MatchState;

    fn init(&self, ctx: &NodeCtx<'_>) -> MatchState {
        let degree = ctx.degree;
        assert!(degree <= 64, "GreedyMatching's port mask supports degree ≤ 64, got {degree}");
        MatchState {
            id: ctx.input.id.expect("GreedyMatching needs unique ids"),
            neighbor_matched: u64::MAX.checked_shl(degree as u32).unwrap_or(0),
            matched_port: NO_PORT,
            proposal: NO_PORT,
        }
    }

    fn send(&self, state: &MatchState, _round: usize) -> MatchMsg {
        let matched = state.matched_port != NO_PORT;
        (state.id, if matched { NO_PORT } else { state.proposal }, matched)
    }

    fn receive(&self, state: &mut MatchState, round: usize, inbox: Inbox<'_, MatchMsg>) {
        if round > 0 {
            let fresh = || proposal_port(state.neighbor_matched, inbox);
            debug_assert_eq!(state.proposal, fresh(), "stale proposal port");
        }
        // Evaluate mutuality against the proposal we actually *sent* this
        // round, i.e. with the pre-update knowledge `send` used. Round 0
        // carries no proposals: none is known before the ids arrive.
        // Mutual proposal ⇒ matched.
        let target = state.proposal as usize;
        if state.matched_port == NO_PORT
            && state.proposal != NO_PORT
            && inbox.msg(target).1 == inbox.back_port(target)
        {
            state.matched_port = state.proposal;
        }
        for p in 0..inbox.degree() {
            if inbox.msg(p).2 && state.matched_port != p as u32 {
                state.neighbor_matched |= 1 << p;
            }
        }
        // Round 0's ids give the first proposal. Marking a port other than
        // the proposal's leaves the minimum where it was; only a
        // known-matched proposal target moves it.
        if state.proposal == NO_PORT || (state.neighbor_matched >> state.proposal) & 1 == 1 {
            state.proposal = proposal_port(state.neighbor_matched, inbox);
        }
    }

    fn output(&self, state: &MatchState, out: &mut [Label]) {
        let m = Label::from_index(0);
        let o = Label::from_index(1);
        let p = Label::from_index(2);
        if state.matched_port == NO_PORT {
            out.fill(p);
        } else {
            out.fill(o);
            out[state.matched_port as usize] = m;
        }
    }

    fn done(&self, state: &MatchState) -> bool {
        // Matched nodes are final; an unmatched node is final once every
        // neighbor is known-matched (its all-P output is then maximal).
        // A newly matched node's state is frozen with its matched flag
        // set, and it keeps sending that flag, which its unmatched
        // neighbors need to retarget their proposals. When *all* nodes
        // satisfy this the matching is maximal, so `run_adaptive` may
        // stop.
        state.matched_port != NO_PORT || state.neighbor_matched == u64::MAX
    }
}

/// The port an unmatched node proposes on: its smallest-ID neighbor not
/// known to be matched, with the ids read from a round's `inbox`, or
/// [`NO_PORT`] when every neighbor is.
fn proposal_port(neighbor_matched: u64, inbox: Inbox<'_, MatchMsg>) -> u32 {
    (0..inbox.degree() as u32)
        .filter(|&q| (neighbor_matched >> q) & 1 == 0)
        .min_by_key(|&q| inbox.msg(q as usize).0)
        .unwrap_or(NO_PORT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::is_valid;
    use crate::generate::{complete, cycle, random_regular};
    use crate::runner::{id_inputs, run};
    use roundelim_problems::matching::maximal_matching;
    use roundelim_problems::mis::mis;

    #[test]
    fn greedy_mis_valid_on_regular_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for &(n, d) in &[(10usize, 3usize), (16, 5), (12, 4)] {
            let g = random_regular(n, d, 20000, &mut rng).unwrap();
            let out = run(&g, &id_inputs(&g), &GreedyMis, mis_rounds(n));
            let p = mis(d).unwrap();
            assert!(is_valid(&p, &g, &out), "n={n}, d={d}");
        }
    }

    #[test]
    fn greedy_mis_on_complete_graph_is_single_node() {
        let g = complete(5);
        let out = run(&g, &id_inputs(&g), &GreedyMis, mis_rounds(5));
        let in_mis =
            out.iter().filter(|labels| labels.iter().all(|&l| l == Label::from_index(0))).count();
        assert_eq!(in_mis, 1);
    }

    #[test]
    fn greedy_matching_valid_on_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for &(n, d) in &[(10usize, 3usize), (16, 5), (14, 4)] {
            let g = random_regular(n, d, 20000, &mut rng).unwrap();
            let out = run(&g, &id_inputs(&g), &GreedyMatching, matching_rounds(n));
            let p = maximal_matching(d).unwrap();
            assert!(is_valid(&p, &g, &out), "n={n}, d={d}");
        }
    }

    #[test]
    fn match_state_stays_at_24_bytes() {
        assert_eq!(std::mem::size_of::<MatchState>(), 24);
    }

    #[test]
    fn match_msg_stays_at_16_bytes() {
        assert_eq!(std::mem::size_of::<MatchMsg>(), 16);
    }

    #[test]
    #[should_panic(expected = "GreedyMatching's port mask supports degree ≤ 64, got 65")]
    fn matching_rejects_degrees_above_the_mask_width() {
        let g = complete(66);
        let _ = run(&g, &id_inputs(&g), &GreedyMatching, 1);
    }

    #[test]
    fn greedy_matching_on_even_cycle_matches_everyone_or_validates() {
        let g = cycle(8);
        let out = run(&g, &id_inputs(&g), &GreedyMatching, matching_rounds(8));
        let p = maximal_matching(2).unwrap();
        assert!(is_valid(&p, &g, &out));
    }

    #[test]
    fn adaptive_runs_converge_to_valid_outputs() {
        use crate::runner::run_adaptive;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 64;
        let g = random_regular(n, 3, 20000, &mut rng).unwrap();
        let (out, rounds) = run_adaptive(&g, &id_inputs(&g), &GreedyMis, mis_rounds(n));
        assert!(rounds <= mis_rounds(n));
        assert!(is_valid(&mis(3).unwrap(), &g, &out.clone().into_rows(&g)));
        let (out, rounds) = run_adaptive(&g, &id_inputs(&g), &GreedyMatching, matching_rounds(n));
        assert!(rounds <= matching_rounds(n));
        assert!(is_valid(&maximal_matching(3).unwrap(), &g, &out.into_rows(&g)));
    }
}
