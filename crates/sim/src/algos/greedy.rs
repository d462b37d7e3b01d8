//! Greedy ID-based algorithms: maximal independent set and maximal
//! matching — the problems of the Balliu et al. follow-up lower bounds,
//! here as simple correct upper-bound companions.
//!
//! Both proceed in phases driven by local ID minima, so the worst-case
//! round count is O(n); they exist to *validate the problem encodings*
//! (every output is checked against `roundelim-problems`'s constraints),
//! not to be round-optimal.

use crate::runner::{Distributed, NodeCtx};
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
    degree: usize,
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
            degree: ctx.degree,
        }
    }

    fn send(&self, state: &MisState, _round: usize, _port: usize) -> MisMsg {
        let code = match state.status {
            MisStatus::Undecided => 0,
            MisStatus::InMis => 1,
            MisStatus::Covered => 2,
        };
        (state.id, code)
    }

    fn receive(&self, state: &mut MisState, _round: usize, messages: &[MisMsg]) {
        match state.status {
            MisStatus::InMis | MisStatus::Covered => {
                if state.status == MisStatus::Covered && state.witness.is_none() {
                    state.witness = messages.iter().position(|&(_, c)| c == 1);
                }
            }
            MisStatus::Undecided => {
                // Covered by an MIS neighbor?
                if let Some(p) = messages.iter().position(|&(_, c)| c == 1) {
                    state.status = MisStatus::Covered;
                    state.witness = Some(p);
                    return;
                }
                // Local minimum among undecided neighbors joins.
                let is_min =
                    messages.iter().filter(|&&(_, c)| c == 0).all(|&(nid, _)| state.id < nid);
                if is_min {
                    state.status = MisStatus::InMis;
                }
            }
        }
    }

    fn output(&self, state: &MisState) -> Vec<Label> {
        let a = Label::from_index(0);
        let p = Label::from_index(1);
        let o = Label::from_index(2);
        match state.status {
            MisStatus::InMis => vec![a; state.degree],
            MisStatus::Covered => {
                let w = state.witness.expect("covered nodes saw an MIS neighbor");
                (0..state.degree).map(|q| if q == w { p } else { o }).collect()
            }
            MisStatus::Undecided => {
                // With mis_rounds(n) rounds this cannot happen; emit O's so
                // the checker reports it loudly rather than panicking.
                vec![o; state.degree]
            }
        }
    }

    fn done(&self, state: &MisState) -> bool {
        // A decided node's output is final; covered nodes record their
        // witness at the transition. With random IDs the phases retire
        // nodes geometrically, so `run_adaptive` finishes in O(log n)
        // expected rounds instead of the worst-case mis_rounds(n).
        state.status != MisStatus::Undecided
    }
}

/// Greedy maximal matching: an unmatched node proposes to its
/// smallest-ID unmatched neighbor; mutual proposals match.
///
/// Output targets `roundelim_problems::matching::maximal_matching(Δ)`:
/// label indices `[M, O, P] = [0, 1, 2]` — matched nodes put `M` on the
/// matching port and `O` elsewhere; unmatched nodes (all neighbors
/// matched, by maximality) put `P` everywhere.
#[derive(Debug, Clone, Default)]
pub struct GreedyMatching;

/// State for [`GreedyMatching`]. Ports and the degree are `u32` so the
/// state stays at 80 bytes with the cached proposal.
#[derive(Debug, Clone)]
pub struct MatchState {
    id: u64,
    neighbor_ids: Vec<u64>,
    matched_port: Option<u32>,
    /// Ports whose neighbor is known to be matched (to someone).
    neighbor_matched: Vec<bool>,
    /// [`GreedyMatching::proposal_port`], cached: set once the neighbor
    /// ids arrive and kept current as neighbors become known-matched.
    proposal: Option<u32>,
    degree: u32,
}

/// Message: `(id, proposes_on_this_port, i_am_matched)`.
pub type MatchMsg = (u64, bool, bool);

/// Rounds sufficient for [`GreedyMatching`] on any n-node graph.
pub fn matching_rounds(n: usize) -> usize {
    2 * n + 2
}

impl Distributed for GreedyMatching {
    type Message = MatchMsg;
    type State = MatchState;

    fn init(&self, ctx: &NodeCtx<'_>) -> MatchState {
        MatchState {
            id: ctx.input.id.expect("GreedyMatching needs unique ids"),
            neighbor_ids: Vec::new(),
            matched_port: None,
            neighbor_matched: vec![false; ctx.degree],
            proposal: None,
            degree: ctx.degree as u32,
        }
    }

    fn send(&self, state: &MatchState, round: usize, port: usize) -> MatchMsg {
        if round == 0 {
            return (state.id, false, false);
        }
        let proposes = state.matched_port.is_none() && state.proposal == Some(port as u32);
        (state.id, proposes, state.matched_port.is_some())
    }

    fn receive(&self, state: &mut MatchState, round: usize, messages: &[MatchMsg]) {
        if round == 0 {
            state.neighbor_ids = messages.iter().map(|&(id, _, _)| id).collect();
            state.proposal = self.proposal_port(state);
            return;
        }
        debug_assert_eq!(state.proposal, self.proposal_port(state), "stale proposal port");
        // Evaluate mutuality against the proposal we actually *sent* this
        // round, i.e. with the pre-update knowledge `send` used.
        if state.matched_port.is_none() {
            if let Some(my_target) = state.proposal {
                // Mutual proposal ⇒ matched.
                if messages[my_target as usize].1 {
                    state.matched_port = Some(my_target);
                }
            }
        }
        for (p, &(_, _, matched)) in messages.iter().enumerate() {
            if matched && state.matched_port != Some(p as u32) {
                state.neighbor_matched[p] = true;
            }
        }
        // Marking a port other than the proposal's leaves the minimum
        // where it was; only a known-matched proposal target moves it.
        if state.proposal.is_some_and(|q| state.neighbor_matched[q as usize]) {
            state.proposal = self.proposal_port(state);
        }
    }

    fn output(&self, state: &MatchState) -> Vec<Label> {
        let m = Label::from_index(0);
        let o = Label::from_index(1);
        let p = Label::from_index(2);
        let degree = state.degree as usize;
        match state.matched_port {
            Some(mp) => (0..degree).map(|q| if q == mp as usize { m } else { o }).collect(),
            None => vec![p; degree],
        }
    }

    fn done(&self, state: &MatchState) -> bool {
        // Matched nodes are final; an unmatched node is final once every
        // neighbor is known-matched (its all-P output is then maximal).
        // When *all* nodes satisfy this the matching is maximal, so
        // `run_adaptive` may stop.
        state.matched_port.is_some() || state.neighbor_matched.iter().all(|&b| b)
    }
}

impl GreedyMatching {
    /// The port an unmatched node proposes on: its smallest-ID neighbor
    /// not known to be matched.
    fn proposal_port(&self, state: &MatchState) -> Option<u32> {
        (0..state.degree)
            .filter(|&q| !state.neighbor_matched[q as usize])
            .min_by_key(|&q| state.neighbor_ids[q as usize])
    }
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
    #[cfg(target_pointer_width = "64")]
    fn match_state_stays_at_80_bytes() {
        assert_eq!(std::mem::size_of::<MatchState>(), 80);
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
