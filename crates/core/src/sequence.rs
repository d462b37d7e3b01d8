//! Iterated speedup: problem sequences and bound certificates (§2.1).
//!
//! The roadmap of the paper: starting from Π, apply [`crate::speedup::full_step`]
//! repeatedly, obtaining Π₁, Π₂, … with complexities T−1, T−2, …; stop when
//! a problem is 0-round solvable (then T = number of steps, on high-girth
//! t-independent classes) or when the sequence revisits a problem up to
//! isomorphism (then no step ever becomes 0-round solvable, so T exceeds
//! every t for which suitable graph classes exist — e.g. Ω(log n) for
//! sinkless orientation).

use crate::error::Result;
use crate::iso::{fingerprint_and_ranks, isomorphism_ranked};
use crate::packed::PackedProblem;
use crate::problem::Problem;
use crate::speedup::full_step;
use crate::zero_round::{zero_round_oriented, zero_round_pn};
use std::collections::HashMap;

/// A problems-seen-so-far index for fixed-point detection: the recorded
/// problems in [`crate::iso::fingerprint`] buckets, each kept packed with
/// its label ranks. One refinement and one hash probe per step replace a
/// pairwise isomorphism scan over the whole history; a bucket member is
/// checked with [`isomorphism_ranked`], which does not refine it again.
/// This is the bound search's interning path (`roundelim-auto`'s cache) in
/// miniature.
#[derive(Default)]
struct SeenIndex {
    buckets: HashMap<u64, Vec<Seen>>,
}

/// A recorded problem: its step, its rows and its label ranks.
type Seen = (usize, PackedProblem, Box<[u16]>);

impl SeenIndex {
    /// If a problem isomorphic to `p` was recorded, returns its step;
    /// otherwise records `p` under `step`.
    fn find_or_insert(&mut self, p: &PackedProblem, step: usize) -> Option<usize> {
        let (fp, ranks) = fingerprint_and_ranks(p);
        let bucket = self.buckets.entry(fp).or_default();
        let hit = bucket
            .iter()
            .find(|(_, q, rq)| isomorphism_ranked(q, rq, p, &ranks).is_some())
            .map(|&(i, ..)| i);
        if hit.is_none() {
            bucket.push((step, p.clone(), ranks));
        }
        hit
    }
}

/// Which 0-round decider terminates the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ZeroRoundModel {
    /// Plain port numbering, no inputs: [`zero_round_pn`].
    PlainPn,
    /// Port numbering with input edge orientations (the regime required by
    /// the Theorem-2 maximality step): [`zero_round_oriented`].
    #[default]
    Oriented,
}

/// Why the iteration stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// `problems[index]` is 0-round solvable (and earlier ones are not).
    ZeroRound {
        /// Index into [`SpeedupSequence::problems`].
        index: usize,
    },
    /// `problems[index]` is isomorphic to the earlier `problems[earlier]`;
    /// the sequence is periodic with period `index - earlier` and never
    /// reaches a 0-round-solvable problem.
    FixedPoint {
        /// Index of the repeated problem.
        index: usize,
        /// Index of its earlier isomorphic occurrence.
        earlier: usize,
    },
    /// The step limit was exhausted with no verdict.
    LimitReached,
}

/// A speedup sequence Π = Π₀, Π₁, … together with the stopping verdict.
#[derive(Debug, Clone)]
pub struct SpeedupSequence {
    /// The derived problems, starting with the input problem.
    pub problems: Vec<Problem>,
    /// Why iteration stopped.
    pub stop: StopReason,
    /// The 0-round model used for the verdict.
    pub model: ZeroRoundModel,
}

impl SpeedupSequence {
    /// The lower bound this sequence certifies for the *input* problem, in
    /// rounds, on t-independent graph classes of sufficient girth:
    ///
    /// * `ZeroRound { index }` certifies complexity exactly `index` in that
    ///   setting (lower bound `index` in general);
    /// * `FixedPoint { .. }` certifies that no finite speedup count reaches
    ///   a 0-round problem: the complexity exceeds every `t` for which a
    ///   t-independent girth-(2t+2) class exists — reported as `None`
    ///   ("unbounded in this framework");
    /// * `LimitReached` certifies at least `problems.len() - 1` steps were
    ///   non-0-round-solvable, hence a lower bound of `problems.len() - 1`.
    pub fn certified_lower_bound(&self) -> Option<usize> {
        match self.stop {
            StopReason::ZeroRound { index } => Some(index),
            StopReason::FixedPoint { .. } => None,
            StopReason::LimitReached => Some(self.problems.len() - 1),
        }
    }

    /// Number of speedup steps performed.
    pub fn steps(&self) -> usize {
        self.problems.len() - 1
    }
}

fn is_zero_round(p: &Problem, model: ZeroRoundModel) -> bool {
    match model {
        ZeroRoundModel::PlainPn => zero_round_pn(p.packed()).is_some(),
        ZeroRoundModel::Oriented => zero_round_oriented(p.packed()).is_some(),
    }
}

/// Iterates the full simplified speedup from `p`, stopping on a 0-round
/// solvable problem, a fixed point (up to isomorphism), or after
/// `max_steps` steps. Uses the [`ZeroRoundModel::Oriented`] decider. The
/// sequence functions step on the caller's thread.
///
/// # Errors
///
/// Propagates speedup errors (e.g. alphabet overflow).
pub fn iterate(p: &Problem, max_steps: usize) -> Result<SpeedupSequence> {
    iterate_with(p, max_steps, ZeroRoundModel::Oriented)
}

/// [`iterate`] with an explicit 0-round model.
///
/// # Errors
///
/// Propagates speedup errors (e.g. alphabet overflow).
fn iterate_with(p: &Problem, max_steps: usize, model: ZeroRoundModel) -> Result<SpeedupSequence> {
    let mut problems = vec![p.clone()];
    if is_zero_round(p, model) {
        return Ok(SpeedupSequence { problems, stop: StopReason::ZeroRound { index: 0 }, model });
    }
    let mut seen = SeenIndex::default();
    seen.find_or_insert(p.packed(), 0);
    for step in 1..=max_steps {
        let next = full_step(problems.last().expect("nonempty"), 1)?.problem().clone();
        // Zero-round check first: a 0-round problem may also be periodic.
        if is_zero_round(&next, model) {
            problems.push(next);
            return Ok(SpeedupSequence {
                problems,
                stop: StopReason::ZeroRound { index: step },
                model,
            });
        }
        // Fixed-point check against all earlier problems, one probe per step.
        if let Some(earlier) = seen.find_or_insert(next.packed(), step) {
            problems.push(next);
            return Ok(SpeedupSequence {
                problems,
                stop: StopReason::FixedPoint { index: step, earlier },
                model,
            });
        }
        problems.push(next);
    }
    Ok(SpeedupSequence { problems, stop: StopReason::LimitReached, model })
}

/// One entry of a relax-then-speedup run.
#[derive(Debug, Clone)]
pub struct RelaxedEntry {
    /// The problem in play at this step (a derived problem or a template
    /// it was relaxed to).
    pub problem: Problem,
    /// Index into the template list, if this entry came from a relaxation.
    pub template: Option<usize>,
}

/// A relax-then-speedup run (§2.1's alternation, automated over a
/// candidate template list).
#[derive(Debug, Clone)]
pub struct RelaxedSequence {
    /// The visited problems.
    pub entries: Vec<RelaxedEntry>,
    /// The stopping verdict (same semantics as [`SpeedupSequence`]).
    pub stop: StopReason,
}

impl RelaxedSequence {
    /// Steps performed (each is one round of certified lower bound, as in
    /// [`SpeedupSequence::certified_lower_bound`] — relaxations are free).
    pub fn certified_lower_bound(&self) -> Option<usize> {
        match self.stop {
            StopReason::ZeroRound { index } => Some(index),
            StopReason::FixedPoint { .. } => None,
            StopReason::LimitReached => Some(self.entries.len() - 1),
        }
    }
}

/// §2.1's alternation, automated: after every speedup step, try to relax
/// the derived problem to one of the supplied *templates* (simpler,
/// provably-not-harder problems) and continue from the template instead.
/// Relaxing keeps the lower bound sound and tames the description
/// explosion — exactly how the paper's weak-2-coloring proof proceeds
/// (relax to superweak k-coloring after every step).
///
/// Stops on a 0-round problem, on revisiting a template or problem (up to
/// isomorphism), or at the step limit.
///
/// # Errors
///
/// Propagates speedup errors (e.g. alphabet overflow when no template
/// catches the growth).
pub fn iterate_relaxed(
    p: &Problem,
    templates: &[Problem],
    max_steps: usize,
    model: ZeroRoundModel,
) -> Result<RelaxedSequence> {
    let mut entries = vec![RelaxedEntry { problem: p.clone(), template: None }];
    if is_zero_round(p, model) {
        return Ok(RelaxedSequence { entries, stop: StopReason::ZeroRound { index: 0 } });
    }
    // Same fingerprint-bucketed fixed-point index as `iterate_with`.
    let mut seen = SeenIndex::default();
    seen.find_or_insert(p.packed(), 0);
    for step in 1..=max_steps {
        let current = entries.last().expect("nonempty").problem.clone();
        let derived = full_step(&current, 1)?.problem().clone();
        // Try templates in order; fall back to the raw derived problem.
        let (next, template) = templates
            .iter()
            .enumerate()
            .find(|(_, t)| crate::relax::is_relaxation_of(&derived, t))
            .map(|(ix, t)| (t.clone(), Some(ix)))
            .unwrap_or((derived, None));
        if is_zero_round(&next, model) {
            entries.push(RelaxedEntry { problem: next, template });
            return Ok(RelaxedSequence { entries, stop: StopReason::ZeroRound { index: step } });
        }
        if let Some(earlier) = seen.find_or_insert(next.packed(), step) {
            entries.push(RelaxedEntry { problem: next, template });
            return Ok(RelaxedSequence {
                entries,
                stop: StopReason::FixedPoint { index: step, earlier },
            });
        }
        entries.push(RelaxedEntry { problem: next, template });
    }
    Ok(RelaxedSequence { entries, stop: StopReason::LimitReached })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinkless_coloring_loops_forever() {
        // §4.4: the sequence is periodic with period 1 after compression
        // (Π₁ ≅ Π), certifying the Ω(log n) bound of [9].
        let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let seq = iterate(&sc, 6).unwrap();
        match seq.stop {
            StopReason::FixedPoint { index, earlier } => {
                assert!(index > earlier);
                assert!(index - earlier <= 2, "period should be at most 2");
            }
            ref other => panic!("expected fixed point, got {other:?}"),
        }
        assert_eq!(seq.certified_lower_bound(), None);
    }

    #[test]
    fn trivial_problem_stops_immediately() {
        let t = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
        let seq = iterate(&t, 3).unwrap();
        assert_eq!(seq.stop, StopReason::ZeroRound { index: 0 });
        assert_eq!(seq.certified_lower_bound(), Some(0));
    }

    #[test]
    fn limit_reached_reports_partial_bound() {
        let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let seq = iterate_with(&sc, 0, ZeroRoundModel::Oriented).unwrap();
        assert_eq!(seq.stop, StopReason::LimitReached);
        assert_eq!(seq.certified_lower_bound(), Some(0));
    }

    #[test]
    fn plain_pn_model_selectable() {
        let t = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
        let seq = iterate_with(&t, 1, ZeroRoundModel::PlainPn).unwrap();
        assert_eq!(seq.stop, StopReason::ZeroRound { index: 0 });
    }

    #[test]
    fn relaxed_iteration_catches_the_fixed_point_via_template() {
        // With sinkless coloring itself as the template, the derived
        // problem relaxes to it after every step and the loop is detected
        // at the template level.
        let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let seq =
            iterate_relaxed(&sc, std::slice::from_ref(&sc), 5, ZeroRoundModel::Oriented).unwrap();
        assert!(matches!(seq.stop, StopReason::FixedPoint { .. }), "{:?}", seq.stop);
        // The relaxation was actually used.
        assert!(seq.entries.iter().any(|e| e.template == Some(0)));
        assert_eq!(seq.certified_lower_bound(), None);
    }

    #[test]
    fn relaxed_iteration_without_matching_template_behaves_like_plain() {
        let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        // A template the derived problems never relax to (2-coloring-ish).
        let odd = Problem::parse("name: odd\nnode: A A B\nedge: A B").unwrap();
        let seq = iterate_relaxed(&sc, &[odd], 4, ZeroRoundModel::Oriented).unwrap();
        assert!(seq.entries.iter().skip(1).all(|e| e.template.is_none()));
        assert!(matches!(seq.stop, StopReason::FixedPoint { .. }));
    }

    #[test]
    fn relaxed_iteration_zero_round_at_start() {
        let t = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
        let seq = iterate_relaxed(&t, &[], 3, ZeroRoundModel::PlainPn).unwrap();
        assert_eq!(seq.certified_lower_bound(), Some(0));
    }
}
