//! The speedup steps Π → Π_{1/2} → Π₁ (Theorem 1 + Theorem 2).
//!
//! A *full step* applies two dual half-steps:
//!
//! 1. [`half_step_edge`] (Π → Π'_{1/2}): the **edge** constraint is
//!    transformed universally-with-maximality (Properties 1+5), the **node**
//!    constraint existentially (Property 2). New labels denote sets of old
//!    labels; intuitively, an algorithm that only sees the radius-t
//!    neighborhood of an *edge* outputs the set of labels the original
//!    algorithm could output over all extensions towards the node.
//! 2. [`half_step_node`] (Π_{1/2} → Π'₁): dual — the **node** constraint is
//!    transformed universally-with-maximality (Properties 4+6), the **edge**
//!    constraint existentially (Property 3). [`complete_step`] runs it on a
//!    computed Π'_{1/2} and compresses, so a caller can inspect the half
//!    before paying for the rest.
//!
//! By Theorems 1 and 2, on t-independent graph classes of girth ≥ 2t+2
//! (with input edge orientations for the maximality step), Π is solvable in
//! t rounds iff Π'₁ is solvable in t−1 rounds.
//!
//! [`full_step_unsimplified`] implements the plain Theorem-1 transform
//! (all subsets, no maximality) for small instances; tests verify it is
//! equivalent to the simplified transform in the sense of Theorem 2
//! (mutual 0-round relaxations).

use crate::constraint::Constraint;
use crate::error::{Error, Result};
use crate::label::{Alphabet, NameGen};
use crate::labelset::LabelSet;
use crate::problem::Problem;
use crate::speedup::existential::existential_constraint;
use crate::speedup::universal::{all_good_lines_bruteforce, maximal_good_lines, Line};

/// Which side of the problem the universal transform acted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The edge constraint was transformed universally (Π → Π_{1/2}).
    Edge,
    /// The node constraint was transformed universally (Π_{1/2} → Π₁).
    Node,
}

/// Result of a half-step: the derived problem plus label provenance.
#[derive(Debug, Clone)]
pub struct HalfStep {
    /// The derived problem.
    pub problem: Problem,
    /// For each new label (by index), the set of *old* labels it denotes.
    pub meanings: Vec<LabelSet>,
    /// Which side was transformed universally.
    pub side: Side,
}

/// Result of a full step Π → Π'₁.
#[derive(Debug, Clone)]
pub struct FullStep {
    /// Π'_{1/2} with provenance relative to Π.
    pub half: HalfStep,
    /// Π'₁ with provenance relative to Π'_{1/2}.
    pub full: HalfStep,
}

impl FullStep {
    /// The derived problem Π'₁.
    pub fn problem(&self) -> &Problem {
        &self.full.problem
    }

    /// The meaning of a Π'₁ label as a set of sets of Π labels.
    pub fn meaning_in_base(&self, new_label: crate::label::Label) -> Vec<LabelSet> {
        self.full.meanings[new_label.index()]
            .iter()
            .map(|mid| self.half.meanings[mid.index()])
            .collect()
    }
}

fn set_name(alphabet: &Alphabet, set: &LabelSet) -> String {
    let mut s = String::from("⟨");
    for (i, l) in set.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(alphabet.name(l));
    }
    s.push('⟩');
    s
}

/// Builds the derived problem from maximal lines of the universal side.
fn assemble(base: &Problem, lines: Vec<Line>, side: Side, name_suffix: &str) -> Result<HalfStep> {
    // New alphabet: distinct sets occurring in the maximal lines.
    let mut meanings: Vec<LabelSet> = Vec::new();
    for line in &lines {
        for s in line {
            if !meanings.contains(s) {
                meanings.push(*s);
            }
        }
    }
    meanings.sort();
    if meanings.len() > crate::labelset::MAX_LABELS {
        return Err(Error::AlphabetOverflow { requested: meanings.len() });
    }

    // Distinct meaning-sets render to distinct ⟨…⟩ names for every
    // alphabet this engine generates; verify cheaply and skip the
    // suffixing machinery (and the alphabet's per-name duplicate probes)
    // on that common path.
    let mut names: Vec<String> = meanings.iter().map(|m| set_name(base.alphabet(), m)).collect();
    // The ⟨…⟩ names nest across iterated steps and grow exponentially —
    // two steps past a moderate problem they reach tens of kilobytes per
    // label, and every downstream clone/hash/render of the problem drags
    // them along. Once any name passes the cap, the whole alphabet falls
    // back to short synthetic names; provenance stays machine-readable in
    // `meanings` (and via `FullStep::meaning_in_base`).
    const MAX_RENDERED_NAME: usize = 256;
    if names.iter().any(|n| n.len() > MAX_RENDERED_NAME) {
        names = (0..meanings.len()).map(|i| format!("s{i}")).collect();
    }
    let unique = if names.len() <= 16 {
        (1..names.len()).all(|i| !names[..i].contains(&names[i]))
    } else {
        let mut seen = std::collections::HashSet::with_capacity(names.len());
        names.iter().all(|n| seen.insert(n.as_str()))
    };
    let alphabet = if unique {
        Alphabet::from_unique_names_unchecked(names)
    } else {
        let mut gen = NameGen::new();
        let mut alphabet = Alphabet::new();
        for base_name in &names {
            alphabet.intern(gen.fresh(base_name))?;
        }
        alphabet
    };

    let index_of = |s: &LabelSet| -> crate::label::Label {
        let ix = meanings.binary_search(s).expect("line sets are in the meanings list");
        crate::label::Label::from_index(ix)
    };

    let universal_arity = match side {
        Side::Edge => 2,
        Side::Node => base.delta(),
    };
    let universal = Constraint::from_configs(
        universal_arity,
        lines.iter().map(|line| line.iter().map(index_of).collect()),
    )?;

    let existential = match side {
        Side::Edge => existential_constraint(&meanings, base.node()),
        Side::Node => existential_constraint(&meanings, base.edge()),
    };

    let (node, edge) = match side {
        Side::Edge => (existential, universal),
        Side::Node => (universal, existential),
    };

    let name = format!("{}{}", base.name(), name_suffix);
    let problem = Problem::new_unchecked(name, alphabet, node, edge);
    Ok(HalfStep { problem, meanings, side })
}

/// Π → Π'_{1/2}: universal+maximal on the edge constraint, existential on
/// the node constraint (§4.1–4.2 of the paper), on `threads` worker
/// threads (0 is treated as 1; the result is the same for every count).
///
/// # Errors
///
/// Returns [`Error::AlphabetOverflow`] if the derived alphabet would exceed
/// the engine's 256-label cap.
pub fn half_step_edge(p: &Problem, threads: usize) -> Result<HalfStep> {
    let lines = maximal_good_lines(p.edge(), threads);
    assemble(p, lines, Side::Edge, " ½")
}

/// Π_{1/2} → Π'₁: universal+maximal on the node constraint, existential on
/// the edge constraint, on `threads` worker threads (0 is treated as 1).
///
/// # Errors
///
/// Returns [`Error::AlphabetOverflow`] if the derived alphabet would exceed
/// the engine's 256-label cap.
pub fn half_step_node(p: &Problem, threads: usize) -> Result<HalfStep> {
    let lines = maximal_good_lines(p.node(), threads);
    assemble(p, lines, Side::Node, " ₁")
}

/// One full simplified speedup step Π → Π'₁ (Theorem 2), followed by the
/// compression convention (drop labels that cannot occur in a correct
/// solution): [`complete_step`] of [`half_step_edge`], both on `threads`
/// worker threads (0 is treated as 1; the result is the same for every
/// count).
///
/// # Errors
///
/// Propagates alphabet-overflow errors from the half-steps.
///
/// ```
/// use roundelim_core::problem::Problem;
/// use roundelim_core::speedup::full_step;
/// // Sinkless coloring, Δ=3 (paper §4.4): 1 = "pick the edge's color".
/// let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
/// let step = full_step(&sc, 1).unwrap();
/// // Π'₁ is sinkless coloring again (period-2 fixed point through SO).
/// assert_eq!(step.problem().alphabet().len(), 2);
/// ```
pub fn full_step(p: &Problem, threads: usize) -> Result<FullStep> {
    complete_step(half_step_edge(p, threads)?, threads)
}

/// The second half of [`full_step`]: Π'_{1/2} → Π'₁ by [`half_step_node`],
/// then compression, on `threads` worker threads (0 is treated as 1). The
/// procedure is fixed, so isomorphic half-steps give isomorphic results:
/// the same label count, the same empty constraints and the same alphabet
/// overflow.
///
/// # Errors
///
/// Returns [`Error::AlphabetOverflow`] if the derived alphabet would exceed
/// the engine's 256-label cap.
pub fn complete_step(half: HalfStep, threads: usize) -> Result<FullStep> {
    let full = half_step_node(&half.problem, threads)?;
    // Compress: drop outputs that occur on only one side. When compression
    // would be the identity (fixed-point problems, every step) the problem
    // is returned as-is — no clone, no remap.
    if full.problem.is_fully_usable() {
        return Ok(FullStep { half, full });
    }
    let (compressed, mapping) = full.problem.compress();
    let mut meanings = Vec::new();
    for (old_ix, m) in mapping.iter().enumerate() {
        if m.is_some() {
            meanings.push(full.meanings[old_ix]);
        }
    }
    let full = HalfStep {
        problem: compressed.with_name(full.problem.name().to_owned()),
        meanings,
        side: Side::Node,
    };
    Ok(FullStep { half, full })
}

/// The unsimplified Theorem-1 half-step on `side`: derived labels range
/// over *all* non-empty subsets, and no maximality pruning is applied.
/// Exponential in the alphabet; restricted to alphabets of ≤ 12 labels.
fn half_step_unsimplified(p: &Problem, side: Side) -> Result<HalfStep> {
    if p.alphabet().len() > 12 {
        return Err(Error::Unsupported {
            reason: format!(
                "unsimplified transform limited to 12 labels, problem has {}",
                p.alphabet().len()
            ),
        });
    }
    let universe = LabelSet::first_n(p.alphabet().len());
    let (c, suffix) = match side {
        Side::Edge => (p.edge(), " ½u"),
        Side::Node => (p.node(), " ₁u"),
    };
    assemble(p, all_good_lines_bruteforce(c, &universe), side, suffix)
}

/// One full unsimplified Theorem-1 step (for cross-checking Theorem 2 on
/// tiny instances): both half-steps range over all non-empty subsets, with
/// no maximality pruning.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for alphabets above 12 labels and
/// [`Error::AlphabetOverflow`] if a derived alphabet exceeds the cap.
pub fn full_step_unsimplified(p: &Problem) -> Result<FullStep> {
    let half = half_step_unsimplified(p, Side::Edge)?;
    let full = half_step_unsimplified(&half.problem, Side::Node)?;
    Ok(FullStep { half, full })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sinkless coloring (§4.4): labels {0,1}; node: exactly one 1;
    /// edge: {0,0} or {0,1}.
    fn sinkless_coloring(delta: usize) -> Problem {
        let node = format!("0^{} 1", delta - 1);
        Problem::parse(&format!("name: sc\nnode: {node}\nedge: 0 0 | 0 1")).unwrap()
    }

    #[test]
    fn sinkless_coloring_half_step_is_sinkless_orientation() {
        // Paper §4.4: Π'_{1/2} of sinkless coloring is sinkless orientation.
        let sc = sinkless_coloring(3);
        let hs = half_step_edge(&sc, 1).unwrap();
        let p = &hs.problem;
        assert_eq!(p.alphabet().len(), 2, "{p}");
        // Edge: exactly one configuration {A,B} (= {0},{0,1}).
        assert_eq!(p.edge().len(), 1);
        // Node: all multisets with ≥ 1 B, i.e. 3 of the 4 possible.
        assert_eq!(p.node().len(), 3);
        // meanings: {0} and {0,1}
        assert_eq!(hs.meanings.len(), 2);
        assert_eq!(hs.meanings[0].len(), 1);
        assert_eq!(hs.meanings[1].len(), 2);
    }

    #[test]
    fn sinkless_coloring_full_step_returns_to_itself() {
        // Paper §4.4: Π'₁ = sinkless coloring again (after renaming).
        for delta in 3..=5 {
            let sc = sinkless_coloring(delta);
            let step = full_step(&sc, 1).unwrap();
            let p = step.problem();
            assert_eq!(p.alphabet().len(), 2, "Δ={delta}: {p}");
            assert_eq!(p.node().len(), 1, "Δ={delta}: {p}");
            assert_eq!(p.edge().len(), 2, "Δ={delta}: {p}");
            // Structure check: node constraint is {X, Y^{Δ-1}} with
            // edge {Y,X},{Y,Y} — i.e. sinkless coloring with X=1,Y=0.
            let node_cfg = p.node().iter().next().unwrap();
            let counts: Vec<usize> = node_cfg.chunk_by(|a, b| a == b).map(<[_]>::len).collect();
            assert_eq!(counts.len(), 2);
            assert!(counts.contains(&1) && counts.contains(&(delta - 1)));
        }
    }

    #[test]
    fn full_step_provenance_maps_to_base() {
        let sc = sinkless_coloring(3);
        let step = full_step(&sc, 1).unwrap();
        for l in step.problem().alphabet().labels() {
            let meaning = step.meaning_in_base(l);
            assert!(!meaning.is_empty());
            for set in meaning {
                assert!(!set.is_empty());
                // sets over the base alphabet {0,1}
                for lbl in set.iter() {
                    assert!(lbl.index() < sc.alphabet().len());
                }
            }
        }
    }

    #[test]
    fn unsimplified_step_runs_on_tiny_problem() {
        let sc = sinkless_coloring(3);
        let u = full_step_unsimplified(&sc).unwrap();
        // Unsimplified alphabets are larger (all good lines, not only maximal).
        assert!(
            u.problem().alphabet().len() >= full_step(&sc, 1).unwrap().problem().alphabet().len()
        );
    }

    #[test]
    fn unsimplified_rejected_on_large_alphabet() {
        let names: Vec<String> = (0..13).map(|i| format!("L{i}")).collect();
        let mut text = String::from("node: ");
        text.push_str(&names.join(" "));
        text.push_str("\nedge: L0 L1\n");
        let p = Problem::parse(&text).unwrap();
        assert!(matches!(full_step_unsimplified(&p), Err(Error::Unsupported { .. })));
    }
}
