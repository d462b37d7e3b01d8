//! Candidate search moves: relaxations (for lower bounds) and hardenings
//! (for upper bounds), generated from the constraint structure.
//!
//! Relaxations make a problem easier — any algorithm for the current
//! problem solves the relaxed one after a 0-round label translation — so a
//! lower bound proved for the relaxed problem transfers to the current one.
//! The generator produces:
//!
//! * **label merges** — quotient the problem by identifying two labels
//!   (§2.1's "simplify the problem description" move, the one the paper
//!   applies by hand between speedup steps);
//! * **label-set coarsenings** — one move merging every group of labels
//!   that behave identically on the edge side, the structural batch
//!   version of the same idea.
//!
//! Hardenings go the other way — the new problem is at least as hard, so
//! an upper bound for it transfers back (§4.5's Π₁ → Π₁* move). Generated:
//! dropping a label (with every configuration mentioning it) and dropping
//! a single node configuration.
//!
//! Every move carries its witness label map; the search emits these maps
//! into certificates, and [`crate::certificate::Certificate::verify`]
//! replays them with `roundelim_core::relax::check_relaxation`.
//!
//! One generator builds every move as a [`Move`]: a
//! [`PackedProblem::quotient`] (or label/configuration drop) of the
//! source's rows, with no names. The search interns moves in that form and
//! names a result only when it becomes a new class.

use roundelim_core::constraint::Constraint;
use roundelim_core::iso::refined_label_hashes;
use roundelim_core::label::Label;
use roundelim_core::labelset::LabelSet;
use roundelim_core::packed::PackedProblem;
use std::collections::HashSet;

/// What a [`Move`] does to its source problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Dominated labels absorbed one at a time until none is left; the
    /// count of absorptions.
    Simplify(usize),
    /// Label `.0` absorbed into label `.1`, which dominates it.
    Absorb(Label, Label),
    /// Every group of edge-equal labels merged.
    Coarsen,
    /// Label `.1` merged into label `.0`.
    Merge(Label, Label),
    /// A label dropped with every configuration that uses it.
    DropLabel(Label),
    /// One node configuration dropped (its index in row order).
    DropNodeConfig(usize),
}

impl MoveKind {
    /// The result's name given its source's: every quotient appends `″`
    /// (a simplification one per absorption), a hardening appends `*`.
    pub(crate) fn result_name(self, source: &str) -> String {
        match self {
            MoveKind::Simplify(absorbed) => format!("{source}{}", "″".repeat(absorbed)),
            MoveKind::Absorb(..) | MoveKind::Coarsen | MoveKind::Merge(..) => format!("{source}″"),
            MoveKind::DropLabel(_) | MoveKind::DropNodeConfig(_) => format!("{source}*"),
        }
    }
}

/// A candidate move as the search interns it: the packed result, its
/// witness map, and which source label names each result label. Names
/// are only built when the cache commits the result as a new class.
#[derive(Debug, Clone)]
pub struct Move {
    /// What the move does.
    pub kind: MoveKind,
    /// Witness label map: a relaxation's is indexed by source label
    /// (source → result), a hardening's by result label (result → source).
    pub map: Vec<Label>,
    /// `kept[i]` is the source label whose name result label `i` takes.
    pub kept: Vec<Label>,
    /// The result's constraints.
    pub result: PackedProblem,
}

/// The quotient of `src` under a partition of its labels.
///
/// `rep[i]` names the representative (an old label index) of old label `i`;
/// representatives must map to themselves and keep their names, in
/// old-index order.
fn quotient(src: &PackedProblem, rep: &[usize], kind: MoveKind) -> Move {
    debug_assert!(rep.iter().all(|&r| rep[r] == r), "representatives must be fixed points");
    let mut new_index = vec![usize::MAX; rep.len()];
    let mut kept = Vec::new();
    for (i, &r) in rep.iter().enumerate() {
        if r == i {
            new_index[i] = kept.len();
            kept.push(Label::from_index(i));
        }
    }
    let map: Vec<Label> = rep.iter().map(|&r| Label::from_index(new_index[r])).collect();
    let result = src.quotient(&map);
    Move { kind, map, kept, result }
}

/// The quotient identifying label `from` with label `into` (which keeps
/// its name).
fn collapse(src: &PackedProblem, from: usize, into: usize, kind: MoveKind) -> Move {
    let mut rep: Vec<usize> = (0..src.label_count()).collect();
    rep[from] = into;
    quotient(src, &rep, kind)
}

/// The merge of label `b` into label `a` (merging `{a, b}` either way
/// yields the same quotient up to renaming, so the smaller index is kept as
/// representative).
fn merge(src: &PackedProblem, a: usize, b: usize) -> Move {
    collapse(src, b, a, MoveKind::Merge(Label::from_index(a), Label::from_index(b)))
}

/// The absorption of label `a` into the label `b` dominating it: a
/// dominated-label merge. `b` dominates `a` when *every* configuration
/// containing `a` stays a configuration after replacing `a` by `b` (on
/// both the node and the edge side). The quotient then adds no new
/// configurations — it is exactly the source with label `a` dropped — so
/// the relaxation is "free" in the round-eliminator sense: it shrinks the
/// description without weakening the constraints anywhere else. These are
/// the merges that collapse a derived problem back onto the §4.4/§4.5
/// fixed-point shapes, so they are generated before the generic pairwise
/// merges.
fn absorb(src: &PackedProblem, a: usize, b: usize) -> Move {
    collapse(src, a, b, MoveKind::Absorb(Label::from_index(a), Label::from_index(b)))
}

/// Whether replacing `a` by `b` keeps every configuration of `c` inside
/// `c`: a binary search per configuration containing `a`.
fn replacement_stays_inside(c: &Constraint, a: Label, b: Label, buf: &mut Vec<Label>) -> bool {
    c.iter().filter(|row| row.contains(&a)).all(|row| {
        buf.clear();
        buf.extend(row.iter().map(|&l| if l == a { b } else { l }));
        buf.sort_unstable();
        c.contains(buf)
    })
}

/// Constant-time necessary-and-sufficient edge-side dominance test over
/// precomputed compatibility rows: replacing `a` by `b` keeps every edge
/// configuration iff `row(a)∖{a} ⊆ row(b)` and (`{a,a} ∈ g` implies
/// `{b,b} ∈ g`). Non-arity-2 edge constraints fall back to the
/// configuration scan.
fn edge_dominates(rows: &[LabelSet], a: usize, b: usize) -> bool {
    let (la, lb) = (Label::from_index(a), Label::from_index(b));
    let mut off_diag = rows[a];
    off_diag.remove(la);
    off_diag.is_subset(&rows[b]) && (!rows[a].contains(la) || rows[b].contains(lb))
}

/// Walks the ordered pairs `(a, b)` with `b` dominating `a` in
/// lexicographic order, calling `visit` per pair; stops early when `visit`
/// returns `true`. The edge side is decided by the O(1) row test
/// ([`edge_dominates`]); the node-side configuration scan only runs for
/// pairs that pass it. Single source of truth for the dominance condition
/// ([`dominated_pairs`] and [`simplify`]'s early-exit scan must never
/// disagree).
fn scan_dominated_pairs<F: FnMut(usize, usize) -> bool>(p: &PackedProblem, mut visit: F) {
    let n = p.label_count();
    let mut buf: Vec<Label> = Vec::new();
    let rows = (p.edge().arity() == 2).then(|| p.edge_rows());
    for a in 0..n {
        let la = Label::from_index(a);
        for b in 0..n {
            if a == b {
                continue;
            }
            let lb = Label::from_index(b);
            let edge_ok = match &rows {
                Some(rows) => edge_dominates(rows, a, b),
                None => replacement_stays_inside(p.edge(), la, lb, &mut buf),
            };
            if edge_ok && replacement_stays_inside(p.node(), la, lb, &mut buf) && visit(a, b) {
                return;
            }
        }
    }
}

/// All ordered pairs `(a, b)` where `b` dominates `a` (see [`absorb`]), in
/// lexicographic order.
fn dominated_pairs(p: &PackedProblem) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    scan_dominated_pairs(p, |a, b| {
        out.push((a, b));
        false
    });
    out
}

/// The full simplification of `src`: absorb dominated labels repeatedly
/// (the lexicographically first applicable absorption each round) until
/// none remain, composing the witness maps into one relaxation move. This
/// is the round-eliminator "simplify" pass as a single search edge; `None`
/// when no label is dominated. Every absorption is a packed quotient of
/// the previous one.
fn simplify(src: &PackedProblem) -> Option<Move> {
    let identity: Vec<Label> = (0..src.label_count()).map(Label::from_index).collect();
    let (mut map, mut kept) = (identity.clone(), identity);
    let mut current: Option<PackedProblem> = None;
    let mut absorbed = 0usize;
    // Only the lexicographically first absorption is applied, so the pair
    // scan stops at the first hit.
    while let Some((a, b)) = first_dominated_pair(current.as_ref().unwrap_or(src)) {
        let step = absorb(current.as_ref().unwrap_or(src), a, b);
        for slot in map.iter_mut() {
            *slot = step.map[slot.index()];
        }
        kept = step.kept.iter().map(|l| kept[l.index()]).collect();
        current = Some(step.result);
        absorbed += 1;
    }
    let result = current?;
    Some(Move { kind: MoveKind::Simplify(absorbed), map, kept, result })
}

/// The lexicographically first ordered pair `(a, b)` with `b` dominating
/// `a`, if any (early-exit [`scan_dominated_pairs`] for [`simplify`]'s
/// absorb-one-at-a-time loop).
fn first_dominated_pair(p: &PackedProblem) -> Option<(usize, usize)> {
    let mut hit = None;
    scan_dominated_pairs(p, |a, b| {
        hit = Some((a, b));
        true
    });
    hit
}

/// The structural coarsening of `src`: merge every group of labels with an
/// identical edge-side compatibility row (labels the edge constraint cannot
/// tell apart). Returns `None` when the grouping is trivial (all groups are
/// singletons) — then the move would be the identity — and for edge
/// constraints of arity other than 2, which have no compatibility rows.
fn coarsen(src: &PackedProblem) -> Option<Move> {
    if src.edge().arity() != 2 {
        return None;
    }
    let n = src.label_count();
    let rows = src.edge_rows();
    let mut rep: Vec<usize> = (0..n).collect();
    let mut merged = false;
    for i in 0..n {
        for j in 0..i {
            if rows[i] == rows[j] {
                rep[i] = rep[j];
                merged = true;
                break;
            }
        }
    }
    merged.then(|| quotient(src, &rep, MoveKind::Coarsen))
}

/// Labels grouped into *verified interchangeability classes*: `rep[l]` is
/// the smallest label whose transposition with `l` (possibly through a
/// chain of class members) is an automorphism of both constraints.
///
/// Candidate pairs are pre-filtered by equal
/// [`refined_label_hashes`] — a transposition automorphism forces equal
/// constraint-row invariants — so the exact swap check (map every
/// configuration through the transposition and test membership) only runs
/// on the few genuinely symmetric-looking pairs.
pub fn twin_classes(p: &PackedProblem) -> Vec<usize> {
    let n = p.label_count();
    let hashes = refined_label_hashes(p);
    let mut rep: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in 0..i {
            if rep[j] == j && hashes[i] == hashes[j] && swap_is_automorphism(p, i, j) {
                rep[i] = j;
                break;
            }
        }
    }
    rep
}

/// Whether exchanging labels `a` and `b` maps both constraints onto
/// themselves.
fn swap_is_automorphism(p: &PackedProblem, a: usize, b: usize) -> bool {
    let (la, lb) = (Label::from_index(a), Label::from_index(b));
    let swap = |l: Label| {
        if l == la {
            lb
        } else if l == lb {
            la
        } else {
            l
        }
    };
    // One reused image buffer: the swapped row, sorted, probes the
    // constraint's rows by binary search.
    let mut image: Vec<Label> = Vec::with_capacity(p.delta());
    let mut invariant = |c: &Constraint| {
        c.iter().filter(|row| row.contains(&la) || row.contains(&lb)).all(|row| {
            image.clear();
            image.extend(row.iter().map(|&l| swap(l)));
            image.sort_unstable();
            c.contains(&image)
        })
    };
    invariant(p.node()) && invariant(p.edge())
}

/// Whether the pair `(a, b)` is its orbit's lexicographic representative
/// under the interchangeability classes: merging (or absorbing along) any
/// other pair of the orbit yields an isomorphic quotient, so only the
/// representative is worth materializing. Works for unordered pairs
/// (callers pass `a < b`) and ordered absorption pairs alike — the orbit
/// of an ordered same-class pair contains both orders, so its
/// representative is still the two smallest members ascending.
/// `members[c]` lists class `c`'s labels ascending.
fn pair_is_orbit_rep(a: usize, b: usize, rep: &[usize], members: &[Vec<usize>]) -> bool {
    let (ca, cb) = (rep[a], rep[b]);
    if ca == cb {
        // Both in one class: the representative is the two smallest members.
        a == members[ca][0] && b == members[ca][1]
    } else {
        a == members[ca][0] && b == members[cb][0]
    }
}

/// Per-class ascending member lists for a `rep` vector.
fn class_members(rep: &[usize]) -> Vec<Vec<usize>> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); rep.len()];
    for (l, &r) in rep.iter().enumerate() {
        members[r].push(l);
    }
    members
}

/// Calls `emit` with each relaxation candidate of `src`, in deterministic
/// order: the composite simplification first, then single dominated
/// merges (free shrinkage), then the structural coarsening, then the
/// generic pairwise merges. Generic merges of pairs already covered by a
/// dominated merge are skipped — identifying `{a, b}` yields the same
/// quotient up to renaming either way, and every duplicate candidate would
/// cost a full cache key downstream. No candidate gets names: each is a
/// packed quotient of `src`.
///
/// With `prune`, sibling orbits are pruned: merge pairs that another
/// already-emitted pair maps onto under a verified constraint-row
/// automorphism ([`twin_classes`]) are skipped before their quotient is
/// even built. Every pruned candidate is isomorphic to an emitted earlier
/// sibling, so the searched class set — and with it every verdict and
/// certificate — is identical to the unpruned generation; only the
/// duplicated quotient/canonicalization work disappears.
///
/// With `subset_rows_only`, generic pairwise merges are additionally
/// restricted to label pairs whose edge-compatibility rows are
/// ⊆-comparable. Merging row-comparable labels is how derived problems
/// collapse back onto their fixed-point shapes (the weaker label's row is
/// absorbed without opening new edge configurations beyond the union);
/// incomparable-row merges on big alphabets mostly mint throwaway classes
/// whose canonicalization dominated the search's wall-clock. The search
/// enables this only for *oversized* problems (above its `max_labels`
/// step bound, where pairwise candidates grow quadratically), so searches
/// whose problems stay inside the step bound explore the identical class
/// set.
pub fn for_each_relax_move(
    src: &PackedProblem,
    prune: bool,
    subset_rows_only: bool,
    mut emit: impl FnMut(Move),
) {
    if let Some(mv) = simplify(src) {
        emit(mv);
    }
    let orbit = prune.then(|| {
        let rep = twin_classes(src);
        let members = class_members(&rep);
        (rep, members)
    });
    let is_orbit_rep = |a: usize, b: usize| {
        orbit.as_ref().is_none_or(|(rep, members)| pair_is_orbit_rep(a, b, rep, members))
    };
    let dominated_list = dominated_pairs(src);
    // Oversized sources skip the individual absorptions: the composite
    // simplify move (already emitted) applies them all at once, and each
    // skipped quotient is a full constraint rebuild on a big alphabet.
    // Ordered absorptions (a→b) share the orbit-representative rule with
    // the unordered merges.
    if !subset_rows_only {
        for &(a, b) in dominated_list.iter().filter(|&&(a, b)| is_orbit_rep(a, b)) {
            emit(absorb(src, a, b));
        }
    }
    if let Some(mv) = coarsen(src) {
        emit(mv);
    }
    let dominated: HashSet<(usize, usize)> =
        dominated_list.into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect();
    let rows = subset_rows_only.then(|| src.edge_rows());
    let n = src.label_count();
    for a in 0..n {
        for b in (a + 1)..n {
            if dominated.contains(&(a, b)) || !is_orbit_rep(a, b) {
                continue;
            }
            if let Some(rows) = &rows {
                if !rows[a].is_subset(&rows[b]) && !rows[b].is_subset(&rows[a]) {
                    continue; // incomparable rows: see `subset_rows_only`
                }
            }
            emit(merge(src, a, b));
        }
    }
}

/// Node-configuration count above which per-configuration drop moves are
/// not generated (they would dominate the branching factor).
const MAX_CONFIG_DROPS: usize = 24;

/// Calls `emit` with each hardening candidate of `src`, in deterministic
/// order: label drops first, then (for small constraints) single
/// node-configuration drops. Results with an empty node or edge
/// constraint are unsolvable and are not emitted.
///
/// With `prune`, dropping a label is emitted only for its
/// [`twin_classes`] representative: dropping any sibling produces an
/// isomorphic problem. The searched class set is unchanged (every pruned
/// candidate is isomorphic to an earlier emitted one); configuration drops
/// are not pruned.
pub fn for_each_harden_move(src: &PackedProblem, prune: bool, mut emit: impl FnMut(Move)) {
    if src.edge().arity() != 2 {
        return; // a hardened problem must be a (graph) problem again
    }
    let n = src.label_count();
    let twins = prune.then(|| twin_classes(src));
    for dropped in 0..n {
        if twins.as_ref().is_some_and(|rep| rep[dropped] != dropped) {
            continue; // drop(l) ≅ drop(rep[l]), which was emitted first
        }
        let l = Label::from_index(dropped);
        let result = src.without_label(l);
        if result.node().is_empty() || result.edge().is_empty() {
            continue;
        }
        // Surviving labels keep their names; the witness map is the
        // identity embedding back into the source's alphabet.
        let back: Vec<Label> = (0..n).filter(|&i| i != dropped).map(Label::from_index).collect();
        emit(Move { kind: MoveKind::DropLabel(l), kept: back.clone(), map: back, result });
    }
    let configs = src.node().len();
    if (2..=MAX_CONFIG_DROPS).contains(&configs) {
        let identity: Vec<Label> = (0..n).map(Label::from_index).collect();
        for ix in 0..configs {
            emit(Move {
                kind: MoveKind::DropNodeConfig(ix),
                map: identity.clone(),
                kept: identity.clone(),
                result: src.without_node_config(ix),
            });
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::Named;
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use roundelim_core::config::all_multisets;
    use roundelim_core::label::Alphabet;
    use roundelim_core::problem::Problem;
    use roundelim_core::relax::check_relaxation;

    fn sc() -> Problem {
        Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap()
    }

    /// A move with its result named after `source`, as the cache names a
    /// committed class.
    fn named(source: &Problem, mv: Move) -> Named {
        let labels = mv.kept.iter().map(|&l| source.alphabet().name(l));
        let result = Problem::from_packed(mv.kind.result_name(source.name()), labels, mv.result);
        Named { kind: mv.kind, map: mv.map, result }
    }

    fn relax_moves(p: &Problem, prune: bool, subset_rows_only: bool) -> Vec<Named> {
        let mut out = Vec::new();
        for_each_relax_move(p.packed(), prune, subset_rows_only, |mv| out.push(named(p, mv)));
        out
    }

    fn harden_moves(p: &Problem, prune: bool) -> Vec<Named> {
        let mut out = Vec::new();
        for_each_harden_move(p.packed(), prune, |mv| out.push(named(p, mv)));
        out
    }

    #[test]
    fn merges_carry_valid_witnesses() {
        let p = Problem::parse("name: p\nnode: A A | A B | B C\nedge: A B | A C | B C").unwrap();
        let moves: Vec<Named> = [(0, 1), (0, 2), (1, 2)]
            .into_iter()
            .map(|(a, b)| named(&p, merge(p.packed(), a, b)))
            .collect();
        for mv in &moves {
            assert!(
                check_relaxation(&p, &mv.result, &mv.map),
                "merge witness failed for {:?}",
                mv.kind
            );
            assert_eq!(mv.result.alphabet().len(), 2);
        }
    }

    #[test]
    fn coarsening_groups_edge_equal_labels() {
        // B and C have identical edge rows (both compatible exactly with A).
        let p = Problem::parse("name: p\nnode: A B C\nedge: A B | A C").unwrap();
        let mv = named(&p, coarsen(p.packed()).expect("B and C are edge-equal"));
        assert_eq!(mv.result.alphabet().len(), 2);
        assert!(check_relaxation(&p, &mv.result, &mv.map));
        // All labels already distinct on the edge side ⇒ no move.
        assert!(coarsen(sc().packed()).is_none());
    }

    #[test]
    fn hardenings_carry_valid_witnesses() {
        let p = Problem::parse("name: p\nnode: A A | A B\nedge: A A | A B").unwrap();
        for mv in harden_moves(&p, false) {
            assert!(
                check_relaxation(&mv.result, &p, &mv.map),
                "harden witness failed for {:?}",
                mv.kind
            );
            assert!(!mv.result.node().is_empty() && !mv.result.edge().is_empty());
        }
    }

    #[test]
    fn harden_never_emits_unsolvable_results() {
        // Dropping label O or I kills the edge constraint entirely.
        let so = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
        for mv in harden_moves(&so, false) {
            assert!(!mv.result.node().is_empty());
            assert!(!mv.result.edge().is_empty());
        }
    }

    #[test]
    fn dominated_label_is_absorbed() {
        // B is dominated by A: every config survives the replacement B→A.
        let p = Problem::parse("name: p\nnode: A A | A B\nedge: A A | A B").unwrap();
        let moves: Vec<Named> = dominated_pairs(p.packed())
            .into_iter()
            .map(|(a, b)| named(&p, absorb(p.packed(), a, b)))
            .collect();
        assert_eq!(moves.len(), 1, "only B→A absorbs; A→B does not");
        let [a, b] = [0, 1].map(Label::from_index);
        assert_eq!(moves[0].kind, MoveKind::Absorb(b, a));
        assert!(check_relaxation(&p, &moves[0].result, &moves[0].map));
        // The quotient adds no configurations: it is p minus label B.
        assert_eq!(moves[0].result.node().len(), 1);
        assert_eq!(moves[0].result.edge().len(), 1);
    }

    #[test]
    fn simplify_composes_absorptions_into_one_witness() {
        // B and C both absorb into A; the composite map must still verify.
        let p = Problem::parse("name: p\nnode: A A | A B | A C\nedge: A A | A B | A C").unwrap();
        let mv = named(&p, simplify(p.packed()).expect("two dominated labels"));
        assert_eq!(mv.result.alphabet().len(), 1);
        assert!(check_relaxation(&p, &mv.result, &mv.map));
        assert!(simplify(sc().packed()).is_none(), "sc has no dominated labels");
    }

    #[test]
    fn relax_moves_are_deterministic() {
        let p = sc();
        assert_eq!(relax_moves(&p, false, false), relax_moves(&p, false, false));
    }

    #[test]
    fn orbit_pruning_only_drops_isomorphic_duplicates() {
        use roundelim_core::iso::are_isomorphic;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0B17);
        let mut pruned_any = false;
        for trial in 0..60 {
            let n = rng.gen_range(2..=5);
            let delta = rng.gen_range(2..=3);
            let names: Vec<String> = (0..n).map(|i| format!("L{i}")).collect();
            let alphabet =
                roundelim_core::label::Alphabet::from_names(names.iter().map(String::as_str))
                    .unwrap();
            let node = Constraint::from_configs(
                delta,
                all_multisets(n, delta).into_iter().filter(|_| rng.gen_bool(0.4)),
            )
            .unwrap();
            let edge = Constraint::from_configs(
                2,
                all_multisets(n, 2).into_iter().filter(|_| rng.gen_bool(0.5)),
            )
            .unwrap();
            if node.is_empty() || edge.is_empty() {
                continue;
            }
            let Ok(p) = Problem::new("t", alphabet, node, edge) else { continue };
            let full = relax_moves(&p, false, false);
            let pruned = relax_moves(&p, true, false);
            assert!(pruned.len() <= full.len());
            pruned_any |= pruned.len() < full.len();
            // The pruned list is a subsequence of the full list …
            let mut it = full.iter();
            for mv in &pruned {
                assert!(
                    it.any(|f| f.kind == mv.kind && f.map == mv.map && f.result == mv.result),
                    "trial {trial}: pruned move {:?} not in unpruned order",
                    mv.kind
                );
            }
            // … and every dropped candidate is isomorphic to a kept one
            // (so the searched class set cannot change).
            for mv in &full {
                assert!(
                    pruned.iter().any(|k| are_isomorphic(&k.result, &mv.result)),
                    "trial {trial}: dropped move {:?} has no isomorphic representative",
                    mv.kind
                );
            }
            // The subset-rows restriction is itself a subsequence.
            let rows_only = relax_moves(&p, true, true);
            let mut it = pruned.iter();
            for mv in &rows_only {
                assert!(it.any(|f| f.kind == mv.kind && f.map == mv.map));
            }
        }
        assert!(pruned_any, "the generator never pruned anything — test lost its teeth");
    }

    #[test]
    fn harden_pruning_only_drops_isomorphic_duplicates() {
        use roundelim_core::iso::are_isomorphic;
        // 3-coloring: the three labels are fully interchangeable, so the
        // three label drops collapse to one representative.
        let p = Problem::parse("name: c3\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        let full = harden_moves(&p, false);
        let pruned = harden_moves(&p, true);
        assert!(pruned.len() < full.len());
        for mv in &full {
            assert!(pruned.iter().any(|k| are_isomorphic(&k.result, &mv.result)));
        }
    }

    #[test]
    fn twin_classes_detects_full_symmetry() {
        let c3 = Problem::parse("name: c3\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        assert_eq!(twin_classes(c3.packed()), vec![0, 0, 0]);
        // sc's labels have different roles: all classes singleton.
        assert_eq!(twin_classes(sc().packed()), vec![0, 1]);
    }

    /// The zoo's sweep instances and coloring:3:3, each with its first
    /// speedup step and the step of that step's first relaxation inside
    /// the search's step bound, where they stay within the search's intern
    /// cap of 40 labels: the shapes the search relaxes, oversized
    /// alphabets included.
    fn zoo_sources() -> Vec<Problem> {
        use roundelim_core::speedup::full_step;
        use roundelim_problems::registry::{family, sweep_specs};
        let mut specs: Vec<(&str, usize, usize)> =
            sweep_specs().iter().map(|s| (s.family, s.k, s.delta)).collect();
        specs.push(("coloring", 3, 3));
        let mut out = Vec::new();
        for (name, k, delta) in specs {
            let p = family(name).unwrap().instantiate(k, delta).unwrap();
            let step = full_step(&p, 1).unwrap().problem().clone();
            out.push(p);
            if step.alphabet().len() > 40 {
                continue;
            }
            let small = relax_moves(&step, false, false)
                .into_iter()
                .find(|m| m.result.alphabet().len() <= 10);
            out.push(step);
            if let Some(Ok(next)) = small.map(|m| full_step(&m.result, 1)) {
                if next.problem().alphabet().len() <= 40 {
                    out.push(next.problem().clone());
                }
            }
        }
        assert!(out.iter().any(|p| p.alphabet().len() > 10), "an oversized source is covered");
        // Two labels to absorb, so the simplification composes quotients.
        out.push(Problem::parse("name: p\nnode: A A | A B | A C\nedge: A A | A B | A C").unwrap());
        out
    }

    #[test]
    fn packed_generators_emit_the_old_generators_moves_in_order() {
        let mut composed = false;
        for p in zoo_sources() {
            for (prune, subset_rows_only) in [(false, false), (true, false), (true, true)] {
                let mut new = Vec::new();
                for_each_relax_move(p.packed(), prune, subset_rows_only, |mv| {
                    composed |= matches!(mv.kind, MoveKind::Simplify(2..));
                    new.push(named(&p, mv));
                });
                let old = oracle::relax_moves(&p, prune, subset_rows_only);
                assert_eq!(
                    new.len(),
                    old.len(),
                    "{}: prune={prune} rows={subset_rows_only}",
                    p.name()
                );
                for (n, o) in new.iter().zip(&old) {
                    assert_eq!(n, o, "{}", p.name());
                }
            }
            for prune in [false, true] {
                let new = harden_moves(&p, prune);
                let old = oracle::harden_moves(&p, prune);
                assert_eq!(new.len(), old.len(), "{}: prune={prune}", p.name());
                for (n, o) in new.iter().zip(&old) {
                    assert_eq!(n, o, "{}", p.name());
                }
            }
        }
        assert!(composed, "a simplification of several absorptions is covered");
    }

    /// A random problem on `n` labels with node arity `delta`, and a random
    /// partition of its labels as a representative vector: each class's
    /// representative is a random member of it.
    fn random_partitioned(n: usize, delta: usize, seed: u64) -> Option<(Problem, Vec<usize>)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..n).map(|i| format!("L{i}")).collect();
        let alphabet = Alphabet::from_names(names.iter().map(String::as_str)).unwrap();
        let mut random = |arity: usize, keep: f64| {
            let all = all_multisets(n, arity).into_iter().filter(|_| rng.gen_bool(keep));
            Constraint::from_configs(arity, all).unwrap()
        };
        let node = random(delta, 0.3);
        let edge = random(2, 0.4);
        let p = Problem::new("p", alphabet, node, edge).ok()?;
        let class: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let mut rep: Vec<usize> = (0..n).collect();
        for c in 0..n {
            let members: Vec<usize> = (0..n).filter(|&l| class[l] == c).collect();
            if let Some(&r) = members.get(rng.gen_range(0..members.len().max(1))) {
                members.iter().for_each(|&l| rep[l] = r);
            }
        }
        Some((p, rep))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed quotient of a random partition is the packed old
        /// `Problem` quotient, and takes the same names.
        #[test]
        fn packed_quotient_matches_the_problem_quotient(
            n in 2usize..=7,
            delta in 1usize..=4,
            seed in 0u64..u64::MAX,
        ) {
            let Some((p, rep)) = random_partitioned(n, delta, seed) else { return Ok(()) };
            let old = oracle::quotient(&p, &rep, MoveKind::Coarsen);
            let new = quotient(p.packed(), &rep, MoveKind::Coarsen);
            prop_assert_eq!(&new.map, &old.map);
            prop_assert_eq!(&new.result, old.result.packed());
            prop_assert_eq!(&p.packed().quotient(&old.map), &new.result);
            prop_assert_eq!(named(&p, new).result, old.result);
        }
    }
}
