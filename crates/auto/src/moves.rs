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

use roundelim_core::iso::refined_label_hashes;
use roundelim_core::label::{Alphabet, Label};
use roundelim_core::labelset::LabelSet;
use roundelim_core::problem::Problem;

/// A relaxation candidate: `result` is easier than the source problem, as
/// witnessed by `map` (source label → result label).
#[derive(Debug, Clone)]
pub struct RelaxMove {
    /// Human-readable description, e.g. `merge A←B`.
    pub what: String,
    /// Witness label map (indexed by source label).
    pub map: Vec<Label>,
    /// The relaxed problem.
    pub result: Problem,
}

/// A hardening candidate: `result` is at least as hard as the source
/// problem, as witnessed by `map` (result label → source label).
#[derive(Debug, Clone)]
pub struct HardenMove {
    /// Human-readable description, e.g. `drop label X`.
    pub what: String,
    /// Witness label map (indexed by result label).
    pub map: Vec<Label>,
    /// The hardened problem.
    pub result: Problem,
}

/// Builds the quotient of `p` under a partition of its labels.
///
/// `rep[i]` names the representative (an old label index) of old label `i`;
/// representatives must map to themselves. Returns the quotient problem and
/// the witness map, or `None` if the construction fails (it cannot for a
/// well-formed partition, but the guard keeps candidate generation total).
fn quotient(p: &Problem, rep: &[usize], what: String) -> Option<RelaxMove> {
    debug_assert!(rep.iter().all(|&r| rep[r] == r), "representatives must be fixed points");
    // New alphabet: representatives in old-index order keep their names.
    let mut new_index = vec![usize::MAX; p.alphabet().len()];
    let mut names: Vec<&str> = Vec::new();
    for i in 0..p.alphabet().len() {
        if rep[i] == i {
            new_index[i] = names.len();
            names.push(p.alphabet().name(Label::from_index(i)));
        }
    }
    let alphabet = Alphabet::from_names(names).ok()?;
    let map: Vec<Label> =
        (0..p.alphabet().len()).map(|i| Label::from_index(new_index[rep[i]])).collect();
    let node = p.node().map_labels(|l| map[l.index()]);
    let edge = p.edge().map_labels(|l| map[l.index()]);
    // The quotient maps labels into the fresh alphabet by construction and
    // preserves the edge arity: skip per-candidate validation (this runs
    // for every relax candidate of every expanded node).
    let result = Problem::new_unchecked(format!("{}″", p.name()), alphabet, node, edge);
    Some(RelaxMove { what, map, result })
}

/// All pairwise label-merge relaxations of `p` (one per unordered label
/// pair; merging `{a, b}` either way yields the same quotient up to
/// renaming, so the smaller index is kept as representative).
pub fn merge_moves(p: &Problem) -> Vec<RelaxMove> {
    pairwise_merges(p, &std::collections::HashSet::new())
}

/// [`merge_moves`] minus the unordered pairs in `skip`.
fn pairwise_merges(
    p: &Problem,
    skip: &std::collections::HashSet<(usize, usize)>,
) -> Vec<RelaxMove> {
    let n = p.alphabet().len();
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if skip.contains(&(a, b)) {
                continue;
            }
            let mut rep: Vec<usize> = (0..n).collect();
            rep[b] = a;
            let what = format!(
                "merge {}←{}",
                p.alphabet().name(Label::from_index(a)),
                p.alphabet().name(Label::from_index(b))
            );
            if let Some(mv) = quotient(p, &rep, what) {
                out.push(mv);
            }
        }
    }
    out
}

/// Dominated-label merges: merge `a` into `b` whenever *every*
/// configuration containing `a` stays a configuration after replacing `a`
/// by `b` (on both the node and the edge side). The quotient then adds no
/// new configurations — it is exactly `p` with label `a` dropped — so the
/// relaxation is "free" in the round-eliminator sense: it shrinks the
/// description without weakening the constraints anywhere else. These are
/// the merges that collapse a derived problem back onto the §4.4/§4.5
/// fixed-point shapes, so they are generated before the generic pairwise
/// merges.
pub fn dominated_merge_moves(p: &Problem) -> Vec<RelaxMove> {
    let n = p.alphabet().len();
    let mut out = Vec::new();
    for (a, b) in dominated_pairs(p) {
        let mut rep: Vec<usize> = (0..n).collect();
        rep[a] = b;
        // `quotient` wants representatives to be fixed points; b is.
        let what = format!(
            "absorb {}→{}",
            p.alphabet().name(Label::from_index(a)),
            p.alphabet().name(Label::from_index(b))
        );
        if let Some(mv) = quotient(p, &rep, what) {
            out.push(mv);
        }
    }
    out
}

/// Whether replacing `a` by `b` keeps every configuration of `c` inside
/// `c`: an allocation-free trie probe per configuration containing `a`.
fn replacement_stays_inside(
    c: &roundelim_core::constraint::Constraint,
    a: Label,
    b: Label,
    buf: &mut Vec<Label>,
) -> bool {
    let trie = c.trie();
    c.iter().filter(|cfg| cfg.contains(a)).all(|cfg| {
        buf.clear();
        buf.extend(cfg.labels().iter().map(|&l| if l == a { b } else { l }));
        buf.sort_unstable();
        trie.contains_sorted(buf)
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
/// ([`dominated_pairs`] and [`simplify_move`]'s early-exit scan must never
/// disagree).
fn scan_dominated_pairs<F: FnMut(usize, usize) -> bool>(p: &Problem, mut visit: F) {
    let n = p.alphabet().len();
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

/// All ordered pairs `(a, b)` where `b` dominates `a` (see
/// [`dominated_merge_moves`]), in lexicographic order.
fn dominated_pairs(p: &Problem) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    scan_dominated_pairs(p, |a, b| {
        out.push((a, b));
        false
    });
    out
}

/// The full simplification of `p`: absorb dominated labels repeatedly (the
/// lexicographically first applicable absorption each round) until none
/// remain, composing the witness maps into one relaxation move. This is
/// the round-eliminator "simplify" pass as a single search edge; `None`
/// when no label is dominated.
pub fn simplify_move(p: &Problem) -> Option<RelaxMove> {
    let mut current = p.clone();
    let mut map: Vec<Label> = (0..p.alphabet().len()).map(Label::from_index).collect();
    let mut absorbed = 0usize;
    while let Some((a, b)) = first_dominated_pair(&current) {
        // Only the lexicographically first absorption is applied, so the
        // pair scan stops at the first hit instead of materializing every
        // dominated-merge quotient.
        let n = current.alphabet().len();
        let mut rep: Vec<usize> = (0..n).collect();
        rep[a] = b;
        let what = String::new(); // composed move carries its own description
        let Some(mv) = quotient(&current, &rep, what) else { break };
        for slot in map.iter_mut() {
            *slot = mv.map[slot.index()];
        }
        current = mv.result;
        absorbed += 1;
    }
    if absorbed == 0 {
        return None;
    }
    Some(RelaxMove {
        what: format!("simplify (absorb {absorbed} dominated labels)"),
        map,
        result: current,
    })
}

/// The lexicographically first ordered pair `(a, b)` with `b` dominating
/// `a`, if any (early-exit [`scan_dominated_pairs`] for
/// [`simplify_move`]'s absorb-one-at-a-time loop).
fn first_dominated_pair(p: &Problem) -> Option<(usize, usize)> {
    let mut hit = None;
    scan_dominated_pairs(p, |a, b| {
        hit = Some((a, b));
        true
    });
    hit
}

/// The structural coarsening of `p`: merge every group of labels with an
/// identical edge-side compatibility row (labels the edge constraint cannot
/// tell apart). Returns `None` when the grouping is trivial (all groups are
/// singletons) — then the move would be the identity.
pub fn coarsen_move(p: &Problem) -> Option<RelaxMove> {
    let n = p.alphabet().len();
    let rows = p.edge().compatibility_matrix(n).ok()?;
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
    if !merged {
        return None;
    }
    quotient(p, &rep, "coarsen edge-equal labels".to_owned())
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
pub fn twin_classes(p: &Problem) -> Vec<usize> {
    let n = p.alphabet().len();
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
fn swap_is_automorphism(p: &Problem, a: usize, b: usize) -> bool {
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
    // One reused image buffer: the swapped configuration, sorted, probes
    // the constraint by slice.
    let mut image: Vec<Label> = Vec::with_capacity(p.delta());
    let mut invariant = |c: &roundelim_core::constraint::Constraint| {
        c.iter().filter(|cfg| cfg.contains(la) || cfg.contains(lb)).all(|cfg| {
            image.clear();
            image.extend(cfg.labels().iter().map(|&l| swap(l)));
            image.sort_unstable();
            c.contains_slice(&image)
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

/// All relaxation candidates of `p`, in deterministic order: the composite
/// simplification first, then single dominated merges (free shrinkage),
/// then the structural coarsening, then the generic pairwise merges.
/// Generic merges of pairs already covered by a dominated merge are
/// skipped — identifying `{a, b}` yields the same quotient up to renaming
/// either way, and every duplicate candidate would cost a full cache key
/// downstream.
pub fn relax_moves(p: &Problem) -> Vec<RelaxMove> {
    relax_moves_impl(p, false, false)
}

/// [`relax_moves`] with sibling-orbit pruning: merge pairs that another
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
pub fn relax_moves_pruned(p: &Problem, subset_rows_only: bool) -> Vec<RelaxMove> {
    relax_moves_impl(p, true, subset_rows_only)
}

fn relax_moves_impl(p: &Problem, prune: bool, subset_rows_only: bool) -> Vec<RelaxMove> {
    let mut out = Vec::new();
    if let Some(mv) = simplify_move(p) {
        out.push(mv);
    }
    let orbit = if prune {
        let rep = twin_classes(p);
        let members = class_members(&rep);
        Some((rep, members))
    } else {
        None
    };
    let n = p.alphabet().len();
    let dominated_list = dominated_pairs(p);
    // Oversized sources skip the individual absorptions: the composite
    // simplify move (already emitted) applies them all at once, and each
    // skipped quotient is a full constraint rebuild on a big alphabet.
    if !subset_rows_only {
        for &(a, b) in &dominated_list {
            if let Some((rep, members)) = &orbit {
                // Ordered absorptions (a→b) share the orbit-representative
                // rule with the unordered merges.
                if !pair_is_orbit_rep(a, b, rep, members) {
                    continue;
                }
            }
            let mut rep_map: Vec<usize> = (0..n).collect();
            rep_map[a] = b;
            let what = format!(
                "absorb {}→{}",
                p.alphabet().name(Label::from_index(a)),
                p.alphabet().name(Label::from_index(b))
            );
            if let Some(mv) = quotient(p, &rep_map, what) {
                out.push(mv);
            }
        }
    }
    if let Some(mv) = coarsen_move(p) {
        out.push(mv);
    }
    let dominated: std::collections::HashSet<(usize, usize)> =
        dominated_list.into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect();
    let rows = if subset_rows_only { Some(p.edge_rows()) } else { None };
    match &orbit {
        None => out.extend(pairwise_merges(p, &dominated)),
        Some((rep, members)) => {
            for a in 0..n {
                for b in (a + 1)..n {
                    if dominated.contains(&(a, b)) || !pair_is_orbit_rep(a, b, rep, members) {
                        continue;
                    }
                    if let Some(rows) = &rows {
                        if !rows[a].is_subset(&rows[b]) && !rows[b].is_subset(&rows[a]) {
                            continue; // incomparable rows: see fn docs
                        }
                    }
                    let mut rep_map: Vec<usize> = (0..n).collect();
                    rep_map[b] = a;
                    let what = format!(
                        "merge {}←{}",
                        p.alphabet().name(Label::from_index(a)),
                        p.alphabet().name(Label::from_index(b))
                    );
                    if let Some(mv) = quotient(p, &rep_map, what) {
                        out.push(mv);
                    }
                }
            }
        }
    }
    out
}

/// Node-configuration count above which per-configuration drop moves are
/// not generated (they would dominate the branching factor).
const MAX_CONFIG_DROPS: usize = 24;

/// All hardening candidates of `p`, in deterministic order: label drops
/// first, then (for small constraints) single node-configuration drops.
/// Results with an empty node or edge constraint are unsolvable and are
/// not emitted.
pub fn harden_moves(p: &Problem) -> Vec<HardenMove> {
    harden_moves_impl(p, None)
}

/// [`harden_moves`] with sibling-orbit pruning: dropping a label produces
/// a problem isomorphic to dropping any of its [`twin_classes`] siblings,
/// so only the class representative's drop is materialized. The searched
/// class set is unchanged (every pruned candidate is isomorphic to an
/// earlier emitted one); configuration drops are not pruned.
pub fn harden_moves_pruned(p: &Problem) -> Vec<HardenMove> {
    harden_moves_impl(p, Some(twin_classes(p)))
}

fn harden_moves_impl(p: &Problem, twins: Option<Vec<usize>>) -> Vec<HardenMove> {
    let n = p.alphabet().len();
    let mut out = Vec::new();
    for dropped in 0..n {
        if let Some(rep) = &twins {
            if rep[dropped] != dropped {
                continue; // drop(l) ≅ drop(rep[l]), which was emitted first
            }
        }
        let keep = LabelSet::from_labels((0..n).filter(|&i| i != dropped).map(Label::from_index));
        let node = p.node().restrict(&keep);
        let edge = p.edge().restrict(&keep);
        if node.is_empty() || edge.is_empty() {
            continue;
        }
        // Result alphabet: surviving labels keep their names; the witness
        // map is the identity embedding back into `p`'s alphabet.
        let names =
            (0..n).filter(|&i| i != dropped).map(|i| p.alphabet().name(Label::from_index(i)));
        let Ok(alphabet) = Alphabet::from_names(names) else { continue };
        let mut back = Vec::with_capacity(n - 1);
        let mut fwd = vec![Label::from_index(0); n];
        for (new_ix, old_ix) in (0..n).filter(|&i| i != dropped).enumerate() {
            back.push(Label::from_index(old_ix));
            fwd[old_ix] = Label::from_index(new_ix);
        }
        let node = node.map_labels(|l| fwd[l.index()]);
        let edge = edge.map_labels(|l| fwd[l.index()]);
        let Ok(result) = Problem::new(format!("{}*", p.name()), alphabet, node, edge) else {
            continue;
        };
        out.push(HardenMove {
            what: format!("drop label {}", p.alphabet().name(Label::from_index(dropped))),
            map: back,
            result,
        });
    }
    if p.node().len() <= MAX_CONFIG_DROPS {
        let identity: Vec<Label> = (0..n).map(Label::from_index).collect();
        for (ix, dropped_cfg) in p.node().iter().enumerate() {
            if p.node().len() < 2 {
                break;
            }
            let node = roundelim_core::constraint::Constraint::from_configs(
                p.node().arity(),
                p.node().iter().filter(|c| *c != dropped_cfg).cloned(),
            );
            let Ok(node) = node else { continue };
            let Ok(result) = Problem::new(
                format!("{}*", p.name()),
                p.alphabet().clone(),
                node,
                p.edge().clone(),
            ) else {
                continue;
            };
            out.push(HardenMove {
                what: format!("drop node config #{ix}"),
                map: identity.clone(),
                result,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::relax::check_relaxation;

    fn sc() -> Problem {
        Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap()
    }

    #[test]
    fn merges_carry_valid_witnesses() {
        let p = Problem::parse("name: p\nnode: A A | A B | B C\nedge: A B | A C | B C").unwrap();
        let moves = merge_moves(&p);
        assert_eq!(moves.len(), 3); // C(3,2) unordered pairs
        for mv in &moves {
            assert!(
                check_relaxation(&p, &mv.result, &mv.map),
                "merge witness failed for {}",
                mv.what
            );
            assert_eq!(mv.result.alphabet().len(), 2);
        }
    }

    #[test]
    fn coarsening_groups_edge_equal_labels() {
        // B and C have identical edge rows (both compatible exactly with A).
        let p = Problem::parse("name: p\nnode: A B C\nedge: A B | A C").unwrap();
        let mv = coarsen_move(&p).expect("B and C are edge-equal");
        assert_eq!(mv.result.alphabet().len(), 2);
        assert!(check_relaxation(&p, &mv.result, &mv.map));
        // All labels already distinct on the edge side ⇒ no move.
        assert!(coarsen_move(&sc()).is_none());
    }

    #[test]
    fn hardenings_carry_valid_witnesses() {
        let p = Problem::parse("name: p\nnode: A A | A B\nedge: A A | A B").unwrap();
        for mv in harden_moves(&p) {
            assert!(
                check_relaxation(&mv.result, &p, &mv.map),
                "harden witness failed for {}",
                mv.what
            );
            assert!(!mv.result.node().is_empty() && !mv.result.edge().is_empty());
        }
    }

    #[test]
    fn harden_never_emits_unsolvable_results() {
        // Dropping label O or I kills the edge constraint entirely.
        let so = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
        for mv in harden_moves(&so) {
            assert!(!mv.result.node().is_empty());
            assert!(!mv.result.edge().is_empty());
        }
    }

    #[test]
    fn dominated_label_is_absorbed() {
        // B is dominated by A: every config survives the replacement B→A.
        let p = Problem::parse("name: p\nnode: A A | A B\nedge: A A | A B").unwrap();
        let moves = dominated_merge_moves(&p);
        assert_eq!(moves.len(), 1, "only B→A absorbs; A→B does not");
        assert!(moves[0].what.contains("absorb B→A"), "{}", moves[0].what);
        assert!(check_relaxation(&p, &moves[0].result, &moves[0].map));
        // The quotient adds no configurations: it is p minus label B.
        assert_eq!(moves[0].result.node().len(), 1);
        assert_eq!(moves[0].result.edge().len(), 1);
    }

    #[test]
    fn simplify_composes_absorptions_into_one_witness() {
        // B and C both absorb into A; the composite map must still verify.
        let p = Problem::parse("name: p\nnode: A A | A B | A C\nedge: A A | A B | A C").unwrap();
        let mv = simplify_move(&p).expect("two dominated labels");
        assert_eq!(mv.result.alphabet().len(), 1);
        assert!(check_relaxation(&p, &mv.result, &mv.map));
        assert!(simplify_move(&sc()).is_none(), "sc has no dominated labels");
    }

    #[test]
    fn relax_moves_are_deterministic() {
        let p = sc();
        let a: Vec<String> = relax_moves(&p).into_iter().map(|m| m.what).collect();
        let b: Vec<String> = relax_moves(&p).into_iter().map(|m| m.what).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn orbit_pruning_only_drops_isomorphic_duplicates() {
        use rand::{Rng, SeedableRng};
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
            let mut node = roundelim_core::constraint::Constraint::new(delta).unwrap();
            for m in roundelim_core::config::all_multisets(n, delta) {
                if rng.gen_bool(0.4) {
                    node.insert(m).unwrap();
                }
            }
            let mut edge = roundelim_core::constraint::Constraint::new(2).unwrap();
            for m in roundelim_core::config::all_multisets(n, 2) {
                if rng.gen_bool(0.5) {
                    edge.insert(m).unwrap();
                }
            }
            if node.is_empty() || edge.is_empty() {
                continue;
            }
            let Ok(p) = Problem::new("t", alphabet, node, edge) else { continue };
            let full = relax_moves(&p);
            let pruned = relax_moves_pruned(&p, false);
            assert!(pruned.len() <= full.len());
            pruned_any |= pruned.len() < full.len();
            // The pruned list is a subsequence of the full list …
            let mut it = full.iter();
            for mv in &pruned {
                assert!(
                    it.any(|f| f.what == mv.what && f.map == mv.map && f.result == mv.result),
                    "trial {trial}: pruned move {} not in unpruned order",
                    mv.what
                );
            }
            // … and every dropped candidate is isomorphic to a kept one
            // (so the searched class set cannot change).
            for mv in &full {
                assert!(
                    pruned.iter().any(|k| are_isomorphic(&k.result, &mv.result)),
                    "trial {trial}: dropped move {} has no isomorphic representative",
                    mv.what
                );
            }
            // The subset-rows restriction is itself a subsequence.
            let rows_only = relax_moves_pruned(&p, true);
            let mut it = pruned.iter();
            for mv in &rows_only {
                assert!(it.any(|f| f.what == mv.what && f.map == mv.map));
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
        let full = harden_moves(&p);
        let pruned = harden_moves_pruned(&p);
        assert!(pruned.len() < full.len());
        for mv in &full {
            assert!(pruned.iter().any(|k| are_isomorphic(&k.result, &mv.result)));
        }
    }

    #[test]
    fn twin_classes_detects_full_symmetry() {
        let c3 = Problem::parse("name: c3\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        assert_eq!(twin_classes(&c3), vec![0, 0, 0]);
        // sc's labels have different roles: all classes singleton.
        assert_eq!(twin_classes(&sc()), vec![0, 1]);
    }
}
