//! The move generators as they were before candidates became packed
//! quotients: every candidate built as a full [`Problem`] through
//! [`Constraint::map_labels`], the dominance scan probing each
//! constraint's trie. Kept as the reference the packed generators must
//! match move for move.

use super::{class_members, pair_is_orbit_rep, twin_classes, MoveKind};
use roundelim_core::config::Config;
use roundelim_core::constraint::Constraint;
use roundelim_core::label::{Alphabet, Label};
use roundelim_core::labelset::LabelSet;
use roundelim_core::problem::Problem;
use std::collections::HashSet;

/// A move with its result named: what it does, the witness map, and the
/// result problem.
#[derive(Debug, PartialEq)]
pub(super) struct Named {
    pub kind: MoveKind,
    pub map: Vec<Label>,
    pub result: Problem,
}

/// The quotient of `p` under `rep` (representatives are fixed points and
/// keep their names, in old-index order).
pub(super) fn quotient(p: &Problem, rep: &[usize], kind: MoveKind) -> Named {
    let mut new_index = vec![usize::MAX; p.alphabet().len()];
    let mut names: Vec<&str> = Vec::new();
    for i in 0..p.alphabet().len() {
        if rep[i] == i {
            new_index[i] = names.len();
            names.push(p.alphabet().name(Label::from_index(i)));
        }
    }
    let alphabet = Alphabet::from_names(names).unwrap();
    let map: Vec<Label> =
        (0..p.alphabet().len()).map(|i| Label::from_index(new_index[rep[i]])).collect();
    let node = p.node().map_labels(|l| map[l.index()]);
    let edge = p.edge().map_labels(|l| map[l.index()]);
    let result = Problem::new_unchecked(format!("{}″", p.name()), alphabet, node, edge);
    Named { kind, map, result }
}

fn replacement_stays_inside(c: &Constraint, a: Label, b: Label, buf: &mut Vec<Label>) -> bool {
    let trie = c.trie();
    c.iter().filter(|cfg| cfg.contains(&a)).all(|cfg| {
        buf.clear();
        buf.extend(cfg.iter().map(|&l| if l == a { b } else { l }));
        buf.sort_unstable();
        trie.contains_sorted(buf)
    })
}

fn edge_dominates(rows: &[LabelSet], a: usize, b: usize) -> bool {
    let (la, lb) = (Label::from_index(a), Label::from_index(b));
    let mut off_diag = rows[a];
    off_diag.remove(la);
    off_diag.is_subset(&rows[b]) && (!rows[a].contains(la) || rows[b].contains(lb))
}

fn dominated_pairs(p: &Problem) -> Vec<(usize, usize)> {
    let n = p.alphabet().len();
    let mut buf = Vec::new();
    let rows = (p.edge().arity() == 2).then(|| p.packed().edge_rows());
    let mut out = Vec::new();
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            let (la, lb) = (Label::from_index(a), Label::from_index(b));
            let edge_ok = match &rows {
                Some(rows) => edge_dominates(rows, a, b),
                None => replacement_stays_inside(p.edge(), la, lb, &mut buf),
            };
            if edge_ok && replacement_stays_inside(p.node(), la, lb, &mut buf) {
                out.push((a, b));
            }
        }
    }
    out
}

pub(super) fn simplify_move(p: &Problem) -> Option<Named> {
    let mut current = p.clone();
    let mut map: Vec<Label> = (0..p.alphabet().len()).map(Label::from_index).collect();
    let mut absorbed = 0usize;
    while let Some(&(a, b)) = dominated_pairs(&current).first() {
        let mut rep: Vec<usize> = (0..current.alphabet().len()).collect();
        rep[a] = b;
        let mv = quotient(&current, &rep, MoveKind::Coarsen);
        for slot in map.iter_mut() {
            *slot = mv.map[slot.index()];
        }
        current = mv.result;
        absorbed += 1;
    }
    (absorbed > 0).then(|| Named { kind: MoveKind::Simplify(absorbed), map, result: current })
}

pub(super) fn coarsen_move(p: &Problem) -> Option<Named> {
    if p.edge().arity() != 2 {
        return None;
    }
    let n = p.alphabet().len();
    let mut rows = vec![vec![false; n]; n];
    for cfg in p.edge().iter() {
        let (a, b) = (cfg[0].index(), cfg[1].index());
        rows[a][b] = true;
        rows[b][a] = true;
    }
    let mut rep: Vec<usize> = (0..n).collect();
    let mut merged = false;
    for i in 0..n {
        if let Some(j) = (0..i).find(|&j| rows[i] == rows[j]) {
            rep[i] = rep[j];
            merged = true;
        }
    }
    merged.then(|| quotient(p, &rep, MoveKind::Coarsen))
}

/// The old `for_each_relax_move`, collected.
pub(super) fn relax_moves(p: &Problem, prune: bool, subset_rows_only: bool) -> Vec<Named> {
    let mut out = Vec::new();
    out.extend(simplify_move(p));
    let orbit = prune.then(|| {
        let rep = twin_classes(p.packed());
        let members = class_members(&rep);
        (rep, members)
    });
    let n = p.alphabet().len();
    let dominated_list = dominated_pairs(p);
    if !subset_rows_only {
        for &(a, b) in &dominated_list {
            if let Some((rep, members)) = &orbit {
                if !pair_is_orbit_rep(a, b, rep, members) {
                    continue;
                }
            }
            let mut rep_map: Vec<usize> = (0..n).collect();
            rep_map[a] = b;
            out.push(quotient(
                p,
                &rep_map,
                MoveKind::Absorb(Label::from_index(a), Label::from_index(b)),
            ));
        }
    }
    out.extend(coarsen_move(p));
    let dominated: HashSet<(usize, usize)> =
        dominated_list.into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect();
    let rows = if subset_rows_only { Some(p.packed().edge_rows()) } else { None };
    for a in 0..n {
        for b in (a + 1)..n {
            if dominated.contains(&(a, b)) {
                continue;
            }
            if let Some((rep, members)) = &orbit {
                if !pair_is_orbit_rep(a, b, rep, members) {
                    continue;
                }
                if let Some(rows) = &rows {
                    if !rows[a].is_subset(&rows[b]) && !rows[b].is_subset(&rows[a]) {
                        continue;
                    }
                }
            }
            let mut rep_map: Vec<usize> = (0..n).collect();
            rep_map[b] = a;
            out.push(quotient(
                p,
                &rep_map,
                MoveKind::Merge(Label::from_index(a), Label::from_index(b)),
            ));
        }
    }
    out
}

/// The old `for_each_harden_move`, collected.
pub(super) fn harden_moves(p: &Problem, prune: bool) -> Vec<Named> {
    let mut out = Vec::new();
    let n = p.alphabet().len();
    let twins = prune.then(|| twin_classes(p.packed()));
    for dropped in 0..n {
        if twins.as_ref().is_some_and(|rep| rep[dropped] != dropped) {
            continue;
        }
        let keep = LabelSet::from_labels((0..n).filter(|&i| i != dropped).map(Label::from_index));
        let node = p.node().restrict(&keep);
        let edge = p.edge().restrict(&keep);
        if node.is_empty() || edge.is_empty() {
            continue;
        }
        let names =
            (0..n).filter(|&i| i != dropped).map(|i| p.alphabet().name(Label::from_index(i)));
        let alphabet = Alphabet::from_names(names).unwrap();
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
        let kind = MoveKind::DropLabel(Label::from_index(dropped));
        out.push(Named { kind, map: back, result });
    }
    if p.node().len() <= super::MAX_CONFIG_DROPS && p.node().len() >= 2 {
        let identity: Vec<Label> = (0..n).map(Label::from_index).collect();
        for (ix, dropped_cfg) in p.node().iter().enumerate() {
            let configs =
                p.node().iter().filter(|c| *c != dropped_cfg).map(|c| Config::new(c.to_vec()));
            let node = Constraint::from_configs(p.node().arity(), configs).unwrap();
            let alphabet = p.alphabet().clone();
            let Ok(result) =
                Problem::new(format!("{}*", p.name()), alphabet, node, p.edge().clone())
            else {
                continue;
            };
            out.push(Named { kind: MoveKind::DropNodeConfig(ix), map: identity.clone(), result });
        }
    }
    out
}
