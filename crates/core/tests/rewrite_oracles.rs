//! Oracle cross-checks for the engine rewrites: the set-based oriented
//! 0-round decider against the original split-backtracking decider, and
//! the refined-invariant isomorphism machinery against renamed copies
//! (the canonical key must be labeling-independent — the historic
//! implementation anchored permutation targets to source indices and was
//! not, which silently duplicated cache classes).

use rand::{Rng, SeedableRng};
use roundelim_core::constraint::Constraint;
use roundelim_core::label::{Alphabet, Label};
use roundelim_core::problem::Problem;
use roundelim_core::zero_round::zero_round_oriented;

fn random_problem(rng: &mut rand::rngs::StdRng) -> Option<Problem> {
    let n = rng.gen_range(2..=5);
    let delta = rng.gen_range(2..=4);
    let names: Vec<String> = (0..n).map(|i| format!("L{i}")).collect();
    let alphabet = Alphabet::from_names(names.iter().map(String::as_str)).unwrap();
    let node = Constraint::from_configs(
        delta,
        roundelim_core::config::all_multisets(n, delta).into_iter().filter(|_| rng.gen_bool(0.3)),
    )
    .unwrap();
    let edge = Constraint::from_configs(
        2,
        roundelim_core::config::all_multisets(n, 2).into_iter().filter(|_| rng.gen_bool(0.45)),
    )
    .unwrap();
    if node.is_empty() || edge.is_empty() {
        return None;
    }
    Problem::new("t", alphabet, node, edge).ok()
}

/// The pre-rewrite decider, verbatim.
mod old {
    use super::*;
    pub fn zero_round_oriented_old(p: &Problem) -> bool {
        let delta = p.delta();
        let mut options: Vec<Vec<(Vec<Label>, Vec<Label>)>> = Vec::with_capacity(delta + 1);
        for k in 0..=delta {
            let mut opts = Vec::new();
            for cfg in p.node().iter() {
                splits_of(cfg, k, &mut opts);
            }
            if opts.is_empty() {
                return false;
            }
            options.push(opts);
        }
        let mut chosen: Vec<usize> = Vec::with_capacity(delta + 1);
        search(p, &options, 0, &mut chosen)
    }

    fn splits_of(labels: &[Label], k: usize, out: &mut Vec<(Vec<Label>, Vec<Label>)>) {
        let n = labels.len();
        if k > n {
            return;
        }
        let mut seen = std::collections::HashSet::new();
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            let mut ins = Vec::with_capacity(k);
            let mut outs = Vec::with_capacity(n - k);
            let mut which = vec![false; n];
            for &i in &idx {
                which[i] = true;
            }
            for i in 0..n {
                if which[i] {
                    ins.push(labels[i]);
                } else {
                    outs.push(labels[i]);
                }
            }
            ins.sort_unstable();
            outs.sort_unstable();
            if seen.insert((ins.clone(), outs.clone())) {
                out.push((ins, outs));
            }
            if k == 0 {
                break;
            }
            let mut i = k;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                if idx[i] != i + n - k {
                    break;
                }
            }
            if idx[i] == i + n - k {
                return;
            }
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }

    fn search(
        p: &Problem,
        options: &[Vec<(Vec<Label>, Vec<Label>)>],
        k: usize,
        chosen: &mut Vec<usize>,
    ) -> bool {
        if k == options.len() {
            return true;
        }
        'opt: for (ix, (ins, outs)) in options[k].iter().enumerate() {
            for (k2, &ix2) in chosen.iter().enumerate() {
                let (ins2, outs2) = &options[k2][ix2];
                if !cross_ok(p, outs, ins2) || !cross_ok(p, outs2, ins) {
                    continue 'opt;
                }
            }
            if !cross_ok(p, outs, ins) {
                continue 'opt;
            }
            chosen.push(ix);
            if search(p, options, k + 1, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }

    fn cross_ok(p: &Problem, outs: &[Label], ins: &[Label]) -> bool {
        outs.iter().all(|&o| ins.iter().all(|&i| p.edge_ok(o, i)))
    }
}

#[test]
fn zero_round_matches_old_decider() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xDEAD);
    let mut checked = 0;
    for trial in 0..500 {
        let Some(p) = random_problem(&mut rng) else { continue };
        checked += 1;
        let new = zero_round_oriented(p.packed()).is_some();
        let old = old::zero_round_oriented_old(&p);
        assert_eq!(new, old, "trial {trial} mismatch on {p}");
    }
    assert!(checked > 100);
}

#[test]
fn refined_iso_invariant_under_renaming() {
    use roundelim_core::iso::{are_isomorphic, canonical_key, refined_label_hashes};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    for trial in 0..300 {
        let Some(p) = random_problem(&mut rng) else { continue };
        let n = p.alphabet().len();
        // random permutation
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let names: Vec<String> = (0..n).map(|i| format!("R{i}")).collect();
        let alphabet = Alphabet::from_names(names.iter().map(String::as_str)).unwrap();
        let node = p.node().map_labels(|l| Label::from_index(perm[l.index()]));
        let edge = p.edge().map_labels(|l| Label::from_index(perm[l.index()]));
        let q = Problem::new("q", alphabet, node, edge).unwrap();
        assert!(are_isomorphic(&p, &q), "trial {trial}: renamed copy must be isomorphic\n{p}");
        assert_eq!(canonical_key(&p), canonical_key(&q), "trial {trial} canonical key");
        let mut hp = refined_label_hashes(p.packed());
        let mut hq = refined_label_hashes(q.packed());
        hp.sort_unstable();
        hq.sort_unstable();
        assert_eq!(hp, hq, "trial {trial} hash multiset");
    }
}
