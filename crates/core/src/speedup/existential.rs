//! The *existential* half of a speedup step.
//!
//! After the universal half has produced a new alphabet of set-labels
//! `S₁, …, S_m` (each denoting a set of old labels), the sibling constraint
//! `D` of arity `s` is transformed existentially: a multiset
//! `(Y₁, …, Y_s)` of new labels is allowed iff *some* choice of old labels
//! `y_i ∈ meaning(Y_i)` is a configuration of `D` — Property 2 (for
//! `h_{1/2}`) and Property 3 (for `g₁`) of the paper.

use crate::constraint::Constraint;
use crate::label::Label;
use crate::labelset::LabelSet;

/// Whether some choice `y_i ∈ sets[i]` forms a configuration of `d`.
///
/// Implemented by scanning `d`'s configurations and testing whether the
/// configuration's labels can be matched bijectively to positions whose set
/// contains them (a small bipartite matching, cheap for the arities that
/// occur in practice).
pub fn exists_choice(sets: &[LabelSet], d: &Constraint) -> bool {
    if sets.len() != d.arity() {
        return false;
    }
    d.iter().any(|cfg| config_matches(cfg, sets))
}

/// Whether the multiset `labels` can be assigned bijectively to positions
/// such that `labels[i] ∈ sets[assign(i)]`.
///
/// Runs as a candidate-bitmask backtracking matcher (one `u64` mask per
/// label, no allocation) for the arities that occur in practice; arities
/// above 64 fall back to a boolean-vector matcher.
pub fn config_matches(labels: &[Label], sets: &[LabelSet]) -> bool {
    debug_assert_eq!(labels.len(), sets.len());
    let n = labels.len();
    if n > 64 {
        return config_matches_general(labels, sets);
    }
    // cand[i]: positions whose set admits labels[i]. Equal labels share a
    // mask, so the per-label loop reuses the previous mask for runs.
    let mut cand = [0u64; 64];
    for (i, &l) in labels.iter().enumerate() {
        let mask = if i > 0 && labels[i - 1] == l {
            cand[i - 1]
        } else {
            let mut m = 0u64;
            for (j, s) in sets.iter().enumerate() {
                if s.contains(l) {
                    m |= 1 << j;
                }
            }
            m
        };
        if mask == 0 {
            return false;
        }
        cand[i] = mask;
    }
    matches_masks(&cand[..n])
}

/// Items up to which a greedy jam falls back to plain backtracking: its
/// zero-setup recursion beats the flow matcher's array initialization, and
/// at ≤ 6 items the worst case is a few thousand steps. Above, repeated
/// labels make backtracking worst-case factorial in their multiplicity —
/// `{A B^8}`-shaped configurations made it the dominant cost of the weak2
/// Δ≥9 speedup — so the polynomial flow matcher takes over.
const FLOW_MIN_ITEMS: usize = 7;

/// Bijective matching over per-item candidate masks: greedy first (the
/// common success path needs no recursion); when the greedy pass jams,
/// plain backtracking for short inputs and augmenting-path matching over
/// grouped masks (Kuhn's algorithm with multiplicities) for long ones.
/// All three decide the same question.
pub(crate) fn matches_masks(cand: &[u64]) -> bool {
    let mut used = 0u64;
    for &m in cand {
        let avail = m & !used;
        if avail == 0 {
            return if cand.len() < FLOW_MIN_ITEMS {
                matches_masks_backtrack(cand, 0, 0)
            } else {
                matches_masks_flow(cand)
            };
        }
        used |= avail & avail.wrapping_neg();
    }
    true
}

fn matches_masks_backtrack(cand: &[u64], used: u64, i: usize) -> bool {
    if i == cand.len() {
        return true;
    }
    let mut avail = cand[i] & !used;
    while avail != 0 {
        let j = avail & avail.wrapping_neg();
        if matches_masks_backtrack(cand, used | j, i + 1) {
            return true;
        }
        avail ^= j;
    }
    false
}

/// Exact matching feasibility via augmenting paths over grouped masks.
/// Allocation-free: `cand.len() ≤ 64` (the callers' bitmask width), so all
/// working state lives in fixed stack arrays.
fn matches_masks_flow(cand: &[u64]) -> bool {
    // Distinct masks with multiplicities (equal labels share a mask, so
    // grouping collapses the factorial symmetry of the backtracking).
    debug_assert!(cand.len() <= 64);
    let mut masks = [0u64; 64];
    let mut count = [0u32; 64];
    let mut groups = 0usize;
    for &m in cand {
        match masks[..groups].iter().position(|&x| x == m) {
            Some(i) => count[i] += 1,
            None => {
                masks[groups] = m;
                count[groups] = 1;
                groups += 1;
            }
        }
    }
    let (masks, count) = (&masks[..groups], &count[..groups]);
    /// Tries to place one more unit of group `g`, reassigning previously
    /// placed units along an augmenting path. `visited` marks positions
    /// already explored in this augmentation.
    fn augment(g: usize, masks: &[u64], owner: &mut [usize; 64], visited: &mut u64) -> bool {
        loop {
            let avail = masks[g] & !*visited;
            if avail == 0 {
                return false;
            }
            let bit = avail & avail.wrapping_neg();
            let p = bit.trailing_zeros() as usize;
            *visited |= bit;
            if owner[p] == usize::MAX || augment(owner[p], masks, owner, visited) {
                owner[p] = g;
                return true;
            }
        }
    }
    let mut owner: [usize; 64] = [usize::MAX; 64];
    for (g, &c) in count.iter().enumerate() {
        for _ in 0..c {
            let mut visited = 0u64;
            if !augment(g, masks, &mut owner, &mut visited) {
                return false;
            }
        }
    }
    true
}

/// Fallback matcher for arities above 64 (no bitmasks).
fn config_matches_general(labels: &[Label], sets: &[LabelSet]) -> bool {
    let n = labels.len();
    let mut used = vec![false; n];
    fn assign(labels: &[Label], sets: &[LabelSet], used: &mut [bool], i: usize) -> bool {
        if i == labels.len() {
            return true;
        }
        for j in 0..sets.len() {
            if !used[j] && sets[j].contains(labels[i]) {
                used[j] = true;
                if assign(labels, sets, used, i + 1) {
                    used[j] = false;
                    return true;
                }
                used[j] = false;
            }
        }
        false
    }
    assign(labels, sets, &mut used, 0)
}

/// Enumerates the existential constraint: all arity-`s` multisets over the
/// new alphabet (indices into `meanings`) admitting a choice in `d`, where
/// `meanings[i]` is the old-label set denoted by new label `i`.
///
/// The output configurations are over the *new* alphabet.
///
/// The choice test is incremental: per old label, a bitmask of multiset
/// positions whose meaning contains it is maintained across the multiset
/// enumeration (updated as positions are pushed and popped), so each leaf
/// runs the bijective matcher straight off precomputed masks instead of
/// rebuilding position sets per configuration probe. Arities above 64 take
/// the allocation-per-leaf fallback.
pub fn existential_constraint(meanings: &[LabelSet], d: &Constraint) -> Constraint {
    let _sp = roundelim_obs::trace::span("stage.existential");
    let s = d.arity();
    let m = meanings.len();
    if s > 64 {
        return existential_constraint_general(meanings, d);
    }
    // The multiset enumeration emits accepted configurations in ascending
    // lexicographic order, so their labels go straight into the row table.
    let mut out: Vec<Label> = Vec::new();
    // masks[l]: positions of the current partial multiset whose meaning
    // contains old label `l`. Sized by d's support.
    let max_label = d.iter().flatten().map(|l| l.index()).max();
    let Some(max_label) = max_label else {
        return Constraint::new(s).expect("arity ≥ 1 by Constraint invariant");
    };
    let mut masks: Vec<u64> = vec![0; max_label + 1];
    let mut stack: Vec<usize> = Vec::with_capacity(s);
    let mut cand = [0u64; 64];

    #[allow(clippy::too_many_arguments)]
    fn rec(
        meanings: &[LabelSet],
        d: &Constraint,
        m: usize,
        s: usize,
        start: usize,
        stack: &mut Vec<usize>,
        masks: &mut [u64],
        cand: &mut [u64],
        out: &mut Vec<Label>,
    ) {
        if stack.len() == s {
            'configs: for cfg in d.iter() {
                for (i, &l) in cfg.iter().enumerate() {
                    let mask = masks[l.index()];
                    if mask == 0 {
                        continue 'configs;
                    }
                    cand[i] = mask;
                }
                if matches_masks(cand) {
                    out.extend(stack.iter().map(|&i| Label::from_index(i)));
                    return;
                }
            }
            return;
        }
        let bit = 1u64 << stack.len();
        for i in start..m {
            stack.push(i);
            for l in meanings[i].iter() {
                if let Some(slot) = masks.get_mut(l.index()) {
                    *slot |= bit;
                }
            }
            rec(meanings, d, m, s, i, stack, masks, cand, out);
            for l in meanings[i].iter() {
                if let Some(slot) = masks.get_mut(l.index()) {
                    *slot &= !bit;
                }
            }
            stack.pop();
        }
    }
    rec(meanings, d, m, s, 0, &mut stack, &mut masks, &mut cand[..s], &mut out);
    Constraint::from_sorted_rows(s, out)
}

/// Fallback enumeration for arities above the matcher's 64-bit width.
fn existential_constraint_general(meanings: &[LabelSet], d: &Constraint) -> Constraint {
    let mut out: Vec<Label> = Vec::new();
    let s = d.arity();
    let m = meanings.len();
    let mut stack: Vec<usize> = Vec::with_capacity(s);
    fn rec(
        meanings: &[LabelSet],
        d: &Constraint,
        m: usize,
        s: usize,
        start: usize,
        stack: &mut Vec<usize>,
        out: &mut Vec<Label>,
    ) {
        if stack.len() == s {
            let sets: Vec<LabelSet> = stack.iter().map(|&i| meanings[i]).collect();
            if exists_choice(&sets, d) {
                out.extend(stack.iter().map(|&i| Label::from_index(i)));
            }
            return;
        }
        for i in start..m {
            stack.push(i);
            rec(meanings, d, m, s, i, stack, out);
            stack.pop();
        }
    }
    rec(meanings, d, m, s, 0, &mut stack, &mut out);
    Constraint::from_sorted_rows(s, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn l(i: usize) -> Label {
        Label::from_index(i)
    }

    fn cfg(ixs: &[usize]) -> Config {
        Config::new(ixs.iter().map(|&i| l(i)).collect())
    }

    fn set(ixs: &[usize]) -> LabelSet {
        ixs.iter().map(|&i| l(i)).collect()
    }

    #[test]
    fn exists_choice_positive_and_negative() {
        // d = {{0,1}} (one allowed pair)
        let d = Constraint::from_configs(2, [cfg(&[0, 1])]).unwrap();
        assert!(exists_choice(&[set(&[0]), set(&[1, 2])], &d));
        assert!(exists_choice(&[set(&[1]), set(&[0])], &d));
        assert!(!exists_choice(&[set(&[0]), set(&[0, 2])], &d));
        assert!(!exists_choice(&[set(&[0])], &d)); // arity mismatch
    }

    #[test]
    fn config_matches_needs_bijection() {
        // config {0,0} against sets ({0}, {1}): second position cannot take 0.
        assert!(!config_matches(&[l(0), l(0)], &[set(&[0]), set(&[1])]));
        assert!(config_matches(&[l(0), l(0)], &[set(&[0]), set(&[0, 1])]));
        // Permutation required: labels sorted (0,1), sets ({1},{0}).
        assert!(config_matches(&[l(0), l(1)], &[set(&[1]), set(&[0])]));
    }

    #[test]
    fn existential_constraint_sinkless_coloring() {
        // Paper §4.4: Π_{1/2} of sinkless coloring. Old node constraint
        // (Δ=3): exactly one 1 → config {0,0,1}. New alphabet after the
        // universal edge step: A = {0}, B = {0,1}.
        let h = Constraint::from_configs(3, [cfg(&[0, 0, 1])]).unwrap();
        let meanings = vec![set(&[0]), set(&[0, 1])];
        let h_half = existential_constraint(&meanings, &h);
        // Allowed: any multiset over {A,B} with at least one B
        // (B provides the 1; everything provides a 0 — but a line of all B
        // works too: pick 1 from one B, 0 from the rest).
        // Over {A,B} with arity 3 there are 4 multisets; all except AAA.
        assert_eq!(h_half.len(), 3);
        assert!(!h_half.contains(&cfg(&[0, 0, 0]))); // AAA has no 1
        assert!(h_half.contains(&cfg(&[0, 0, 1]))); // AAB
        assert!(h_half.contains(&cfg(&[0, 1, 1]))); // ABB
        assert!(h_half.contains(&cfg(&[1, 1, 1]))); // BBB
    }

    #[test]
    fn existential_constraint_empty_when_no_choice() {
        let d = Constraint::from_configs(2, [cfg(&[0, 0])]).unwrap();
        let meanings = vec![set(&[1]), set(&[2])];
        let e = existential_constraint(&meanings, &d);
        assert!(e.is_empty());
    }

    #[test]
    fn exhaustive_against_product_enumeration() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let n = rng.gen_range(2..=4);
            let arity = rng.gen_range(2..=3);
            let all = crate::config::all_multisets(n, arity);
            let d = Constraint::from_configs(arity, all.into_iter().filter(|_| rng.gen_bool(0.4)))
                .unwrap();
            // Random sets.
            let sets: Vec<LabelSet> = (0..arity)
                .map(|_| {
                    let mut s = LabelSet::empty();
                    for i in 0..n {
                        if rng.gen_bool(0.6) {
                            s.insert(l(i));
                        }
                    }
                    if s.is_empty() {
                        s.insert(l(0));
                    }
                    s
                })
                .collect();
            // Oracle: full product.
            let mut found = false;
            let idx: Vec<Vec<Label>> = sets.iter().map(|s| s.iter().collect()).collect();
            let mut counters = vec![0usize; arity];
            'outer: loop {
                let choice: Vec<Label> = (0..arity).map(|i| idx[i][counters[i]]).collect();
                if d.contains(&Config::new(choice)) {
                    found = true;
                    break;
                }
                // increment
                for i in 0..arity {
                    counters[i] += 1;
                    if counters[i] < idx[i].len() {
                        continue 'outer;
                    }
                    counters[i] = 0;
                }
                break;
            }
            assert_eq!(exists_choice(&sets, &d), found);
        }
    }
}
