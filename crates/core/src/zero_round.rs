//! Zero-round solvability deciders.
//!
//! The endgame of every lower-bound argument in the paper (§2.1): iterate
//! the speedup until the current problem is solvable in 0 rounds; the
//! number of steps is then (a lower bound on) the complexity of the
//! original problem. These deciders characterize 0-round solvability in the
//! port-numbering model for the two input regimes used by the paper.
//!
//! ## Plain port numbering (no inputs)
//!
//! With no symmetry-breaking input, every node of a Δ-regular graph has the
//! same radius-0 view, so a deterministic 0-round algorithm assigns one
//! fixed label per port: a single configuration `y₁, …, y_Δ`. The adversary
//! controls the port alignment across each edge (including connecting port
//! i of one node to port i of another), so correctness requires
//! `{y_i, y_j} ∈ g` for **all** i, j — including i = j, since two adjacent
//! nodes may use the same port for their shared edge.
//!
//! ## Port numbering + input edge orientations
//!
//! With consistent edge orientations as input (the regime Theorem 2 needs),
//! a node's radius-0 view is the orientation pattern of its ports; by
//! worst-case port renumbering only the *indegree* k matters, and the
//! algorithm may choose, for each k it can observe, a multiset of labels
//! for its in-ports and one for its out-ports. The adversary wires any
//! out-port of any view to any in-port of any view.

use crate::config::Config;
use crate::label::Label;
use crate::labelset::LabelSet;
use crate::problem::Problem;

/// A witness that a problem is 0-round solvable in the plain PN model: the
/// single configuration every node outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroRoundWitness {
    /// The node configuration (one label per port).
    pub config: Config,
}

/// Decides 0-round solvability in the plain port-numbering model (no
/// inputs), returning a witness configuration if one exists.
///
/// A configuration works iff it is in `h` and all its label pairs
/// (unordered, with repetition) are in `g`.
///
/// ```
/// use roundelim_core::problem::Problem;
/// use roundelim_core::zero_round::zero_round_pn;
/// // Sinkless orientation is not 0-round solvable …
/// let so = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
/// assert!(zero_round_pn(&so).is_none());
/// // … but "everyone outputs X" is.
/// let triv = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
/// assert!(zero_round_pn(&triv).is_some());
/// ```
pub fn zero_round_pn(p: &Problem) -> Option<ZeroRoundWitness> {
    'cfg: for cfg in p.node().iter() {
        // Every unordered pair of the support, walked over the sorted
        // labels in place: `a` skips repeats, and `b` starts at `a`'s
        // position so the pair {a, a} is checked too.
        let labels = cfg.labels();
        for (i, &a) in labels.iter().enumerate() {
            if i > 0 && labels[i - 1] == a {
                continue;
            }
            for (j, &b) in labels.iter().enumerate().skip(i) {
                if j > i && labels[j - 1] == b {
                    continue;
                }
                if !p.edge_ok(a, b) {
                    continue 'cfg;
                }
            }
        }
        return Some(ZeroRoundWitness { config: cfg.clone() });
    }
    None
}

/// A 0-round algorithm in the orientation-input regime: for each indegree
/// `k` (0 ≤ k ≤ Δ) a split of one node configuration into labels for
/// in-ports and labels for out-ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrientedZeroRoundWitness {
    /// `plans[k] = (labels on the k in-ports, labels on the Δ-k out-ports)`.
    pub plans: Vec<(Vec<Label>, Vec<Label>)>,
}

/// Decides 0-round solvability in the PN model **with input edge
/// orientations**, returning the per-indegree output plan if one exists.
///
/// Correctness conditions encoded:
/// * for every indegree `k`, `in_labels ∪ out_labels ∈ h`;
/// * every label placed on *any* out-port is `g`-compatible with every
///   label placed on *any* in-port (of any view, including the same view):
///   the adversary may wire any out-port to any in-port of any other node.
///
/// The graph class contains all orientations, so **all** indegrees
/// 0, …, Δ occur and each needs a plan. (Indegree 0 has only out-ports and
/// indegree Δ only in-ports; their cross conditions still apply.)
///
/// The decider reduces each candidate split to its `(in, out)` support
/// pair (Pareto-pruned per indegree) and backtracks over one view per
/// indegree with the accumulated `(in-union, compatible-set)` state
/// memoized on failure — every condition is a bitset subset test against
/// precomputed edge-compatibility rows. The automated bound search runs
/// this decider on every new canonical class, so it sits on the autolb
/// hot path.
///
/// # Panics
///
/// Panics if Δ exceeds 64: splits are `u64` position masks.
pub fn zero_round_oriented(p: &Problem) -> Option<OrientedZeroRoundWitness> {
    let delta = p.delta();
    assert!(
        delta <= MAX_SPLIT_ARITY,
        "zero_round_oriented supports Δ ≤ {MAX_SPLIT_ARITY}, got Δ = {delta}"
    );
    let n = p.alphabet().len();
    // Per-label edge-compatibility rows: every cross condition reduces to
    // bitset subset tests against these.
    let row = p.edge_rows();

    // Candidate views per indegree. Correctness depends only on the label
    // *supports* of a view (the adversary wires ports by label, not by
    // multiplicity), so splits are deduplicated by their (in, out) support
    // pair — the first split seen keeps its configuration and position
    // mask for the witness — and Pareto-pruned: a view whose supports
    // contain another view's supports imposes strictly more cross
    // constraints and can never help. Only canonical masks are visited
    // (one per distinct multiset split, see [`canonical_splits`]), in the
    // lexicographic order of their positions, so the first split seen per
    // support pair is the one a plain k-subset enumeration sees first.
    let mut options: Vec<Vec<View<(&Config, u64)>>> = Vec::with_capacity(delta + 1);
    for k in 0..=delta {
        let mut views = Vec::new();
        for cfg in p.node().iter() {
            let labels = cfg.labels();
            canonical_splits(labels, k, &mut |mask| {
                let mut ins_set = LabelSet::empty();
                let mut outs_set = LabelSet::empty();
                for (i, &l) in labels.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        ins_set.insert(l);
                    } else {
                        outs_set.insert(l);
                    }
                }
                push_view(&mut views, ins_set, outs_set, (cfg, mask), &row, n);
            });
        }
        prune_dominated(&mut views);
        if views.is_empty() {
            return None;
        }
        options.push(views);
    }
    let chosen = choose_views(&options, n)?;
    let plans = chosen
        .iter()
        .enumerate()
        .map(|(k, &ix)| {
            let (cfg, mask) = options[k][ix].split;
            split_at_mask(cfg.labels(), mask)
        })
        .collect();
    Some(OrientedZeroRoundWitness { plans })
}

/// The `(in-port, out-port)` label multisets of the split whose in-port
/// positions are the set bits of `mask`.
fn split_at_mask(labels: &[Label], mask: u64) -> (Vec<Label>, Vec<Label>) {
    let in_port = |i: usize| mask >> i & 1 == 1;
    let pick = |keep: bool| {
        labels.iter().enumerate().filter(|&(i, _)| in_port(i) == keep).map(|(_, &l)| l).collect()
    };
    (pick(true), pick(false))
}

/// Largest node arity [`zero_round_oriented`] handles: a split is a `u64`
/// mask of in-port positions.
const MAX_SPLIT_ARITY: usize = u64::BITS as usize;

/// Calls `f` with the position mask of every *canonical* `k`-subset of
/// `labels` (sorted), in the lexicographic order of the subsets' sorted
/// positions. A subset is canonical when, within every run of equal
/// labels, its positions are a prefix of the run: each distinct
/// `(in, out)` multiset split has exactly one canonical mask, and it is
/// the split's lexicographically first subset. A non-canonical choice is
/// cut where it is made — a run-continuing position whose predecessor is
/// left out — since no completion of it is canonical.
fn canonical_splits(labels: &[Label], k: usize, f: &mut impl FnMut(u64)) {
    fn rec(labels: &[Label], k: usize, from: usize, mask: u64, f: &mut impl FnMut(u64)) {
        if k == 0 {
            f(mask);
            return;
        }
        for i in from..=labels.len() - k {
            if i > from && labels[i - 1] == labels[i] {
                // Position `i - 1`, of the same run, stays out while `i`
                // would go in.
                continue;
            }
            rec(labels, k - 1, i + 1, mask | 1 << i, f);
        }
    }
    if k <= labels.len() {
        rec(labels, k, 0, 0, f);
    }
}

/// One candidate 0-round view: a split of a node configuration into
/// in-port and out-port labels, reduced to the sets the search needs.
/// `S` identifies the split itself, for the witness.
struct View<S> {
    /// Support of the in-port labels.
    ins_set: LabelSet,
    /// Support of the out-port labels.
    outs_set: LabelSet,
    /// Labels compatible with every out-label of this view.
    cl_out: LabelSet,
    /// The split this view stands for.
    split: S,
}

/// Appends the view of one split unless an earlier view has the same
/// support pair or the split fails the self cross condition: any out-port
/// may face any in-port of the same view (the adversary can pair a node
/// with a copy of itself).
fn push_view<S>(
    views: &mut Vec<View<S>>,
    ins_set: LabelSet,
    outs_set: LabelSet,
    split: S,
    row: &[LabelSet],
    n: usize,
) {
    if views.iter().any(|v| v.ins_set == ins_set && v.outs_set == outs_set) {
        return;
    }
    // cl(outs) = labels compatible with every out-label.
    let mut cl_out = LabelSet::first_n(n);
    for l in outs_set.iter() {
        cl_out = cl_out.intersection(&row[l.index()]);
    }
    if ins_set.is_subset(&cl_out) {
        views.push(View { ins_set, outs_set, cl_out, split });
    }
}

/// Drops every view whose supports contain another view's (quadratic in
/// the deduplicated view count); ties on equal support pairs cannot occur
/// after [`push_view`]'s dedup.
fn prune_dominated<S>(views: &mut Vec<View<S>>) {
    let dominated: Vec<bool> = (0..views.len())
        .map(|i| {
            views.iter().enumerate().any(|(j, w)| {
                j != i
                    && w.ins_set.is_subset(&views[i].ins_set)
                    && w.outs_set.is_subset(&views[i].outs_set)
            })
        })
        .collect();
    let mut it = dominated.iter();
    views.retain(|_| !*it.next().expect("one flag per view"));
}

/// Chooses one view per indegree (`options[k]`), returning the chosen
/// indices. The only global state that matters is `(ins_all, cap_in)`:
/// the union of chosen in-supports and the set of labels still usable on
/// in-ports (compatible with every chosen out-label). Adding a view
/// requires `ins_all ⊆ cl(view.outs)` and `view.ins ⊆ cap_in`; failed
/// states are memoized, which turns the exponential split search into a
/// walk over distinct set pairs.
fn choose_views<S>(options: &[Vec<View<S>>], n: usize) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = (0..options.len()).collect();
    order.sort_by_key(|&k| options[k].len());
    let mut chosen: Vec<usize> = vec![usize::MAX; options.len()];
    let mut failed: std::collections::HashSet<(usize, LabelSet, LabelSet)> =
        std::collections::HashSet::new();
    choose(options, &order, 0, LabelSet::empty(), LabelSet::first_n(n), &mut chosen, &mut failed)
        .then_some(chosen)
}

/// Backtracking view choice for [`choose_views`], with failure
/// memoization on the `(level, ins_all, cap_in)` state.
fn choose<S>(
    options: &[Vec<View<S>>],
    order: &[usize],
    level: usize,
    ins_all: LabelSet,
    cap_in: LabelSet,
    chosen: &mut [usize],
    failed: &mut std::collections::HashSet<(usize, LabelSet, LabelSet)>,
) -> bool {
    if level == order.len() {
        return true;
    }
    if failed.contains(&(level, ins_all, cap_in)) {
        return false;
    }
    let k = order[level];
    for (ix, v) in options[k].iter().enumerate() {
        if v.ins_set.is_subset(&cap_in) && ins_all.is_subset(&v.cl_out) {
            chosen[k] = ix;
            let ins2 = ins_all.union(&v.ins_set);
            let cap2 = cap_in.intersection(&v.cl_out);
            if choose(options, order, level + 1, ins2, cap2, chosen, failed) {
                return true;
            }
            chosen[k] = usize::MAX;
        }
    }
    failed.insert((level, ins_all, cap_in));
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every distinct `(in, out)` multiset split of `cfg` with `k`
    /// in-ports, in the order a plain lexicographic `k`-subset enumeration
    /// first meets them: the reference for [`canonical_splits`].
    fn splits_of(cfg: &Config, k: usize, out: &mut Vec<(Vec<Label>, Vec<Label>)>) {
        let labels = cfg.labels();
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

    /// The decider over [`splits_of`]'s splits, each carried as its
    /// multiset pair: the reference for the mask-enumerated views.
    fn reference_zero_round_oriented(p: &Problem) -> Option<OrientedZeroRoundWitness> {
        let n = p.alphabet().len();
        let row = p.edge_rows();
        let mut options = Vec::new();
        let mut splits = Vec::new();
        for k in 0..=p.delta() {
            splits.clear();
            for cfg in p.node().iter() {
                splits_of(cfg, k, &mut splits);
            }
            let mut views = Vec::new();
            for (ins, outs) in splits.drain(..) {
                let ins_set = LabelSet::from_labels(ins.iter().copied());
                let outs_set = LabelSet::from_labels(outs.iter().copied());
                push_view(&mut views, ins_set, outs_set, (ins, outs), &row, n);
            }
            prune_dominated(&mut views);
            if views.is_empty() {
                return None;
            }
            options.push(views);
        }
        let chosen = choose_views(&options, n)?;
        let plans =
            chosen.iter().enumerate().map(|(k, &ix)| options[k][ix].split.clone()).collect();
        Some(OrientedZeroRoundWitness { plans })
    }

    #[test]
    fn canonical_masks_are_the_first_split_of_each_multiset_pair() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0004);
        for _ in 0..500 {
            let arity = rng.gen_range(1..=7);
            let n = rng.gen_range(1..=4);
            let cfg =
                Config::new((0..arity).map(|_| Label::from_index(rng.gen_range(0..n))).collect());
            for k in 0..=arity {
                let mut expected = Vec::new();
                splits_of(&cfg, k, &mut expected);
                let mut got = Vec::new();
                canonical_splits(cfg.labels(), k, &mut |mask| {
                    got.push(split_at_mask(cfg.labels(), mask));
                });
                assert_eq!(got, expected, "{cfg:?} with {k} in-ports");
            }
        }
    }

    #[test]
    fn mask_views_give_the_reference_witness() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0005);
        let mut solvable = 0;
        for i in 0..600 {
            let n = rng.gen_range(1..=5);
            let delta = rng.gen_range(1..=4);
            // Dense edge constraints make some problems 0-round solvable.
            let sizes = (rng.gen_range(1..=10), rng.gen_range(1..=n * (n + 1) / 2));
            let p = crate::iso::tests::random_problem(&mut rng, n, (delta, 2), sizes, i % 3 == 0);
            let got = zero_round_oriented(&p);
            assert_eq!(got, reference_zero_round_oriented(&p), "problem {i}:\n{}", p.to_text());
            solvable += usize::from(got.is_some());
        }
        assert!(
            (100..500).contains(&solvable),
            "too few of one verdict: {solvable} of 600 solvable"
        );
    }

    #[test]
    fn trivial_problem_zero_round_both_models() {
        let p = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
        assert!(zero_round_pn(&p).is_some());
        assert!(zero_round_oriented(&p).is_some());
    }

    #[test]
    fn sinkless_orientation_not_zero_round() {
        let so = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
        assert!(zero_round_pn(&so).is_none());
        // Even with input orientations it is not 0-round solvable: every
        // edge must carry {O,I}, so either no view puts O on an in-port
        // (then the all-in "sink" view has no O, violating h) or no view
        // puts O on an out-port (then the all-out "source" view has no O).
        assert!(zero_round_oriented(&so).is_none());
    }

    #[test]
    fn sinkless_coloring_not_zero_round_even_oriented() {
        let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        assert!(zero_round_pn(&sc).is_none());
        assert!(zero_round_oriented(&sc).is_none());
    }

    #[test]
    fn coloring_not_zero_round() {
        let c3 =
            Problem::parse("name: 3col\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        assert!(zero_round_pn(&c3).is_none());
        // Proper coloring needs adjacent nodes to differ; with orientations
        // the indegree-1 view can color by orientation? No: two indegree-1
        // nodes can be adjacent (path of 3). Still unsolvable.
        assert!(zero_round_oriented(&c3).is_none());
    }

    #[test]
    fn self_pair_required_in_pn_model() {
        // h = {A,B}, g = {A,B} only: the pair {A,A} missing, so the single
        // view cannot avoid an A-A edge under adversarial alignment.
        let p = Problem::parse("name: t\nnode: A B\nedge: A B").unwrap();
        assert!(zero_round_pn(&p).is_none());
        // With orientations: indegree-1 view can put A on in-port, B on
        // out-port: every edge pairs an out-label (B …) with an in-label
        // (A …) — B-A ∈ g, and indegree-0/2 views exist too:
        // indegree 0: both ports out: labels {A,B} on out-ports means A
        // pairs against in-labels … A(out) meets A(in): {A,A} ∉ g. The
        // search decides; just assert it does not panic and is consistent.
        let res = zero_round_oriented(&p);
        if let Some(w) = res {
            // verify the witness actually satisfies the conditions
            for (ins, outs) in &w.plans {
                let mut all = ins.clone();
                all.extend_from_slice(outs);
                assert!(p.node_ok(&all));
            }
        }
    }

    #[test]
    fn oriented_witness_is_validated() {
        // "orientation copy" problem: output I on in-ports, O on out-ports.
        let p =
            Problem::parse("name: copy\nnode: O O O | O O I | O I I | I I I\nedge: O I").unwrap();
        let w = zero_round_oriented(&p).expect("copying the orientation works");
        for (k, (ins, outs)) in w.plans.iter().enumerate() {
            assert_eq!(ins.len(), k);
            assert_eq!(outs.len(), 3 - k);
            let mut all = ins.clone();
            all.extend_from_slice(outs);
            assert!(p.node_ok(&all));
        }
    }
}
