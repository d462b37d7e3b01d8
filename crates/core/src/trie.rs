//! Sorted-multiset tries over constraint configurations.
//!
//! A [`ConfigTrie`] indexes the configurations of a
//! [`Constraint`](crate::constraint::Constraint) as a trie over their
//! *sorted* label sequences: every root-to-leaf path of length `arity`
//! spells one configuration, and configurations sharing a sorted prefix
//! share trie nodes. Two queries become allocation-free trie walks:
//!
//! * [`ConfigTrie::contains_sorted`] — membership of an already-sorted
//!   label slice, without building a [`Config`](crate::config::Config);
//! * [`ConfigTrie::all_choices_contained`] — the universal "good line"
//!   check: given components grouped as `(set, count)` pairs, decide
//!   whether **every** way of picking one label per component lands in
//!   the constraint.
//!
//! The latter is the hot core of the speedup transform. Instead of
//! enumerating the full combination product and probing the sorted rows per
//! choice (an allocation plus a sort plus a binary search, per probe), the
//! trie check branches over *label values in increasing order*: at each
//! label it decides how many still-unassigned components
//! take that label, advances the trie along the corresponding run of
//! equal labels, and recurses. Choices sharing a sorted prefix share both
//! the enumeration work and the trie walk, and the first missing trie
//! edge refutes an entire subtree of choices at once. Set membership per
//! branch is a bitmask test on [`LabelSet`], so the inner loop touches no
//! heap at all.

use crate::label::Label;
use crate::labelset::LabelSet;

/// A trie over the sorted label sequences of a constraint's configurations.
///
/// Built once per constraint (see
/// [`Constraint::trie`](crate::constraint::Constraint::trie)) and queried
/// many times by the speedup engine. All configurations have the same
/// length, so a walk is accepting exactly when it consumes `arity` labels.
///
/// Stored in first-child/next-sibling form in a single flat vector: one
/// allocation per build (constraints are rebuilt every half-step, so
/// construction is itself on the hot path), sibling chains sorted by label.
#[derive(Debug, Clone, Default)]
pub struct ConfigTrie {
    arity: usize,
    /// Node 0 is the root sentinel; its `label` is unused.
    nodes: Vec<Node>,
    /// Union of all configuration labels.
    universe: LabelSet,
}

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    label: Label,
    first_child: u32,
    next_sibling: u32,
    /// Whether this node's subtree contains **every** non-decreasing
    /// continuation over `universe ∩ [label..]` of the remaining depth.
    /// Lets the all-choices DFS accept whole subtrees in O(1) — the
    /// dominant savings on constraints of the form "anything goes once a
    /// prefix condition is met".
    complete: bool,
}

/// Reusable buffers for the all-choices DFS (remaining counts per group
/// and the per-level eligible-group stack).
#[derive(Debug, Clone, Default)]
pub struct DfsScratch {
    rem: Vec<usize>,
    eligible: Vec<usize>,
}

impl ConfigTrie {
    /// Builds the trie for `arity`-sized configurations.
    ///
    /// Configurations must arrive as sorted label rows in ascending order
    /// (a [`crate::constraint::Constraint`] iterates exactly so), which
    /// lets the build run as a prefix-stack walk: per configuration, pop
    /// to the common prefix with its predecessor and append fresh nodes
    /// for the suffix. Sibling chains stay label-sorted for free.
    pub fn build<'a, I: IntoIterator<Item = &'a [Label]>>(arity: usize, configs: I) -> ConfigTrie {
        let fresh =
            |l: Label| Node { label: l, first_child: NONE, next_sibling: NONE, complete: false };
        let mut nodes = vec![fresh(Label::from_index(0))];
        let mut universe = LabelSet::empty();
        // path[d]: node id of the previous configuration's label at depth d.
        let mut path: Vec<u32> = Vec::with_capacity(arity);
        let mut prev: Vec<Label> = Vec::new();
        for labels in configs {
            debug_assert_eq!(labels.len(), arity);
            debug_assert!(
                prev.is_empty() || prev.as_slice() < labels,
                "configs must arrive sorted"
            );
            universe = universe.union(&labels.iter().copied().collect());
            let common = labels.iter().zip(&prev).take_while(|&(a, b)| a == b).count();
            // The new branch forks right of the predecessor's node at the
            // fork depth; every deeper node starts a fresh child chain.
            let fork_sibling = path.get(common).copied();
            path.truncate(common);
            for (d, &l) in labels.iter().enumerate().skip(common) {
                let id = nodes.len() as u32;
                match (d == common, fork_sibling) {
                    (true, Some(sib)) => nodes[sib as usize].next_sibling = id,
                    _ => {
                        let parent = path.last().map_or(0, |&p| p);
                        nodes[parent as usize].first_child = id;
                    }
                }
                nodes.push(fresh(l));
                path.push(id);
            }
            prev.clear();
            prev.extend_from_slice(labels);
        }
        // Completeness, bottom-up (children always have higher ids than
        // their parent): a leaf is trivially complete; an inner node is
        // complete iff its (label-sorted) children are exactly
        // `universe ∩ [from..]` and each child is complete, where `from`
        // is the node's own label (0 at the root — sorted continuations
        // never revisit smaller labels).
        for id in (0..nodes.len()).rev() {
            let first = nodes[id].first_child;
            if first == NONE {
                nodes[id].complete = id != 0; // empty root stays incomplete
                continue;
            }
            let from = if id == 0 { 0 } else { nodes[id].label.index() };
            let mut expected = universe.min_label_at_least(from);
            let mut child = first;
            let mut complete = true;
            while child != NONE {
                let c = &nodes[child as usize];
                if !c.complete || expected != Some(c.label) {
                    complete = false;
                    break;
                }
                expected = universe.min_label_at_least(c.label.index() + 1);
                child = c.next_sibling;
            }
            nodes[id].complete = complete && (child != NONE || expected.is_none());
        }
        ConfigTrie { arity, nodes, universe }
    }

    /// The configuration arity this trie indexes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Union of all configuration labels (computed during the build).
    #[inline]
    pub fn universe(&self) -> &LabelSet {
        &self.universe
    }

    /// Follows the edge labelled `l` out of `node`, if present.
    #[inline]
    fn step(&self, node: u32, l: Label) -> Option<u32> {
        // Sibling chains are label-sorted and short in practice: a linear
        // scan with early exit beats binary search's branch overhead on
        // the tiny common case, and stays acceptable up to the 256-label
        // cap.
        let mut c = self.nodes[node as usize].first_child;
        while c != NONE {
            let n = &self.nodes[c as usize];
            if n.label >= l {
                return (n.label == l).then_some(c);
            }
            c = n.next_sibling;
        }
        None
    }

    /// Membership of an already-sorted label slice, as an allocation-free
    /// trie walk.
    pub fn contains_sorted(&self, labels: &[Label]) -> bool {
        debug_assert!(
            labels.windows(2).all(|w| w[0] <= w[1]),
            "contains_sorted needs sorted input"
        );
        if labels.len() != self.arity {
            return false;
        }
        let mut node = 0u32;
        for &l in labels {
            match self.step(node, l) {
                Some(next) => node = next,
                None => return false,
            }
        }
        true
    }

    /// Whether **every** choice of one label per component is a
    /// configuration of the underlying constraint.
    ///
    /// Components are grouped as `(set, count)` pairs — `count` components
    /// share the label set `set` — so a choice is, per group, a multiset of
    /// `count` labels from `set`. Group order is irrelevant. Returns
    /// `false` if the counts do not sum to the trie's arity or any set is
    /// empty.
    pub fn all_choices_contained(&self, groups: &[(LabelSet, usize)]) -> bool {
        self.all_choices_contained_scratch(groups, &mut DfsScratch::default())
    }

    /// [`ConfigTrie::all_choices_contained`] with caller-owned scratch
    /// space, so tight probe loops (the componentwise closure) pay no
    /// allocations per call.
    pub(crate) fn all_choices_contained_scratch(
        &self,
        groups: &[(LabelSet, usize)],
        scratch: &mut DfsScratch,
    ) -> bool {
        let total: usize = groups.iter().map(|&(_, n)| n).sum();
        if total != self.arity || groups.iter().any(|(s, _)| s.is_empty()) {
            return false;
        }
        // A component with a label outside the universe admits a choice
        // using that label, which no configuration contains. (This also
        // licenses the completeness shortcut below: every remaining choice
        // draws from the universe.)
        if groups.iter().any(|(s, _)| !s.is_subset(&self.universe)) {
            return false;
        }
        scratch.rem.clear();
        scratch.rem.extend(groups.iter().map(|&(_, n)| n));
        scratch.eligible.clear();
        let DfsScratch { rem, eligible } = scratch;
        self.all_choices_rec(0, 0, groups, rem, eligible)
    }

    /// Branches over the multiplicity of the smallest still-assignable
    /// label, advancing the trie along the chosen run.
    fn all_choices_rec(
        &self,
        node: u32,
        cursor: usize,
        groups: &[(LabelSet, usize)],
        rem: &mut [usize],
        scratch: &mut Vec<usize>,
    ) -> bool {
        // Complete subtree: every remaining choice draws from
        // `universe ∩ [cursor..]` (sets were pre-checked against the
        // universe), and this subtree contains all such continuations.
        if self.nodes[node as usize].complete {
            return true;
        }
        // Smallest label ≥ cursor that some unfinished group can still take.
        let mut next: Option<Label> = None;
        for (gi, &(set, _)) in groups.iter().enumerate() {
            if rem[gi] > 0 {
                let m = set.min_label_at_least(cursor);
                debug_assert!(m.is_some(), "group exhausted its set before its count");
                if let Some(l) = m {
                    next = Some(next.map_or(l, |n: Label| n.min(l)));
                }
            }
        }
        let Some(l) = next else {
            // Every component assigned; the walk consumed exactly `arity`
            // labels, which is the trie's accepting depth.
            return true;
        };
        let eligible_from = scratch.len();
        for (gi, &(set, _)) in groups.iter().enumerate() {
            if rem[gi] > 0 && set.contains(l) {
                scratch.push(gi);
            }
        }
        let ok = self.combos(node, l, eligible_from, groups, rem, scratch);
        scratch.truncate(eligible_from);
        ok
    }

    /// Enumerates, for each eligible group, how many of its components take
    /// label `l`; the trie advances one `l`-edge per taken component. Every
    /// enumerated combination must succeed.
    fn combos(
        &self,
        node: u32,
        l: Label,
        idx: usize,
        groups: &[(LabelSet, usize)],
        rem: &mut [usize],
        scratch: &mut Vec<usize>,
    ) -> bool {
        // A complete node accepts every continuation: all remaining
        // multiplicity splits at this label, and everything deeper, are in
        // the trie (a complete node's children are themselves complete).
        if self.nodes[node as usize].complete {
            return true;
        }
        if idx == scratch.len() {
            return self.all_choices_rec(node, l.index() + 1, groups, rem, scratch);
        }
        let gi = scratch[idx];
        let saved = rem[gi];
        // A group whose set has no label above `l` must spend its whole
        // remaining count here.
        let forced = groups[gi].0.min_label_at_least(l.index() + 1).is_none();
        let lo = if forced { saved } else { 0 };
        let mut node = node;
        for _ in 0..lo {
            match self.step(node, l) {
                // Every later branch point passes through this node, so a
                // complete node here settles the whole call.
                Some(next) if self.nodes[next as usize].complete => return true,
                Some(next) => node = next,
                // A forced choice spells a configuration the trie lacks.
                None => return false,
            }
        }
        let mut take = lo;
        loop {
            rem[gi] = saved - take;
            if !self.combos(node, l, idx + 1, groups, rem, scratch) {
                rem[gi] = saved;
                return false;
            }
            if take == saved {
                break;
            }
            take += 1;
            match self.step(node, l) {
                Some(next) if self.nodes[next as usize].complete => {
                    // All remaining takes continue from this node.
                    rem[gi] = saved;
                    return true;
                }
                Some(next) => node = next,
                None => {
                    rem[gi] = saved;
                    // Some choice takes ≥ `take` copies of `l` beyond what
                    // the trie admits: that choice is missing from C.
                    return false;
                }
            }
        }
        rem[gi] = saved;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::constraint::Constraint;

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
    fn contains_sorted_matches_btreeset() {
        let c = Constraint::from_configs(3, [cfg(&[0, 0, 1]), cfg(&[0, 1, 2]), cfg(&[2, 2, 2])])
            .unwrap();
        let trie = ConfigTrie::build(3, c.iter());
        for probe in crate::config::all_multisets(4, 3) {
            assert_eq!(trie.contains_sorted(probe.labels()), c.contains(&probe), "{probe:?}");
        }
        assert!(!trie.contains_sorted(&[l(0), l(1)])); // wrong arity
    }

    #[test]
    fn all_choices_matches_product_enumeration() {
        // "at least one 1" over {0,1}, arity 3.
        let c = Constraint::from_configs(3, [cfg(&[0, 0, 1]), cfg(&[0, 1, 1]), cfg(&[1, 1, 1])])
            .unwrap();
        let trie = ConfigTrie::build(3, c.iter());
        // Every choice from ({1},{0,1},{0,1}) has a 1.
        assert!(trie.all_choices_contained(&[(set(&[1]), 1), (set(&[0, 1]), 2)]));
        // ({0,1},{0,1},{0,1}) includes 000, which is missing.
        assert!(!trie.all_choices_contained(&[(set(&[0, 1]), 3)]));
        // Wrong total arity.
        assert!(!trie.all_choices_contained(&[(set(&[1]), 2)]));
        // Empty component.
        assert!(!trie.all_choices_contained(&[(LabelSet::empty(), 1), (set(&[1]), 2)]));
    }

    #[test]
    fn all_choices_randomized_against_bruteforce() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        for _ in 0..200 {
            let n = rng.gen_range(2..=5);
            let arity = rng.gen_range(2..=4);
            let all = crate::config::all_multisets(n, arity);
            let c = Constraint::from_configs(arity, all.into_iter().filter(|_| rng.gen_bool(0.5)))
                .unwrap();
            let trie = ConfigTrie::build(arity, c.iter());
            // Random grouped line.
            let mut groups: Vec<(LabelSet, usize)> = Vec::new();
            let mut left = arity;
            while left > 0 {
                let count = rng.gen_range(1..=left);
                let mut s = LabelSet::empty();
                for i in 0..n {
                    if rng.gen_bool(0.5) {
                        s.insert(l(i));
                    }
                }
                if s.is_empty() {
                    s.insert(l(rng.gen_range(0..n)));
                }
                groups.push((s, count));
                left -= count;
            }
            // Oracle: expand the full product of choices.
            let mut choices: Vec<Vec<Label>> = vec![Vec::new()];
            for &(s, count) in &groups {
                for _ in 0..count {
                    let mut next = Vec::new();
                    for partial in &choices {
                        for x in s.iter() {
                            let mut p = partial.clone();
                            p.push(x);
                            next.push(p);
                        }
                    }
                    choices = next;
                }
            }
            let oracle = choices.iter().all(|ch| c.contains(&Config::new(ch.clone())));
            assert_eq!(trie.all_choices_contained(&groups), oracle, "{groups:?} vs {c:?}");
        }
    }
}
