//! Packed problems: a problem's constraints as sorted rows of labels.
//!
//! A [`Problem`] keeps each constraint as an ordered set of owned
//! configurations, one heap vector per configuration. That suits building
//! and transforming problems, but a store of many problems pays for every
//! tree node and vector. A [`PackedProblem`] holds the same constraints as
//! one row-major label table per side: each configuration is `arity`
//! consecutive labels, rows in the ascending order of the constraint's
//! ordered set. Names are not part of the packed form; callers that need
//! them keep them alongside and pass them back to [`PackedProblem::unpack`].
//!
//! The per-class kernels read this form directly: the refined label hashes
//! behind [`crate::iso::fingerprint`], the isomorphism search, and both
//! 0-round deciders.
//!
//! ```
//! use roundelim_core::packed::PackedProblem;
//! use roundelim_core::problem::Problem;
//! let p = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
//! let packed = PackedProblem::pack(&p);
//! assert_eq!(packed.node().len(), 3);
//! let names = p.alphabet().names().to_vec();
//! assert_eq!(packed.unpack(p.name(), names), p);
//! ```

use crate::config::Config;
use crate::constraint::Constraint;
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use crate::problem::Problem;
use std::cmp::Ordering;

/// One constraint as a row-major table of sorted configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedConstraint {
    arity: usize,
    /// `len() * arity` labels: row `i` is configuration `i` of the
    /// constraint's ordered set, its labels ascending.
    rows: Box<[Label]>,
}

impl PackedConstraint {
    /// Packs a constraint, keeping its configuration order.
    fn pack(c: &Constraint) -> PackedConstraint {
        let mut rows = Vec::with_capacity(c.len() * c.arity());
        for cfg in c.iter() {
            rows.extend_from_slice(cfg.labels());
        }
        PackedConstraint { arity: c.arity(), rows: rows.into_boxed_slice() }
    }

    /// Rebuilds the ordered constraint.
    fn unpack(&self) -> Constraint {
        let configs = self.iter().map(|row| Config::new(row.to_vec())).collect();
        Constraint::from_sorted_configs_unchecked(self.arity, configs)
    }

    /// The arity of every configuration.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.rows.len() / self.arity
    }

    /// Whether the constraint allows nothing.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The configurations in ascending order, each a sorted label slice.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Label> {
        self.rows.chunks_exact(self.arity)
    }

    /// Membership of a sorted label slice: a binary search over the rows.
    /// Returns `false` on arity mismatch.
    pub fn contains(&self, labels: &[Label]) -> bool {
        debug_assert!(labels.windows(2).all(|w| w[0] <= w[1]), "labels must be sorted");
        if labels.len() != self.arity {
            return false;
        }
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.rows[mid * self.arity..(mid + 1) * self.arity].cmp(labels) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// The image under a label map: every row relabeled through `map` and
    /// re-sorted, then the rows sorted and deduplicated (the packed form of
    /// [`Constraint::map_labels`]).
    ///
    /// `stable` may mark only labels whose image no other label shares,
    /// and `map` must be strictly increasing on them. Rows of stable
    /// labels then keep their sorted, distinct order, while every other
    /// row holds a shared image and so equals no stable row: only the
    /// other rows are sorted and deduplicated, and the two runs merged.
    fn quotient(&self, map: &[Label], stable: &[bool]) -> PackedConstraint {
        let arity = self.arity;
        let mut kept: Vec<Label> = Vec::with_capacity(self.rows.len());
        let mut moved: Vec<Label> = Vec::new();
        for row in self.iter() {
            if row.iter().all(|l| stable[l.index()]) {
                kept.extend(row.iter().map(|l| map[l.index()]));
            } else {
                let start = moved.len();
                moved.extend(row.iter().map(|l| map[l.index()]));
                moved[start..].sort_unstable();
            }
        }
        let moved_row = |i: u32| &moved[i as usize * arity..][..arity];
        let mut order: Vec<u32> = (0..(moved.len() / arity) as u32).collect();
        order.sort_unstable_by(|&a, &b| moved_row(a).cmp(moved_row(b)));
        order.dedup_by(|a, b| moved_row(*a) == moved_row(*b));
        let mut rows = Vec::with_capacity(kept.len() + order.len() * arity);
        let mut kept_rows = kept.chunks_exact(arity).peekable();
        for row in order.into_iter().map(moved_row) {
            while let Some(k) = kept_rows.next_if(|k| *k < row) {
                rows.extend_from_slice(k);
            }
            rows.extend_from_slice(row);
        }
        kept_rows.for_each(|k| rows.extend_from_slice(k));
        PackedConstraint { arity, rows: rows.into_boxed_slice() }
    }

    /// The rows that avoid `dropped`, with every larger label shifted down
    /// by one. The shift is monotone, so the rows stay in order.
    fn without_label(&self, dropped: Label) -> PackedConstraint {
        let shift = |l: Label| if l > dropped { Label::from_index(l.index() - 1) } else { l };
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in self.iter().filter(|row| !row.contains(&dropped)) {
            rows.extend(row.iter().map(|&l| shift(l)));
        }
        PackedConstraint { arity: self.arity, rows: rows.into_boxed_slice() }
    }

    /// The constraint without its row `ix`.
    fn without_row(&self, ix: usize) -> PackedConstraint {
        let (head, tail) = self.rows.split_at(ix * self.arity);
        let rows = head.iter().chain(&tail[self.arity..]).copied().collect();
        PackedConstraint { arity: self.arity, rows }
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.rows)
    }
}

/// A problem's structure as packed label rows: the label count and both
/// constraints, without names (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedProblem {
    labels: usize,
    node: PackedConstraint,
    edge: PackedConstraint,
}

impl PackedProblem {
    /// Packs a problem's label count and constraints.
    pub fn pack(p: &Problem) -> PackedProblem {
        PackedProblem {
            labels: p.alphabet().len(),
            node: PackedConstraint::pack(p.node()),
            edge: PackedConstraint::pack(p.edge()),
        }
    }

    /// Rebuilds the problem under the given names: `label_names[i]` names
    /// label `i`. With the names of the problem this was packed from, the
    /// result equals that problem.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless there is exactly one distinct name
    /// per label.
    pub fn unpack<S: Into<String>>(
        &self,
        name: impl Into<String>,
        label_names: impl IntoIterator<Item = S>,
    ) -> Problem {
        let names: Vec<String> = label_names.into_iter().map(Into::into).collect();
        debug_assert_eq!(names.len(), self.labels, "one name per label");
        let alphabet = Alphabet::from_unique_names_unchecked(names);
        Problem::from_parts_unchecked(name.into(), alphabet, self.node.unpack(), self.edge.unpack())
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels
    }

    /// The node arity Δ.
    pub fn delta(&self) -> usize {
        self.node.arity
    }

    /// The node constraint.
    pub fn node(&self) -> &PackedConstraint {
        &self.node
    }

    /// The edge constraint.
    pub fn edge(&self) -> &PackedConstraint {
        &self.edge
    }

    /// Per-label edge-compatibility rows (see [`Problem::edge_rows`]).
    pub fn edge_rows(&self) -> Vec<LabelSet> {
        crate::problem::edge_rows(self.labels, self.edge.arity, self.edge.iter())
    }

    /// The quotient under a label map onto `0..k`: label `l` becomes
    /// `map[l]`, and configurations that coincide after relabeling merge.
    /// Equals packing the problem whose constraints are mapped by
    /// [`Constraint::map_labels`]; the label count is `max(map) + 1`.
    ///
    /// ```
    /// use roundelim_core::label::Label;
    /// use roundelim_core::packed::PackedProblem;
    /// use roundelim_core::problem::Problem;
    /// let p = Problem::parse("name: p\nnode: A B | B C\nedge: A C | B B").unwrap();
    /// let c_to_a = [0, 1, 0].map(Label::from_index);
    /// let q = PackedProblem::pack(&p).quotient(&c_to_a);
    /// assert_eq!(q.label_count(), 2);
    /// assert_eq!(q.node().len(), 1, "A B and B C coincide");
    /// assert_eq!(q.edge().len(), 2, "A A and B B");
    /// ```
    pub fn quotient(&self, map: &[Label]) -> PackedProblem {
        debug_assert_eq!(map.len(), self.labels, "one image per label");
        let labels = map.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        // Labels alone in their class are stable if the map keeps their
        // order, as it does for a quotient whose representatives keep
        // theirs; otherwise every row is re-sorted.
        let mut class_size = vec![0u32; labels];
        for l in map {
            class_size[l.index()] += 1;
        }
        let mut stable: Vec<bool> = map.iter().map(|l| class_size[l.index()] == 1).collect();
        let mut last = None;
        if !map.iter().zip(&stable).filter(|(_, &s)| s).all(|(&l, _)| last.replace(l) < Some(l)) {
            stable.fill(false);
        }
        PackedProblem {
            labels,
            node: self.node.quotient(map, &stable),
            edge: self.edge.quotient(map, &stable),
        }
    }

    /// The problem with label `l` removed together with every
    /// configuration that uses it; larger labels shift down by one.
    pub fn without_label(&self, l: Label) -> PackedProblem {
        PackedProblem {
            labels: self.labels - 1,
            node: self.node.without_label(l),
            edge: self.edge.without_label(l),
        }
    }

    /// The problem without node configuration `ix` (in row order).
    pub fn without_node_config(&self, ix: usize) -> PackedProblem {
        PackedProblem {
            labels: self.labels,
            node: self.node.without_row(ix),
            edge: self.edge.clone(),
        }
    }

    /// Heap bytes of both row tables.
    pub fn heap_bytes(&self) -> usize {
        self.node.heap_bytes() + self.edge.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_the_ordered_set_order_and_answer_membership() {
        let p = Problem::parse("name: t\nnode: B A A | A A A | C B A\nedge: A B | C C").unwrap();
        let packed = PackedProblem::pack(&p);
        let rows: Vec<&[Label]> = packed.node().iter().collect();
        let set: Vec<&[Label]> = p.node().iter().map(Config::labels).collect();
        assert_eq!(rows, set);
        for cfg in crate::config::all_multisets(3, 3) {
            assert_eq!(packed.node().contains(cfg.labels()), p.node().contains(&cfg), "{cfg:?}");
        }
        let a = p.alphabet().require("A").unwrap();
        assert!(!packed.edge().contains(&[a]), "arity mismatch is not membership");
        assert_eq!(packed.edge_rows(), p.edge_rows());
        assert_eq!(packed.heap_bytes(), (3 * 3 + 2 * 2) * std::mem::size_of::<Label>());
    }

    #[test]
    fn quotient_resorts_rows_under_any_label_map() {
        // A map that reverses the order of labels alone in their class:
        // no row keeps its order, so every row goes through the sort.
        let p =
            Problem::parse("name: p\nnode: A B C | A A D | B D D\nedge: A B | C D | A D").unwrap();
        let map = [3, 2, 1, 1].map(Label::from_index);
        let q = PackedProblem::pack(&p).quotient(&map);
        let rows = |c: &Constraint| -> Vec<Vec<Label>> {
            c.map_labels(|l| map[l.index()]).iter().map(|c| c.labels().to_vec()).collect()
        };
        assert_eq!(q.node().iter().map(<[Label]>::to_vec).collect::<Vec<_>>(), rows(p.node()));
        assert_eq!(q.edge().iter().map(<[Label]>::to_vec).collect::<Vec<_>>(), rows(p.edge()));
        assert_eq!(q.label_count(), 4);
    }
}
