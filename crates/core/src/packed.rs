//! Packed problems: a problem's structure without its names.
//!
//! A [`PackedProblem`] is the label count and the two constraints of a
//! [`Problem`], each one row-major table of sorted label rows (see
//! [`crate::constraint`]). Every [`Problem`] holds one and lends it out
//! with [`Problem::packed`]; a store of many problems keeps only this
//! part plus name ids, and [`Problem::from_packed`] gives it names back.
//!
//! [`Problem`]: crate::problem::Problem
//! [`Problem::packed`]: crate::problem::Problem::packed
//! [`Problem::from_packed`]: crate::problem::Problem::from_packed
//!
//! The per-class kernels read this form: the refined label hashes behind
//! [`crate::iso::fingerprint`], the isomorphism search, both 0-round
//! deciders, and the bound search's move generators.
//!
//! ```
//! use roundelim_core::problem::Problem;
//! let p = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
//! let packed = p.packed().clone();
//! assert_eq!(packed.node().len(), 3);
//! let names = p.alphabet().names().to_vec();
//! assert_eq!(Problem::from_packed(p.name(), names, packed), p);
//! ```

use crate::constraint::Constraint;
use crate::label::Label;
use crate::labelset::LabelSet;

/// A problem's structure as packed label rows: the label count and both
/// constraints, without names (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedProblem {
    labels: usize,
    node: Constraint,
    edge: Constraint,
}

impl PackedProblem {
    /// Assembles a packed problem; the caller guarantees every row label
    /// is below `labels` (debug-asserted).
    pub(crate) fn new(labels: usize, node: Constraint, edge: Constraint) -> PackedProblem {
        debug_assert!(node.iter().chain(edge.iter()).flatten().all(|l| l.index() < labels));
        PackedProblem { labels, node, edge }
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels
    }

    /// The node arity Δ.
    pub fn delta(&self) -> usize {
        self.node.arity()
    }

    /// The node constraint.
    pub fn node(&self) -> &Constraint {
        &self.node
    }

    /// The edge constraint.
    pub fn edge(&self) -> &Constraint {
        &self.edge
    }

    /// Per-label edge-compatibility rows: `rows[l] = {x : {l, x} ∈ edge}`,
    /// one bitset per label. All rows are empty when the edge constraint
    /// is not arity 2 (the hypergraph generalization has no pairwise
    /// compatibility notion). Shared by the 0-round deciders and the
    /// bound search's row-structure pruning.
    pub fn edge_rows(&self) -> Vec<LabelSet> {
        let mut rows = vec![LabelSet::empty(); self.labels];
        if self.edge.arity() == 2 {
            for ls in self.edge.iter() {
                rows[ls[0].index()].insert(ls[1]);
                rows[ls[1].index()].insert(ls[0]);
            }
        }
        rows
    }

    /// The quotient under a label map onto `0..k`: label `l` becomes
    /// `map[l]`, and configurations that coincide after relabeling merge.
    /// Equals mapping both constraints with [`Constraint::map_labels`];
    /// the label count is `max(map) + 1`.
    ///
    /// ```
    /// use roundelim_core::label::Label;
    /// use roundelim_core::problem::Problem;
    /// let p = Problem::parse("name: p\nnode: A B | B C\nedge: A C | B B").unwrap();
    /// let c_to_a = [0, 1, 0].map(Label::from_index);
    /// let q = p.packed().quotient(&c_to_a);
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
    use crate::problem::Problem;

    #[test]
    fn rows_keep_the_ordered_set_order_and_answer_membership() {
        let p =
            Problem::parse("name: t\nlabels: A B C\nnode: B A A | A A A | C B A\nedge: A B | C C")
                .unwrap();
        let packed = p.packed();
        let [a, b, c] = [0, 1, 2].map(Label::from_index);
        let rows: Vec<&[Label]> = packed.node().iter().collect();
        assert_eq!(rows, [&[a, a, a][..], &[a, a, b], &[a, b, c]]);
        assert!(!packed.edge().contains(&[a]), "arity mismatch is not membership");
        let want =
            [[b].into_iter().collect(), [a].into_iter().collect(), [c].into_iter().collect()];
        assert_eq!(packed.edge_rows(), want);
        assert_eq!(packed.heap_bytes(), (3 * 3 + 2 * 2) * std::mem::size_of::<Label>());
    }

    #[test]
    fn quotient_resorts_rows_under_any_label_map() {
        // A map that reverses the order of labels alone in their class:
        // no row keeps its order, so every row goes through the sort.
        let p =
            Problem::parse("name: p\nnode: A B C | A A D | B D D\nedge: A B | C D | A D").unwrap();
        let map = [3, 2, 1, 1].map(Label::from_index);
        let q = p.packed().quotient(&map);
        assert_eq!(q.node(), &p.node().map_labels(|l| map[l.index()]));
        assert_eq!(q.edge(), &p.edge().map_labels(|l| map[l.index()]));
        assert_eq!(q.label_count(), 4);
    }
}
