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
    pub(crate) fn edge_rows(&self) -> Vec<LabelSet> {
        crate::problem::edge_rows(self.labels, self.edge.arity, self.edge.iter())
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
}
