//! Constraints: finite sets of allowed configurations of a fixed arity.
//!
//! A [`Constraint`] models one of the paper's `g(Δ)` (arity 2) or `h(Δ)`
//! (arity Δ) families for a concrete Δ. Constraints are the unit on which
//! the two halves of the speedup transform operate.
//!
//! A constraint is one row-major label table: each configuration is
//! `arity` consecutive labels in ascending order, and the rows are
//! distinct and ascending — the order of an ordered set of [`Config`]s, so
//! every encoding and digest that walks the rows sees that order. A
//! constraint is immutable once built; transforms build new ones.

use crate::config::Config;
use crate::error::{Error, Result};
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use crate::trie::ConfigTrie;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// A set of allowed label configurations, all of the same arity.
///
/// Alongside the rows, a constraint lazily builds and caches a
/// [`ConfigTrie`] index (see [`Constraint::trie`]): the speedup engine's
/// universal checks walk the trie instead of probing the rows per
/// candidate choice. The cache is invisible to equality and hashing.
///
/// ```
/// use roundelim_core::constraint::Constraint;
/// use roundelim_core::config::Config;
/// use roundelim_core::label::Label;
/// let l = Label::from_index;
/// let g = Constraint::from_configs(2, [Config::new(vec![l(1), l(0)])]).unwrap();
/// assert!(g.contains(&[l(0), l(1)]));
/// ```
#[derive(Debug, Clone)]
pub struct Constraint {
    arity: usize,
    /// `len() * arity` labels: row `i` is the `i`-th configuration in
    /// ascending order, its labels ascending.
    rows: Box<[Label]>,
    /// Lazily built trie index over the rows.
    trie: OnceLock<ConfigTrie>,
}

impl PartialEq for Constraint {
    fn eq(&self, other: &Constraint) -> bool {
        self.arity == other.arity && self.rows == other.rows
    }
}

impl Eq for Constraint {}

impl std::hash::Hash for Constraint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.arity.hash(state);
        self.rows.hash(state);
    }
}

impl Constraint {
    /// Creates an empty constraint of the given arity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyArity`] for arity 0.
    pub fn new(arity: usize) -> Result<Constraint> {
        Constraint::from_configs(arity, [])
    }

    /// Builds a constraint from configurations in any order, with
    /// duplicates allowed, checking arities.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] if any configuration has the wrong
    /// arity and [`Error::EmptyArity`] for arity 0.
    pub fn from_configs<I: IntoIterator<Item = Config>>(
        arity: usize,
        configs: I,
    ) -> Result<Constraint> {
        if arity == 0 {
            return Err(Error::EmptyArity);
        }
        let mut rows = Vec::new();
        for cfg in configs {
            if cfg.arity() != arity {
                return Err(Error::ArityMismatch { expected: arity, found: cfg.arity() });
            }
            rows.extend_from_slice(cfg.labels());
        }
        Ok(Constraint::with_rows(arity, sort_rows(arity, rows)))
    }

    /// Builds a constraint from rows the caller already emits in order:
    /// `rows` holds `arity`-label rows, each ascending, the rows strictly
    /// ascending (debug-asserted). For engine code that produces sorted
    /// rows by construction.
    pub(crate) fn from_sorted_rows(arity: usize, rows: Vec<Label>) -> Constraint {
        debug_assert!(
            arity > 0 && rows.len().is_multiple_of(arity),
            "whole rows of a positive arity"
        );
        let c = Constraint::with_rows(arity, rows.into_boxed_slice());
        debug_assert!(c.iter().all(|r| r.windows(2).all(|w| w[0] <= w[1])), "rows sorted");
        debug_assert!(c.iter().zip(c.iter().skip(1)).all(|(a, b)| a < b), "rows ascending");
        c
    }

    fn with_rows(arity: usize, rows: Box<[Label]>) -> Constraint {
        Constraint { arity, rows, trie: OnceLock::new() }
    }

    /// The arity of every configuration in this constraint.
    #[inline]
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

    /// Membership of a sorted label slice: a binary search over the rows,
    /// with no allocation and no index built. Returns `false` on arity
    /// mismatch.
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

    /// Membership test of an already-sorted label slice via the cached
    /// trie index: for loops that probe one constraint many times.
    /// Returns `false` on arity mismatch.
    pub fn contains_sorted(&self, labels: &[Label]) -> bool {
        self.trie().contains_sorted(labels)
    }

    /// The trie index over this constraint's configurations, built on
    /// first use.
    pub fn trie(&self) -> &ConfigTrie {
        self.trie.get_or_init(|| ConfigTrie::build(self.arity, self.iter()))
    }

    /// The configurations in ascending order, each a sorted label slice.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Label> {
        self.rows.chunks_exact(self.arity)
    }

    /// The set of labels that occur in at least one configuration.
    pub fn used_labels(&self) -> LabelSet {
        self.rows.iter().copied().collect()
    }

    /// Returns a new constraint with every label mapped through `f`; the
    /// arity is preserved and configurations that coincide merge.
    pub fn map_labels<F: FnMut(Label) -> Label>(&self, f: F) -> Constraint {
        let rows = self.rows.iter().copied().map(f).collect();
        Constraint::with_rows(self.arity, sort_rows(self.arity, rows))
    }

    /// Returns the sub-constraint of configurations whose labels all lie in
    /// `allowed`.
    pub fn restrict(&self, allowed: &LabelSet) -> Constraint {
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in self.iter().filter(|row| row.iter().all(|&l| allowed.contains(l))) {
            rows.extend_from_slice(row);
        }
        Constraint::with_rows(self.arity, rows.into_boxed_slice())
    }

    /// Validates every configuration against an alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Inconsistent`] on out-of-alphabet labels.
    pub fn validate(&self, alphabet: &Alphabet) -> Result<()> {
        match self.rows.iter().find(|l| l.index() >= alphabet.len()) {
            Some(l) => Err(Error::Inconsistent {
                reason: format!(
                    "configuration references label index {} outside alphabet of size {}",
                    l.index(),
                    alphabet.len()
                ),
            }),
            None => Ok(()),
        }
    }

    /// Whether this constraint is a subset of `other` (same arity assumed).
    pub fn is_subset(&self, other: &Constraint) -> bool {
        self.iter().all(|row| other.contains(row))
    }

    /// The image under a label map (as [`Constraint::map_labels`]).
    ///
    /// `stable` may mark only labels whose image no other label shares,
    /// and `map` must be strictly increasing on them. Rows of stable
    /// labels then keep their sorted, distinct order, while every other
    /// row holds a shared image and so equals no stable row: only the
    /// other rows are sorted and deduplicated, and the two runs merged.
    pub(crate) fn quotient(&self, map: &[Label], stable: &[bool]) -> Constraint {
        let arity = self.arity;
        let mut kept: Vec<Label> = Vec::with_capacity(self.rows.len());
        let mut moved: Vec<Label> = Vec::new();
        for row in self.iter() {
            let image = row.iter().map(|l| map[l.index()]);
            if row.iter().all(|l| stable[l.index()]) {
                kept.extend(image);
            } else {
                moved.extend(image);
            }
        }
        let moved = sort_rows(arity, moved);
        let mut rows = Vec::with_capacity(kept.len() + moved.len());
        let mut kept_rows = kept.chunks_exact(arity).peekable();
        for row in moved.chunks_exact(arity) {
            while let Some(k) = kept_rows.next_if(|k| *k < row) {
                rows.extend_from_slice(k);
            }
            rows.extend_from_slice(row);
        }
        kept_rows.for_each(|k| rows.extend_from_slice(k));
        Constraint::with_rows(arity, rows.into_boxed_slice())
    }

    /// The rows that avoid `dropped`, with every larger label shifted down
    /// by one. The shift is monotone, so the rows stay in order.
    pub(crate) fn without_label(&self, dropped: Label) -> Constraint {
        let shift = |l: Label| if l > dropped { Label::from_index(l.index() - 1) } else { l };
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in self.iter().filter(|row| !row.contains(&dropped)) {
            rows.extend(row.iter().map(|&l| shift(l)));
        }
        Constraint::with_rows(self.arity, rows.into_boxed_slice())
    }

    /// The constraint without its row `ix`.
    pub(crate) fn without_row(&self, ix: usize) -> Constraint {
        let (head, tail) = self.rows.split_at(ix * self.arity);
        Constraint::with_rows(self.arity, head.iter().chain(&tail[self.arity..]).copied().collect())
    }

    /// Heap bytes of the row table.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.rows)
    }
}

/// `rows` (whole rows of `arity` labels, in any order) with each row
/// sorted, then the rows sorted and deduplicated.
fn sort_rows(arity: usize, mut rows: Vec<Label>) -> Box<[Label]> {
    rows.chunks_exact_mut(arity).for_each(<[Label]>::sort_unstable);
    let row = |i: u32| &rows[i as usize * arity..][..arity];
    let mut order: Vec<u32> = (0..(rows.len() / arity) as u32).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|a, b| row(*a) == row(*b));
    order.into_iter().flat_map(row).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> Label {
        Label::from_index(i)
    }

    fn cfg(ixs: &[usize]) -> Config {
        Config::new(ixs.iter().map(|&i| l(i)).collect())
    }

    #[test]
    fn arity_checked() {
        let c = Constraint::from_configs(2, [cfg(&[0, 1]), cfg(&[1, 0])]).unwrap();
        assert_eq!(c.len(), 1, "same multiset");
        let bad = Constraint::from_configs(2, [cfg(&[0, 1, 2])]);
        assert!(matches!(bad, Err(Error::ArityMismatch { .. })));
        assert!(matches!(Constraint::new(0), Err(Error::EmptyArity)));
    }

    #[test]
    fn membership_is_multiset() {
        let c = Constraint::from_configs(3, [cfg(&[1, 0, 0])]).unwrap();
        assert!(c.contains(&[l(0), l(0), l(1)]));
        assert!(!c.contains(&[l(0), l(1), l(1)]));
        assert!(!c.contains(&[l(0), l(1)])); // wrong arity
    }

    #[test]
    fn used_labels_and_restrict() {
        let c = Constraint::from_configs(2, [cfg(&[0, 1]), cfg(&[2, 2])]).unwrap();
        assert_eq!(c.used_labels().len(), 3);
        let allowed = LabelSet::from_labels([l(0), l(1)]);
        let r = c.restrict(&allowed);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[l(0), l(1)]));
    }

    #[test]
    fn trie_index_answers_like_the_rows() {
        let c = Constraint::from_configs(2, [cfg(&[0, 1]), cfg(&[0, 0])]).unwrap();
        assert!(c.contains_sorted(&[l(0), l(1)]));
        assert!(c.contains_sorted(&[l(0), l(0)]));
        assert!(!c.contains_sorted(&[l(1), l(1)]));
        assert!(!c.contains_sorted(&[l(0)])); // arity mismatch
                                              // The cache is invisible to equality.
        let fresh = Constraint::from_configs(2, [cfg(&[0, 0]), cfg(&[0, 1])]).unwrap();
        assert_eq!(c, fresh);
    }

    #[test]
    fn map_labels_renames() {
        let c = Constraint::from_configs(2, [cfg(&[0, 1])]).unwrap();
        let m = c.map_labels(|x| if x == l(0) { l(5) } else { x });
        assert!(m.contains(&[l(1), l(5)]));
    }
}
