//! Constraints: finite sets of allowed configurations of a fixed arity.
//!
//! A [`Constraint`] models one of the paper's `g(Δ)` (arity 2) or `h(Δ)`
//! (arity Δ) families for a concrete Δ. Constraints are the unit on which
//! the two halves of the speedup transform operate.

use crate::config::Config;
use crate::error::{Error, Result};
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use crate::trie::ConfigTrie;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A set of allowed label configurations, all of the same arity.
///
/// Alongside the ordered `BTreeSet` of configurations, a constraint lazily
/// builds and caches a [`ConfigTrie`] index (see [`Constraint::trie`]): the
/// speedup engine's universal checks walk the trie instead of probing the
/// set per candidate choice. The cache is invalidated on mutation and is
/// invisible to equality, hashing, and serialization.
///
/// ```
/// use roundelim_core::constraint::Constraint;
/// use roundelim_core::config::Config;
/// use roundelim_core::label::Label;
/// let l = Label::from_index;
/// let mut g = Constraint::new(2).unwrap();
/// g.insert(Config::new(vec![l(0), l(1)])).unwrap();
/// assert!(g.contains(&Config::new(vec![l(1), l(0)])));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Constraint {
    arity: usize,
    configs: BTreeSet<Config>,
    /// Lazily built trie index over `configs`; reset by every mutation.
    trie: OnceLock<ConfigTrie>,
}

impl PartialEq for Constraint {
    fn eq(&self, other: &Constraint) -> bool {
        self.arity == other.arity && self.configs == other.configs
    }
}

impl Eq for Constraint {}

impl std::hash::Hash for Constraint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.arity.hash(state);
        self.configs.hash(state);
    }
}

impl Constraint {
    /// Creates an empty constraint of the given arity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyArity`] for arity 0.
    pub fn new(arity: usize) -> Result<Constraint> {
        if arity == 0 {
            return Err(Error::EmptyArity);
        }
        Ok(Constraint { arity, configs: BTreeSet::new(), trie: OnceLock::new() })
    }

    /// Builds a constraint from configurations, checking arities.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] if any configuration has the wrong
    /// arity and [`Error::EmptyArity`] for arity 0.
    pub fn from_configs<I: IntoIterator<Item = Config>>(
        arity: usize,
        configs: I,
    ) -> Result<Constraint> {
        let mut c = Constraint::new(arity)?;
        for cfg in configs {
            c.insert(cfg)?;
        }
        Ok(c)
    }

    /// Builds a constraint from configurations already in ascending order
    /// without arity checks: the ordered `BTreeSet` bulk-loads in linear
    /// time instead of rebalancing per insert. Callers guarantee every
    /// configuration has arity `arity` (debug-asserted).
    pub(crate) fn from_sorted_configs_unchecked(arity: usize, configs: Vec<Config>) -> Constraint {
        debug_assert!(configs.iter().all(|c| c.arity() == arity));
        debug_assert!(configs.windows(2).all(|w| w[0] < w[1]), "configs must be sorted and unique");
        Constraint { arity, configs: configs.into_iter().collect(), trie: OnceLock::new() }
    }

    /// The arity of every configuration in this constraint.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the constraint allows nothing.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Inserts a configuration. Returns whether it was newly inserted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] on wrong arity.
    pub fn insert(&mut self, cfg: Config) -> Result<bool> {
        if cfg.arity() != self.arity {
            return Err(Error::ArityMismatch { expected: self.arity, found: cfg.arity() });
        }
        let newly = self.configs.insert(cfg);
        if newly {
            self.trie.take(); // the cached index no longer matches
        }
        Ok(newly)
    }

    /// Membership test (multiset semantics, any label order).
    pub fn contains(&self, cfg: &Config) -> bool {
        self.configs.contains(cfg)
    }

    /// Membership test of an already-sorted label slice against the
    /// ordered set itself: no allocation and, unlike
    /// [`Constraint::contains_sorted`], no trie built or cached on `self`.
    pub fn contains_slice(&self, labels: &[Label]) -> bool {
        debug_assert!(labels.windows(2).all(|w| w[0] <= w[1]), "labels must be sorted");
        self.configs.contains(labels)
    }

    /// Membership test of an already-sorted label slice via the cached
    /// trie index: no allocation, no per-probe `Config` construction.
    ///
    /// Prefer this over [`Constraint::contains`] in loops that already
    /// hold sorted labels. Returns `false` on arity mismatch.
    pub fn contains_sorted(&self, labels: &[Label]) -> bool {
        self.trie().contains_sorted(labels)
    }

    /// The trie index over this constraint's configurations, built on
    /// first use and cached until the next mutation.
    pub fn trie(&self) -> &ConfigTrie {
        self.trie.get_or_init(|| ConfigTrie::build(self.arity, self.configs.iter()))
    }

    /// Convenience membership test from an unsorted label slice.
    pub fn contains_labels(&self, labels: &[Label]) -> bool {
        if labels.len() != self.arity {
            return false;
        }
        self.contains(&Config::new(labels.to_vec()))
    }

    /// Iterates over configurations in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Config> + '_ {
        self.configs.iter()
    }

    /// The set of labels that occur in at least one configuration.
    pub fn used_labels(&self) -> LabelSet {
        let mut s = LabelSet::empty();
        for c in &self.configs {
            s = s.union(&c.support());
        }
        s
    }

    /// Returns a new constraint with every label mapped through `f`.
    ///
    /// Used for renaming/restriction; the arity is preserved. The mapped
    /// configurations are sorted and deduplicated up front so the ordered
    /// set bulk-loads in linear time instead of rebalancing per insert —
    /// quotient construction in the bound search maps constraints for
    /// every relax candidate.
    pub fn map_labels<F: FnMut(Label) -> Label>(&self, mut f: F) -> Constraint {
        let mut configs: Vec<Config> = self.configs.iter().map(|c| c.map(&mut f)).collect();
        configs.sort_unstable();
        configs.dedup();
        Constraint::from_sorted_configs_unchecked(self.arity, configs)
    }

    /// Returns the sub-constraint of configurations whose labels all lie in
    /// `allowed`.
    pub fn restrict(&self, allowed: &LabelSet) -> Constraint {
        let configs =
            self.configs.iter().filter(|c| c.support().is_subset(allowed)).cloned().collect();
        Constraint { arity: self.arity, configs, trie: OnceLock::new() }
    }

    /// Validates every configuration against an alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Inconsistent`] on out-of-alphabet labels.
    pub fn validate(&self, alphabet: &Alphabet) -> Result<()> {
        for c in &self.configs {
            c.validate(alphabet)?;
        }
        Ok(())
    }

    /// Whether this constraint is a subset of `other` (same arity assumed).
    pub fn is_subset(&self, other: &Constraint) -> bool {
        self.configs.is_subset(&other.configs)
    }

    /// For arity-2 constraints: the symmetric compatibility matrix
    /// `C[a][b] = {a,b} ∈ self`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for other arities.
    pub fn compatibility_matrix(&self, alphabet_len: usize) -> Result<Vec<Vec<bool>>> {
        if self.arity != 2 {
            return Err(Error::Unsupported {
                reason: format!(
                    "compatibility matrix needs arity 2, constraint has arity {}",
                    self.arity
                ),
            });
        }
        let mut m = vec![vec![false; alphabet_len]; alphabet_len];
        for c in &self.configs {
            let ls = c.labels();
            let (a, b) = (ls[0].index(), ls[1].index());
            m[a][b] = true;
            m[b][a] = true;
        }
        Ok(m)
    }
}

impl FromIterator<Config> for Constraint {
    /// Builds a constraint inferring the arity from the first configuration.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty or configurations disagree on arity;
    /// use [`Constraint::from_configs`] for fallible construction.
    fn from_iter<I: IntoIterator<Item = Config>>(iter: I) -> Constraint {
        let configs: Vec<Config> = iter.into_iter().collect();
        let arity =
            configs.first().expect("FromIterator<Config> needs at least one configuration").arity();
        Constraint::from_configs(arity, configs).expect("configurations disagree on arity")
    }
}

impl Extend<Config> for Constraint {
    /// Extends the constraint; configurations of the wrong arity panic
    /// (use [`Constraint::insert`] for fallible insertion).
    fn extend<I: IntoIterator<Item = Config>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c).expect("extend: arity mismatch");
        }
    }
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
        let mut c = Constraint::new(2).unwrap();
        assert!(c.insert(cfg(&[0, 1])).unwrap());
        assert!(!c.insert(cfg(&[1, 0])).unwrap()); // same multiset
        assert!(matches!(c.insert(cfg(&[0, 1, 2])), Err(Error::ArityMismatch { .. })));
        assert!(matches!(Constraint::new(0), Err(Error::EmptyArity)));
    }

    #[test]
    fn membership_is_multiset() {
        let c = Constraint::from_configs(3, [cfg(&[0, 0, 1])]).unwrap();
        assert!(c.contains_labels(&[l(0), l(1), l(0)]));
        assert!(!c.contains_labels(&[l(0), l(1), l(1)]));
        assert!(!c.contains_labels(&[l(0), l(1)])); // wrong arity
    }

    #[test]
    fn used_labels_and_restrict() {
        let c = Constraint::from_configs(2, [cfg(&[0, 1]), cfg(&[2, 2])]).unwrap();
        assert_eq!(c.used_labels().len(), 3);
        let allowed = LabelSet::from_labels([l(0), l(1)]);
        let r = c.restrict(&allowed);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&cfg(&[0, 1])));
    }

    #[test]
    fn compatibility_matrix_symmetric() {
        let c = Constraint::from_configs(2, [cfg(&[0, 1]), cfg(&[0, 0])]).unwrap();
        let m = c.compatibility_matrix(3).unwrap();
        assert!(m[0][1] && m[1][0] && m[0][0]);
        assert!(!m[1][1] && !m[2][2] && !m[0][2]);
        let h = Constraint::from_configs(3, [cfg(&[0, 0, 0])]).unwrap();
        assert!(h.compatibility_matrix(3).is_err());
    }

    #[test]
    fn trie_cache_tracks_mutation() {
        let mut c = Constraint::from_configs(2, [cfg(&[0, 1])]).unwrap();
        assert!(c.contains_sorted(&[l(0), l(1)]));
        assert!(!c.contains_sorted(&[l(0), l(0)]));
        c.insert(cfg(&[0, 0])).unwrap();
        assert!(c.contains_sorted(&[l(0), l(0)])); // index rebuilt after insert
        assert!(!c.contains_sorted(&[l(0)])); // arity mismatch
                                              // The cache is invisible to equality and hashing.
        let fresh = Constraint::from_configs(2, [cfg(&[0, 1]), cfg(&[0, 0])]).unwrap();
        assert_eq!(c, fresh);
    }

    #[test]
    fn map_labels_renames() {
        let c = Constraint::from_configs(2, [cfg(&[0, 1])]).unwrap();
        let m = c.map_labels(|x| if x == l(0) { l(5) } else { x });
        assert!(m.contains(&cfg(&[1, 5])));
    }
}
