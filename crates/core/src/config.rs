//! Multiset configurations.
//!
//! The paper defines a problem by two families of multisets: the edge
//! constraint `g(Δ)` (2-element multisets of labels) and the node constraint
//! `h(Δ)` (multisets of at most Δ labels). A [`Config`] is one such multiset,
//! stored as a sorted vector of labels so that equality and ordering agree
//! with multiset semantics.

use crate::label::{Alphabet, Label};
use std::fmt;

/// A multiset of labels (one configuration of a constraint).
///
/// Internally a sorted `Vec<Label>`, so two configurations are equal iff
/// they are equal as multisets:
///
/// ```
/// use roundelim_core::config::Config;
/// use roundelim_core::label::Label;
/// let l = Label::from_index;
/// assert_eq!(Config::new(vec![l(2), l(0), l(2)]), Config::new(vec![l(2), l(2), l(0)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Config {
    labels: Vec<Label>,
}

impl Config {
    /// Creates a configuration from labels (sorted internally).
    pub fn new(mut labels: Vec<Label>) -> Config {
        labels.sort_unstable();
        Config { labels }
    }

    /// Creates a configuration from `(label, multiplicity)` groups.
    ///
    /// ```
    /// use roundelim_core::config::Config;
    /// use roundelim_core::label::Label;
    /// let l = Label::from_index;
    /// let c = Config::from_groups([(l(0), 2), (l(1), 1)]);
    /// assert_eq!(c.arity(), 3);
    /// ```
    pub fn from_groups<I: IntoIterator<Item = (Label, usize)>>(groups: I) -> Config {
        let mut labels = Vec::new();
        for (l, m) in groups {
            labels.extend(std::iter::repeat_n(l, m));
        }
        Config::new(labels)
    }

    /// Number of labels (with multiplicity).
    #[inline]
    pub fn arity(&self) -> usize {
        self.labels.len()
    }

    /// The labels in sorted order.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Returns a new configuration with each label mapped through `f`.
    pub fn map<F: FnMut(Label) -> Label>(&self, mut f: F) -> Config {
        Config::new(self.labels.iter().map(|&l| f(l)).collect())
    }

    /// Renders the configuration with names from `alphabet`, using exponent
    /// notation for repeated labels (`A^3 B`).
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> ConfigDisplay<'a> {
        display_labels(&self.labels, alphabet)
    }
}

/// A configuration dereferences to its sorted label slice: the row form a
/// [`crate::constraint::Constraint`] stores and probes with.
impl std::ops::Deref for Config {
    type Target = [Label];

    fn deref(&self) -> &[Label] {
        &self.labels
    }
}

impl FromIterator<Label> for Config {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Config {
        Config::new(iter.into_iter().collect())
    }
}

/// Renders a sorted label slice (one constraint row) as
/// [`Config::display`] renders the configuration it holds.
pub fn display_labels<'a>(labels: &'a [Label], alphabet: &'a Alphabet) -> ConfigDisplay<'a> {
    debug_assert!(labels.windows(2).all(|w| w[0] <= w[1]), "labels must be sorted");
    ConfigDisplay { labels, alphabet }
}

/// Helper returned by [`Config::display`] and [`display_labels`].
#[derive(Debug)]
pub struct ConfigDisplay<'a> {
    labels: &'a [Label],
    alphabet: &'a Alphabet,
}

impl fmt::Display for ConfigDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for run in self.labels.chunk_by(|a, b| a == b) {
            let (l, m) = (run[0], run.len());
            if !first {
                write!(f, " ")?;
            }
            first = false;
            if m == 1 {
                write!(f, "{}", self.alphabet.name(l))?;
            } else {
                write!(f, "{}^{}", self.alphabet.name(l), m)?;
            }
        }
        if first {
            write!(f, "ε")?; // the empty configuration (never valid, but printable)
        }
        Ok(())
    }
}

/// Enumerates all multisets of size `arity` over labels `0..alphabet_len`.
///
/// This is `C(alphabet_len + arity - 1, arity)` configurations; callers are
/// expected to keep both parameters modest (the generic engine is for
/// instantiated small-Δ problems; large-Δ families use the specialized
/// superweak machinery).
pub fn all_multisets(alphabet_len: usize, arity: usize) -> Vec<Config> {
    let mut out = Vec::new();
    let mut cur: Vec<Label> = Vec::with_capacity(arity);
    fn rec(out: &mut Vec<Config>, cur: &mut Vec<Label>, start: usize, left: usize, n: usize) {
        if left == 0 {
            out.push(Config::new(cur.clone()));
            return;
        }
        for i in start..n {
            cur.push(Label::from_index(i));
            rec(out, cur, i, left - 1, n);
            cur.pop();
        }
    }
    rec(&mut out, &mut cur, 0, arity, alphabet_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> Label {
        Label::from_index(i)
    }

    #[test]
    fn multiset_semantics() {
        let a = Config::new(vec![l(1), l(0), l(1)]);
        assert_eq!(a.arity(), 3);
        assert_eq!(a.labels(), [l(0), l(1), l(1)]);
        assert!(a.contains(&l(0)));
        assert!(!a.contains(&l(2)));
        assert_eq!(a, Config::new(vec![l(1), l(1), l(0)]));
    }

    #[test]
    fn from_groups_round_trip() {
        let c = Config::from_groups([(l(2), 3), (l(0), 1)]);
        assert_eq!(c, Config::new(vec![l(0), l(2), l(2), l(2)]));
    }

    #[test]
    fn display_with_exponents() {
        let a = Alphabet::from_names(["A", "B"]).unwrap();
        let c = Config::from_groups([(l(0), 2), (l(1), 1)]);
        assert_eq!(c.display(&a).to_string(), "A^2 B");
        let single = Config::new(vec![l(1)]);
        assert_eq!(single.display(&a).to_string(), "B");
        let empty = Config::new(vec![]);
        assert_eq!(empty.display(&a).to_string(), "ε");
    }

    #[test]
    fn support_and_map() {
        let c = Config::new(vec![l(0), l(0), l(3)]);
        assert_eq!(c.chunk_by(|a, b| a == b).count(), 2, "two distinct labels");
        let d = c.map(|x| if x == l(0) { l(5) } else { x });
        assert_eq!(d, Config::new(vec![l(3), l(5), l(5)]));
    }

    #[test]
    fn all_multisets_count() {
        // C(3+2-1, 2) = 6 multisets of size 2 over 3 labels.
        let ms = all_multisets(3, 2);
        assert_eq!(ms.len(), 6);
        // C(4+3-1, 3) = 20.
        assert_eq!(all_multisets(4, 3).len(), 20);
        // all distinct and sorted
        let mut sorted = ms.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn validate_detects_out_of_range() {
        use crate::constraint::Constraint;
        let a = Alphabet::from_names(["A"]).unwrap();
        let bad = Constraint::from_configs(1, [Config::new(vec![l(3)])]).unwrap();
        assert!(bad.validate(&a).is_err());
        let good = Constraint::from_configs(1, [Config::new(vec![l(0)])]).unwrap();
        assert!(good.validate(&a).is_ok());
    }
}
