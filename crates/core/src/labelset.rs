//! Fixed-capacity bitsets over labels.
//!
//! The speedup transform's derived labels denote *sets* of current labels
//! (the paper's `2^{f(Δ)}`). [`LabelSet`] is a 256-bit, `Copy`, allocation
//! free bitset keyed by [`Label`] indices, which keeps the inner loops of
//! the merge-closure engine branch-light.

use crate::label::Label;
use std::fmt;
use std::ops::{BitAnd, BitOr, Sub};

/// Maximum number of labels an alphabet may hold.
///
/// 256 is comfortably above anything a simplified round-elimination sequence
/// produces for the problems in this repository; hitting the cap raises
/// [`crate::error::Error::AlphabetOverflow`] instead of silently truncating.
pub const MAX_LABELS: usize = 256;

const WORDS: usize = MAX_LABELS / 64;

/// A set of labels, stored as a 256-bit mask.
///
/// ```
/// use roundelim_core::label::Label;
/// use roundelim_core::labelset::LabelSet;
/// let mut s = LabelSet::empty();
/// s.insert(Label::from_index(3));
/// s.insert(Label::from_index(200));
/// assert!(s.contains(Label::from_index(3)));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelSet {
    words: [u64; WORDS],
}

impl LabelSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> LabelSet {
        LabelSet { words: [0; WORDS] }
    }

    /// The set `{0, 1, …, n-1}` of the first `n` label indices.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_LABELS` (internal invariant: alphabets never exceed
    /// the cap).
    pub fn first_n(n: usize) -> LabelSet {
        assert!(n <= MAX_LABELS, "LabelSet::first_n out of range");
        let mut s = LabelSet::empty();
        for i in 0..n {
            s.insert(Label::from_index(i));
        }
        s
    }

    /// Builds a set from an iterator of labels.
    pub fn from_labels<I: IntoIterator<Item = Label>>(iter: I) -> LabelSet {
        let mut s = LabelSet::empty();
        for l in iter {
            s.insert(l);
        }
        s
    }

    /// The singleton set `{l}`.
    #[inline]
    pub fn singleton(l: Label) -> LabelSet {
        let mut s = LabelSet::empty();
        s.insert(l);
        s
    }

    /// Inserts a label. Returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, l: Label) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes a label. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, l: Label) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, l: Label) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of labels in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &LabelSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Whether `self ⊂ other` strictly.
    #[inline]
    pub fn is_proper_subset(&self, other: &LabelSet) -> bool {
        self != other && self.is_subset(other)
    }

    /// Whether the two sets intersect.
    #[inline]
    pub fn intersects(&self, other: &LabelSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: &LabelSet) -> LabelSet {
        let mut w = [0u64; WORDS];
        for (w, (a, b)) in w.iter_mut().zip(self.words.iter().zip(&other.words)) {
            *w = a | b;
        }
        LabelSet { words: w }
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(&self, other: &LabelSet) -> LabelSet {
        let mut w = [0u64; WORDS];
        for (w, (a, b)) in w.iter_mut().zip(self.words.iter().zip(&other.words)) {
            *w = a & b;
        }
        LabelSet { words: w }
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(&self, other: &LabelSet) -> LabelSet {
        let mut w = [0u64; WORDS];
        for (w, (a, b)) in w.iter_mut().zip(self.words.iter().zip(&other.words)) {
            *w = a & !b;
        }
        LabelSet { words: w }
    }

    /// The raw backing words (crate-internal; lets the line pool hash sets
    /// without going through the generic `Hash` machinery).
    #[inline]
    pub(crate) fn words(&self) -> &[u64; WORDS] {
        &self.words
    }

    /// Iterates over the labels in increasing index order.
    pub fn iter(&self) -> Iter {
        Iter { set: *self, word: 0, mask: self.words[0] }
    }

    /// The smallest label in the set, if any. (Named to avoid clashing with `Ord::min`.)
    pub fn min_label(&self) -> Option<Label> {
        self.iter().next()
    }

    /// The smallest label with index ≥ `from`, if any.
    ///
    /// This is the branch-light cursor step of the trie engine's
    /// label-ordered DFS (see [`crate::trie::ConfigTrie`]): two shifts and
    /// a trailing-zeros count per word, no iteration over set members.
    #[inline]
    pub fn min_label_at_least(&self, from: usize) -> Option<Label> {
        if from >= MAX_LABELS {
            return None;
        }
        let (mut w, b) = (from / 64, from % 64);
        // Mask off bits below `from` in its word, then scan upward.
        let mut word = self.words[w] & (!0u64 << b);
        loop {
            if word != 0 {
                return Some(Label::from_index(w * 64 + word.trailing_zeros() as usize));
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = self.words[w];
        }
    }
}

impl Default for LabelSet {
    fn default() -> Self {
        LabelSet::empty()
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", l.index())?;
        }
        write!(f, "}}")
    }
}

impl BitOr for LabelSet {
    type Output = LabelSet;
    fn bitor(self, rhs: LabelSet) -> LabelSet {
        self.union(&rhs)
    }
}

impl BitAnd for LabelSet {
    type Output = LabelSet;
    fn bitand(self, rhs: LabelSet) -> LabelSet {
        self.intersection(&rhs)
    }
}

impl Sub for LabelSet {
    type Output = LabelSet;
    fn sub(self, rhs: LabelSet) -> LabelSet {
        self.difference(&rhs)
    }
}

impl FromIterator<Label> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> LabelSet {
        LabelSet::from_labels(iter)
    }
}

impl Extend<Label> for LabelSet {
    fn extend<I: IntoIterator<Item = Label>>(&mut self, iter: I) {
        for l in iter {
            self.insert(l);
        }
    }
}

impl IntoIterator for LabelSet {
    type Item = Label;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl IntoIterator for &LabelSet {
    type Item = Label;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

/// Iterator over the labels of a [`LabelSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter {
    set: LabelSet,
    word: usize,
    mask: u64,
}

impl Iterator for Iter {
    type Item = Label;

    fn next(&mut self) -> Option<Label> {
        loop {
            if self.mask != 0 {
                let b = self.mask.trailing_zeros() as usize;
                self.mask &= self.mask - 1;
                return Some(Label::from_index(self.word * 64 + b));
            }
            self.word += 1;
            if self.word >= WORDS {
                return None;
            }
            self.mask = self.set.words[self.word];
        }
    }
}

/// Enumerates all non-empty subsets of `universe`.
///
/// Used by the *unsimplified* Theorem-1 transform and by brute-force test
/// oracles; exponential in `universe.len()`, so callers bound the universe.
pub fn nonempty_subsets(universe: &LabelSet) -> Vec<LabelSet> {
    let elems: Vec<Label> = universe.iter().collect();
    let n = elems.len();
    assert!(n <= 24, "nonempty_subsets is for small universes only");
    let mut out = Vec::with_capacity((1usize << n) - 1);
    for mask in 1usize..(1 << n) {
        let mut s = LabelSet::empty();
        for (i, &l) in elems.iter().enumerate() {
            if mask & (1 << i) != 0 {
                s.insert(l);
            }
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> Label {
        Label::from_index(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = LabelSet::empty();
        assert!(s.insert(l(7)));
        assert!(!s.insert(l(7)));
        assert!(s.contains(l(7)));
        assert!(s.insert(l(255)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(l(7)));
        assert!(!s.remove(l(7)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn subset_relations() {
        let a = LabelSet::from_labels([l(1), l(2)]);
        let b = LabelSet::from_labels([l(1), l(2), l(3)]);
        assert!(a.is_subset(&b));
        assert!(a.is_proper_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(!a.is_proper_subset(&a));
    }

    #[test]
    fn boolean_ops() {
        let a = LabelSet::from_labels([l(0), l(64), l(128)]);
        let b = LabelSet::from_labels([l(64), l(200)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 2);
        assert!(a.intersects(&b));
        assert_eq!((a | b).len(), 4);
        assert_eq!((a & b).len(), 1);
        assert_eq!((a - b).len(), 2);
    }

    #[test]
    fn iter_order_spans_words() {
        let s = LabelSet::from_labels([l(200), l(3), l(65)]);
        let v: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(v, vec![3, 65, 200]);
        assert_eq!(s.min_label(), Some(l(3)));
    }

    #[test]
    fn min_label_at_least_scans_forward() {
        let s = LabelSet::from_labels([l(3), l(65), l(200)]);
        assert_eq!(s.min_label_at_least(0), Some(l(3)));
        assert_eq!(s.min_label_at_least(3), Some(l(3)));
        assert_eq!(s.min_label_at_least(4), Some(l(65)));
        assert_eq!(s.min_label_at_least(65), Some(l(65)));
        assert_eq!(s.min_label_at_least(66), Some(l(200)));
        assert_eq!(s.min_label_at_least(201), None);
        assert_eq!(s.min_label_at_least(400), None);
        assert_eq!(LabelSet::empty().min_label_at_least(0), None);
    }

    #[test]
    fn first_n_and_collect() {
        let s = LabelSet::first_n(5);
        assert_eq!(s.len(), 5);
        let t: LabelSet = (0..5).map(l).collect();
        assert_eq!(s, t);
    }

    #[test]
    fn nonempty_subsets_counts() {
        let u = LabelSet::first_n(4);
        let subs = nonempty_subsets(&u);
        assert_eq!(subs.len(), 15);
        // all distinct
        let mut sorted = subs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", LabelSet::empty()), "{}");
        assert_eq!(format!("{:?}", LabelSet::from_labels([l(1), l(9)])), "{1,9}");
    }
}
