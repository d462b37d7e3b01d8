//! Trit sequences: the equivalent description of Π'_{1/2} (§4.6, §5.1).
//!
//! After one half-step on superweak k-coloring, the usable labels are in
//! bijection with *trit sequences* of length k: position `c` records how
//! many of `{(c,→), (c,()…}`-style elements the set-label contains —
//! `0 ↦ {(c,()}`, `1 ↦ {(c,(), (c,•)}`, `2 ↦ {(c,→), (c,(), (c,•)}`.
//! The derived edge constraint becomes "tritwise sums to 22…2"
//! (complementarity) and the node constraint becomes a counting condition
//! per position.

use std::fmt;

/// A sequence of trits (values 0, 1, 2) of length `k`.
///
/// ```
/// use roundelim_superweak::trit::TritSeq;
/// let a = TritSeq::new(vec![0, 2]).unwrap();
/// let b = TritSeq::new(vec![2, 0]).unwrap();
/// assert!(a.complementary(&b)); // 0+2 = 2, 2+0 = 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TritSeq(Vec<u8>);

impl TritSeq {
    /// Creates a trit sequence; every entry must be 0, 1, or 2.
    pub fn new(trits: Vec<u8>) -> Option<TritSeq> {
        if trits.iter().all(|&t| t <= 2) {
            Some(TritSeq(trits))
        } else {
            None
        }
    }

    /// The all-ones sequence `11…1` of length `k` (the paper's neutral
    /// element, always contained in P∞ by Lemma 1).
    pub fn all_ones(k: usize) -> TritSeq {
        TritSeq(vec![1; k])
    }

    /// The all-twos sequence `22…2` of length `k`.
    pub fn all_twos(k: usize) -> TritSeq {
        TritSeq(vec![2; k])
    }

    /// Length of the sequence (the color-count parameter k).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the sequence has length 0.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The trit at `position` (0-based).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range positions.
    pub fn trit(&self, position: usize) -> u8 {
        self.0[position]
    }

    /// The raw trits.
    pub fn trits(&self) -> &[u8] {
        &self.0
    }

    /// Whether `self + other = 22…2` tritwise (the paper's `g_{1/2}` edge
    /// condition).
    pub fn complementary(&self, other: &TritSeq) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(&a, &b)| a + b == 2)
    }

    /// The unique complementary sequence (`2 - t` at each position).
    #[must_use]
    pub fn complement(&self) -> TritSeq {
        TritSeq(self.0.iter().map(|&t| 2 - t).collect())
    }

    /// Encodes the sequence as a base-3 number (for compact indexing).
    pub fn index(&self) -> usize {
        self.0.iter().fold(0usize, |acc, &t| acc * 3 + t as usize)
    }

    /// Decodes a base-3 index back into a sequence of length `k`.
    pub fn from_index(mut ix: usize, k: usize) -> TritSeq {
        let mut v = vec![0u8; k];
        for slot in v.iter_mut().rev() {
            *slot = (ix % 3) as u8;
            ix /= 3;
        }
        TritSeq(v)
    }
}

impl fmt::Display for TritSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &t in &self.0 {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Enumerates all `3^k` trit sequences of length `k` in index order.
///
/// # Panics
///
/// Panics for `k > 12` (3^12 ≈ 531k sequences is the supported ceiling).
pub fn all_trit_seqs(k: usize) -> Vec<TritSeq> {
    assert!(k <= 12, "all_trit_seqs supports k ≤ 12");
    (0..3usize.pow(k as u32)).map(|ix| TritSeq::from_index(ix, k)).collect()
}

/// A set of trit sequences — one label of the derived problem Π'₁ (§5.1).
///
/// Stored as a sorted, deduplicated vector; two `TritSet`s are equal iff
/// they contain the same sequences.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TritSet(Vec<TritSeq>);

impl TritSet {
    /// Creates a set from sequences (sorted and deduplicated internally).
    pub fn new<I: IntoIterator<Item = TritSeq>>(seqs: I) -> TritSet {
        let mut v: Vec<TritSeq> = seqs.into_iter().collect();
        v.sort();
        v.dedup();
        TritSet(v)
    }

    /// Number of sequences in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &TritSeq) -> bool {
        self.0.binary_search(t).is_ok()
    }

    /// Whether the set contains `11…1` (of the set's sequence length).
    pub fn contains_all_ones(&self) -> bool {
        self.0.first().is_some_and(|t| self.contains(&TritSeq::all_ones(t.len())))
    }

    /// Iterates over the sequences in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &TritSeq> + '_ {
        self.0.iter()
    }

    /// Inserts a sequence, returning a new set (sets are immutable values).
    #[must_use]
    pub fn with(&self, t: TritSeq) -> TritSet {
        let mut v = self.0.clone();
        v.push(t);
        TritSet::new(v)
    }

    /// The paper's `g₁` edge compatibility: some `w ∈ self`, `x ∈ other`
    /// are tritwise complementary.
    pub fn g1_compatible(&self, other: &TritSet) -> bool {
        self.0.iter().any(|w| other.contains(&w.complement()))
    }
}

impl fmt::Display for TritSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_trits() {
        assert!(TritSeq::new(vec![0, 1, 2]).is_some());
        assert!(TritSeq::new(vec![0, 3]).is_none());
    }

    #[test]
    fn complementarity() {
        let a = TritSeq::new(vec![0, 1, 2]).unwrap();
        let b = TritSeq::new(vec![2, 1, 0]).unwrap();
        assert!(a.complementary(&b));
        assert_eq!(a.complement(), b);
        assert!(!a.complementary(&a));
        let ones = TritSeq::all_ones(3);
        assert!(ones.complementary(&ones)); // 1+1 = 2 everywhere
    }

    #[test]
    fn index_round_trip() {
        for k in 1..=4 {
            for (ix, t) in all_trit_seqs(k).iter().enumerate() {
                assert_eq!(t.index(), ix);
                assert_eq!(&TritSeq::from_index(ix, k), t);
            }
        }
        assert_eq!(all_trit_seqs(2).len(), 9);
    }

    #[test]
    fn tritset_semantics() {
        let k = 2;
        let s = TritSet::new([TritSeq::all_ones(k), TritSeq::all_ones(k), TritSeq::all_twos(k)]);
        assert_eq!(s.len(), 2); // deduplicated
        assert!(s.contains_all_ones());
        let t = TritSet::new([TritSeq::new(vec![0, 0]).unwrap()]);
        assert!(!t.contains_all_ones());
        // g1 compatibility: {00} vs {22}: complementary ✓
        let u = TritSet::new([TritSeq::all_twos(k)]);
        assert!(t.g1_compatible(&u));
        assert!(!t.g1_compatible(&t));
        // all-ones is self-complementary
        assert!(s.g1_compatible(&s));
    }

    #[test]
    fn display_formats() {
        let t = TritSeq::new(vec![0, 2, 1]).unwrap();
        assert_eq!(t.to_string(), "021");
        let s = TritSet::new([t.clone()]);
        assert_eq!(s.to_string(), "{021}");
    }
}
