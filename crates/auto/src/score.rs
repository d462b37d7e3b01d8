//! Problem scoring for beam selection.
//!
//! The search prefers small problems: speedup steps on small alphabets are
//! cheap, and the paper's hand derivations (§4.4–§4.6) all funnel the
//! iteration through few-label problems (relaxing whenever the description
//! grows). Lower scores are better; ties are broken deterministically by
//! the caller (node id order).

use roundelim_core::packed::PackedProblem;

/// A problem's search priority, ordered lexicographically: alphabet size
/// dominates (it drives every downstream cost — speedup, canonicalization,
/// 0-round decision), configuration count refines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Score {
    /// Number of alphabet labels.
    pub labels: usize,
    /// Total configuration count (`|node| + |edge|`).
    pub configs: usize,
}

/// Scores a problem (lower is better).
pub fn score(p: &PackedProblem) -> Score {
    Score { labels: p.label_count(), configs: p.node().len() + p.edge().len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::problem::Problem;

    fn score(p: &Problem) -> Score {
        super::score(p.packed())
    }

    #[test]
    fn fewer_labels_beats_fewer_configs() {
        let small = Problem::parse("name: s\nnode: A A | A B | B B\nedge: A B | A A").unwrap();
        let big = Problem::parse("name: b\nnode: A B C\nedge: A A").unwrap();
        assert!(score(&small) < score(&big));
    }

    #[test]
    fn config_count_breaks_label_ties() {
        let lean = Problem::parse("name: l\nnode: A B\nedge: A B").unwrap();
        let fat = Problem::parse("name: f\nnode: A B | A A\nedge: A B | B B").unwrap();
        assert!(score(&lean) < score(&fat));
        assert_eq!(score(&lean).labels, score(&fat).labels);
    }
}
