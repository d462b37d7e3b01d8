//! Matchings: perfect and maximal (the follow-up work of Balliu et al.
//! applies the paper's speedup to maximal matching).

use roundelim_core::error::{Error, Result};
use roundelim_core::problem::Problem;

/// Perfect matching at degree `delta`:
///
/// * Labels: `M` ("this edge is my matching edge") and `U` (unmatched port).
/// * Node: exactly one `M`.
/// * Edge: both endpoints agree — `{M,M}` or `{U,U}`.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `delta < 1`.
pub fn perfect_matching(delta: usize) -> Result<Problem> {
    if delta < 1 {
        return Err(Error::Unsupported { reason: "perfect matching needs Δ ≥ 1".into() });
    }
    let node = if delta == 1 { "M".to_owned() } else { format!("M U^{}", delta - 1) };
    Problem::parse(&format!("name: perfect-matching\nnode: {node}\nedge: M M | U U\n"))
}

/// Maximal matching at degree `delta` (standard round-elimination encoding):
///
/// * Labels: `M` (my matching edge), `O` (other port of a matched node),
///   `P` (port of an unmatched node — a "proof" pointer that must face a
///   matched node).
/// * Node: matched — one `M`, rest `O`; unmatched — all `P`.
/// * Edge: `{M,M}` (the matched edge), `{O,O}` (two matched nodes),
///   `{O,P}` (unmatched node next to a matched one). `{P,P}` is forbidden:
///   two adjacent unmatched nodes would contradict maximality.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `delta < 2`.
pub fn maximal_matching(delta: usize) -> Result<Problem> {
    if delta < 2 {
        return Err(Error::Unsupported { reason: "maximal matching needs Δ ≥ 2".into() });
    }
    Problem::parse(&format!(
        "name: maximal-matching\n\
         node: M O^{} | P^{delta}\n\
         edge: M M | O O | O P\n",
        delta - 1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::relax::is_relaxation_of;
    use roundelim_core::zero_round::{zero_round_oriented, zero_round_pn};

    #[test]
    fn shapes() {
        let pm = perfect_matching(3).unwrap();
        assert_eq!(pm.alphabet().len(), 2);
        assert_eq!(pm.node().len(), 1);
        let mm = maximal_matching(3).unwrap();
        assert_eq!(mm.alphabet().len(), 3);
        assert_eq!(mm.node().len(), 2);
        assert_eq!(mm.edge().len(), 3);
    }

    #[test]
    fn perfect_matching_relaxes_to_maximal() {
        // A perfect matching is maximal: map M→M, U→O.
        let pm = perfect_matching(3).unwrap();
        let mm = maximal_matching(3).unwrap();
        assert!(is_relaxation_of(&pm, &mm));
        assert!(!is_relaxation_of(&mm, &pm));
    }

    #[test]
    fn not_zero_round_solvable() {
        for delta in 2..=4 {
            let mm = maximal_matching(delta).unwrap();
            assert!(zero_round_pn(mm.packed()).is_none());
            assert!(zero_round_oriented(mm.packed()).is_none(), "Δ={delta}");
        }
    }

    #[test]
    fn degenerate_parameters() {
        assert!(perfect_matching(0).is_err());
        assert!(maximal_matching(1).is_err());
        assert!(perfect_matching(1).is_ok()); // a single pendant edge
    }
}
