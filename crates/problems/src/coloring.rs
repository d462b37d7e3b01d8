//! Proper node coloring and edge coloring.

use roundelim_core::config::Config;
use roundelim_core::constraint::Constraint;
use roundelim_core::error::{Error, Result};
use roundelim_core::label::Alphabet;
use roundelim_core::problem::Problem;

/// Proper `k`-coloring at degree `delta` (§4.5 uses `delta = 2`, rings).
///
/// * Labels: colors `1..=k` (one output per port; a node repeats its color
///   on every port — the paper's `h(Δ) = {{c,…,c}}`).
/// * Node: all ports carry the same color.
/// * Edge: the two endpoint colors differ.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `k < 2` or `delta < 1`, and
/// propagates alphabet overflow for huge `k`.
///
/// ```
/// use roundelim_problems::coloring::coloring;
/// let c3 = coloring(3, 2)?;
/// assert_eq!(c3.alphabet().len(), 3);
/// assert_eq!(c3.node().len(), 3);
/// assert_eq!(c3.edge().len(), 3);
/// # Ok::<(), roundelim_core::error::Error>(())
/// ```
pub fn coloring(k: usize, delta: usize) -> Result<Problem> {
    if k < 2 || delta < 1 {
        return Err(Error::Unsupported {
            reason: format!("coloring needs k ≥ 2 and Δ ≥ 1, got k={k}, Δ={delta}"),
        });
    }
    let mut alphabet = Alphabet::new();
    let labels: Vec<_> = (1..=k).map(|c| alphabet.intern(format!("{c}"))).collect::<Result<_>>()?;
    let mut node = Vec::new();
    for &c in &labels {
        node.push(Config::from_groups([(c, delta)]));
    }
    let mut edge = Vec::new();
    for i in 0..k {
        for j in (i + 1)..k {
            edge.push(Config::new(vec![labels[i], labels[j]]));
        }
    }
    let node = Constraint::from_configs(delta, node)?;
    let edge = Constraint::from_configs(2, edge)?;
    Problem::new(format!("{k}-coloring"), alphabet, node, edge)
}

/// Proper `k`-edge-coloring at degree `delta` (needs `k ≥ delta`).
///
/// * Labels: colors `1..=k`, one per port.
/// * Node: the Δ port colors are pairwise distinct.
/// * Edge: both endpoints agree on the edge's color.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] if `k < delta` (no proper edge coloring
/// exists) or `delta < 1`.
pub fn edge_coloring(k: usize, delta: usize) -> Result<Problem> {
    if delta < 1 || k < delta {
        return Err(Error::Unsupported {
            reason: format!("edge coloring needs k ≥ Δ ≥ 1, got k={k}, Δ={delta}"),
        });
    }
    let mut alphabet = Alphabet::new();
    let labels: Vec<_> = (1..=k).map(|c| alphabet.intern(format!("{c}"))).collect::<Result<_>>()?;
    let mut node = Vec::new();
    // All delta-subsets of the k colors.
    let mut idx: Vec<usize> = (0..delta).collect();
    loop {
        node.push(Config::new(idx.iter().map(|&i| labels[i]).collect()));
        // next combination
        let mut i = delta;
        loop {
            if i == 0 {
                break;
            }
            i -= 1;
            if idx[i] != i + k - delta {
                break;
            }
        }
        if idx[i] == i + k - delta {
            break;
        }
        idx[i] += 1;
        for j in i + 1..delta {
            idx[j] = idx[j - 1] + 1;
        }
    }
    let mut edge = Vec::new();
    for &c in &labels {
        edge.push(Config::new(vec![c, c]));
    }
    let node = Constraint::from_configs(delta, node)?;
    let edge = Constraint::from_configs(2, edge)?;
    Problem::new(format!("{k}-edge-coloring"), alphabet, node, edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::zero_round::{zero_round_oriented, zero_round_pn};

    #[test]
    fn coloring_shape() {
        let c4 = coloring(4, 2).unwrap();
        assert_eq!(c4.alphabet().len(), 4);
        assert_eq!(c4.node().len(), 4);
        assert_eq!(c4.edge().len(), 6); // C(4,2)
        assert_eq!(c4.delta(), 2);
    }

    #[test]
    fn coloring_rejects_degenerate_parameters() {
        assert!(coloring(1, 2).is_err());
        assert!(coloring(3, 0).is_err());
    }

    #[test]
    fn coloring_never_zero_round() {
        for k in 2..=4 {
            let c = coloring(k, 3).unwrap();
            assert!(zero_round_pn(c.packed()).is_none());
            assert!(zero_round_oriented(c.packed()).is_none());
        }
    }

    #[test]
    fn edge_coloring_shape() {
        let ec = edge_coloring(3, 3).unwrap();
        assert_eq!(ec.node().len(), 1); // only {1,2,3}
        assert_eq!(ec.edge().len(), 3);
        let ec = edge_coloring(5, 3).unwrap();
        assert_eq!(ec.node().len(), 10); // C(5,3)
        assert!(edge_coloring(2, 3).is_err());
    }

    #[test]
    fn edge_coloring_with_orientation_zero_round_unsolvable() {
        // Proper edge coloring needs coordination beyond orientations.
        let ec = edge_coloring(3, 3).unwrap();
        assert!(zero_round_pn(ec.packed()).is_none());
        assert!(zero_round_oriented(ec.packed()).is_none());
    }
}
