//! Weak coloring: the pointer version of weak k-coloring (§4.6) and
//! superweak k-coloring (§5.1), as explicit small-Δ problems.
//!
//! In the paper's pointer version of weak 2-coloring, each node outputs a
//! color and points to one neighbor that must have a different color. The
//! generalization, *superweak* k-coloring, allows several *demanding*
//! pointers (→) and strictly fewer *accepting* pointers ((), a demanding
//! pointer being satisfied by a different color **or** by an accepting
//! pointer back.
//!
//! These constructors materialize the constraints for concrete small `k`
//! and `Δ` (the generic engine's regime). The compressed large-Δ machinery
//! for the lower bound lives in `roundelim-superweak`.

use roundelim_core::config::Config;
use roundelim_core::constraint::Constraint;
use roundelim_core::error::{Error, Result};
use roundelim_core::label::{Alphabet, Label};
use roundelim_core::problem::Problem;

/// The pointer version of weak `k`-coloring at degree `delta` (§4.6).
///
/// * Labels: `(c,→)` and `(c,•)` for each color `c` — rendered `c→`, `c•`.
/// * Node: all ports carry the same color; exactly one port carries `→`.
/// * Edge: colors differ, or neither side is a pointer.
///
/// §4.6 of the paper explains why any weak-k-coloring algorithm yields an
/// algorithm for this problem at +1 round.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `k < 2` or `delta < 2`.
pub fn weak_coloring_pointer(k: usize, delta: usize) -> Result<Problem> {
    if k < 2 || delta < 2 {
        return Err(Error::Unsupported {
            reason: format!(
                "weak coloring pointer version needs k ≥ 2, Δ ≥ 2; got k={k}, Δ={delta}"
            ),
        });
    }
    let mut alphabet = Alphabet::new();
    let mut arrow = Vec::with_capacity(k);
    let mut dot = Vec::with_capacity(k);
    for c in 1..=k {
        arrow.push(alphabet.intern(format!("{c}→"))?);
        dot.push(alphabet.intern(format!("{c}•"))?);
    }
    let mut node = Vec::new();
    for c in 0..k {
        node.push(Config::from_groups([(arrow[c], 1), (dot[c], delta - 1)]));
    }
    let mut edge = Vec::new();
    for a in 0..k {
        for b in 0..k {
            // {y,z} allowed iff colors differ or both are dots.
            if a != b {
                edge.push(Config::new(vec![arrow[a], arrow[b]]));
                edge.push(Config::new(vec![arrow[a], dot[b]]));
                edge.push(Config::new(vec![dot[a], dot[b]]));
                if a < b {
                    edge.push(Config::new(vec![dot[a], arrow[b]]));
                }
            } else {
                edge.push(Config::new(vec![dot[a], dot[a]]));
            }
        }
    }
    let node = Constraint::from_configs(delta, node)?;
    let edge = Constraint::from_configs(2, edge)?;
    Problem::new(format!("weak-{k}-coloring-ptr"), alphabet, node, edge)
}

/// Labels of [`superweak_coloring`]: a color and a pointer kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerKind {
    /// A demanding pointer `→`.
    Demanding,
    /// An accepting pointer `(`.
    Accepting,
    /// No pointer `•`.
    None,
}

/// Superweak `k`-coloring at degree `delta` (§5.1), explicit encoding.
///
/// * Labels: `(c, p)` for colors `c ∈ 1..=k` and `p ∈ {→, (, •}`.
/// * Node: all ports same color; `min(k+1, #→) > #(` (strictly more
///   demanding than accepting pointers, with at most `k` accepting ones).
/// * Edge: colors differ, or both `•`, or at least one `(`.
///
/// The node constraint enumerates all `(#→, #()` splits, so keep
/// `k·delta` small; the compressed representation for `Δ ≥ 2^{4^k}+1`
/// lives in `roundelim-superweak`.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `k < 2` or `delta < 2`.
pub fn superweak_coloring(k: usize, delta: usize) -> Result<Problem> {
    if k < 2 || delta < 2 {
        return Err(Error::Unsupported {
            reason: format!("superweak coloring needs k ≥ 2, Δ ≥ 2; got k={k}, Δ={delta}"),
        });
    }
    let mut alphabet = Alphabet::new();
    let mut lab = |c: usize, p: &str| -> Result<Label> { alphabet.intern(format!("{c}{p}")) };
    let mut dem = Vec::new();
    let mut acc = Vec::new();
    let mut dot = Vec::new();
    for c in 1..=k {
        dem.push(lab(c, "→")?);
        acc.push(lab(c, "(")?);
        dot.push(lab(c, "•")?);
    }
    let mut node = Vec::new();
    for c in 0..k {
        for n_dem in 1..=delta {
            for n_acc in 0..=delta.saturating_sub(n_dem) {
                // min(k+1, n_dem) > n_acc  (implies n_acc ≤ k)
                if n_dem.min(k + 1) > n_acc {
                    let n_dot = delta - n_dem - n_acc;
                    node.push(Config::from_groups([
                        (dem[c], n_dem),
                        (acc[c], n_acc),
                        (dot[c], n_dot),
                    ]));
                }
            }
        }
    }
    let mut edge = Vec::new();
    let kinds = |c: usize| {
        [
            (dem[c], PointerKind::Demanding),
            (acc[c], PointerKind::Accepting),
            (dot[c], PointerKind::None),
        ]
    };
    for a in 0..k {
        for b in 0..k {
            for (la, pa) in kinds(a) {
                for (lb, pb) in kinds(b) {
                    let ok = a != b
                        || (pa == PointerKind::None && pb == PointerKind::None)
                        || pa == PointerKind::Accepting
                        || pb == PointerKind::Accepting;
                    if ok {
                        edge.push(Config::new(vec![la, lb]));
                    }
                }
            }
        }
    }
    let node = Constraint::from_configs(delta, node)?;
    let edge = Constraint::from_configs(2, edge)?;
    Problem::new(format!("superweak-{k}-coloring"), alphabet, node, edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::relax::is_relaxation_of;
    use roundelim_core::zero_round::{zero_round_oriented, zero_round_pn};

    #[test]
    fn weak2_pointer_shape_matches_paper() {
        // §4.6: f(Δ) = {1,2} × {→,•}, h has one config per color.
        let p = weak_coloring_pointer(2, 3).unwrap();
        assert_eq!(p.alphabet().len(), 4);
        assert_eq!(p.node().len(), 2);
        // g: pairs with different colors (any pointers: C(2,2)+2·2... ) plus
        // same-color dot-dot. Count explicitly: colors (1,2): all 2x2
        // pointer combos as multisets = 3 same-kind? — just assert the two
        // same-color arrow pairs are absent.
        let a1 = p.config(&["1→", "1→"]).unwrap();
        let a2 = p.config(&["1→", "1•"]).unwrap();
        let ok = p.config(&["1•", "1•"]).unwrap();
        assert!(!p.edge().contains(&a1));
        assert!(!p.edge().contains(&a2));
        assert!(p.edge().contains(&ok));
    }

    #[test]
    fn weak2_is_relaxed_by_superweak2() {
        // §5.2: any pointer-weak-2-coloring solution is a superweak
        // 2-coloring solution (map → to →, • to •).
        let w = weak_coloring_pointer(2, 3).unwrap();
        let sw = superweak_coloring(2, 3).unwrap();
        assert!(is_relaxation_of(&w, &sw));
        assert!(!is_relaxation_of(&sw, &w));
    }

    #[test]
    fn superweak_node_constraint_counts() {
        // Δ=3, k=2: per color, (n_dem, n_acc) with n_dem + n_acc ≤ 3 and
        // min(3, n_dem) > n_acc: (1,0), (2,0), (2,1), (3,0).
        // 4 configs per color × 2 colors = 8.
        let p = superweak_coloring(2, 3).unwrap();
        assert_eq!(p.node().len(), 8);
    }

    #[test]
    fn superweak_accepting_cap_respected() {
        // k=2, Δ=6: n_dem=6 → min(3,6)=3 > n_acc allows n_acc ∈ {0,1,2},
        // never 3 even though 6-6=0 … check no config has > k accepting.
        let p = superweak_coloring(2, 6).unwrap();
        for cfg in p.node().iter() {
            let acc1 = p.alphabet().require("1(").unwrap();
            let acc2 = p.alphabet().require("2(").unwrap();
            let n_acc = cfg.iter().filter(|&&l| l == acc1 || l == acc2).count();
            assert!(
                n_acc <= 2,
                "config {} has {n_acc} accepting pointers",
                roundelim_core::config::display_labels(cfg, p.alphabet())
            );
        }
    }

    #[test]
    fn neither_zero_round_solvable_small() {
        let w = weak_coloring_pointer(2, 3).unwrap();
        assert!(zero_round_pn(w.packed()).is_none());
        assert!(zero_round_oriented(w.packed()).is_none());
        let sw = superweak_coloring(2, 3).unwrap();
        assert!(zero_round_pn(sw.packed()).is_none());
        // Superweak with orientations at tiny Δ may or may not be solvable;
        // Theorem 4's impossibility needs k ≤ (Δ-3)/2. For Δ=3, k=2 the
        // bound does not apply — just exercise the decider.
        let _ = zero_round_oriented(sw.packed());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(weak_coloring_pointer(1, 3).is_err());
        assert!(weak_coloring_pointer(2, 1).is_err());
        assert!(superweak_coloring(1, 3).is_err());
        assert!(superweak_coloring(2, 1).is_err());
    }
}
