//! §4.5: doubly-exponential color reduction on rings via the *dual*
//! (hardening) technique.
//!
//! Applying the speedup to k-coloring on rings yields Π₁; the paper then
//! *hardens* Π₁ to a problem Π₁* that is just a k′-coloring with
//! `k′ = 2^{C(k,k/2)/2}`. Since a k′-coloring algorithm therefore yields a
//! k-coloring algorithm only one round slower, colors shrink doubly
//! exponentially per round — reproducing the O(log* n) upper bound for
//! 3-coloring rings (Cole–Vishkin / Goldberg–Plotkin–Shannon).
//!
//! A Π₁* "color" is a **family** `Y` of (k/2)-subsets of the k colors
//! containing *exactly one* of each complementary pair. The two properties
//! proved in §4.5, verified here by exhaustive check:
//!
//! 1. distinct families contain a disjoint (complementary) pair of
//!    subsets — so `{Y,Z} ∈ g₁` (the edge constraint holds);
//! 2. within one family all subsets pairwise intersect — so
//!    `{Y,Y} ∈ h₁` (the node constraint holds).

use roundelim_core::error::{Error, Result};

/// A (k/2)-subset of colors, as a bitmask over `0..k`.
pub type ColorSet = u32;

/// A Π₁* color: a family of (k/2)-subsets, one per complementary pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// The member subsets (bitmasks), sorted.
    pub members: Vec<ColorSet>,
}

/// Enumerates all Π₁* families for even `k` (small k only: the count is
/// `2^{C(k,k/2)/2}`).
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for odd `k`, `k < 2`, or `k > 8` (the
/// family count explodes beyond).
pub fn families(k: usize) -> Result<Vec<Family>> {
    if k < 2 || !k.is_multiple_of(2) || k > 8 {
        return Err(Error::Unsupported {
            reason: format!("families(k) needs even 2 ≤ k ≤ 8, got {k}"),
        });
    }
    let full: u32 = (1 << k) - 1;
    // All (k/2)-subsets, grouped into complementary pairs (keep the one
    // containing color 0 as the pair representative).
    let mut pairs: Vec<(ColorSet, ColorSet)> = Vec::new();
    for s in 0u32..=full {
        if (s.count_ones() as usize) == k / 2 && s & 1 == 1 {
            pairs.push((s, full & !s));
        }
    }
    // Choose one member from each pair.
    let mut out = Vec::with_capacity(1 << pairs.len());
    for choice in 0u64..(1 << pairs.len()) {
        let mut members: Vec<ColorSet> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| if choice >> i & 1 == 0 { a } else { b })
            .collect();
        members.sort_unstable();
        out.push(Family { members });
    }
    Ok(out)
}

/// The §4.5 color count `k′ = 2^{C(k,k/2)/2}` (number of families).
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for parameters where the count does not
/// fit in `u128` or `k` is odd/too small.
pub fn k_prime(k: usize) -> Result<u128> {
    if k < 2 || !k.is_multiple_of(2) {
        return Err(Error::Unsupported { reason: format!("k′ needs even k ≥ 2, got {k}") });
    }
    // C(k, k/2)
    let mut binom: u128 = 1;
    for i in 0..k / 2 {
        binom = binom * (k - i) as u128 / (i + 1) as u128;
    }
    let exp = binom / 2;
    if exp >= 128 {
        return Err(Error::Unsupported { reason: format!("k′ for k = {k} exceeds u128") });
    }
    Ok(1u128 << exp)
}

/// Verifies the two §4.5 properties on the explicit family list:
/// distinct families contain a disjoint pair (edge side), and each
/// family's subsets pairwise intersect (node side).
///
/// Returns the number of families checked.
///
/// # Errors
///
/// Returns [`Error::Inconsistent`] naming the first violated property —
/// which the paper proves never happens.
pub fn verify_properties(k: usize) -> Result<usize> {
    let fams = families(k)?;
    for (i, y) in fams.iter().enumerate() {
        // Property 2: pairwise intersection within a family.
        for (a_ix, &a) in y.members.iter().enumerate() {
            for &b in &y.members[a_ix + 1..] {
                if a & b == 0 {
                    return Err(Error::Inconsistent {
                        reason: format!("family {i} contains a disjoint pair — property 2 fails"),
                    });
                }
            }
        }
        // Property 1 against every other family.
        for (j, z) in fams.iter().enumerate() {
            if i == j {
                continue;
            }
            let ok = y.members.iter().any(|&a| z.members.iter().any(|&b| a & b == 0));
            if !ok {
                return Err(Error::Inconsistent {
                    reason: format!(
                        "families {i} and {j} have no disjoint pair — property 1 fails"
                    ),
                });
            }
        }
    }
    Ok(fams.len())
}

/// How many speedup steps the §4.5 hardening needs to bring `k0` colors
/// down to at most `target` colors — the "rounds" of the derived color
/// reduction (each step costs one communication round in the upper-bound
/// direction). The doubly exponential growth `k ↦ 2^{C(k,k/2)/2} ≥
/// 2^{2^{k/2}}` (k ≥ 6) makes this O(log* k0).
pub fn reduction_steps(mut k0: u128, target: u128) -> usize {
    let mut steps = 0;
    while k0 > target {
        // Invert the growth conservatively: a k′-coloring yields (one
        // round slower) a k-coloring where k′ ≥ 2^{2^{k/2}}, i.e.
        // k ≤ 2·log₂ log₂ k′ (valid for k ≥ 6; below that use k−1 via the
        // trivial greedy reduction).
        k0 = if k0 > 64 {
            let l1 = 127 - (k0 - 1).leading_zeros() as u128 + 1; // ceil log2
            let l2 = 127 - (l1 - 1).leading_zeros() as u128 + 1;
            (2 * l2).max(3)
        } else {
            k0 - 1
        };
        steps += 1;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::speedup::half_step_edge;

    #[test]
    fn family_counts_match_paper_formula() {
        // k = 4: C(4,2)/2 = 3 pairs → 8 families.
        assert_eq!(families(4).unwrap().len(), 8);
        assert_eq!(k_prime(4).unwrap(), 8);
        // k = 6: C(6,3)/2 = 10 → 1024.
        assert_eq!(families(6).unwrap().len(), 1024);
        assert_eq!(k_prime(6).unwrap(), 1024);
        // k = 8: C(8,4)/2 = 35 → 2^35.
        assert_eq!(k_prime(8).unwrap(), 1u128 << 35);
        assert!(families(3).is_err());
        assert!(k_prime(5).is_err());
    }

    #[test]
    fn paper_properties_hold() {
        assert_eq!(verify_properties(4).unwrap(), 8);
        assert_eq!(verify_properties(6).unwrap(), 1024);
    }

    #[test]
    fn growth_is_at_least_doubly_exponential_for_k6() {
        // k ≥ 6: k′ ≥ 2^{2^{k/2}}.
        for k in [6usize, 8] {
            let kp = k_prime(k).unwrap();
            let lower = 1u128 << (1u32 << (k as u32 / 2));
            assert!(kp >= lower, "k={k}: {kp} < {lower}");
        }
    }

    #[test]
    fn engine_half_step_matches_section_4_5() {
        // §4.5 lists Π'_{1/2} of 4-coloring: labels = proper nonempty
        // subsets of the 4 colors (14 of them), edge constraint = the
        // complementary partitions (7 pairs).
        let c4 = crate::coloring::coloring(4, 2).unwrap();
        let hs = half_step_edge(&c4, 1).unwrap();
        assert_eq!(hs.meanings.len(), 14);
        assert_eq!(hs.problem.edge().len(), 7);
        for cfg in hs.problem.edge().iter() {
            let ls = cfg;
            let a = hs.meanings[ls[0].index()];
            let b = hs.meanings[ls[1].index()];
            assert!(a.intersection(&b).is_empty());
            assert_eq!(a.len() + b.len(), 4);
        }
        // Node side (h_{1/2}): pairs of subsets that intersect.
        for cfg in hs.problem.node().iter() {
            let ls = cfg;
            let a = hs.meanings[ls[0].index()];
            let b = hs.meanings[ls[1].index()];
            assert!(a.intersects(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn reduction_steps_is_log_star_like() {
        // From astronomically many colors down to 3 in few steps.
        let s = reduction_steps(1u128 << 100, 3);
        assert!(s <= 12, "steps = {s}");
        assert!(reduction_steps(4, 3) == 1);
        assert!(reduction_steps(3, 3) == 0);
        // Monotone-ish growth sanity.
        assert!(reduction_steps(1u128 << 100, 3) >= reduction_steps(1 << 10, 3));
    }
}
