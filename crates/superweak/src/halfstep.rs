//! Cross-validation of the paper's *equivalent trit description* of
//! Π'_{1/2} (§4.6 / §5.1) against the generic speedup engine.
//!
//! The paper claims that after one simplified half-step on superweak
//! k-coloring, the usable labels are exactly the `3^k` trit sequences,
//! with
//!
//! * edge constraint: tritwise-complementary pairs (sum `22…2`);
//! * node constraint: ∃ position j with `#2_j > #0_j` and `#0_j ≤ k`.
//!
//! [`trit_of_meaning`] reads the trit sequence off an engine-derived
//! set-label, and the tests in this module run the *generic* engine on the
//! explicit small-Δ problem and verify both constraints coincide with the
//! closed-form description — the same mechanically-checked equivalence the
//! paper argues by hand.

use crate::trit::TritSeq;
use roundelim_core::label::Alphabet;
use roundelim_core::labelset::LabelSet;

/// Interprets an engine set-label over the superweak alphabet
/// (`{c→, c(, c•}` per color, as produced by
/// `roundelim_problems::weak::superweak_coloring`) as a trit sequence:
/// per color, `{(} ↦ 0`, `{(, •} ↦ 1`, `{→, (, •} ↦ 2`.
///
/// Returns `None` if the set is not of the §5.1 normal shape (which for
/// maximal labels of the derived problem never happens — that is exactly
/// the paper's claim, and what the tests verify).
pub fn trit_of_meaning(meaning: &LabelSet, base: &Alphabet, k: usize) -> Option<TritSeq> {
    let mut trits = Vec::with_capacity(k);
    for c in 1..=k {
        let dem = base.lookup(&format!("{c}→"))?;
        let acc = base.lookup(&format!("{c}(",))?;
        let dot = base.lookup(&format!("{c}•"))?;
        let has = |l| meaning.contains(l);
        let trit = match (has(dem), has(acc), has(dot)) {
            (false, true, false) => 0u8,
            (false, true, true) => 1,
            (true, true, true) => 2,
            _ => return None,
        };
        trits.push(trit);
    }
    TritSeq::new(trits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h1::choice_in_h_half;
    use roundelim_core::speedup::half_step_edge;
    use roundelim_problems::weak::superweak_coloring;

    /// §5.1's equivalence, machine-checked: run the generic engine on the
    /// explicit superweak problem and compare with the closed form.
    fn check_equivalence(k: usize, delta: usize) {
        let base = superweak_coloring(k, delta).unwrap();
        let hs = half_step_edge(&base, 1).unwrap();
        let derived = &hs.problem;

        // 1. Every derived label is a trit sequence; all 3^k occur.
        let mut seen = std::collections::BTreeSet::new();
        let mut trit_of_label = Vec::new();
        for (ix, meaning) in hs.meanings.iter().enumerate() {
            let t = trit_of_meaning(meaning, base.alphabet(), k)
                .unwrap_or_else(|| panic!("derived label {ix} is not of trit shape: {meaning:?}"));
            seen.insert(t.clone());
            trit_of_label.push(t);
        }
        assert_eq!(seen.len(), 3usize.pow(k as u32), "all trit sequences usable");
        assert_eq!(hs.meanings.len(), 3usize.pow(k as u32));

        // 2. Edge constraint = complementary pairs.
        for cfg in derived.edge().iter() {
            let ls = cfg;
            let (a, b) = (&trit_of_label[ls[0].index()], &trit_of_label[ls[1].index()]);
            assert!(a.complementary(b), "edge pair {a} {b} not complementary");
        }
        // Count: unordered complementary pairs = (3^k − 1)/2 + 1 (the
        // all-ones sequence is self-complementary).
        let expected = (3usize.pow(k as u32) - 1) / 2 + 1;
        assert_eq!(derived.edge().len(), expected);

        // 3. Node constraint = the ∃j counting condition.
        // The engine enumerated all multisets over the new alphabet; check
        // each against the closed form, and check the closed form implies
        // membership for every multiset.
        let all = roundelim_core::config::all_multisets(hs.meanings.len(), delta);
        for cfg in &all {
            let choice: Vec<TritSeq> =
                cfg.labels().iter().map(|l| trit_of_label[l.index()].clone()).collect();
            let formula = choice_in_h_half(&choice, k);
            let engine = derived.node().contains(cfg);
            assert_eq!(
                engine,
                formula,
                "node multiset {:?} engine={engine} formula={formula}",
                choice.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn superweak_2_delta_3_matches_closed_form() {
        check_equivalence(2, 3);
    }

    #[test]
    fn superweak_2_delta_4_matches_closed_form() {
        check_equivalence(2, 4);
    }

    #[test]
    fn trit_of_meaning_rejects_non_normal_sets() {
        let base = superweak_coloring(2, 3).unwrap();
        // {1→} alone is not a normal shape.
        let only_dem = LabelSet::singleton(base.alphabet().require("1→").unwrap());
        assert!(trit_of_meaning(&only_dem, base.alphabet(), 2).is_none());
    }
}
