//! Maximal independent set (MIS), the second target of the Balliu et al.
//! follow-up lower bounds built on the paper's speedup.

use roundelim_core::error::{Error, Result};
use roundelim_core::problem::Problem;

/// Maximal independent set at degree `delta` (pointer encoding):
///
/// * Labels: `A` (port of an MIS node), `P` (pointer of a non-MIS node to
///   an MIS neighbor — its maximality proof), `O` (other port of a non-MIS
///   node).
/// * Node: in MIS — all `A`; out of MIS — one `P`, rest `O`.
/// * Edge: `{A,P}` (the proof edge), `{A,O}` (MIS node next to a non-MIS
///   node), `{O,O}` (two non-MIS nodes). `{A,A}` is forbidden
///   (independence); `{P,O}`/`{P,P}` are forbidden (a pointer must face an
///   MIS node).
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `delta < 2`.
pub fn mis(delta: usize) -> Result<Problem> {
    if delta < 2 {
        return Err(Error::Unsupported { reason: "MIS encoding needs Δ ≥ 2".into() });
    }
    Problem::parse(&format!(
        "name: mis\n\
         node: A^{delta} | P O^{}\n\
         edge: A P | A O | O O\n",
        delta - 1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::zero_round::{zero_round_oriented, zero_round_pn};

    #[test]
    fn shape() {
        let p = mis(4).unwrap();
        assert_eq!(p.alphabet().len(), 3);
        assert_eq!(p.node().len(), 2);
        assert_eq!(p.edge().len(), 3);
        assert!(mis(1).is_err());
    }

    #[test]
    fn independence_enforced() {
        let p = mis(3).unwrap();
        let aa = p.config(&["A", "A"]).unwrap();
        assert!(!p.edge().contains(&aa));
    }

    #[test]
    fn not_zero_round_solvable() {
        let p = mis(3).unwrap();
        assert!(zero_round_pn(p.packed()).is_none());
        assert!(zero_round_oriented(p.packed()).is_none());
    }
}
