//! Sinkless orientation and sinkless coloring (§4.4 of the paper).

use roundelim_core::error::{Error, Result};
use roundelim_core::problem::Problem;

/// Sinkless coloring at degree `delta` (the paper's canonical encoding):
///
/// * Labels: `1` at `(v,e)` means "v chooses the color of e", `0` means it
///   does not.
/// * Node: exactly one `1` (each node picks exactly one incident edge).
/// * Edge: at most one endpoint picks the edge (`{0,0}` or `{0,1}`).
///
/// §4.4 shows the full simplified speedup step maps this problem to
/// sinkless orientation and back, a period-2 fixed point certifying the
/// Ω(log n) lower bound of Brandt et al. [STOC'16].
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `delta < 2` (the problem needs at
/// least one non-chosen port to be meaningful).
pub fn sinkless_coloring(delta: usize) -> Result<Problem> {
    if delta < 2 {
        return Err(Error::Unsupported {
            reason: format!("sinkless coloring needs Δ ≥ 2, got {delta}"),
        });
    }
    let text = format!(
        "name: sinkless-coloring\n\
         node: 1 0^{}\n\
         edge: 0 0 | 0 1\n",
        delta - 1
    );
    Problem::parse(&text)
}

/// Sinkless orientation at degree `delta`:
///
/// * Labels: `O` at `(v,e)` means v orients e away from itself, `I`
///   towards itself.
/// * Node: at least one `O` (no sinks).
/// * Edge: endpoints agree — exactly one `O` per edge.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for `delta < 1`.
pub fn sinkless_orientation(delta: usize) -> Result<Problem> {
    if delta < 1 {
        return Err(Error::Unsupported { reason: "sinkless orientation needs Δ ≥ 1".into() });
    }
    let mut node = String::new();
    for o in 1..=delta {
        if o > 1 {
            node.push_str(" | ");
        }
        if o == delta {
            node.push_str(&format!("O^{delta}"));
        } else {
            node.push_str(&format!("O^{o} I^{}", delta - o));
        }
    }
    let text = format!("name: sinkless-orientation\nnode: {node}\nedge: O I\n");
    Problem::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::iso::are_isomorphic;
    use roundelim_core::speedup::{full_step, half_step_edge};

    #[test]
    fn shapes() {
        let sc = sinkless_coloring(3).unwrap();
        assert_eq!(sc.alphabet().len(), 2);
        assert_eq!(sc.node().len(), 1);
        assert_eq!(sc.edge().len(), 2);
        let so = sinkless_orientation(3).unwrap();
        assert_eq!(so.node().len(), 3);
        assert_eq!(so.edge().len(), 1);
        assert!(sinkless_coloring(1).is_err());
    }

    #[test]
    fn half_step_of_sc_is_so() {
        // Paper §4.4: Π'_{1/2}(sinkless coloring) ≅ sinkless orientation.
        for delta in 3..=6 {
            let sc = sinkless_coloring(delta).unwrap();
            let so = sinkless_orientation(delta).unwrap();
            let derived = half_step_edge(&sc, 1).unwrap().problem;
            assert!(are_isomorphic(&derived, &so), "Δ={delta}: derived = {derived}");
        }
    }

    #[test]
    fn full_step_of_sc_is_sc() {
        // Paper §4.4: Π'₁(sinkless coloring) ≅ sinkless coloring.
        for delta in 3..=6 {
            let sc = sinkless_coloring(delta).unwrap();
            let derived = full_step(&sc, 1).unwrap().problem().clone();
            assert!(are_isomorphic(&derived, &sc), "Δ={delta}: derived = {derived}");
        }
    }
}
