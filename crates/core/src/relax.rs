//! Relaxation witnesses (the simplification tool of §2.1).
//!
//! Problem `to` is a *relaxation* of problem `from` — written
//! `from ⟶ to` and meaning "`to` is at most as hard as `from`" — whenever
//! there is a label map `m : labels(from) → labels(to)` such that the image
//! of every node configuration of `from` is a node configuration of `to`,
//! and likewise for edge configurations. Any algorithm for `from` then
//! solves `to` in the same number of rounds by translating each output
//! label through `m` (a 0-round, per-port postprocessing).
//!
//! The *dual* use — making a problem harder to push an upper bound through
//! the speedup, as in the §4.5 color-reduction derivation — is the same
//! search in the opposite direction: `harder ⟶ easier`.
//!
//! This witness notion is sound but (deliberately) not complete: the paper
//! also uses bespoke relaxations whose output translation inspects the
//! whole node output (e.g. Lemma 3), which live in `roundelim-superweak`.

use crate::label::Label;
use crate::problem::Problem;

/// Searches for a relaxation witness `from ⟶ to`.
///
/// Returns the label map (indexed by `from` labels) if one exists.
///
/// ```
/// use roundelim_core::problem::Problem;
/// use roundelim_core::relax::relaxation_map;
/// // 2-coloring relaxes to 3-coloring (inject the color set).
/// let c2 = Problem::parse("name: c2\nnode: 1 1 | 2 2\nedge: 1 2").unwrap();
/// let c3 = Problem::parse("name: c3\nnode: a a | b b | c c\nedge: a b | a c | b c").unwrap();
/// assert!(relaxation_map(&c2, &c3).is_some());
/// assert!(relaxation_map(&c3, &c2).is_none()); // 3 colors don't fit in 2
/// ```
pub fn relaxation_map(from: &Problem, to: &Problem) -> Option<Vec<Label>> {
    if from.delta() != to.delta() || from.edge().arity() != to.edge().arity() {
        return None;
    }
    let n = from.alphabet().len();
    let m = to.alphabet().len();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut mapping: Vec<Option<Label>> = vec![None; n];
    // Order source labels by frequency (most constrained first).
    let mut freq = vec![0usize; n];
    for cfg in from.node().iter().chain(from.edge().iter()) {
        for &l in cfg {
            freq[l.index()] += 1;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(freq[i]));

    fn consistent(from: &Problem, to: &Problem, mapping: &[Option<Label>]) -> bool {
        let check =
            |ca: &crate::constraint::Constraint, cb: &crate::constraint::Constraint| -> bool {
                let mut mapped = Vec::with_capacity(ca.arity());
                for cfg in ca.iter() {
                    if cfg.iter().all(|l| mapping[l.index()].is_some()) {
                        mapped.clear();
                        mapped.extend(cfg.iter().map(|l| mapping[l.index()].expect("checked")));
                        mapped.sort_unstable();
                        if !cb.contains(&mapped) {
                            return false;
                        }
                    }
                }
                true
            };
        check(from.node(), to.node()) && check(from.edge(), to.edge())
    }

    fn rec(
        from: &Problem,
        to: &Problem,
        order: &[usize],
        depth: usize,
        m: usize,
        mapping: &mut Vec<Option<Label>>,
    ) -> bool {
        if depth == order.len() {
            return true;
        }
        let src = order[depth];
        for tgt in 0..m {
            mapping[src] = Some(Label::from_index(tgt));
            if consistent(from, to, mapping) && rec(from, to, order, depth + 1, m, mapping) {
                return true;
            }
            mapping[src] = None;
        }
        false
    }

    if rec(from, to, &order, 0, m, &mut mapping) {
        Some(mapping.into_iter().map(|x| x.expect("assignment complete")).collect())
    } else {
        None
    }
}

/// Whether `to` is a relaxation of `from` (see module docs).
pub fn is_relaxation_of(from: &Problem, to: &Problem) -> bool {
    relaxation_map(from, to).is_some()
}

/// Checks a *claimed* relaxation witness instead of searching for one:
/// `map[l.index()]` (one `to`-label per `from`-label) must carry every node
/// and edge configuration of `from` into one of `to`.
///
/// This is the certificate-replay hook: an independent verifier re-checks a
/// recorded witness in polynomial time, without re-running the witness
/// search that produced it.
pub fn check_relaxation(from: &Problem, to: &Problem, map: &[Label]) -> bool {
    if from.delta() != to.delta()
        || from.edge().arity() != to.edge().arity()
        || map.len() != from.alphabet().len()
        || map.iter().any(|l| l.index() >= to.alphabet().len())
    {
        return false;
    }
    let check = |ca: &crate::constraint::Constraint, cb: &crate::constraint::Constraint| -> bool {
        let mut image = Vec::with_capacity(ca.arity());
        ca.iter().all(|cfg| {
            image.clear();
            image.extend(cfg.iter().map(|l| map[l.index()]));
            image.sort_unstable();
            cb.contains(&image)
        })
    };
    check(from.node(), to.node()) && check(from.edge(), to.edge())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coloring(k: usize, delta: usize) -> Problem {
        let mut node = String::new();
        for c in 1..=k {
            if c > 1 {
                node.push_str(" | ");
            }
            node.push_str(&format!("c{c}^{delta}"));
        }
        let mut edge = String::new();
        let mut first = true;
        for a in 1..=k {
            for b in (a + 1)..=k {
                if !first {
                    edge.push_str(" | ");
                }
                first = false;
                edge.push_str(&format!("c{a} c{b}"));
            }
        }
        Problem::parse(&format!("name: {k}col\nnode: {node}\nedge: {edge}")).unwrap()
    }

    #[test]
    fn coloring_relaxes_upward_only() {
        let c3 = coloring(3, 2);
        let c4 = coloring(4, 2);
        assert!(is_relaxation_of(&c3, &c4));
        assert!(!is_relaxation_of(&c4, &c3));
    }

    #[test]
    fn relaxation_is_reflexive_and_transitive() {
        let c3 = coloring(3, 2);
        let c4 = coloring(4, 2);
        let c5 = coloring(5, 2);
        assert!(is_relaxation_of(&c3, &c3));
        assert!(is_relaxation_of(&c3, &c4) && is_relaxation_of(&c4, &c5));
        assert!(is_relaxation_of(&c3, &c5));
    }

    #[test]
    fn sinkless_coloring_relaxes_to_trivial() {
        let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let trivial = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
        // Map both labels to X: node config {X,X,X} ✓, edges {X,X} ✓.
        assert!(is_relaxation_of(&sc, &trivial));
        assert!(!is_relaxation_of(&trivial, &sc));
    }

    #[test]
    fn delta_mismatch_rejected() {
        let c3a = coloring(3, 2);
        let c3b = coloring(3, 3);
        assert!(relaxation_map(&c3a, &c3b).is_none());
    }
}
