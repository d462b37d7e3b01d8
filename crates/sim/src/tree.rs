//! **Executable Theorem 1 on Δ-regular trees** (t = 1).
//!
//! Complements [`crate::ring`]: on proper-colored Δ-regular trees (girth
//! ∞, t-independent inputs), a 1-round *port-symmetric* algorithm is a
//! function `f(own color, port's neighbor color, multiset of all neighbor
//! colors) → label`. This module derives, per the proof of Theorem 1,
//!
//! * A_{1/2} — outputs on edge neighborhoods `N¹(e)` (just the two
//!   endpoint colors), maximalized per Theorem 2 using the color
//!   comparison as the edge orientation;
//! * A₁ — a **0-round** algorithm for Π'₁ (a node sees only its own
//!   color), maximalized per port order;
//!
//! and verifies each stage against the derived problems' constraints.
//!
//! Port symmetry (equal neighbor colors ⇒ equal port labels) is the
//! natural closure under the model's adversarial port renumbering; the
//! derivations do not otherwise depend on it.

use roundelim_core::error::{Error, Result};
use roundelim_core::label::Label;
use roundelim_core::labelset::LabelSet;
use roundelim_core::problem::Problem;
use roundelim_core::speedup::universal::line_good;
use roundelim_core::speedup::FullStep;
use std::collections::HashMap;

/// The class of Δ-regular trees with a proper `c`-coloring as input.
#[derive(Debug, Clone, Copy)]
pub struct TreeClass {
    /// Number of input colors (≥ 2).
    pub colors: usize,
    /// The regular degree Δ.
    pub delta: usize,
}

impl TreeClass {
    /// Creates the class; needs `colors ≥ 2` and `delta ≥ 2`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] on degenerate parameters.
    pub fn new(colors: usize, delta: usize) -> Result<TreeClass> {
        if colors < 2 || delta < 2 {
            return Err(Error::Unsupported {
                reason: format!("tree class needs c ≥ 2, Δ ≥ 2; got c={colors}, Δ={delta}"),
            });
        }
        Ok(TreeClass { colors, delta })
    }

    /// All valid neighbor-color multisets of size `len` around a node of
    /// color `own` (proper coloring: every neighbor differs from `own`).
    pub fn neighbor_multisets(&self, own: usize, len: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = Vec::with_capacity(len);
        fn rec(
            c: usize,
            own: usize,
            len: usize,
            start: usize,
            cur: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if cur.len() == len {
                out.push(cur.clone());
                return;
            }
            for x in start..c {
                if x != own {
                    cur.push(x);
                    rec(c, own, len, x, cur, out);
                    cur.pop();
                }
            }
        }
        rec(self.colors, own, len, 0, &mut cur, &mut out);
        out
    }
}

/// A 1-round port-symmetric tree algorithm:
/// `(own, sorted neighbor multiset) → (neighbor color → output label)`.
#[derive(Debug, Clone)]
pub struct TreeAlgorithm {
    map: HashMap<(usize, Vec<usize>), HashMap<usize, Label>>,
}

impl TreeAlgorithm {
    /// Builds the algorithm from a per-port rule
    /// `f(own, port_color, neighbors) → label`.
    pub fn from_fn<F>(class: &TreeClass, mut f: F) -> TreeAlgorithm
    where
        F: FnMut(usize, usize, &[usize]) -> Label,
    {
        let mut map = HashMap::new();
        for own in 0..class.colors {
            for nbrs in class.neighbor_multisets(own, class.delta) {
                let mut per_color = HashMap::new();
                for &x in &nbrs {
                    per_color.entry(x).or_insert_with(|| f(own, x, &nbrs));
                }
                map.insert((own, nbrs), per_color);
            }
        }
        TreeAlgorithm { map }
    }

    /// The label this node outputs on a port with neighbor color `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for views the algorithm lacks.
    pub fn output(&self, own: usize, neighbors: &[usize], x: usize) -> Result<Label> {
        let mut key = neighbors.to_vec();
        key.sort_unstable();
        self.map.get(&(own, key)).and_then(|m| m.get(&x)).copied().ok_or_else(|| {
            Error::Unsupported {
                reason: format!(
                    "no output for view (own={own}, neighbors={neighbors:?}, port color {x})"
                ),
            }
        })
    }
}

/// Verifies that the 1-round algorithm solves `problem` on the tree class
/// (node constraint per view; edge constraint across every compatible pair
/// of views).
///
/// # Errors
///
/// Returns [`Error::Unsupported`] naming the first violated view.
pub fn check_tree_algorithm(a: &TreeAlgorithm, problem: &Problem, class: &TreeClass) -> Result<()> {
    if problem.delta() != class.delta {
        return Err(Error::Unsupported {
            reason: format!("problem Δ = {} but class Δ = {}", problem.delta(), class.delta),
        });
    }
    // Node constraint.
    for own in 0..class.colors {
        for nbrs in class.neighbor_multisets(own, class.delta) {
            let outputs: Vec<Label> =
                nbrs.iter().map(|&x| a.output(own, &nbrs, x)).collect::<Result<_>>()?;
            if !problem.node_ok(&outputs) {
                return Err(Error::Unsupported {
                    reason: format!("node constraint violated at (own={own}, neighbors={nbrs:?})"),
                });
            }
        }
    }
    // Edge constraint: u colored `au` with remaining neighbors Mu, v
    // colored `av` with remaining neighbors Mv, au ≠ av.
    for au in 0..class.colors {
        for av in 0..class.colors {
            if au == av {
                continue;
            }
            for mu in class.neighbor_multisets(au, class.delta - 1) {
                let mut nu = mu.clone();
                nu.push(av);
                nu.sort_unstable();
                let lu = a.output(au, &nu, av)?;
                for mv in class.neighbor_multisets(av, class.delta - 1) {
                    let mut nv = mv.clone();
                    nv.push(au);
                    nv.sort_unstable();
                    let lv = a.output(av, &nv, au)?;
                    if !problem.edge_ok(lu, lv) {
                        return Err(Error::Unsupported {
                            reason: format!(
                                "edge constraint violated between (own={au}, nbrs={nu:?}) and (own={av}, nbrs={nv:?})"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// The derived A_{1/2} table: ordered color pair `(a, b)` with `a < b` ↦
/// (Π'_{1/2} label at the `a`-endpoint, label at the `b`-endpoint).
#[derive(Debug, Clone)]
pub struct TreeEdgeAlgorithm {
    map: HashMap<(usize, usize), (Label, Label)>,
}

impl TreeEdgeAlgorithm {
    /// Looks up the pair for endpoint colors `(a, b)` in canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] on missing entries.
    pub fn get(&self, a: usize, b: usize) -> Result<(Label, Label)> {
        debug_assert!(a < b);
        self.map.get(&(a, b)).copied().ok_or_else(|| Error::Unsupported {
            reason: format!("no A_1/2 entry for colors ({a},{b})"),
        })
    }
}

fn galois_closure(
    against: &LabelSet,
    c: &roundelim_core::constraint::Constraint,
    n: usize,
) -> LabelSet {
    let mut out = LabelSet::empty();
    for a in 0..n {
        let la = Label::from_index(a);
        if against.iter().all(|b| c.contains(&[la.min(b), la.max(b)])) {
            out.insert(la);
        }
    }
    out
}

fn label_of(meanings: &[LabelSet], set: &LabelSet) -> Result<Label> {
    meanings.binary_search(set).map(Label::from_index).map_err(|_| Error::Unsupported {
        reason: format!("derived set {set:?} is not a label of the derived problem"),
    })
}

/// Builds A_{1/2} on trees: for an edge with endpoint colors `a < b`,
/// collect the algorithm's possible outputs at each endpoint over all
/// extensions (the unseen Δ−1 remaining neighbors), then maximalize with
/// the color order as the edge orientation (Theorem 2).
///
/// # Errors
///
/// Fails when the algorithm violates the base edge constraint (i.e. does
/// not solve the base problem) or a derived set is not a derived label.
pub fn derive_half_tree(
    a: &TreeAlgorithm,
    base: &Problem,
    step: &FullStep,
    class: &TreeClass,
) -> Result<TreeEdgeAlgorithm> {
    let n = base.alphabet().len();
    let mut map = HashMap::new();
    for ca in 0..class.colors {
        for cb in (ca + 1)..class.colors {
            let collect = |own: usize, other: usize| -> Result<LabelSet> {
                let mut s = LabelSet::empty();
                for m in class.neighbor_multisets(own, class.delta - 1) {
                    let mut nbrs = m.clone();
                    nbrs.push(other);
                    nbrs.sort_unstable();
                    s.insert(a.output(own, &nbrs, other)?);
                }
                Ok(s)
            };
            let o_a = collect(ca, cb)?;
            let o_b = collect(cb, ca)?;
            // Maximalize: the smaller color first (edge orientation).
            let o_a_max = galois_closure(&o_b, base.edge(), n);
            if !o_a.is_subset(&o_a_max) {
                return Err(Error::Unsupported {
                    reason: format!("algorithm violates the edge constraint on colors ({ca},{cb})"),
                });
            }
            let o_b_max = galois_closure(&o_a_max, base.edge(), n);
            let la = label_of(&step.half.meanings, &o_a_max)?;
            let lb = label_of(&step.half.meanings, &o_b_max)?;
            map.insert((ca, cb), (la, lb));
        }
    }
    Ok(TreeEdgeAlgorithm { map })
}

/// A 0-round algorithm for Π'₁ on colored trees: per own color, one Π'₁
/// label per port (a node sees nothing but its own color).
#[derive(Debug, Clone)]
pub struct TreeZeroRound {
    /// `outputs[color]` = the Δ per-port labels.
    pub outputs: Vec<Vec<Label>>,
}

/// Builds A₁ from A_{1/2} (a 0-round algorithm for Π'₁) and **verifies**
/// it: every per-color output must satisfy Π'₁'s node constraint, and all
/// cross pairs between adjacent colors must satisfy its edge constraint.
///
/// # Errors
///
/// Fails if Theorem 1's promise breaks — which for a correct input
/// algorithm never happens (tests rely on this).
pub fn derive_one_tree(
    eh: &TreeEdgeAlgorithm,
    step: &FullStep,
    class: &TreeClass,
) -> Result<TreeZeroRound> {
    let half_problem = &step.half.problem;
    let n_half = half_problem.alphabet().len();
    let p1 = &step.full.problem;
    let mut outputs = Vec::with_capacity(class.colors);
    for own in 0..class.colors {
        // The set of possible A_1/2 labels at (v, e) over the unseen
        // neighbor color — identical for every port.
        let mut s = LabelSet::empty();
        for x in 0..class.colors {
            if x == own {
                continue;
            }
            let l = if own < x { eh.get(own, x)?.0 } else { eh.get(x, own)?.1 };
            s.insert(l);
        }
        // Maximalize the Δ-tuple (S, …, S) per port order: grow each
        // component while the line stays good for h_{1/2}.
        let mut line: Vec<LabelSet> = vec![s; class.delta];
        loop {
            let mut changed = false;
            for i in 0..class.delta {
                for cand in 0..n_half {
                    let l = Label::from_index(cand);
                    if line[i].contains(l) {
                        continue;
                    }
                    let mut trial = line.clone();
                    trial[i].insert(l);
                    if line_good(&trial, half_problem.node()) {
                        line = trial;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if !line_good(&line, half_problem.node()) {
            return Err(Error::Unsupported {
                reason: format!("half algorithm violates h_1/2 at color {own}"),
            });
        }
        let labels: Vec<Label> =
            line.iter().map(|c| label_of(&step.full.meanings, c)).collect::<Result<_>>()?;
        if !p1.node_ok(&labels) {
            return Err(Error::Unsupported {
                reason: format!(
                    "derived 0-round output violates Π'₁'s node constraint at color {own}"
                ),
            });
        }
        outputs.push(labels);
    }
    // Edge verification: adversarial port wiring between any two adjacent
    // colors.
    for a in 0..class.colors {
        for b in (a + 1)..class.colors {
            for &la in &outputs[a] {
                for &lb in &outputs[b] {
                    if !p1.edge_ok(la, lb) {
                        return Err(Error::Unsupported {
                            reason: format!(
                                "derived 0-round outputs violate Π'₁'s edge constraint between colors {a} and {b}"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(TreeZeroRound { outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::speedup::full_step;
    use roundelim_problems::coloring::coloring;

    /// 1-round reduction on Δ=3 trees: proper 5-coloring → 4-coloring
    /// (recolor the top class to a color unused by the 3 neighbors).
    fn reduction(class: &TreeClass) -> TreeAlgorithm {
        TreeAlgorithm::from_fn(class, |own, _port, nbrs| {
            let color = if own == 4 {
                (0..4).find(|c| !nbrs.contains(c)).expect("3 neighbors, 4 colors")
            } else {
                own
            };
            Label::from_index(color)
        })
    }

    #[test]
    fn reduction_solves_4_coloring_on_trees() {
        let class = TreeClass::new(5, 3).unwrap();
        let a = reduction(&class);
        let p4 = coloring(4, 3).unwrap();
        check_tree_algorithm(&a, &p4, &class).unwrap();
        // …but not 3-coloring.
        let p3 = coloring(3, 3).unwrap();
        assert!(check_tree_algorithm(&a, &p3, &class).is_err());
    }

    #[test]
    fn theorem1_forward_direction_on_trees() {
        // A (1 round) solves 4-coloring ⇒ derived A₁ (0 rounds) solves
        // Π'₁(4-coloring) — node and edge constraints verified inside
        // derive_one_tree.
        let class = TreeClass::new(5, 3).unwrap();
        let a = reduction(&class);
        let p4 = coloring(4, 3).unwrap();
        let step = full_step(&p4, 1).unwrap();
        let eh = derive_half_tree(&a, &p4, &step, &class).unwrap();
        let a1 = derive_one_tree(&eh, &step, &class).unwrap();
        assert_eq!(a1.outputs.len(), 5);
        for out in &a1.outputs {
            assert_eq!(out.len(), 3);
        }
    }

    #[test]
    fn incorrect_tree_algorithm_rejected() {
        // Identity (keeps 5 colors) does not solve 4-coloring; the checker
        // and the derivation both reject it.
        let class = TreeClass::new(5, 3).unwrap();
        let id = TreeAlgorithm::from_fn(&class, |own, _p, _n| Label::from_index(own));
        let p4 = coloring(4, 3).unwrap();
        assert!(check_tree_algorithm(&id, &p4, &class).is_err());
        // The constant algorithm breaks the edge constraint mid-derivation.
        let constant = TreeAlgorithm::from_fn(&class, |_own, _p, _n| Label::from_index(0));
        let step = full_step(&p4, 1).unwrap();
        assert!(derive_half_tree(&constant, &p4, &step, &class).is_err());
    }

    #[test]
    fn neighbor_multisets_counts() {
        let class = TreeClass::new(4, 3).unwrap();
        // multisets of size 3 over 3 allowed colors: C(5,3) = 10.
        assert_eq!(class.neighbor_multisets(0, 3).len(), 10);
        assert_eq!(class.neighbor_multisets(0, 1).len(), 3);
        assert!(TreeClass::new(1, 3).is_err());
    }

    #[test]
    fn tree_outputs_are_config_compatible() {
        // The per-view output multiset really is a Config the problem
        // accepts (smoke test of the plumbing).
        let class = TreeClass::new(5, 3).unwrap();
        let a = reduction(&class);
        let p4 = coloring(4, 3).unwrap();
        let nbrs = vec![0usize, 1, 2];
        let outs: Vec<Label> = nbrs.iter().map(|&x| a.output(4, &nbrs, x).unwrap()).collect();
        assert!(p4.node_ok(&outs));
    }
}
