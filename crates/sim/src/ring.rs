//! **Executable Theorem 1** on rings (Δ = 2).
//!
//! On input-labeled rings, a t-round algorithm is exactly a function from
//! (2t+1)-windows of input symbols to a pair of output labels (left port,
//! right port) — §3's view formulation. That makes the *proof* of
//! Theorem 1 executable:
//!
//! * [`derive_half`] builds A_{1/2} from A (outputs at edge neighborhoods
//!   `N^t(e)`, maximalized per Theorem 2 using the ring direction as the
//!   edge orientation);
//! * [`derive_one`] builds A₁ from A_{1/2} (outputs at node neighborhoods
//!   `N^{t-1}(v)`, maximalized using port order);
//! * [`slowdown`] reconstructs a t-round algorithm for Π from a
//!   (t−1)-round algorithm for Π'₁ (the "(2) implies (1)" direction, with
//!   canonical representative choices);
//! * [`check_node_algorithm`] verifies "A solves (Π, rings)" by exhaustive
//!   window enumeration.
//!
//! The windows are read in a fixed direction around the ring; this
//! consistent orientation is itself the symmetry-breaking input Theorem 2
//! requires. Input validity is a local (memoryless) relation on adjacent
//! symbols, which gives the t-independence hypothesis of Theorem 1.

use roundelim_core::error::{Error, Result};
use roundelim_core::label::Label;
use roundelim_core::labelset::LabelSet;
use roundelim_core::problem::Problem;
use roundelim_core::speedup::{FullStep, HalfStep};
use std::collections::HashMap;

/// A class of input-labeled rings: `c` input symbols and a directed local
/// validity relation (`allowed[a][b]` = symbol `b` may follow `a`).
#[derive(Debug, Clone)]
pub struct RingClass {
    c: usize,
    allowed: Vec<Vec<bool>>,
}

impl RingClass {
    /// Rings carrying a proper `c`-coloring (`c ≥ 2`): adjacent symbols
    /// differ. The §4.5 setting.
    pub fn proper_coloring(c: usize) -> RingClass {
        let allowed = (0..c).map(|a| (0..c).map(|b| a != b).collect()).collect();
        RingClass { c, allowed }
    }

    /// Unconstrained input symbols.
    pub fn free(c: usize) -> RingClass {
        RingClass { c, allowed: vec![vec![true; c]; c] }
    }

    /// Number of input symbols.
    pub fn symbols(&self) -> usize {
        self.c
    }

    /// Whether `b` may follow `a` around the ring.
    pub fn step_ok(&self, a: usize, b: usize) -> bool {
        self.allowed[a][b]
    }

    /// Whether a window is locally valid.
    pub fn valid(&self, w: &[usize]) -> bool {
        w.windows(2).all(|p| self.step_ok(p[0], p[1]))
    }

    /// Enumerates all valid windows of the given length.
    pub fn windows(&self, len: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = Vec::with_capacity(len);
        self.rec(len, &mut cur, &mut out);
        out
    }

    fn rec(&self, len: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == len {
            out.push(cur.clone());
            return;
        }
        for s in 0..self.c {
            if cur.last().is_none_or(|&last| self.step_ok(last, s)) {
                cur.push(s);
                self.rec(len, cur, out);
                cur.pop();
            }
        }
    }

    /// Valid right-extensions of a window.
    pub fn right_extensions(&self, w: &[usize]) -> Vec<usize> {
        let last = *w.last().expect("nonempty window");
        (0..self.c).filter(|&x| self.step_ok(last, x)).collect()
    }

    /// Valid left-extensions of a window.
    pub fn left_extensions(&self, w: &[usize]) -> Vec<usize> {
        let first = w[0];
        (0..self.c).filter(|&x| self.step_ok(x, first)).collect()
    }
}

/// A t-round ring algorithm: windows of length `2t+1` → (left-port label,
/// right-port label).
#[derive(Debug, Clone)]
pub struct WindowAlgorithm {
    /// The round count t.
    pub t: usize,
    /// The window table.
    pub map: HashMap<Vec<usize>, (Label, Label)>,
}

impl WindowAlgorithm {
    /// Builds a t-round algorithm from a function over valid windows.
    pub fn from_fn<F>(t: usize, class: &RingClass, mut f: F) -> WindowAlgorithm
    where
        F: FnMut(&[usize]) -> (Label, Label),
    {
        let map = class.windows(2 * t + 1).into_iter().map(|w| {
            let out = f(&w);
            (w, out)
        });
        WindowAlgorithm { t, map: map.collect() }
    }

    fn get(&self, w: &[usize]) -> Result<(Label, Label)> {
        self.map.get(w).copied().ok_or_else(|| Error::Unsupported {
            reason: format!("algorithm has no entry for window {w:?}"),
        })
    }
}

/// A "half-round" algorithm: edge windows of length `2t` → labels at the
/// two node–edge pairs (left endpoint, right endpoint).
#[derive(Debug, Clone)]
pub struct EdgeAlgorithm {
    /// The round parameter t of the source algorithm.
    pub t: usize,
    /// The window table.
    pub map: HashMap<Vec<usize>, (Label, Label)>,
}

impl EdgeAlgorithm {
    fn get(&self, w: &[usize]) -> Result<(Label, Label)> {
        self.map.get(w).copied().ok_or_else(|| Error::Unsupported {
            reason: format!("edge algorithm has no entry for window {w:?}"),
        })
    }
}

/// Verifies that a window algorithm solves `problem` on the ring class:
/// node constraint on every valid (2t+1)-window, edge constraint on every
/// valid (2t+2)-window.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] naming the first violated window, or an
/// arity error if the problem is not a Δ = 2 problem.
pub fn check_node_algorithm(
    alg: &WindowAlgorithm,
    problem: &Problem,
    class: &RingClass,
) -> Result<()> {
    if problem.delta() != 2 {
        return Err(Error::Unsupported {
            reason: format!("ring machinery needs Δ = 2 problems, got Δ = {}", problem.delta()),
        });
    }
    let t = alg.t;
    for w in class.windows(2 * t + 1) {
        let (l, r) = alg.get(&w)?;
        if !problem.node_ok(&[l, r]) {
            return Err(Error::Unsupported {
                reason: format!("node constraint violated on window {w:?}"),
            });
        }
    }
    for w in class.windows(2 * t + 2) {
        let (_, u_right) = alg.get(&w[..2 * t + 1])?;
        let (v_left, _) = alg.get(&w[1..])?;
        if !problem.edge_ok(u_right, v_left) {
            return Err(Error::Unsupported {
                reason: format!("edge constraint violated on window {w:?}"),
            });
        }
    }
    Ok(())
}

fn label_of_meaning(meanings: &[LabelSet], set: &LabelSet) -> Result<Label> {
    meanings.binary_search(set).map(Label::from_index).map_err(|_| Error::Unsupported {
        reason: format!("derived set {set:?} is not a label of the derived problem"),
    })
}

/// Galois closure: all labels compatible (under the arity-2 universal
/// property of `constraint`) with everything in `against`.
fn closure(
    against: &LabelSet,
    constraint: &roundelim_core::constraint::Constraint,
    alphabet_len: usize,
) -> LabelSet {
    let mut out = LabelSet::empty();
    for a in 0..alphabet_len {
        let la = Label::from_index(a);
        if against.iter().all(|b| constraint.contains(&[la.min(b), la.max(b)])) {
            out.insert(la);
        }
    }
    out
}

/// Builds A_{1/2} from a t-round algorithm A for `base` (the "(1) ⇒ (2)"
/// construction of Theorem 1, maximalized per Theorem 2 with the ring
/// direction as the edge orientation).
///
/// `half` must be `half_step_edge(base)`.
///
/// # Errors
///
/// Fails if a derived set-pair is not a label pair of the derived problem,
/// i.e. if A does not actually solve `base` (Theorem 1 would be violated).
pub fn derive_half(
    a: &WindowAlgorithm,
    base: &Problem,
    half: &HalfStep,
    class: &RingClass,
) -> Result<EdgeAlgorithm> {
    let t = a.t;
    if t == 0 {
        return Err(Error::Unsupported { reason: "cannot speed up a 0-round algorithm".into() });
    }
    let n_labels = base.alphabet().len();
    let mut map = HashMap::new();
    for ew in class.windows(2 * t) {
        // O_u: outputs at (u, e) over left extensions (u = left endpoint).
        let mut o_u = LabelSet::empty();
        for x in class.left_extensions(&ew) {
            let mut w = Vec::with_capacity(2 * t + 1);
            w.push(x);
            w.extend_from_slice(&ew);
            let (_, right) = a.get(&w)?;
            o_u.insert(right);
        }
        // O_v: outputs at (v, e) over right extensions.
        let mut o_v = LabelSet::empty();
        for y in class.right_extensions(&ew) {
            let mut w = ew.clone();
            w.push(y);
            let (left, _) = a.get(&w)?;
            o_v.insert(left);
        }
        // Maximalize (Theorem 2): left endpoint first, then right.
        let o_u_max = closure(&o_v, base.edge(), n_labels);
        if !o_u.is_subset(&o_u_max) {
            return Err(Error::Unsupported {
                reason: format!("algorithm violates the edge constraint around window {ew:?}"),
            });
        }
        let o_v_max = closure(&o_u_max, base.edge(), n_labels);
        debug_assert!(o_v.is_subset(&o_v_max));
        let lu = label_of_meaning(&half.meanings, &o_u_max)?;
        let lv = label_of_meaning(&half.meanings, &o_v_max)?;
        map.insert(ew, (lu, lv));
    }
    Ok(EdgeAlgorithm { t, map })
}

/// Builds A₁ from A_{1/2} (the second half of "(1) ⇒ (2)"), producing a
/// (t−1)-round algorithm for Π'₁.
///
/// `half`/`full` must be the two half-steps of `full_step(base)`.
///
/// # Errors
///
/// Fails if a derived set-pair is not a configuration of Π'₁ — which would
/// contradict Theorem 1 for a correct input algorithm.
pub fn derive_one(
    eh: &EdgeAlgorithm,
    step: &FullStep,
    class: &RingClass,
) -> Result<WindowAlgorithm> {
    let t = eh.t;
    let half_problem = &step.half.problem;
    let n_half = half_problem.alphabet().len();
    let mut map = HashMap::new();
    for nw in class.windows(2 * t - 1) {
        // Right edge: N^t(e) = nw ++ [x]; v is the left endpoint of e.
        let mut s_right = LabelSet::empty();
        for x in class.right_extensions(&nw) {
            let mut w = nw.clone();
            w.push(x);
            let (left_label, _) = eh.get(&w)?;
            s_right.insert(left_label);
        }
        // Left edge: N^t(e') = [y] ++ nw; v is the right endpoint.
        let mut s_left = LabelSet::empty();
        for y in class.left_extensions(&nw) {
            let mut w = Vec::with_capacity(2 * t);
            w.push(y);
            w.extend_from_slice(&nw);
            let (_, right_label) = eh.get(&w)?;
            s_left.insert(right_label);
        }
        // Maximalize against the node constraint (port order: left first).
        let s_left_max = closure(&s_right, half_problem.node(), n_half);
        if !s_left.is_subset(&s_left_max) {
            return Err(Error::Unsupported {
                reason: format!("half algorithm violates the node constraint around window {nw:?}"),
            });
        }
        let s_right_max = closure(&s_left_max, half_problem.node(), n_half);
        debug_assert!(s_right.is_subset(&s_right_max));
        let ll = label_of_meaning(&step.full.meanings, &s_left_max)?;
        let lr = label_of_meaning(&step.full.meanings, &s_right_max)?;
        map.insert(nw, (ll, lr));
    }
    Ok(WindowAlgorithm { t: t - 1, map })
}

/// One full speedup of a ring algorithm: Π in t rounds → Π'₁ in t−1.
///
/// # Errors
///
/// Combines the failure modes of [`derive_half`] and [`derive_one`].
pub fn speedup_algorithm(
    a: &WindowAlgorithm,
    base: &Problem,
    step: &FullStep,
    class: &RingClass,
) -> Result<WindowAlgorithm> {
    let eh = derive_half(a, base, &step.half, class)?;
    derive_one(&eh, step, class)
}

/// The converse direction "(2) ⇒ (1)": reconstructs a t-round algorithm
/// for Π from a (t−1)-round algorithm for Π'₁, by canonical representative
/// choices (the proof's A*₋₁/₂ and A*₋₁).
///
/// # Errors
///
/// Fails if the given algorithm's outputs do not admit the representative
/// choices Π'₁'s constraints promise — i.e. if it does not solve Π'₁.
pub fn slowdown(
    a_star: &WindowAlgorithm,
    base: &Problem,
    step: &FullStep,
    class: &RingClass,
) -> Result<WindowAlgorithm> {
    let t = a_star.t + 1;
    let half_problem = &step.half.problem;

    // Stage 1: A*₋₁/₂ on edge windows of length 2t.
    let mut stage1: HashMap<Vec<usize>, (Label, Label)> = HashMap::new();
    for ew in class.windows(2 * t) {
        let lu = a_star.get(&ew[..2 * t - 1])?.1; // u's right port
        let lv = a_star.get(&ew[1..])?.0; // v's left port
        let w_u = &step.full.meanings[lu.index()];
        let w_v = &step.full.meanings[lv.index()];
        // Pick the canonical g_{1/2}-compatible representative pair.
        let mut found = None;
        'outer: for y in w_u.iter() {
            for z in w_v.iter() {
                if half_problem.edge_ok(y, z) {
                    found = Some((y, z));
                    break 'outer;
                }
            }
        }
        let (y, z) = found.ok_or_else(|| Error::Unsupported {
            reason: format!(
                "no g_1/2-compatible representatives on window {ew:?} — A* does not solve Π'₁"
            ),
        })?;
        stage1.insert(ew, (y, z));
    }

    // Stage 2: A*₋₁ on node windows of length 2t+1.
    let mut map = HashMap::new();
    for nw in class.windows(2 * t + 1) {
        let z_left = stage1
            .get(&nw[..2 * t])
            .copied()
            .ok_or_else(|| Error::Unsupported { reason: "missing stage-1 window".into() })?
            .1;
        let y_right = stage1
            .get(&nw[1..])
            .copied()
            .ok_or_else(|| Error::Unsupported { reason: "missing stage-1 window".into() })?
            .0;
        let y_left_set = &step.half.meanings[z_left.index()];
        let y_right_set = &step.half.meanings[y_right.index()];
        let mut found = None;
        'outer2: for a in y_left_set.iter() {
            for b in y_right_set.iter() {
                if base.node_ok(&[a, b]) {
                    found = Some((a, b));
                    break 'outer2;
                }
            }
        }
        let (a, b) = found.ok_or_else(|| Error::Unsupported {
            reason: format!(
                "no h-compatible representatives on window {nw:?} — A*₋₁/₂ does not solve Π'₁/₂"
            ),
        })?;
        map.insert(nw, (a, b));
    }
    Ok(WindowAlgorithm { t, map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::speedup::{full_step, half_step_edge};
    use roundelim_problems::coloring::coloring;

    /// The 1-round color reduction c → c−1 on rings (recolor the top
    /// color greedily), solving (c−1)-coloring from a proper c-coloring.
    fn reduction_algorithm(c: usize, class: &RingClass) -> WindowAlgorithm {
        WindowAlgorithm::from_fn(1, class, |w| {
            let (x, y, z) = (w[0], w[1], w[2]);
            let color = if y == c - 1 {
                (0..c - 1).find(|&k| k != x && k != z).expect("c ≥ 4 leaves a free color")
            } else {
                y
            };
            (Label::from_index(color), Label::from_index(color))
        })
    }

    #[test]
    fn reduction_solves_coloring() {
        let class = RingClass::proper_coloring(4);
        let a = reduction_algorithm(4, &class);
        let p3 = coloring(3, 2).unwrap();
        check_node_algorithm(&a, &p3, &class).unwrap();
        // And it does NOT solve 2-coloring.
        let p2 = coloring(2, 2).unwrap();
        assert!(check_node_algorithm(&a, &p2, &class).is_err());
    }

    #[test]
    fn theorem1_forward_direction_on_rings() {
        // A solves 3-coloring in 1 round ⇒ A₁ solves Π'₁(3-coloring) in 0.
        let class = RingClass::proper_coloring(4);
        let a = reduction_algorithm(4, &class);
        let p3 = coloring(3, 2).unwrap();
        let step = full_step(&p3, 1).unwrap();
        let a1 = speedup_algorithm(&a, &p3, &step, &class).unwrap();
        assert_eq!(a1.t, 0);
        check_node_algorithm(&a1, step.problem(), &class).unwrap();
    }

    #[test]
    fn theorem1_backward_direction_on_rings() {
        // From the derived 0-round A₁, reconstruct a 1-round algorithm for
        // 3-coloring and verify it.
        let class = RingClass::proper_coloring(4);
        let a = reduction_algorithm(4, &class);
        let p3 = coloring(3, 2).unwrap();
        let step = full_step(&p3, 1).unwrap();
        let a1 = speedup_algorithm(&a, &p3, &step, &class).unwrap();
        let back = slowdown(&a1, &p3, &step, &class).unwrap();
        assert_eq!(back.t, 1);
        check_node_algorithm(&back, &p3, &class).unwrap();
    }

    #[test]
    fn derive_half_is_sinkless_style_edge_algorithm() {
        let class = RingClass::proper_coloring(4);
        let a = reduction_algorithm(4, &class);
        let p3 = coloring(3, 2).unwrap();
        let half = half_step_edge(&p3, 1).unwrap();
        let eh = derive_half(&a, &p3, &half, &class).unwrap();
        // every edge window got an entry
        assert_eq!(eh.map.len(), class.windows(2).len());
    }

    #[test]
    fn zero_round_algorithms_cannot_be_sped_up() {
        let class = RingClass::proper_coloring(3);
        let p3 = coloring(3, 2).unwrap();
        let copy = WindowAlgorithm::from_fn(0, &class, |w| {
            (Label::from_index(w[0]), Label::from_index(w[0]))
        });
        check_node_algorithm(&copy, &p3, &class).unwrap();
        let half = half_step_edge(&p3, 1).unwrap();
        assert!(derive_half(&copy, &p3, &half, &class).is_err());
    }

    #[test]
    fn incorrect_algorithm_detected_during_derivation() {
        // "Output the input color mod 2" does not solve 3-coloring (odd
        // windows clash); derive_half must notice the constraint breach.
        let class = RingClass::proper_coloring(4);
        let bogus = WindowAlgorithm::from_fn(1, &class, |w| {
            (Label::from_index(w[1] % 2), Label::from_index(w[1] % 2))
        });
        let p3 = coloring(3, 2).unwrap();
        assert!(check_node_algorithm(&bogus, &p3, &class).is_err());
        let half = half_step_edge(&p3, 1).unwrap();
        assert!(derive_half(&bogus, &p3, &half, &class).is_err());
    }
}
