//! The problem type: a locally checkable problem instantiated at a degree Δ.
//!
//! Following §3 of the paper, a problem Π is a triple of an output alphabet
//! (`f(Δ)`), an *edge constraint* `g(Δ)` of 2-element multisets, and a *node
//! constraint* `h(Δ)` of Δ-element multisets. The engine works with a
//! concrete Δ; problem *families* (functions of Δ) live in
//! `roundelim-problems` as constructors `fn family(delta) -> Problem`.
//!
//! Outputs live on node–edge pairs `(v,e) ∈ B(G)` — one label per port — so
//! both constraints speak about the same labels. This is the paper's
//! edge-checkable normal form, to which every locally checkable problem can
//! be transformed (see §3).

use crate::config::{display_labels, Config};
use crate::constraint::Constraint;
use crate::error::{Error, Result};
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use crate::packed::PackedProblem;
use std::fmt;

/// A locally checkable problem in edge-checkable normal form, at fixed Δ.
///
/// # Example: sinkless orientation (Δ = 3)
///
/// ```
/// use roundelim_core::problem::Problem;
/// // node: at least one outgoing edge (O); edge: endpoints disagree (I vs O)
/// let p = Problem::parse(
///     "name: sinkless-orientation\n\
///      node: O O O | O O I | O I I\n\
///      edge: O I",
/// ).unwrap();
/// assert_eq!(p.delta(), 3);
/// assert_eq!(p.alphabet().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    name: String,
    alphabet: Alphabet,
    /// The constraints and label count: everything but the names.
    packed: PackedProblem,
}

impl Problem {
    /// Assembles a problem from parts, validating consistency.
    ///
    /// # Errors
    ///
    /// * [`Error::Inconsistent`] if a constraint uses labels outside the
    ///   alphabet, or if the edge constraint does not have arity 2.
    pub fn new(
        name: impl Into<String>,
        alphabet: Alphabet,
        node: Constraint,
        edge: Constraint,
    ) -> Result<Problem> {
        node.validate(&alphabet)?;
        edge.validate(&alphabet)?;
        if edge.arity() != 2 {
            return Err(Error::Inconsistent {
                reason: format!("edge constraint must have arity 2, found {}", edge.arity()),
            });
        }
        Ok(Problem::assemble(name.into(), alphabet, node, edge))
    }

    fn assemble(name: String, alphabet: Alphabet, node: Constraint, edge: Constraint) -> Problem {
        let packed = PackedProblem::new(alphabet.len(), node, edge);
        Problem { name, alphabet, packed }
    }

    /// Assembles a problem from parts the caller guarantees consistent
    /// (constraints only use alphabet labels, edge arity 2); validation
    /// runs in debug builds only. For engine-derived problems whose labels
    /// are in-range by construction — e.g. the speedup transform and the
    /// bound search's quotient construction, where per-candidate
    /// validation is measurable.
    pub fn new_unchecked(
        name: String,
        alphabet: Alphabet,
        node: Constraint,
        edge: Constraint,
    ) -> Problem {
        debug_assert!(node.validate(&alphabet).is_ok());
        debug_assert!(edge.validate(&alphabet).is_ok());
        debug_assert_eq!(edge.arity(), 2);
        Problem::assemble(name, alphabet, node, edge)
    }

    /// Names a packed problem: `label_names[i]` names label `i`. With the
    /// names of the problem the rows were taken from, the result equals
    /// that problem.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless there is exactly one distinct name
    /// per label.
    pub fn from_packed<S: Into<String>>(
        name: impl Into<String>,
        label_names: impl IntoIterator<Item = S>,
        packed: PackedProblem,
    ) -> Problem {
        let names: Vec<String> = label_names.into_iter().map(Into::into).collect();
        debug_assert_eq!(names.len(), packed.label_count(), "one name per label");
        let alphabet = Alphabet::from_unique_names_unchecked(names);
        Problem { name: name.into(), alphabet, packed }
    }

    /// Assembles a problem whose edge side has arbitrary arity (hypergraph
    /// generalization used by some tests/oracles). Most callers want
    /// [`Problem::new`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Inconsistent`] on labels outside the alphabet.
    pub fn new_general(
        name: impl Into<String>,
        alphabet: Alphabet,
        node: Constraint,
        edge: Constraint,
    ) -> Result<Problem> {
        node.validate(&alphabet)?;
        edge.validate(&alphabet)?;
        Ok(Problem::assemble(name.into(), alphabet, node, edge))
    }

    /// Parses the compact text format; see [`crate::parser`] for the grammar.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on malformed input.
    pub fn parse(text: &str) -> Result<Problem> {
        crate::parser::parse_problem(text)
    }

    /// A human-readable name (carried through transforms for provenance).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Consumes the problem, returning its name, its label names in index
    /// order, and its packed rows.
    pub fn into_parts(self) -> (String, Vec<String>, PackedProblem) {
        (self.name, self.alphabet.into_names(), self.packed)
    }

    /// The constraints and label count, without names.
    pub fn packed(&self) -> &PackedProblem {
        &self.packed
    }

    /// Replaces the name, returning the problem (builder-style).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Problem {
        self.name = name.into();
        self
    }

    /// The output alphabet `f(Δ)`.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The node constraint `h(Δ)`.
    pub fn node(&self) -> &Constraint {
        self.packed.node()
    }

    /// The edge constraint `g(Δ)`.
    pub fn edge(&self) -> &Constraint {
        self.packed.edge()
    }

    /// The node arity Δ (number of ports of a regular node).
    pub fn delta(&self) -> usize {
        self.packed.delta()
    }

    /// Labels usable in a correct solution: those occurring in at least one
    /// node configuration *and* one edge configuration (the paper's
    /// "compress the problem description" convention, §4.2).
    pub fn usable_labels(&self) -> LabelSet {
        self.node().used_labels().intersection(&self.edge().used_labels())
    }

    /// Whether [`Problem::compress`] would be the identity: every alphabet
    /// label is usable, so there is nothing to drop.
    pub fn is_fully_usable(&self) -> bool {
        self.usable_labels() == LabelSet::first_n(self.alphabet.len())
    }

    /// Removes unusable labels and configurations mentioning them, iterating
    /// to a fixed point; returns the compressed problem and the mapping from
    /// old to new labels (None for dropped ones).
    ///
    /// Compressing never changes solvability: dropped labels cannot occur in
    /// any correct solution.
    pub fn compress(&self) -> (Problem, Vec<Option<Label>>) {
        // Fast path: every alphabet label is usable — nothing to drop, no
        // constraint rebuilds, identity mapping. Fixed-point problems hit
        // this on every speedup step.
        if self.is_fully_usable() {
            let mapping = (0..self.alphabet.len()).map(|i| Some(Label::from_index(i))).collect();
            return (self.clone(), mapping);
        }
        let mut node = self.node().clone();
        let mut edge = self.edge().clone();
        loop {
            let usable = node.used_labels().intersection(&edge.used_labels());
            let n2 = node.restrict(&usable);
            let e2 = edge.restrict(&usable);
            let stable = n2 == node && e2 == edge;
            node = n2;
            edge = e2;
            if stable {
                break;
            }
        }
        let usable = node.used_labels().intersection(&edge.used_labels());
        let mut mapping: Vec<Option<Label>> = vec![None; self.alphabet.len()];
        let mut alphabet = Alphabet::new();
        for l in self.alphabet.labels() {
            if usable.contains(l) {
                let nl = alphabet
                    .intern(self.alphabet.name(l))
                    .expect("compressed alphabet is no larger than the original");
                mapping[l.index()] = Some(nl);
            }
        }
        let remap =
            |l: Label| mapping[l.index()].expect("restricted constraints only use usable labels");
        let node = node.map_labels(remap);
        let edge = edge.map_labels(remap);
        (Problem::assemble(self.name.clone(), alphabet, node, edge), mapping)
    }

    /// Looks up several label names at once (test/construction convenience).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownLabel`] on any unknown name.
    pub fn labels(&self, names: &[&str]) -> Result<Vec<Label>> {
        names.iter().map(|n| self.alphabet.require(n)).collect()
    }

    /// Builds a [`Config`] from label names (test/construction convenience).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownLabel`] on any unknown name.
    pub fn config(&self, names: &[&str]) -> Result<Config> {
        Ok(Config::new(self.labels(names)?))
    }

    /// Whether an assignment of one label per port (in any order)
    /// satisfies the node constraint.
    pub fn node_ok(&self, labels: &[Label]) -> bool {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        self.node().contains(&sorted)
    }

    /// Whether the pair of labels on an edge satisfies the edge constraint.
    ///
    /// Probes the constraint's cached trie index with a stack-sorted pair:
    /// no allocation, which matters to the 0-round deciders and simulators
    /// that call this in tight loops.
    pub fn edge_ok(&self, a: Label, b: Label) -> bool {
        let pair = if a <= b { [a, b] } else { [b, a] };
        self.edge().contains_sorted(&pair)
    }

    /// Renders the problem in the same text format [`Problem::parse`] reads.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("name: {}\n", self.name));
        s.push_str("labels:");
        for n in self.alphabet.names() {
            s.push(' ');
            s.push_str(n);
        }
        s.push('\n');
        for (key, c) in [("node:", self.node()), ("edge:", self.edge())] {
            s.push_str(key);
            for (i, row) in c.iter().enumerate() {
                s.push_str(if i == 0 { " " } else { " | " });
                s.push_str(&display_labels(row, &self.alphabet).to_string());
            }
            s.push('\n');
        }
        s
    }

    /// A compact single-line summary (label/configuration counts).
    pub fn summary(&self) -> String {
        format!(
            "{}: Δ={}, {} labels, |node|={}, |edge|={}",
            self.name,
            self.delta(),
            self.alphabet.len(),
            self.node().len(),
            self.edge().len()
        )
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sinkless_orientation() -> Problem {
        Problem::parse(
            "name: so\n\
             node: O O O | O O I | O I I\n\
             edge: O I",
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let p = sinkless_orientation();
        assert_eq!(p.delta(), 3);
        assert_eq!(p.name(), "so");
        assert_eq!(p.alphabet().len(), 2);
        assert_eq!(p.node().len(), 3);
        assert_eq!(p.edge().len(), 1);
        let o = p.alphabet().require("O").unwrap();
        let i = p.alphabet().require("I").unwrap();
        assert!(p.edge_ok(o, i));
        assert!(!p.edge_ok(o, o));
        assert!(p.node_ok(&[o, o, i]));
        assert!(!p.node_ok(&[i, i, i]));
    }

    #[test]
    fn edge_arity_enforced() {
        let a = Alphabet::from_names(["A"]).unwrap();
        let node =
            Constraint::from_configs(2, [Config::new(vec![Label::from_index(0); 2])]).unwrap();
        let edge =
            Constraint::from_configs(3, [Config::new(vec![Label::from_index(0); 3])]).unwrap();
        assert!(Problem::new("bad", a.clone(), node.clone(), edge.clone()).is_err());
        assert!(Problem::new_general("ok", a, node, edge).is_ok());
    }

    #[test]
    fn out_of_alphabet_rejected() {
        let a = Alphabet::from_names(["A"]).unwrap();
        let node = Constraint::from_configs(1, [Config::new(vec![Label::from_index(7)])]).unwrap();
        let edge = Constraint::new(2).unwrap();
        assert!(matches!(Problem::new("bad", a, node, edge), Err(Error::Inconsistent { .. })));
    }

    #[test]
    fn compress_drops_unusable_labels() {
        // Label C appears only on the node side: unusable.
        let p = Problem::parse(
            "name: t\n\
             node: A A | A C\n\
             edge: A A | A B",
        )
        .unwrap();
        let (q, mapping) = p.compress();
        assert_eq!(q.alphabet().len(), 1); // only A survives (B unusable on node side)
        assert_eq!(q.node().len(), 1);
        assert_eq!(q.edge().len(), 1);
        assert!(mapping[p.alphabet().require("A").unwrap().index()].is_some());
        assert!(mapping[p.alphabet().require("C").unwrap().index()].is_none());
    }

    #[test]
    fn to_text_parse_round_trip() {
        let p = sinkless_orientation();
        let q = Problem::parse(&p.to_text()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn usable_labels_intersection() {
        let p = Problem::parse("name: t\nnode: A B\nedge: A A").unwrap();
        let u = p.usable_labels();
        assert_eq!(u.len(), 1);
        assert!(u.contains(p.alphabet().require("A").unwrap()));
    }
}
