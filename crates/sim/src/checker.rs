//! Validates distributed outputs against a [`Problem`] — the executable
//! meaning of "algorithm A solves (Π, G)" from §3.
//!
//! A solution assigns one label to each node–edge pair `(v,e)` (i.e. each
//! port); it is valid iff every node's label multiset is in `h(Δ)` and
//! every edge's label pair is in `g(Δ)`.
//!
//! Two checkers share the same semantics:
//! - [`check`] materializes every violation — the seed-era shape, right
//!   for small tests that want to inspect what went wrong;
//! - [`check_stream`] is the million-node path: it validates fixed-size
//!   node chunks (each chunk owns its nodes plus the edges whose smaller
//!   endpoint lies inside), keeping only counts and the first few witness
//!   violations. Chunks are merged in chunk order, so the report is
//!   **bit-identical for every thread count**, and with a single chunk the
//!   witness order equals [`check`]'s violation order.

use crate::graph::PortGraph;
use crate::par;
use crate::runner::FlatOutputs;
use roundelim_core::label::Label;
use roundelim_core::problem::Problem;
use std::fmt;

/// A constraint violation found by [`check`] or witnessed by
/// [`check_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A node's label multiset is not in `h(Δ)`.
    Node {
        /// The offending node.
        node: usize,
        /// Its per-port labels.
        labels: Vec<Label>,
    },
    /// An edge's label pair is not in `g(Δ)`.
    Edge {
        /// The endpoints.
        nodes: (usize, usize),
        /// The labels at the two endpoints of the edge.
        labels: (Label, Label),
    },
    /// A node's degree differs from the problem's Δ (the checker targets
    /// Δ-regular instances, matching the paper's lower-bound setting).
    Degree {
        /// The offending node.
        node: usize,
        /// Its degree.
        degree: usize,
        /// The problem's Δ.
        delta: usize,
    },
    /// An output vector has the wrong arity for its node.
    OutputArity {
        /// The offending node.
        node: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Node { node, .. } => write!(f, "node {node} violates the node constraint"),
            Violation::Edge { nodes, .. } => {
                write!(f, "edge {{{}, {}}} violates the edge constraint", nodes.0, nodes.1)
            }
            Violation::Degree { node, degree, delta } => {
                write!(f, "node {node} has degree {degree}, problem expects Δ = {delta}")
            }
            Violation::OutputArity { node } => {
                write!(f, "node {node} emitted the wrong number of output labels")
            }
        }
    }
}

/// Checks a full output assignment, returning all violations (empty =
/// valid solution).
pub fn check(problem: &Problem, graph: &PortGraph, outputs: &[Vec<Label>]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let delta = problem.delta();
    assert_eq!(outputs.len(), graph.node_count(), "one output row per node");
    for (v, out) in outputs.iter().enumerate() {
        if graph.degree(v) != delta {
            violations.push(Violation::Degree { node: v, degree: graph.degree(v), delta });
            continue;
        }
        if out.len() != delta {
            violations.push(Violation::OutputArity { node: v });
            continue;
        }
        if !problem.node_ok(out) {
            violations.push(Violation::Node { node: v, labels: out.clone() });
        }
    }
    for (u, pu, v, pv) in graph.edges() {
        let (a, b) = match (outputs[u].get(pu), outputs[v].get(pv)) {
            (Some(&a), Some(&b)) => (a, b),
            _ => continue, // arity violation already recorded
        };
        if !problem.edge_ok(a, b) {
            violations.push(Violation::Edge { nodes: (u, v), labels: (a, b) });
        }
    }
    violations
}

/// Convenience: whether the outputs form a valid solution.
pub fn is_valid(problem: &Problem, graph: &PortGraph, outputs: &[Vec<Label>]) -> bool {
    check(problem, graph, outputs).is_empty()
}

/// Nodes per streaming chunk. Fixed (not derived from the thread count) so
/// chunk boundaries — and therefore witness selection — are identical for
/// every `ROUNDELIM_THREADS`.
pub const STREAM_CHUNK: usize = 1 << 14;

/// Options for [`check_stream`].
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Keep at most this many witness violations (counts are always exact).
    pub max_witnesses: usize,
    /// Worker threads; 0 resolves `ROUNDELIM_THREADS` / all cores.
    pub threads: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { max_witnesses: 8, threads: 0 }
    }
}

/// The result of a streaming check: exact violation counts plus the first
/// few witnesses in deterministic (chunk, node/edge) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Nodes examined.
    pub nodes_checked: u64,
    /// Edges examined.
    pub edges_checked: u64,
    /// Nodes whose degree differs from the problem's Δ.
    pub degree_violations: u64,
    /// Nodes whose label multiset is outside `h(Δ)`.
    pub node_violations: u64,
    /// Edges whose label pair is outside `g(Δ)`.
    pub edge_violations: u64,
    /// The first [`CheckOptions::max_witnesses`] violations.
    pub witnesses: Vec<Violation>,
}

impl CheckReport {
    /// Total violations of all kinds.
    pub fn total_violations(&self) -> u64 {
        self.degree_violations + self.node_violations + self.edge_violations
    }

    /// Whether the outputs form a valid solution.
    pub fn is_valid(&self) -> bool {
        self.total_violations() == 0
    }

    fn absorb(&mut self, other: CheckReport, max_witnesses: usize) {
        self.nodes_checked += other.nodes_checked;
        self.edges_checked += other.edges_checked;
        self.degree_violations += other.degree_violations;
        self.node_violations += other.node_violations;
        self.edge_violations += other.edge_violations;
        for w in other.witnesses {
            if self.witnesses.len() >= max_witnesses {
                break;
            }
            self.witnesses.push(w);
        }
    }
}

/// Streaming validity check over flat per-port outputs: same verdict as
/// [`check`] (property-tested), but O(chunk) transient memory and exact
/// counts instead of a materialized violation list.
///
/// # Panics
///
/// Panics if `outputs` is not aligned with `graph` (one label per port).
pub fn check_stream(
    problem: &Problem,
    graph: &PortGraph,
    outputs: &FlatOutputs,
    opts: &CheckOptions,
) -> CheckReport {
    assert_eq!(outputs.labels.len(), graph.total_ports(), "one output label per port");
    let threads = par::resolve_threads(opts.threads);
    let n = graph.node_count();
    let chunks = n.div_ceil(STREAM_CHUNK);
    let partials = par::map_indexed(chunks, threads, |c| {
        let lo = c * STREAM_CHUNK;
        let hi = (lo + STREAM_CHUNK).min(n);
        check_chunk(problem, graph, outputs, lo, hi, opts.max_witnesses)
    });
    let mut report = CheckReport::default();
    for p in partials {
        report.absorb(p, opts.max_witnesses);
    }
    report
}

/// Checks nodes `lo..hi` and the edges whose smaller endpoint lies in
/// `lo..hi`. Witnesses: nodes first (in node order), then edges — matching
/// [`check`]'s order within the chunk.
fn check_chunk(
    problem: &Problem,
    graph: &PortGraph,
    outputs: &FlatOutputs,
    lo: usize,
    hi: usize,
    max_witnesses: usize,
) -> CheckReport {
    let delta = problem.delta();
    let node_constraint = problem.node();
    let mut report = CheckReport::default();
    let mut scratch: Vec<Label> = Vec::with_capacity(delta);
    for v in lo..hi {
        report.nodes_checked += 1;
        let degree = graph.degree(v);
        if degree != delta {
            report.degree_violations += 1;
            if report.witnesses.len() < max_witnesses {
                report.witnesses.push(Violation::Degree { node: v, degree, delta });
            }
            continue;
        }
        let labels = outputs.node(graph, v);
        scratch.clear();
        scratch.extend_from_slice(labels);
        scratch.sort_unstable();
        if !node_constraint.contains_sorted(&scratch) {
            report.node_violations += 1;
            if report.witnesses.len() < max_witnesses {
                report.witnesses.push(Violation::Node { node: v, labels: labels.to_vec() });
            }
        }
    }
    for v in lo..hi {
        let off = graph.port_offset(v);
        for (p, t) in graph.ports(v).iter().enumerate() {
            if (v as u32) < t.node {
                report.edges_checked += 1;
                let a = outputs.labels[off + p];
                let b = outputs.labels[graph.mate(off + p)];
                if !problem.edge_ok(a, b) {
                    report.edge_violations += 1;
                    if report.witnesses.len() < max_witnesses {
                        report
                            .witnesses
                            .push(Violation::Edge { nodes: (v, t.node_ix()), labels: (a, b) });
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::cycle;
    use roundelim_problems::coloring::coloring;

    #[test]
    fn valid_coloring_accepted() {
        let g = cycle(6);
        let p = coloring(3, 2).unwrap();
        let c = |i: usize| Label::from_index(i);
        // alternate colors 0,1 around an even cycle
        let outputs: Vec<Vec<Label>> = (0..6).map(|v| vec![c(v % 2); 2]).collect();
        assert!(is_valid(&p, &g, &outputs));
        let flat = FlatOutputs::from_rows(&g, &outputs);
        let report = check_stream(&p, &g, &flat, &CheckOptions::default());
        assert!(report.is_valid());
        assert_eq!(report.nodes_checked, 6);
        assert_eq!(report.edges_checked, 6);
        assert!(report.witnesses.is_empty());
    }

    #[test]
    fn monochromatic_edge_reported() {
        let g = cycle(5);
        let p = coloring(3, 2).unwrap();
        let c = |i: usize| Label::from_index(i);
        // 0,1,0,1,0 around an odd cycle: nodes 4 and 0 clash.
        let outputs: Vec<Vec<Label>> = (0..5).map(|v| vec![c(v % 2); 2]).collect();
        let vio = check(&p, &g, &outputs);
        assert_eq!(vio.len(), 1);
        assert!(matches!(vio[0], Violation::Edge { nodes: (0, 4), .. }));
        // The streaming checker agrees, including the witness.
        let flat = FlatOutputs::from_rows(&g, &outputs);
        let report = check_stream(&p, &g, &flat, &CheckOptions::default());
        assert_eq!(report.edge_violations, 1);
        assert_eq!(report.total_violations(), 1);
        assert_eq!(report.witnesses, vio);
    }

    #[test]
    fn node_constraint_enforced() {
        let g = cycle(4);
        let p = coloring(3, 2).unwrap();
        let c = |i: usize| Label::from_index(i);
        // node 0 outputs two different colors: not allowed by h.
        let mut outputs: Vec<Vec<Label>> = (0..4).map(|v| vec![c(v % 2); 2]).collect();
        outputs[0] = vec![c(0), c(1)];
        let vio = check(&p, &g, &outputs);
        assert!(vio.iter().any(|v| matches!(v, Violation::Node { node: 0, .. })));
        let flat = FlatOutputs::from_rows(&g, &outputs);
        let report = check_stream(&p, &g, &flat, &CheckOptions::default());
        assert_eq!(report.node_violations, 1);
        assert_eq!(report.total_violations(), vio.len() as u64);
    }

    #[test]
    fn degree_mismatch_reported() {
        let g = crate::generate::complete(4); // 3-regular
        let p = coloring(3, 2).unwrap(); // Δ = 2
        let outputs: Vec<Vec<Label>> = (0..4).map(|_| vec![Label::from_index(0); 3]).collect();
        let vio = check(&p, &g, &outputs);
        let degree_violations =
            vio.iter().filter(|v| matches!(v, Violation::Degree { .. })).count();
        assert_eq!(degree_violations, 4);
        let flat = FlatOutputs::from_rows(&g, &outputs);
        let report = check_stream(&p, &g, &flat, &CheckOptions::default());
        assert_eq!(report.degree_violations, 4);
    }

    #[test]
    fn witness_cap_keeps_counts_exact() {
        let g = cycle(8);
        let p = coloring(3, 2).unwrap();
        // Everyone outputs color 0: every edge is monochromatic.
        let rows: Vec<Vec<Label>> = (0..8).map(|_| vec![Label::from_index(0); 2]).collect();
        let flat = FlatOutputs::from_rows(&g, &rows);
        let report = check_stream(&p, &g, &flat, &CheckOptions { max_witnesses: 3, threads: 1 });
        assert_eq!(report.edge_violations, 8);
        assert_eq!(report.witnesses.len(), 3);
    }

    #[test]
    fn stream_report_is_thread_invariant() {
        let g = cycle(9);
        let p = coloring(3, 2).unwrap();
        let rows: Vec<Vec<Label>> = (0..9).map(|v| vec![Label::from_index(v % 3); 2]).collect();
        let flat = FlatOutputs::from_rows(&g, &rows);
        let one = check_stream(&p, &g, &flat, &CheckOptions { max_witnesses: 4, threads: 1 });
        for threads in [2, 4, 8] {
            let multi = check_stream(&p, &g, &flat, &CheckOptions { max_witnesses: 4, threads });
            assert_eq!(multi, one);
        }
    }
}
