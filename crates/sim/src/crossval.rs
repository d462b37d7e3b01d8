//! Sim-vs-bound cross-validation: the end-to-end differential test of the
//! whole stack.
//!
//! For each [`CrossvalSpec`] in the zoo registry, the harness
//!
//! 1. instantiates the problem and runs the bound engine (`autolb` /
//!    `autoub`, bounded budget — both certificates are replay-verified by
//!    the engine itself),
//! 2. generates a huge Δ-regular instance (seeded, deterministic,
//!    bit-identical for every thread count),
//! 3. executes the matching simulator algorithm and validates its output
//!    with the streaming checker,
//! 4. asserts consistency: outputs are valid, `rounds_used ≥` any
//!    certified PN lower bound, and LB ≤ UB whenever both exist.
//!
//! A PN-model `Unbounded` verdict (e.g. for sinkless orientation) is *not*
//! contradicted by an ID-based simulator finishing in `f(n)` rounds — the
//! certificates bound the deterministic PN/order-invariant regime, while
//! the simulated upper bounds may use unique ids; such cases are recorded
//! with a note instead of failing.
//!
//! The report serializes to a fully deterministic `SIM_crossval.json`
//! (no timings, no machine identifiers), so CI diffs the artifact across
//! thread counts to pin schedule-independence end to end.

use crate::algos;
use crate::checker::{check_stream, CheckOptions, CheckReport};
use crate::generate::{cycle, random_permutation, random_regular_seeded};
use crate::graph::PortGraph;
use crate::runner::{run_core, FlatOutputs, NodeInput};
use roundelim_auto::json::Json;
use roundelim_auto::search::{autolb, autoub, SearchOptions, Verdict};
use roundelim_obs as obs;
use roundelim_problems::registry::{crossval_specs, family, CrossvalSpec};

/// Options for [`run_crossval`].
#[derive(Debug, Clone)]
pub struct CrossvalOptions {
    /// Target node count per case (adjusted up by one for parity when
    /// `n·Δ` is odd).
    pub n: usize,
    /// Master seed; every case derives its own stream from it.
    pub seed: u64,
    /// Worker threads, shared by the generators, the runner, the checker
    /// and the bound search; 0 means all cores.
    pub threads: usize,
    /// Bound-search budget for `autolb` / `autoub`.
    pub search: SearchOptions,
    /// Witness cap for the streaming checker.
    pub max_witnesses: usize,
    /// Restrict the sweep to one family (CLI `--family`).
    pub family_filter: Option<String>,
}

impl Default for CrossvalOptions {
    fn default() -> Self {
        CrossvalOptions {
            n: 1_000_000,
            seed: 1,
            threads: 0,
            search: SearchOptions {
                max_steps: 4,
                beam_width: 6,
                max_labels: 10,
                ..SearchOptions::default()
            },
            max_witnesses: 8,
            family_filter: None,
        }
    }
}

/// A certificate verdict reduced to what the harness compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// A certified finite bound of this many rounds.
    Rounds(usize),
    /// A certified PN-model unbounded lower bound (speedup cycle).
    Unbounded,
    /// The search gave up within budget.
    Inconclusive,
}

impl Bound {
    fn from_verdict(v: &Verdict) -> Bound {
        match v {
            Verdict::LowerBound { rounds } | Verdict::UpperBound { rounds } => {
                Bound::Rounds(*rounds)
            }
            Verdict::Unbounded => Bound::Unbounded,
            Verdict::Inconclusive => Bound::Inconclusive,
        }
    }

    fn json(&self) -> Json {
        match self {
            Bound::Rounds(r) => {
                Json::obj([("kind", Json::Str("rounds".into())), ("rounds", Json::Num(*r as u64))])
            }
            Bound::Unbounded => Json::obj([("kind", Json::Str("unbounded".into()))]),
            Bound::Inconclusive => Json::obj([("kind", Json::Str("inconclusive".into()))]),
        }
    }
}

/// The outcome of one cross-validation case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Zoo spec this case ran.
    pub spec: CrossvalSpec,
    /// Actual node count (after parity adjustment).
    pub n: usize,
    /// Rounds the simulator executed (adaptive algorithms stop early).
    pub rounds_used: usize,
    /// Streaming-checker report for the simulator's output.
    pub report: CheckReport,
    /// `autolb` verdict.
    pub lower: Bound,
    /// `autoub` verdict.
    pub upper: Bound,
    /// Whether this case is consistent (see the module docs).
    pub consistent: bool,
    /// Human-readable findings (deterministic).
    pub notes: Vec<String>,
}

impl CaseResult {
    fn json(&self) -> Json {
        Json::obj([
            ("family", Json::Str(self.spec.family.into())),
            ("k", Json::Num(self.spec.k as u64)),
            ("delta", Json::Num(self.spec.delta as u64)),
            ("algorithm", Json::Str(self.spec.algorithm.into())),
            ("graph", Json::Str(self.spec.graph.into())),
            ("n", Json::Num(self.n as u64)),
            ("rounds_used", Json::Num(self.rounds_used as u64)),
            (
                "checker",
                Json::obj([
                    ("nodes_checked", Json::Num(self.report.nodes_checked)),
                    ("edges_checked", Json::Num(self.report.edges_checked)),
                    ("degree_violations", Json::Num(self.report.degree_violations)),
                    ("node_violations", Json::Num(self.report.node_violations)),
                    ("edge_violations", Json::Num(self.report.edge_violations)),
                    ("valid", Json::Bool(self.report.is_valid())),
                ]),
            ),
            ("lower_bound", self.lower.json()),
            ("upper_bound", self.upper.json()),
            ("consistent", Json::Bool(self.consistent)),
            ("notes", Json::Arr(self.notes.iter().map(|s| Json::Str(s.clone())).collect())),
        ])
    }
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct CrossvalReport {
    /// The target `n` the sweep was asked for.
    pub n: usize,
    /// The master seed.
    pub seed: u64,
    /// Per-case outcomes, in registry order.
    pub cases: Vec<CaseResult>,
}

impl CrossvalReport {
    /// Whether every case checked out.
    pub fn all_consistent(&self) -> bool {
        self.cases.iter().all(|c| c.consistent)
    }

    /// The deterministic `SIM_crossval.json` payload.
    pub fn json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("roundelim-sim-crossval-v1".into())),
            ("n", Json::Num(self.n as u64)),
            ("seed", Json::Num(self.seed)),
            ("consistent", Json::Bool(self.all_consistent())),
            ("cases", Json::Arr(self.cases.iter().map(CaseResult::json).collect())),
        ])
    }
}

/// FNV-1a over a case identity: derives a per-case seed stream from the
/// master seed, independent of registry order.
fn case_seed(master: u64, spec: &CrossvalSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(spec.family.as_bytes());
    eat(spec.algorithm.as_bytes());
    eat(&(spec.k as u64).to_le_bytes());
    eat(&(spec.delta as u64).to_le_bytes());
    h
}

/// Builds the case graph: a ring or a seeded random Δ-regular graph with
/// the node count adjusted up for parity.
fn case_graph(
    spec: &CrossvalSpec,
    n: usize,
    seed: u64,
    threads: usize,
) -> Result<PortGraph, String> {
    match spec.graph {
        "ring" => Ok(cycle(n.max(3))),
        "random-regular" => {
            let mut n = n.max(spec.delta + 1);
            if !(n * spec.delta).is_multiple_of(2) {
                n += 1;
            }
            random_regular_seeded(n, spec.delta, 64, seed, threads)
                .ok_or_else(|| format!("no simple {}-regular graph on {n} nodes found", spec.delta))
        }
        other => Err(format!("unknown graph family `{other}`")),
    }
}

/// Node `v`'s input: its shuffled unique id `ids[v]` plus, for rings, the
/// consistent successor orientation Cole–Vishkin needs. Built on demand in
/// the runner's `init`, so only the `u32` id permutation stays resident.
fn case_input(spec: &CrossvalSpec, ids: &[u32], v: usize) -> NodeInput {
    let oriented_away = if spec.algorithm != "cole-vishkin" {
        Vec::new()
    } else if v == 0 {
        // cycle(n) port convention: node 0 reaches its successor 1
        // through port 0; every other node reaches v + 1 through port 1.
        vec![true, false]
    } else {
        vec![false, true]
    };
    NodeInput { id: Some(u64::from(ids[v])), color: None, oriented_away }
}

/// Runs the case's simulator algorithm on `threads` workers; returns flat
/// outputs and the number of rounds executed.
fn simulate(
    spec: &CrossvalSpec,
    graph: &PortGraph,
    ids: &[u32],
    threads: usize,
) -> Result<(FlatOutputs, usize), String> {
    let n = graph.node_count();
    let input = |v| case_input(spec, ids, v);
    match spec.algorithm {
        "cole-vishkin" => {
            let algo = algos::cole_vishkin::ColeVishkin::for_n(n);
            let rounds = algos::cole_vishkin::total_rounds(n);
            Ok(run_core(graph, input, &algo, rounds, false, threads))
        }
        "weak2" => {
            let algo = algos::weak2::WeakTwoColoring::for_n(n);
            let rounds = algos::weak2::total_rounds(n);
            Ok(run_core(graph, input, &algo, rounds, false, threads))
        }
        "greedy-mis" => {
            let budget = algos::greedy::mis_rounds(n);
            Ok(run_core(graph, input, &algos::greedy::GreedyMis, budget, true, threads))
        }
        "greedy-matching" => {
            let budget = algos::greedy::matching_rounds(n);
            Ok(run_core(graph, input, &algos::greedy::GreedyMatching, budget, true, threads))
        }
        other => Err(format!("unknown algorithm `{other}`")),
    }
}

/// Runs one cross-validation case.
fn run_case(spec: &CrossvalSpec, opts: &CrossvalOptions) -> Result<CaseResult, String> {
    let problem = family(spec.family)
        .and_then(|f| f.instantiate(spec.k, spec.delta))
        .map_err(|e| format!("{}: {e}", spec.family))?;
    let mut search = opts.search.clone();
    search.threads = opts.threads;
    let (lb, ub) = {
        let _span = obs::trace::span("sim.search");
        let lb = autolb(&problem, &search).map_err(|e| format!("autolb {}: {e}", spec.family))?;
        let ub = autoub(&problem, &search).map_err(|e| format!("autoub {}: {e}", spec.family))?;
        (lb, ub)
    };
    let lower = Bound::from_verdict(&lb.verdict);
    let upper = Bound::from_verdict(&ub.verdict);

    let seed = case_seed(opts.seed, spec);
    let graph = {
        let _span = obs::trace::span("sim.generate");
        case_graph(spec, opts.n, seed, opts.threads)?
    };
    let ids = {
        let _span = obs::trace::span("sim.inputs");
        random_permutation(graph.node_count(), seed ^ 0x1d5_0f00d, opts.threads)
    };
    let (outputs, rounds_used) = simulate(spec, &graph, &ids, opts.threads)?;
    drop(ids);
    let report = {
        let _span = obs::trace::span("sim.check");
        check_stream(
            &problem,
            &graph,
            &outputs,
            &CheckOptions { max_witnesses: opts.max_witnesses, threads: opts.threads },
        )
    };

    let mut consistent = true;
    let mut notes = Vec::new();
    if !report.is_valid() {
        consistent = false;
        notes.push(format!(
            "simulator output violates the constraints ({} violations)",
            report.total_violations()
        ));
    }
    match lower {
        Bound::Rounds(r) => {
            if rounds_used < r {
                consistent = false;
                notes.push(format!(
                    "contradiction: simulator used {rounds_used} rounds below the certified \
                     lower bound {r}"
                ));
            }
        }
        Bound::Unbounded => {
            notes.push(
                "PN-model lower bound is unbounded; the ID-based simulator finishing is \
                 consistent (LOCAL uses ids)"
                    .into(),
            );
        }
        Bound::Inconclusive => {}
    }
    if let (Bound::Rounds(l), Bound::Rounds(u)) = (lower, upper) {
        if l > u {
            consistent = false;
            notes.push(format!("contradiction: certified LB {l} exceeds certified UB {u}"));
        }
    }

    Ok(CaseResult {
        spec: *spec,
        n: graph.node_count(),
        rounds_used,
        report,
        lower,
        upper,
        consistent,
        notes,
    })
}

/// Runs the sim-vs-bound sweep over [`crossval_specs`].
///
/// # Errors
///
/// Returns a message when a case cannot be set up (unknown family, graph
/// generation failure, engine error). Constraint violations and bound
/// contradictions are *not* errors — they are recorded in the report with
/// `consistent = false` so the artifact still ships for inspection.
pub fn run_crossval(opts: &CrossvalOptions) -> Result<CrossvalReport, String> {
    let threads = roundelim_core::par::resolve_threads(opts.threads);
    let mut cases = Vec::new();
    for spec in crossval_specs() {
        if let Some(f) = &opts.family_filter {
            if f != spec.family {
                continue;
            }
        }
        let mut opts = opts.clone();
        opts.threads = threads;
        cases.push(run_case(spec, &opts)?);
    }
    if cases.is_empty() {
        return Err(match &opts.family_filter {
            Some(f) => format!("no crossval case matches family `{f}`"),
            None => "empty crossval registry".into(),
        });
    }
    Ok(CrossvalReport { n: opts.n, seed: opts.seed, cases })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> CrossvalOptions {
        CrossvalOptions {
            n: 400,
            seed: 7,
            threads: 1,
            search: SearchOptions {
                max_steps: 2,
                beam_width: 3,
                max_labels: 8,
                threads: 1,
                ..SearchOptions::default()
            },
            ..CrossvalOptions::default()
        }
    }

    #[test]
    fn small_sweep_is_consistent() {
        let report = run_crossval(&small_opts()).expect("sweep runs");
        assert_eq!(report.cases.len(), crossval_specs().len());
        for case in &report.cases {
            assert!(
                case.consistent,
                "{} k={} Δ={}: {:?}",
                case.spec.family, case.spec.k, case.spec.delta, case.notes
            );
            assert!(case.report.is_valid());
            assert!(case.rounds_used > 0);
        }
        assert!(report.all_consistent());
    }

    #[test]
    fn report_is_thread_invariant() {
        let one = run_crossval(&small_opts()).unwrap().json().to_string_pretty();
        let mut opts = small_opts();
        opts.threads = 4;
        opts.search.threads = 4;
        let four = run_crossval(&opts).unwrap().json().to_string_pretty();
        assert_eq!(one, four);
    }

    #[test]
    fn family_filter_selects_cases() {
        let mut opts = small_opts();
        opts.family_filter = Some("mis".into());
        let report = run_crossval(&opts).unwrap();
        assert!(!report.cases.is_empty());
        assert!(report.cases.iter().all(|c| c.spec.family == "mis"));
        opts.family_filter = Some("no-such-family".into());
        assert!(run_crossval(&opts).is_err());
    }
}
