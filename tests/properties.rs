//! Property-based tests (proptest) over the core engine's invariants.
//!
//! Determinism: every property pins its case count via
//! `ProptestConfig::with_cases`, and the vendored proptest harness
//! (`crates/compat/proptest`) seeds its RNG from the test name, so CI runs
//! are reproducible and bounded in time with no machine-to-machine drift.
//! Failures print a `PROPTEST_SEED=<n>` line; export that variable to
//! replay the exact failing run. See `proptest-regressions/README.md` for
//! how regressions are pinned when running against crates-io proptest.

use proptest::prelude::*;
use roundelim::core::config::{all_multisets, Config};
use roundelim::core::constraint::Constraint;
use roundelim::core::label::{Alphabet, Label};
use roundelim::core::labelset::LabelSet;
use roundelim::core::problem::Problem;
use roundelim::core::speedup::universal::{
    dominates, line_good, maximal_good_lines, maximal_good_lines_bruteforce,
    maximal_good_lines_threaded,
};
use roundelim::core::speedup::{full_step, half_step_edge};

/// A random small problem: Δ ∈ {2,3}, 2–4 labels, random constraints.
fn arb_problem() -> impl Strategy<Value = Problem> {
    (2usize..=3, 2usize..=4).prop_flat_map(|(delta, n_labels)| {
        let node_space = all_multisets(n_labels, delta);
        let edge_space = all_multisets(n_labels, 2);
        let node_sel = proptest::collection::vec(any::<bool>(), node_space.len());
        let edge_sel = proptest::collection::vec(any::<bool>(), edge_space.len());
        (Just(delta), Just(n_labels), node_sel, edge_sel).prop_filter_map(
            "nonempty constraints",
            |(delta, n_labels, ns, es)| {
                let node_space = all_multisets(n_labels, delta);
                let edge_space = all_multisets(n_labels, 2);
                let node: Vec<Config> = node_space
                    .into_iter()
                    .zip(&ns)
                    .filter(|(_, &keep)| keep)
                    .map(|(c, _)| c)
                    .collect();
                let edge: Vec<Config> = edge_space
                    .into_iter()
                    .zip(&es)
                    .filter(|(_, &keep)| keep)
                    .map(|(c, _)| c)
                    .collect();
                if node.is_empty() || edge.is_empty() {
                    return None;
                }
                let alphabet = Alphabet::from_names((0..n_labels).map(|i| format!("L{i}"))).ok()?;
                let node = Constraint::from_configs(delta, node).ok()?;
                let edge = Constraint::from_configs(2, edge).ok()?;
                Problem::new("random", alphabet, node, edge).ok()
            },
        )
    })
}

/// A random constraint over up to 6 labels and arity up to 4 (the
/// trie-oracle cross-check domain from the hot-core rebuild).
fn arb_constraint() -> impl Strategy<Value = (usize, Constraint)> {
    (2usize..=6, 2usize..=4).prop_flat_map(|(n_labels, arity)| {
        let space = all_multisets(n_labels, arity);
        let sel = proptest::collection::vec(any::<bool>(), space.len());
        (Just(n_labels), Just(arity), sel).prop_filter_map(
            "nonempty constraint",
            |(n_labels, arity, keep)| {
                let cfgs: Vec<Config> = all_multisets(n_labels, arity)
                    .into_iter()
                    .zip(&keep)
                    .filter(|(_, &k)| k)
                    .map(|(c, _)| c)
                    .collect();
                if cfgs.is_empty() {
                    return None;
                }
                Some((n_labels, Constraint::from_configs(arity, cfgs).ok()?))
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The merge-closure engine agrees with brute force on every random
    /// constraint (the core correctness property of the speedup).
    #[test]
    fn maximal_lines_match_bruteforce(p in arb_problem()) {
        let universe = LabelSet::first_n(p.alphabet().len());
        for c in [p.node(), p.edge()] {
            let fast = maximal_good_lines(c);
            let slow = maximal_good_lines_bruteforce(c, &universe);
            prop_assert_eq!(fast, slow);
        }
    }

    /// The trie-backed membership test agrees with the `BTreeSet` oracle
    /// on every multiset over a slightly larger label space (including
    /// out-of-support labels and wrong arities).
    #[test]
    fn trie_contains_matches_btreeset((n_labels, c) in arb_constraint()) {
        for probe in all_multisets(n_labels + 1, c.arity()) {
            prop_assert_eq!(c.contains_sorted(probe.labels()), c.contains(&probe));
        }
        let wrong_arity = all_multisets(n_labels, c.arity() + 1);
        prop_assert!(!c.contains_sorted(wrong_arity[0].labels()));
    }

    /// The trie-backed `line_good` agrees with the brute-force product
    /// oracle (every choice probed individually against the `BTreeSet`)
    /// on random lines, including lines with out-of-support labels.
    #[test]
    fn trie_line_good_matches_product_oracle(
        (n_labels, c) in arb_constraint(),
        seed in 0u64..1 << 48,
    ) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..8 {
            // Random line over n_labels + 1 labels (one beyond the support).
            let line: Vec<LabelSet> = (0..c.arity())
                .map(|_| {
                    let mut s = LabelSet::empty();
                    for i in 0..=n_labels {
                        if next() % 2 == 0 {
                            s.insert(Label::from_index(i));
                        }
                    }
                    if s.is_empty() {
                        s.insert(Label::from_index(next() % n_labels));
                    }
                    s
                })
                .collect();
            // Oracle: expand the full choice product.
            let mut choices: Vec<Vec<Label>> = vec![Vec::new()];
            for s in &line {
                let mut grown = Vec::new();
                for partial in &choices {
                    for x in s.iter() {
                        let mut p = partial.clone();
                        p.push(x);
                        grown.push(p);
                    }
                }
                choices = grown;
            }
            let oracle = choices.iter().all(|ch| c.contains(&Config::new(ch.clone())));
            prop_assert_eq!(line_good(&line, &c), oracle);
        }
    }

    /// `maximal_good_lines` output is identical — ordering included — for
    /// 1 and N worker threads (the round-parallel closure is deterministic
    /// by construction, not merely up to reordering).
    #[test]
    fn maximal_lines_thread_count_invariant((_n, c) in arb_constraint()) {
        let one = maximal_good_lines_threaded(&c, 1);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(&maximal_good_lines_threaded(&c, threads), &one);
        }
    }

    /// Every maximal line is good, pairwise non-dominating, and made of
    /// nonempty sets.
    #[test]
    fn maximal_lines_are_a_good_antichain(p in arb_problem()) {
        let lines = maximal_good_lines(p.edge());
        for (i, l) in lines.iter().enumerate() {
            prop_assert!(line_good(l, p.edge()));
            prop_assert!(l.iter().all(|s| !s.is_empty()));
            for (j, m) in lines.iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(m, l) || !dominates(l, m));
                    prop_assert!(!(dominates(m, l) && m != l));
                }
            }
        }
    }

    /// The derived problem is structurally well-formed and its labels are
    /// exactly the sets occurring in the universal side.
    #[test]
    fn full_step_well_formed(p in arb_problem()) {
        if let Ok(step) = full_step(&p) {
            let q = step.problem();
            prop_assert_eq!(q.delta(), p.delta());
            prop_assert_eq!(q.edge().arity(), 2);
            // provenance meanings are nonempty sets over the half alphabet
            for l in q.alphabet().labels() {
                let sets = step.meaning_in_base(l);
                prop_assert!(!sets.is_empty());
                for s in sets {
                    prop_assert!(!s.is_empty());
                }
            }
            // text round trip (an unsolvable base problem may compress to
            // an empty derived problem, which the text format cannot
            // express — skip those).
            if !q.node().is_empty() && !q.edge().is_empty() {
                let re = Problem::parse(&q.to_text()).unwrap();
                prop_assert_eq!(&re, q);
            }
        }
    }

    /// Speedup is invariant under label renaming: isomorphic inputs give
    /// isomorphic outputs.
    #[test]
    fn speedup_commutes_with_renaming(p in arb_problem()) {
        // Reverse the label order.
        let n = p.alphabet().len();
        let renamed_alphabet = Alphabet::from_names(
            (0..n).rev().map(|i| format!("L{i}"))
        ).unwrap();
        let remap = |l: Label| Label::from_index(n - 1 - l.index());
        let q = Problem::new(
            "renamed",
            renamed_alphabet,
            p.node().map_labels(remap),
            p.edge().map_labels(remap),
        ).unwrap();
        let sp = full_step(&p);
        let sq = full_step(&q);
        match (sp, sq) {
            (Ok(a), Ok(b)) => {
                prop_assert!(roundelim::core::iso::are_isomorphic(a.problem(), b.problem()));
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "asymmetric outcome: {a:?} vs {b:?}"),
        }
    }

    /// The half-step edge constraint always satisfies: every config's two
    /// meaning-sets are cross-compatible under the base edge constraint.
    #[test]
    fn half_step_edge_sound(p in arb_problem()) {
        if let Ok(hs) = half_step_edge(&p) {
            for cfg in hs.problem.edge().iter() {
                let ls = cfg.labels();
                let a = hs.meanings[ls[0].index()];
                let b = hs.meanings[ls[1].index()];
                for x in a.iter() {
                    for y in b.iter() {
                        prop_assert!(p.edge_ok(x, y));
                    }
                }
            }
        }
    }

    /// Zero-round solvability is preserved under renaming.
    #[test]
    fn zero_round_invariant_under_renaming(p in arb_problem()) {
        use roundelim::core::zero_round::zero_round_pn;
        let n = p.alphabet().len();
        let renamed_alphabet = Alphabet::from_names(
            (0..n).rev().map(|i| format!("L{i}"))
        ).unwrap();
        let remap = |l: Label| Label::from_index(n - 1 - l.index());
        let q = Problem::new(
            "renamed",
            renamed_alphabet,
            p.node().map_labels(remap),
            p.edge().map_labels(remap),
        ).unwrap();
        prop_assert_eq!(zero_round_pn(&p).is_some(), zero_round_pn(&q).is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tower arithmetic: pow2 is strictly monotone and log2 inverts it.
    #[test]
    fn tower_laws(a in 0u128..1u128 << 90, b in 0u128..1u128 << 90) {
        use roundelim::superweak::tower::Tower;
        let ta = Tower::from_u128(a);
        let tb = Tower::from_u128(b);
        prop_assert_eq!(a.cmp(&b), ta.cmp(&tb));
        prop_assert_eq!(ta.pow2().cmp(&tb.pow2()), ta.cmp(&tb));
        prop_assert!(ta.pow2() > ta);
        if a >= 1 {
            prop_assert_eq!(ta.pow2().log2().unwrap(), ta.clone());
            // log* decreases by exactly one under log2 (for a ≥ 2).
            if a >= 2 {
                let ls = ta.log_star();
                prop_assert_eq!(ta.pow2().log_star(), ls + 1);
            }
        }
    }

    /// Trit complement is an involution and complementarity is symmetric.
    #[test]
    fn trit_laws(raw in proptest::collection::vec(0u8..=2, 1..6)) {
        use roundelim::superweak::trit::TritSeq;
        let t = TritSeq::new(raw).unwrap();
        prop_assert_eq!(t.complement().complement(), t.clone());
        prop_assert!(t.complementary(&t.complement()));
        prop_assert_eq!(t.complementary(&t), t == t.complement());
    }
}

// ---------------------------------------------------------------------------
// Simulator invariants: the CSR `PortGraph` against a naive edge-list
// oracle, the streaming checker against the materializing one, and
// thread-count / port-numbering invariance of the million-node paths.
// ---------------------------------------------------------------------------

use roundelim::sim::checker::{check, check_stream, CheckOptions, Violation};
use roundelim::sim::generate::{cycle, random_regular_seeded, regular_tree};
use roundelim::sim::graph::PortGraph;
use roundelim::sim::runner::FlatOutputs;

/// A random simple graph as `(n, deduplicated edge list)`.
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..=24).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))).collect();
        proptest::collection::vec(any::<bool>(), pairs.len()).prop_map(move |keep| {
            let edges: Vec<(usize, usize)> =
                pairs.iter().zip(&keep).filter(|&(_, &k)| k).map(|(&e, _)| e).collect();
            (n, edges)
        })
    })
}

/// The seed-era nested-Vec port assignment: push each endpoint in edge-list
/// order, recording the reciprocal port. `adj[v]` lists `(neighbor, their
/// port)` in port order. This is the semantics the CSR layout must preserve.
fn oracle_ports(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        let (pu, pv) = (adj[u].len(), adj[v].len());
        adj[u].push((v, pv));
        adj[v].push((u, pu));
    }
    adj
}

/// Port-order BFS on the oracle adjacency.
fn oracle_bfs(adj: &[Vec<(usize, usize)>], root: usize) -> Vec<u32> {
    let mut seen = vec![false; adj.len()];
    let mut order = vec![root as u32];
    seen[root] = true;
    let mut head = 0;
    while head < order.len() {
        let v = order[head] as usize;
        head += 1;
        for &(w, _) in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                order.push(w as u32);
            }
        }
    }
    order
}

/// Textbook girth: BFS from every root; a non-tree edge `(u, w)` closes a
/// cycle of length `dist[u] + dist[w] + 1`, and the minimum over all roots
/// is exact on simple graphs.
fn oracle_girth(adj: &[Vec<(usize, usize)>]) -> Option<usize> {
    let n = adj.len();
    let mut best: Option<usize> = None;
    for root in 0..n {
        let mut dist = vec![usize::MAX; n];
        let mut parent = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::from([root]);
        dist[root] = 0;
        while let Some(u) = queue.pop_front() {
            for &(w, _) in &adj[u] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    parent[w] = u;
                    queue.push_back(w);
                } else if w != parent[u] {
                    let cycle = dist[u] + dist[w] + 1;
                    if best.is_none_or(|b| cycle < b) {
                        best = Some(cycle);
                    }
                }
            }
        }
    }
    best
}

/// A deterministic label row per node (derived from an LCG so the strategy
/// space stays small), one label per port.
fn lcg_rows(g: &PortGraph, n_labels: usize, seed: u64) -> Vec<Vec<Label>> {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..g.node_count())
        .map(|v| (0..g.degree(v)).map(|_| Label::from_index(next() % n_labels)).collect())
        .collect()
}

/// A random port permutation per node (new port → old port), derived
/// from an LCG.
fn lcg_perms(g: &PortGraph, seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..g.node_count())
        .map(|v| {
            let mut perm: Vec<usize> = (0..g.degree(v)).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, next() % (i + 1));
            }
            perm
        })
        .collect()
}

/// The mate table pairs every port with the other end of its edge: an
/// involution without fixed points that agrees with the port targets.
fn check_mates(g: &PortGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.mates().len(), g.total_ports());
    for i in 0..g.total_ports() {
        prop_assert_ne!(g.mate(i), i);
        prop_assert_eq!(g.mate(g.mate(i)), i);
    }
    for v in 0..g.node_count() {
        for (p, t) in g.ports(v).iter().enumerate() {
            prop_assert_eq!(g.mate(g.port_offset(v) + p), g.port_offset(t.node_ix()) + t.port_ix());
        }
    }
    Ok(())
}

/// Count `check()` violations by the categories the streaming report keeps.
fn categorize(violations: &[Violation]) -> (u64, u64, u64) {
    let mut counts = (0u64, 0u64, 0u64);
    for v in violations {
        match v {
            Violation::Degree { .. } => counts.0 += 1,
            Violation::Node { .. } => counts.1 += 1,
            Violation::Edge { .. } => counts.2 += 1,
            Violation::OutputArity { .. } => panic!("aligned rows cannot mis-arity"),
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR `PortGraph` reproduces the seed-era nested-Vec edge-list
    /// semantics exactly: degrees, port targets, reciprocal ports, edge
    /// iteration, BFS order, and girth.
    #[test]
    fn csr_matches_edge_list_oracle((n, edges) in arb_edge_list()) {
        let g = PortGraph::from_edges(n, &edges).expect("valid simple graph");
        let adj = oracle_ports(n, &edges);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), edges.len());
        prop_assert_eq!(g.total_ports(), 2 * edges.len());
        for (v, row) in adj.iter().enumerate() {
            prop_assert_eq!(g.degree(v), row.len());
            for (p, &(w, wp)) in row.iter().enumerate() {
                let t = g.neighbor(v, p);
                prop_assert_eq!((t.node_ix(), t.port_ix()), (w, wp));
            }
        }
        let mut listed: Vec<(usize, usize)> = g.edges().map(|(u, _, v, _)| (u, v)).collect();
        listed.sort_unstable();
        let mut expected = edges.clone();
        expected.sort_unstable();
        prop_assert_eq!(listed, expected);
        prop_assert_eq!(g.bfs_order(0), oracle_bfs(&adj, 0));
        prop_assert_eq!(g.girth(), oracle_girth(&adj));
    }

    /// The streaming checker returns the same verdict, the same per-kind
    /// violation counts, and (below one chunk, with an uncapped witness
    /// budget) the same violations in the same order as the materializing
    /// checker — on arbitrary graphs, problems, and outputs.
    #[test]
    fn stream_checker_matches_materializing_checker(
        p in arb_problem(),
        (n, edges) in arb_edge_list(),
        seed in any::<u64>(),
    ) {
        let g = PortGraph::from_edges(n, &edges).expect("valid simple graph");
        let rows = lcg_rows(&g, p.alphabet().len(), seed);
        let flat = FlatOutputs::from_rows(&g, &rows);
        let violations = check(&p, &g, &rows);
        let opts = CheckOptions { max_witnesses: usize::MAX, threads: 1 };
        let report = check_stream(&p, &g, &flat, &opts);
        prop_assert_eq!(report.is_valid(), violations.is_empty());
        prop_assert_eq!(report.nodes_checked, n as u64);
        prop_assert_eq!(
            (report.degree_violations, report.node_violations, report.edge_violations),
            categorize(&violations)
        );
        // n ≤ 24 < STREAM_CHUNK: single chunk, so witnesses are exactly
        // `check`'s violations in `check`'s order.
        prop_assert_eq!(&report.witnesses, &violations);
        // The report is bit-identical for every thread count.
        for threads in [2usize, 4] {
            let again = check_stream(&p, &g, &flat, &CheckOptions { max_witnesses: usize::MAX, threads });
            prop_assert_eq!(&again, &report);
        }
    }

    /// Validity is a property of the labeling, not the port numbering:
    /// renumbering ports (and permuting output rows to match) never changes
    /// the checker's verdict or per-kind counts.
    #[test]
    fn checker_verdict_invariant_under_port_permutation(
        p in arb_problem(),
        (n, edges) in arb_edge_list(),
        seed in any::<u64>(),
    ) {
        let g = PortGraph::from_edges(n, &edges).expect("valid simple graph");
        let rows = lcg_rows(&g, p.alphabet().len(), seed);
        let perms = lcg_perms(&g, seed ^ 0x9E3779B97F4A7C15);
        let g2 = g.with_port_permutations(&perms);
        let rows2: Vec<Vec<Label>> = perms
            .iter()
            .enumerate()
            .map(|(v, perm)| perm.iter().map(|&old| rows[v][old]).collect())
            .collect();
        let base = check_stream(&p, &g, &FlatOutputs::from_rows(&g, &rows),
            &CheckOptions { max_witnesses: 0, threads: 1 });
        let permuted = check_stream(&p, &g2, &FlatOutputs::from_rows(&g2, &rows2),
            &CheckOptions { max_witnesses: 0, threads: 1 });
        prop_assert_eq!(base.is_valid(), permuted.is_valid());
        prop_assert_eq!(
            (base.degree_violations, base.node_violations, base.edge_violations),
            (permuted.degree_violations, permuted.node_violations, permuted.edge_violations)
        );
    }

    /// Every constructor builds a consistent mate table: edge lists,
    /// rings, regular trees, seeded random-regular graphs (the partner
    /// table path for even `n`, the stub path for odd `n`), and their port
    /// permutations.
    #[test]
    fn mate_table_matches_port_targets(
        (n, edges) in arb_edge_list(),
        ring in 3usize..=40,
        (depth, branching) in (0usize..=4, 2usize..=4),
        (half, d, seed) in (4usize..=24, 1usize..=5, any::<u64>()),
    ) {
        let mut graphs = vec![
            PortGraph::from_edges(n, &edges).expect("valid simple graph"),
            cycle(ring),
            regular_tree(depth, branching),
        ];
        // Odd n needs an even degree.
        let sizes = if d % 2 == 0 { vec![2 * half, 2 * half + 1] } else { vec![2 * half] };
        for n in sizes {
            graphs.extend(random_regular_seeded(n, d, 64, seed, 1));
        }
        for g in graphs {
            check_mates(&g)?;
            check_mates(&g.with_port_permutations(&lcg_perms(&g, seed)))?;
        }
    }

    /// Seeded random-regular generation is a pure function of the seed:
    /// bit-identical for every worker thread count.
    #[test]
    fn random_regular_generation_thread_invariant(
        n in 6usize..=48,
        d in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let n = if (n * d) % 2 == 1 { n + 1 } else { n };
        let one = random_regular_seeded(n, d, 64, seed, 1);
        for threads in [2usize, 4] {
            prop_assert_eq!(&random_regular_seeded(n, d, 64, seed, threads), &one);
        }
        if let Some(g) = &one {
            prop_assert!(g.is_regular(d));
        }
    }
}
