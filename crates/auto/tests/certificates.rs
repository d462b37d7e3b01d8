//! Certificate soundness: every certificate the search produces replays
//! green, every corrupted certificate is rejected, and the search outcome
//! is independent of the worker-thread count.

use proptest::prelude::*;
use roundelim_auto::certificate::{CertVerdict, Certificate, Edge};
use roundelim_auto::search::{autolb, autoub, SearchOptions, Verdict};
use roundelim_core::config::{all_multisets, Config};
use roundelim_core::constraint::Constraint;
use roundelim_core::label::{Alphabet, Label};
use roundelim_core::problem::Problem;

/// A random small problem: Δ ∈ {2,3}, 2–4 labels, random constraints
/// (the `tests/properties.rs` generator, scoped to search-sized inputs).
fn arb_problem() -> impl Strategy<Value = Problem> {
    (2usize..=3, 2usize..=4).prop_flat_map(|(delta, n_labels)| {
        let node_space = all_multisets(n_labels, delta);
        let edge_space = all_multisets(n_labels, 2);
        let node_sel = proptest::collection::vec(any::<bool>(), node_space.len());
        let edge_sel = proptest::collection::vec(any::<bool>(), edge_space.len());
        (Just(delta), Just(n_labels), node_sel, edge_sel).prop_filter_map(
            "nonempty constraints",
            |(delta, n_labels, ns, es)| {
                let node: Vec<Config> = all_multisets(n_labels, delta)
                    .into_iter()
                    .zip(&ns)
                    .filter(|(_, &keep)| keep)
                    .map(|(c, _)| c)
                    .collect();
                let edge: Vec<Config> = all_multisets(n_labels, 2)
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

fn small_budget() -> SearchOptions {
    SearchOptions {
        max_steps: 3,
        beam_width: 3,
        max_labels: 6,
        threads: 1,
        ..SearchOptions::default()
    }
}

/// Deterministic corruptions, each of which must be rejected by `verify`.
fn corruptions(cert: &Certificate) -> Vec<(&'static str, Certificate)> {
    let mut out = Vec::new();
    // Over-claim the verdict.
    let mut c = cert.clone();
    match &mut c.verdict {
        CertVerdict::LowerBound { rounds } => {
            *rounds = cert.steps() + 1;
            out.push(("overclaimed lower bound", c));
        }
        CertVerdict::Unbounded { cycle_start, .. } => {
            *cycle_start = cert.edges.len(); // out of range
            out.push(("cycle start out of range", c));
        }
        CertVerdict::UpperBound { rounds } => {
            if *rounds > 0 {
                *rounds -= 1; // under-claim: chain uses more steps than claimed
                out.push(("underclaimed upper bound", c));
            }
        }
    }
    // Break the chain shape.
    if !cert.problems.is_empty() {
        let mut c = cert.clone();
        c.problems.pop();
        out.push(("problem/edge count mismatch", c));
    }
    // Skip a step: splice a duplicate of Π₀ with a claimed step edge onto
    // the front. full_step renames every label (derived problems use
    // ⟨…⟩-names), so the replay comparison cannot accidentally pass.
    if !cert.edges.is_empty() {
        let mut c = cert.clone();
        c.problems.insert(1, c.problems[0].clone());
        c.edges.insert(0, Edge::Step);
        out.push(("skipped step", c));
    }
    // Wreck a witness map.
    if let Some(ix) =
        cert.edges.iter().position(|e| matches!(e, Edge::Relax { .. } | Edge::Harden { .. }))
    {
        let mut c = cert.clone();
        let wrong = vec![Label::from_index(usize::from(u16::MAX)); 1];
        match &mut c.edges[ix] {
            Edge::Relax { map } | Edge::Harden { map } => *map = wrong,
            Edge::Step => unreachable!(),
        }
        out.push(("wrong witness map", c));
    }
    if let CertVerdict::Unbounded { .. } = &cert.verdict {
        let mut c = cert.clone();
        if let CertVerdict::Unbounded { iso_map, .. } = &mut c.verdict {
            for l in iso_map.iter_mut() {
                *l = Label::from_index(0); // not a bijection (alphabets ≥ 2)
            }
        }
        out.push(("degenerate isomorphism witness", c));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every lower-bound search outcome carries a certificate that the
    /// independent verifier replays green — and whose JSON serialization
    /// round-trips losslessly.
    #[test]
    fn autolb_certificates_replay_green(p in arb_problem()) {
        let out = autolb(&p, &small_budget()).unwrap();
        let cert = out.certificate.expect("autolb always certifies something");
        cert.verify().unwrap();
        let back = Certificate::from_json(&cert.to_json()).unwrap();
        prop_assert_eq!(&back, &cert);
        back.verify().unwrap();
    }

    /// Same for the upper-bound direction (when it concludes).
    #[test]
    fn autoub_certificates_replay_green(p in arb_problem()) {
        let out = autoub(&p, &small_budget()).unwrap();
        if let Some(cert) = out.certificate {
            cert.verify().unwrap();
            let back = Certificate::from_json(&cert.to_json()).unwrap();
            prop_assert_eq!(&back, &cert);
        } else {
            prop_assert_eq!(out.verdict, Verdict::Inconclusive);
        }
    }

    /// Every deterministic corruption of a real certificate is rejected.
    #[test]
    fn corrupted_certificates_are_rejected(p in arb_problem()) {
        let out = autolb(&p, &small_budget()).unwrap();
        let cert = out.certificate.expect("autolb always certifies something");
        for (what, bad) in corruptions(&cert) {
            prop_assert!(bad.verify().is_err(), "corruption `{}` was accepted", what);
        }
    }

    /// The search verdict, certificate, and every effort counter are
    /// identical for every worker thread count (the determinism contract
    /// of the executor and the sharded wave interner).
    #[test]
    fn search_is_thread_count_invariant(p in arb_problem()) {
        let base = autolb(&p, &small_budget()).unwrap();
        for threads in [2usize, 4, 7] {
            let opts = SearchOptions { threads, ..small_budget() };
            let out = autolb(&p, &opts).unwrap();
            prop_assert_eq!(&out.verdict, &base.verdict);
            prop_assert_eq!(&out.certificate, &base.certificate);
            prop_assert_eq!(&out.stats, &base.stats);
        }
    }
}

#[test]
fn sinkless_certificate_survives_disk_round_trip() {
    let so = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
    let out = autolb(&so, &SearchOptions::default()).unwrap();
    assert_eq!(out.verdict, Verdict::Unbounded);
    let cert = out.certificate.unwrap();
    let dir = std::env::temp_dir().join("roundelim-auto-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("so3.cert.json");
    std::fs::write(&path, cert.to_json()).unwrap();
    let back = Certificate::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(back, cert);
    back.verify().unwrap();
}
