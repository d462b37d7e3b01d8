//! Replayable bound certificates.
//!
//! A [`Certificate`] records a concrete derivation chain Π₀, Π₁, …, Π_m —
//! the problems themselves plus one edge per consecutive pair — and a
//! claimed verdict. [`Certificate::verify`] replays the chain using *only*
//! `roundelim-core` primitives ([`full_step`], witness checking via
//! [`check_relaxation`]/[`check_isomorphism`], and the 0-round deciders),
//! so a bug in the search cannot produce a wrong bound: whatever the search
//! emits either replays green or is rejected.
//!
//! ## Soundness (what a green replay means)
//!
//! Let `s` be the number of [`Edge::Step`] edges in the chain. On
//! t-independent graph classes of sufficient girth (the paper's Theorem 1/2
//! regime):
//!
//! * **Lower bounds.** A step edge drops the complexity by exactly one; a
//!   relax edge cannot increase it. With every non-final chain problem
//!   verified non-0-round-solvable, `complexity(Π₀) ≥ s` — and if the chain
//!   *ends* in a problem isomorphic to an earlier one with at least one
//!   step edge in between (all cycle problems non-0-round), no iteration
//!   count ever reaches a 0-round problem: the complexity exceeds every `t`
//!   admitting a suitable class ([`CertVerdict::Unbounded`], the §4.4
//!   fixed-point argument).
//! * **Upper bounds.** Read backwards: the final problem is 0-round
//!   solvable, a step edge costs one round to undo (Theorem 2's converse
//!   direction on the same regime), and a harden edge is free — so
//!   `complexity(Π₀) ≤ s` ([`CertVerdict::UpperBound`], the §4.5
//!   derivation shape).
//!
//! Over-claims are rejected: a lower-bound verdict may not claim more than
//! the replayed chain certifies, an upper-bound verdict may not claim less.

use crate::json::Json;
use roundelim_core::error::{Error, Result};
use roundelim_core::iso::check_isomorphism;
use roundelim_core::label::Label;
use roundelim_core::problem::Problem;
use roundelim_core::relax::check_relaxation;
use roundelim_core::sequence::ZeroRoundModel;
use roundelim_core::speedup::full_step;
use roundelim_core::zero_round::{zero_round_oriented, zero_round_pn};

/// Which kind of bound a certificate derives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Lower bound (speedup + relaxations, §2.1 / §4.4 / §4.6).
    Lower,
    /// Upper bound (speedup + hardenings, §4.5).
    Upper,
}

/// One edge of a derivation chain, connecting `problems[i]` to
/// `problems[i+1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edge {
    /// `problems[i+1]` is exactly `full_step(problems[i])` (one round of
    /// speedup; name metadata is ignored in the comparison).
    Step,
    /// `problems[i+1]` is a relaxation of `problems[i]`, witnessed by
    /// `map` (one `problems[i+1]`-label per `problems[i]`-label).
    Relax {
        /// The relaxation witness.
        map: Vec<Label>,
    },
    /// `problems[i+1]` is a hardening of `problems[i]`: `problems[i]` is a
    /// relaxation of `problems[i+1]`, witnessed by `map` (one
    /// `problems[i]`-label per `problems[i+1]`-label).
    Harden {
        /// The hardening witness.
        map: Vec<Label>,
    },
}

/// The claimed verdict of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertVerdict {
    /// The final problem is isomorphic to `problems[cycle_start]` (witness
    /// `iso_map`, final-problem label → earlier-problem label), and the
    /// cycle contains at least one step edge: the speedup iteration never
    /// reaches a 0-round problem.
    Unbounded {
        /// Index of the revisited problem.
        cycle_start: usize,
        /// Isomorphism witness from the final problem onto
        /// `problems[cycle_start]`.
        iso_map: Vec<Label>,
    },
    /// Complexity of `problems[0]` is at least `rounds` (and exactly
    /// `rounds` on the Theorem-1/2 regime when the chain ends 0-round).
    LowerBound {
        /// The claimed bound.
        rounds: usize,
    },
    /// Complexity of `problems[0]` is at most `rounds` on the regime.
    UpperBound {
        /// The claimed bound.
        rounds: usize,
    },
}

/// A replayable derivation chain with a claimed verdict. See module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Lower- or upper-bound derivation.
    pub direction: Direction,
    /// The 0-round model all solvability checks use.
    pub model: ZeroRoundModel,
    /// The derivation chain, starting with the input problem.
    pub problems: Vec<Problem>,
    /// `edges[i]` connects `problems[i]` to `problems[i+1]`.
    pub edges: Vec<Edge>,
    /// Whether the producing search stopped early (time/expansion budget,
    /// interruption, or depth exhaustion) before settling the problem. The
    /// verdict is still fully verified — an incomplete lower bound is a
    /// true bound that might improve with a larger budget. Only meaningful
    /// on [`CertVerdict::LowerBound`]: unbounded and upper-bound verdicts
    /// are conclusive by construction, so the marker is rejected there.
    pub incomplete: bool,
    /// The claimed verdict.
    pub verdict: CertVerdict,
}

/// Why a certificate failed to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertError {
    /// Human-readable description of the first failed check.
    pub reason: String,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certificate rejected: {}", self.reason)
    }
}

impl std::error::Error for CertError {}

fn fail<T>(reason: impl Into<String>) -> std::result::Result<T, CertError> {
    Err(CertError { reason: reason.into() })
}

/// Structural equality modulo the provenance name.
fn same_problem(a: &Problem, b: &Problem) -> bool {
    a.alphabet() == b.alphabet() && a.node() == b.node() && a.edge() == b.edge()
}

impl Certificate {
    /// Number of speedup steps in the chain.
    pub fn steps(&self) -> usize {
        self.edges.iter().filter(|e| matches!(e, Edge::Step)).count()
    }

    /// Independently replays the chain and checks the verdict; see the
    /// module docs for exactly what a green replay certifies.
    ///
    /// # Errors
    ///
    /// Returns the first failed check. Engine errors during replay (e.g.
    /// alphabet overflow re-running a step) also reject the certificate.
    /// The replay steps on the caller's thread: a certificate's chain is
    /// short, and its steps are ones the search already finished.
    pub fn verify(&self) -> std::result::Result<(), CertError> {
        self.verify_impl(false)
    }

    /// Like [`Certificate::verify`] but skips the per-edge [`full_step`]
    /// replay, the dominant cost on long chains. Still checked: chain
    /// shape, every relax/harden/isomorphism witness, 0-round solvability
    /// of every chain problem, and the verdict arithmetic. A `--fast` green
    /// light therefore trusts the recorded step results but nothing else;
    /// use the full [`Certificate::verify`] for an end-to-end replay.
    ///
    /// # Errors
    ///
    /// Returns the first failed check, as in [`Certificate::verify`].
    pub fn verify_fast(&self) -> std::result::Result<(), CertError> {
        self.verify_impl(true)
    }

    fn verify_impl(&self, fast: bool) -> std::result::Result<(), CertError> {
        if self.problems.len() != self.edges.len() + 1 {
            return fail(format!(
                "chain shape: {} problems need {} edges, found {}",
                self.problems.len(),
                self.problems.len().saturating_sub(1),
                self.edges.len()
            ));
        }
        let m = self.edges.len();
        if self.incomplete && !matches!(self.verdict, CertVerdict::LowerBound { .. }) {
            return fail("incomplete marker on a conclusive (unbounded/upper-bound) verdict");
        }
        // 1. Replay every edge.
        for (i, edge) in self.edges.iter().enumerate() {
            let (cur, next) = (&self.problems[i], &self.problems[i + 1]);
            match edge {
                Edge::Step => {
                    if fast {
                        continue;
                    }
                    let derived = match full_step(cur, 1) {
                        Ok(s) => s.problem().clone(),
                        Err(e) => return fail(format!("edge {i}: step replay failed: {e}")),
                    };
                    if !same_problem(&derived, next) {
                        return fail(format!(
                            "edge {i}: step result does not match recorded problem"
                        ));
                    }
                }
                Edge::Relax { map } => {
                    if self.direction != Direction::Lower {
                        return fail(format!("edge {i}: relax edge in an upper-bound chain"));
                    }
                    if !check_relaxation(cur, next, map) {
                        return fail(format!("edge {i}: relaxation witness check failed"));
                    }
                }
                Edge::Harden { map } => {
                    if self.direction != Direction::Upper {
                        return fail(format!("edge {i}: harden edge in a lower-bound chain"));
                    }
                    if !check_relaxation(next, cur, map) {
                        return fail(format!("edge {i}: hardening witness check failed"));
                    }
                }
            }
        }
        // 2. Recompute 0-round solvability along the chain.
        let zr: Vec<bool> = self
            .problems
            .iter()
            .map(|p| match self.model {
                ZeroRoundModel::PlainPn => zero_round_pn(p.packed()).is_some(),
                ZeroRoundModel::Oriented => zero_round_oriented(p.packed()).is_some(),
            })
            .collect();
        let steps = self.steps();
        // 3. Check the verdict against the replayed chain.
        match &self.verdict {
            CertVerdict::LowerBound { rounds } => {
                if self.direction != Direction::Lower {
                    return fail("lower-bound verdict on an upper-bound chain");
                }
                if let Some(i) = zr[..m].iter().position(|&z| z) {
                    return fail(format!(
                        "problem {i} is 0-round solvable but the chain continues past it"
                    ));
                }
                if *rounds > steps {
                    return fail(format!(
                        "claimed lower bound {rounds} exceeds the {steps} certified steps"
                    ));
                }
            }
            CertVerdict::Unbounded { cycle_start, iso_map } => {
                if self.direction != Direction::Lower {
                    return fail("unbounded verdict on an upper-bound chain");
                }
                if *cycle_start >= m {
                    return fail(format!("cycle start {cycle_start} is not before the chain end"));
                }
                if let Some(i) = zr.iter().position(|&z| z) {
                    return fail(format!(
                        "problem {i} is 0-round solvable; a cycle through it proves nothing"
                    ));
                }
                if !check_isomorphism(&self.problems[m], &self.problems[*cycle_start], iso_map) {
                    return fail("cycle isomorphism witness check failed");
                }
                let cycle_steps =
                    self.edges[*cycle_start..].iter().filter(|e| matches!(e, Edge::Step)).count();
                if cycle_steps == 0 {
                    return fail("cycle contains no step edge; relax-only cycles prove nothing");
                }
            }
            CertVerdict::UpperBound { rounds } => {
                if self.direction != Direction::Upper {
                    return fail("upper-bound verdict on a lower-bound chain");
                }
                if !zr[m] {
                    return fail("final problem is not 0-round solvable");
                }
                if *rounds < steps {
                    return fail(format!(
                        "claimed upper bound {rounds} is below the {steps} steps the chain uses"
                    ));
                }
            }
        }
        Ok(())
    }

    /// A one-line human summary of the verdict.
    pub fn summary(&self) -> String {
        let chain = format!("{} problems, {} steps", self.problems.len(), self.steps());
        let partial = if self.incomplete { "; search incomplete" } else { "" };
        match &self.verdict {
            CertVerdict::Unbounded { cycle_start, .. } => format!(
                "unbounded lower bound: Π_{} ≅ Π_{cycle_start} (fixed point; {chain})",
                self.edges.len()
            ),
            CertVerdict::LowerBound { rounds } => {
                format!("lower bound {rounds} rounds ({chain}{partial})")
            }
            CertVerdict::UpperBound { rounds } => format!("upper bound {rounds} rounds ({chain})"),
        }
    }

    /// Serializes the certificate as pretty-printed JSON
    /// (`roundelim-cert-v1` schema; problems in the core text format).
    pub fn to_json(&self) -> String {
        self.json_value().to_string_pretty()
    }

    /// The certificate as a [`Json`] value (for embedding in larger
    /// documents, e.g. the CLI's `--json` reports).
    pub fn json_value(&self) -> Json {
        let edges = self.edges.iter().map(edge_to_json).collect();
        let verdict = match &self.verdict {
            CertVerdict::Unbounded { cycle_start, iso_map } => Json::obj([
                ("kind", Json::Str("unbounded".into())),
                ("cycle_start", Json::Num(*cycle_start as u64)),
                ("iso_map", label_map_to_json(iso_map)),
            ]),
            CertVerdict::LowerBound { rounds } => Json::obj([
                ("kind", Json::Str("lower-bound".into())),
                ("rounds", Json::Num(*rounds as u64)),
            ]),
            CertVerdict::UpperBound { rounds } => Json::obj([
                ("kind", Json::Str("upper-bound".into())),
                ("rounds", Json::Num(*rounds as u64)),
            ]),
        };
        Json::obj([
            ("schema", Json::Str("roundelim-cert-v1".into())),
            (
                "direction",
                Json::Str(
                    match self.direction {
                        Direction::Lower => "lower-bound",
                        Direction::Upper => "upper-bound",
                    }
                    .into(),
                ),
            ),
            (
                "model",
                Json::Str(
                    match self.model {
                        ZeroRoundModel::PlainPn => "plain-pn",
                        ZeroRoundModel::Oriented => "oriented",
                    }
                    .into(),
                ),
            ),
            ("problems", Json::Arr(self.problems.iter().map(|p| Json::Str(p.to_text())).collect())),
            ("edges", Json::Arr(edges)),
            ("incomplete", Json::Bool(self.incomplete)),
            ("verdict", verdict),
        ])
    }

    /// Parses a certificate from its JSON serialization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on malformed JSON or schema violations, and
    /// problem-parsing errors for malformed embedded problems. Successful
    /// parsing does **not** imply validity — run [`Certificate::verify`].
    pub fn from_json(text: &str) -> Result<Certificate> {
        let bad = |reason: &str| Error::Parse { line: 0, reason: reason.to_owned() };
        let v = Json::parse(text).map_err(|e| Error::Parse { line: 0, reason: e })?;
        if v.get("schema").and_then(Json::as_str) != Some("roundelim-cert-v1") {
            return Err(bad("missing or unknown `schema` (want roundelim-cert-v1)"));
        }
        let direction = match v.get("direction").and_then(Json::as_str) {
            Some("lower-bound") => Direction::Lower,
            Some("upper-bound") => Direction::Upper,
            _ => return Err(bad("missing or unknown `direction`")),
        };
        let model = match v.get("model").and_then(Json::as_str) {
            Some("plain-pn") => ZeroRoundModel::PlainPn,
            Some("oriented") => ZeroRoundModel::Oriented,
            _ => return Err(bad("missing or unknown `model`")),
        };
        let problems = v
            .get("problems")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `problems` array"))?
            .iter()
            .map(|p| Problem::parse(p.as_str().ok_or_else(|| bad("problem must be a string"))?))
            .collect::<Result<Vec<_>>>()?;
        let edges = v
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `edges` array"))?
            .iter()
            .map(edge_from_json)
            .collect::<Result<Vec<_>>>()?;
        let incomplete = match v.get("incomplete") {
            None => false,
            Some(j) => j.as_bool().ok_or_else(|| bad("`incomplete` must be a boolean"))?,
        };
        let vd = v.get("verdict").ok_or_else(|| bad("missing `verdict`"))?;
        let num = |key: &str| -> Result<usize> {
            vd.get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| bad(&format!("verdict needs numeric `{key}`")))
        };
        let verdict = match vd.get("kind").and_then(Json::as_str) {
            Some("unbounded") => CertVerdict::Unbounded {
                cycle_start: num("cycle_start")?,
                iso_map: label_map_from_json(
                    vd.get("iso_map").ok_or_else(|| bad("missing `iso_map`"))?,
                )?,
            },
            Some("lower-bound") => CertVerdict::LowerBound { rounds: num("rounds")? },
            Some("upper-bound") => CertVerdict::UpperBound { rounds: num("rounds")? },
            _ => return Err(bad("verdict with missing or unknown `kind`")),
        };
        Ok(Certificate { direction, model, problems, edges, incomplete, verdict })
    }
}

/// A label-map witness as a JSON array of label indices.
pub(crate) fn label_map_to_json(map: &[Label]) -> Json {
    Json::Arr(map.iter().map(|l| Json::Num(l.index() as u64)).collect())
}

/// Parses a label-map witness, guarding the label type's index range: a
/// cast that wrapped would alias an out-of-range witness index onto a valid
/// label and could let a corrupt file verify.
pub(crate) fn label_map_from_json(j: &Json) -> Result<Vec<Label>> {
    let bad = |reason: &str| Error::Parse { line: 0, reason: reason.to_owned() };
    j.as_arr()
        .ok_or_else(|| bad("`map` must be an array"))?
        .iter()
        .map(|n| {
            n.as_u64().filter(|&x| x <= u64::from(u16::MAX)).map(|x| Label::from_index(x as usize))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("`map` entries must be label indices"))
}

/// A chain edge as a JSON object.
fn edge_to_json(e: &Edge) -> Json {
    match e {
        Edge::Step => Json::obj([("kind", Json::Str("step".into()))]),
        Edge::Relax { map } => {
            Json::obj([("kind", Json::Str("relax".into())), ("map", label_map_to_json(map))])
        }
        Edge::Harden { map } => {
            Json::obj([("kind", Json::Str("harden".into())), ("map", label_map_to_json(map))])
        }
    }
}

/// Parses a chain edge (inverse of [`edge_to_json`]).
fn edge_from_json(e: &Json) -> Result<Edge> {
    let bad = |reason: &str| Error::Parse { line: 0, reason: reason.to_owned() };
    match e.get("kind").and_then(Json::as_str) {
        Some("step") => Ok(Edge::Step),
        Some("relax") => Ok(Edge::Relax {
            map: label_map_from_json(e.get("map").ok_or_else(|| bad("relax edge needs `map`"))?)?,
        }),
        Some("harden") => Ok(Edge::Harden {
            map: label_map_from_json(e.get("map").ok_or_else(|| bad("harden edge needs `map`"))?)?,
        }),
        _ => Err(bad("edge with missing or unknown `kind`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Problem {
        Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap()
    }

    /// A hand-built §4.4-style certificate: sc steps to itself (up to iso)
    /// after some number of steps; build the concrete 2-chain by stepping.
    fn fixed_point_cert() -> Certificate {
        let p0 = sc();
        let mut problems = vec![p0.clone()];
        let mut edges = Vec::new();
        loop {
            let next = full_step(problems.last().unwrap(), 1).unwrap().problem().clone();
            edges.push(Edge::Step);
            if let Some(map) = roundelim_core::iso::isomorphism(next.packed(), problems[0].packed())
            {
                problems.push(next);
                return Certificate {
                    direction: Direction::Lower,
                    model: ZeroRoundModel::Oriented,
                    problems,
                    edges,
                    incomplete: false,
                    verdict: CertVerdict::Unbounded { cycle_start: 0, iso_map: map },
                };
            }
            problems.push(next);
            assert!(problems.len() < 6, "sc must cycle quickly");
        }
    }

    #[test]
    fn fixed_point_certificate_verifies() {
        fixed_point_cert().verify().unwrap();
    }

    #[test]
    fn fast_verify_accepts_what_full_verify_accepts() {
        let cert = fixed_point_cert();
        cert.verify().unwrap();
        cert.verify_fast().unwrap();
    }

    #[test]
    fn fast_verify_still_checks_witnesses_and_arithmetic() {
        // Corrupt iso witness: both modes reject.
        let mut cert = fixed_point_cert();
        if let CertVerdict::Unbounded { iso_map, .. } = &mut cert.verdict {
            for l in iso_map.iter_mut() {
                *l = Label::from_index(0);
            }
        }
        assert!(cert.verify_fast().is_err());
        // Over-claimed bound: both modes reject.
        let p = sc();
        let next = full_step(&p, 1).unwrap().problem().clone();
        let over = Certificate {
            direction: Direction::Lower,
            model: ZeroRoundModel::Oriented,
            problems: vec![p, next],
            edges: vec![Edge::Step],
            incomplete: false,
            verdict: CertVerdict::LowerBound { rounds: 5 },
        };
        assert!(over.verify_fast().is_err());
    }

    #[test]
    fn fast_verify_trusts_recorded_step_results() {
        // Replace a mid-chain problem with a copy of its predecessor: the
        // full replay notices the step result no longer matches; the fast
        // path — which skips exactly that replay — does not. This pins the
        // documented trust boundary of `--fast`.
        let mut cert = fixed_point_cert();
        cert.verdict = CertVerdict::LowerBound { rounds: 1 };
        assert!(cert.problems.len() >= 2);
        cert.problems[1] = cert.problems[0].clone();
        assert!(cert.verify().is_err(), "full verify must catch the forged step");
        cert.verify_fast().unwrap_or_else(|e| {
            panic!("fast verify checks witnesses only, so this must pass: {e}")
        });
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let cert = fixed_point_cert();
        let text = cert.to_json();
        let back = Certificate::from_json(&text).unwrap();
        assert_eq!(cert, back);
        back.verify().unwrap();
    }

    #[test]
    fn corrupted_iso_map_is_rejected() {
        let mut cert = fixed_point_cert();
        if let CertVerdict::Unbounded { iso_map, .. } = &mut cert.verdict {
            // A constant map is not a bijection.
            for l in iso_map.iter_mut() {
                *l = Label::from_index(0);
            }
        }
        assert!(cert.verify().is_err());
    }

    #[test]
    fn skipped_step_is_rejected() {
        let mut cert = fixed_point_cert();
        // Duplicate the base problem without an honest edge between copies:
        // claim the chain skips straight from Π₀ to Π₀ via a "step".
        cert.problems.insert(1, cert.problems[0].clone());
        cert.edges.insert(0, Edge::Step);
        // Only fails if Π₀ is not its own full step — which §4.4 guarantees
        // (sc steps to an isomorphic but differently-labeled problem, and
        // same_problem compares structure on the nose only after renaming).
        let r = cert.verify();
        assert!(r.is_err(), "chain with a fake step edge must be rejected: {r:?}");
    }

    #[test]
    fn overclaimed_lower_bound_is_rejected() {
        let p = sc();
        let next = full_step(&p, 1).unwrap().problem().clone();
        let cert = Certificate {
            direction: Direction::Lower,
            model: ZeroRoundModel::Oriented,
            problems: vec![p, next],
            edges: vec![Edge::Step],
            incomplete: false,
            verdict: CertVerdict::LowerBound { rounds: 5 },
        };
        let err = cert.verify().unwrap_err();
        assert!(err.reason.contains("exceeds"), "{err}");
        let ok = Certificate { verdict: CertVerdict::LowerBound { rounds: 1 }, ..cert };
        ok.verify().unwrap();
    }

    #[test]
    fn incomplete_lower_bound_verifies_and_round_trips() {
        let p = sc();
        let next = full_step(&p, 1).unwrap().problem().clone();
        let cert = Certificate {
            direction: Direction::Lower,
            model: ZeroRoundModel::Oriented,
            problems: vec![p, next],
            edges: vec![Edge::Step],
            incomplete: true,
            verdict: CertVerdict::LowerBound { rounds: 1 },
        };
        cert.verify().unwrap();
        assert!(cert.summary().contains("incomplete"), "{}", cert.summary());
        let back = Certificate::from_json(&cert.to_json()).unwrap();
        assert_eq!(cert, back);
        assert!(back.incomplete);
        // Over-claiming is rejected regardless of the incomplete marker: a
        // partial verdict is still held to the replayed chain.
        let over = Certificate { verdict: CertVerdict::LowerBound { rounds: 2 }, ..cert };
        assert!(over.verify().is_err());
    }

    #[test]
    fn incomplete_marker_on_conclusive_verdicts_is_rejected() {
        let mut cert = fixed_point_cert();
        cert.verify().unwrap();
        cert.incomplete = true;
        let err = cert.verify().unwrap_err();
        assert!(err.reason.contains("incomplete"), "{err}");
    }

    #[test]
    fn certificates_without_incomplete_field_still_parse() {
        // Pre-marker certificate files omit the field; they parse as
        // complete (the only thing such files ever recorded).
        let cert = fixed_point_cert();
        let mut json = cert.to_json();
        json = json.replace("  \"incomplete\": false,\n", "");
        assert_ne!(json, cert.to_json());
        let back = Certificate::from_json(&json).unwrap();
        assert_eq!(back, cert);
    }

    #[test]
    fn relax_only_cycle_is_rejected() {
        let p = sc();
        let identity: Vec<Label> = (0..2).map(Label::from_index).collect();
        let cert = Certificate {
            direction: Direction::Lower,
            model: ZeroRoundModel::Oriented,
            problems: vec![p.clone(), p.clone()],
            edges: vec![Edge::Relax { map: identity.clone() }],
            incomplete: false,
            verdict: CertVerdict::Unbounded { cycle_start: 0, iso_map: identity },
        };
        let err = cert.verify().unwrap_err();
        assert!(err.reason.contains("no step edge"), "{err}");
    }

    #[test]
    fn direction_mismatches_are_rejected() {
        let mut cert = fixed_point_cert();
        cert.direction = Direction::Upper;
        assert!(cert.verify().is_err());
    }

    #[test]
    fn upper_bound_chain_verifies_and_underclaim_rejected() {
        // trivial problem: 0 rounds, chain of length 0.
        let t = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
        let cert = Certificate {
            direction: Direction::Upper,
            model: ZeroRoundModel::PlainPn,
            problems: vec![t],
            edges: vec![],
            incomplete: false,
            verdict: CertVerdict::UpperBound { rounds: 0 },
        };
        cert.verify().unwrap();
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Certificate::from_json("{}").is_err());
        assert!(Certificate::from_json("not json").is_err());
        let mut cert_json = fixed_point_cert().to_json();
        cert_json = cert_json.replace("roundelim-cert-v1", "bogus-v9");
        assert!(Certificate::from_json(&cert_json).is_err());
    }

    #[test]
    fn out_of_range_map_indices_are_rejected_at_parse() {
        // 65536 wraps to label 0 under a bare u16 cast; parsing must refuse
        // it rather than alias it onto a valid label.
        let p = sc();
        let cert = Certificate {
            direction: Direction::Lower,
            model: ZeroRoundModel::Oriented,
            problems: vec![p.clone(), p],
            edges: vec![Edge::Relax { map: vec![Label::from_index(0), Label::from_index(1)] }],
            incomplete: false,
            verdict: CertVerdict::LowerBound { rounds: 0 },
        };
        cert.verify().unwrap();
        let tampered = cert.to_json().replace("\"map\": [", "\"map\": [65536, ");
        assert_ne!(tampered, cert.to_json());
        assert!(Certificate::from_json(&tampered).is_err());
    }
}
