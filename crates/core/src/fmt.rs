//! Pretty rendering of problems and speedup artifacts.
//!
//! The text format of [`crate::parser`] is the machine interface; this
//! module renders aligned, human-oriented tables for terminals — used by
//! the `roundelim` CLI and handy in tests and examples.

use crate::problem::Problem;
use crate::speedup::{FullStep, HalfStep};

/// Renders a problem as an aligned table:
///
/// ```text
/// sinkless-orientation            Δ = 3, 2 labels
///   node │ O O O │ O O I │ O I I
///   edge │ O I
/// ```
pub fn problem_table(p: &Problem) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<32}Δ = {}, {} labels\n", p.name(), p.delta(), p.alphabet().len()));
    let render = |label: &str, c: &crate::constraint::Constraint| -> String {
        let mut line = format!("  {label:>4} │ ");
        let mut first = true;
        for cfg in c.iter() {
            if !first {
                line.push_str(" │ ");
            }
            first = false;
            line.push_str(&crate::config::display_labels(cfg, p.alphabet()).to_string());
        }
        if first {
            line.push_str("∅ (unsatisfiable)");
        }
        line.push('\n');
        line
    };
    out.push_str(&render("node", p.node()));
    out.push_str(&render("edge", p.edge()));
    out
}

/// Renders the label provenance of a half-step: each derived label with
/// the set of base labels it denotes.
fn provenance_table(hs: &HalfStep, base: &Problem) -> String {
    let mut out = String::new();
    let width = hs.problem.alphabet().names().iter().map(|n| n.chars().count()).max().unwrap_or(1);
    for (ix, meaning) in hs.meanings.iter().enumerate() {
        let name = hs.problem.alphabet().name(crate::label::Label::from_index(ix));
        let members: Vec<&str> = meaning.iter().map(|l| base.alphabet().name(l)).collect();
        out.push_str(&format!("  {name:<w$} ↦ {{{}}}\n", members.join(", "), w = width));
    }
    out
}

/// Renders a whole speedup step: the base problem, Π'_{1/2}, Π'₁, and both
/// provenance tables.
pub fn step_report(base: &Problem, step: &FullStep) -> String {
    let mut out = String::new();
    out.push_str("── base problem ─────────────────────────────\n");
    out.push_str(&problem_table(base));
    out.push_str("── Π'_1/2 (half step) ───────────────────────\n");
    out.push_str(&problem_table(&step.half.problem));
    out.push_str(&provenance_table(&step.half, base));
    out.push_str("── Π'₁ (full step: one round faster) ────────\n");
    out.push_str(&problem_table(&step.full.problem));
    out
}

/// Renders the verdict of an iterated speedup sequence.
pub fn sequence_report(seq: &crate::sequence::SpeedupSequence) -> String {
    use crate::sequence::StopReason;
    let mut out = String::new();
    for (i, p) in seq.problems.iter().enumerate() {
        out.push_str(&format!("Π_{i}: {}\n", p.summary()));
    }
    match &seq.stop {
        StopReason::ZeroRound { index } => out.push_str(&format!(
            "verdict: Π_{index} is 0-round solvable ⇒ complexity exactly {index} \
             on high-girth t-independent classes\n"
        )),
        StopReason::FixedPoint { index, earlier } => out.push_str(&format!(
            "verdict: Π_{index} ≅ Π_{earlier} (period {}) ⇒ no 0-round problem is ever \
             reached; the complexity exceeds every t admitting a suitable graph class\n",
            index - earlier
        )),
        StopReason::LimitReached => out.push_str(&format!(
            "verdict: inconclusive after {} steps (lower bound {} certified)\n",
            seq.steps(),
            seq.steps()
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::iterate;
    use crate::speedup::full_step;

    fn sc() -> Problem {
        Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap()
    }

    #[test]
    fn problem_table_contains_all_configs() {
        let t = problem_table(&sc());
        assert!(t.contains("node"));
        assert!(t.contains("edge"));
        assert!(t.contains("1 0^2"), "{t}");
        assert!(t.contains("Δ = 3"));
    }

    #[test]
    fn empty_constraint_rendered_explicitly() {
        use crate::constraint::Constraint;
        use crate::label::Alphabet;
        let a = Alphabet::from_names(["X"]).unwrap();
        let node = Constraint::from_configs(
            2,
            [crate::config::Config::new(vec![crate::label::Label::from_index(0); 2])],
        )
        .unwrap();
        let edge = Constraint::new(2).unwrap();
        let p = Problem::new("dead", a, node, edge).unwrap();
        assert!(problem_table(&p).contains("unsatisfiable"));
    }

    #[test]
    fn step_report_mentions_all_parts() {
        let base = sc();
        let step = full_step(&base, 1).unwrap();
        let r = step_report(&base, &step);
        assert!(r.contains("base problem"));
        assert!(r.contains("Π'_1/2"));
        assert!(r.contains("Π'₁"));
        assert!(r.contains("↦"));
    }

    #[test]
    fn sequence_report_has_verdict() {
        let seq = iterate(&sc(), 4).unwrap();
        let r = sequence_report(&seq);
        assert!(r.contains("verdict"));
        assert!(r.contains("Π_0"));
    }
}
