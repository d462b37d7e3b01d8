//! Text format for problems.
//!
//! The grammar is deliberately close to how the paper writes problem
//! descriptions:
//!
//! ```text
//! # comment
//! name: weak-2-coloring          (optional)
//! labels: 1→ 1• 2→ 2•            (optional: fixes the alphabet order)
//! node: 1→ 1•^2 | 2→ 2•^2        (configurations separated by `|` …)
//! edge:
//!   1→ 2→                        (… or by newlines)
//!   1→ 2•
//! ```
//!
//! * A *configuration* is a whitespace-separated list of label tokens,
//!   each optionally with a multiplicity `label^k`.
//! * Label tokens may contain any non-whitespace characters except
//!   `|`, `^`, `:` and `#`.
//! * The alphabet is inferred from the labels that occur.
//! * `#` starts a comment until end of line.
//! * A configuration holds at most [`MAX_CONFIG_ARITY`] labels, counted
//!   with multiplicity; a larger multiplicity or sum is a parse error,
//!   raised before anything is allocated for it.
//!
//! All node configurations must share one arity (Δ) and all edge
//! configurations must have arity 2.

use crate::config::Config;
use crate::constraint::Constraint;
use crate::error::{Error, Result};
use crate::label::{Alphabet, Label};
use crate::problem::Problem;

/// The largest configuration arity the parser accepts, far above any Δ the
/// engine instantiates: it bounds what one token such as `A^k` allocates.
pub const MAX_CONFIG_ARITY: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Node,
    Edge,
}

/// Parses a problem from the text format; see the module docs for grammar.
///
/// # Errors
///
/// Returns [`Error::Parse`] with a line number on malformed input, and the
/// construction errors of [`Problem::new`] on inconsistent content.
pub fn parse_problem(text: &str) -> Result<Problem> {
    let mut name = String::from("unnamed");
    let mut alphabet = Alphabet::new();
    let mut node_cfgs: Vec<(usize, Vec<Label>)> = Vec::new();
    let mut edge_cfgs: Vec<(usize, Vec<Label>)> = Vec::new();
    let mut section = Section::None;

    for (lineno0, raw) in text.lines().enumerate() {
        let lineno = lineno0 + 1;
        let line = match raw.find('#') {
            Some(ix) => &raw[..ix],
            None => raw,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (keyword, rest) = match line.split_once(':') {
            Some((k, r)) if matches!(k.trim(), "name" | "node" | "edge" | "labels") => {
                (Some(k.trim()), r.trim())
            }
            _ => (None, line),
        };
        match keyword {
            Some("name") => {
                if rest.is_empty() {
                    return Err(Error::Parse { line: lineno, reason: "empty problem name".into() });
                }
                name = rest.to_owned();
                section = Section::None;
                continue;
            }
            Some("labels") => {
                // Pre-intern the alphabet in the declared order.
                for tok in rest.split_whitespace() {
                    alphabet.intern_or_get(tok)?;
                }
                section = Section::None;
                continue;
            }
            Some("node") => section = Section::Node,
            Some("edge") => section = Section::Edge,
            Some(_) => unreachable!("matched keywords above"),
            None => {}
        }
        if rest.is_empty() {
            continue;
        }
        let target = match section {
            Section::Node => &mut node_cfgs,
            Section::Edge => &mut edge_cfgs,
            Section::None => {
                return Err(Error::Parse {
                    line: lineno,
                    reason: "configuration outside of a `node:`/`edge:` section".into(),
                })
            }
        };
        for piece in rest.split('|') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let labels = parse_config(piece, &mut alphabet, lineno)?;
            target.push((lineno, labels));
        }
    }

    if node_cfgs.is_empty() {
        return Err(Error::Parse { line: 0, reason: "no node configurations".into() });
    }
    if edge_cfgs.is_empty() {
        return Err(Error::Parse { line: 0, reason: "no edge configurations".into() });
    }

    let delta = node_cfgs[0].1.len();
    let mut node = Vec::with_capacity(node_cfgs.len());
    for (lineno, labels) in node_cfgs {
        if labels.len() != delta {
            return Err(Error::Parse {
                line: lineno,
                reason: format!(
                    "node configurations disagree on arity: expected {delta}, found {}",
                    labels.len()
                ),
            });
        }
        node.push(Config::new(labels));
    }
    let node = Constraint::from_configs(delta, node)?;
    let mut edge = Vec::with_capacity(edge_cfgs.len());
    for (lineno, labels) in edge_cfgs {
        if labels.len() != 2 {
            return Err(Error::Parse {
                line: lineno,
                reason: format!("edge configurations must have arity 2, found {}", labels.len()),
            });
        }
        edge.push(Config::new(labels));
    }
    let edge = Constraint::from_configs(2, edge)?;

    Problem::new(name, alphabet, node, edge)
}

fn parse_config(piece: &str, alphabet: &mut Alphabet, lineno: usize) -> Result<Vec<Label>> {
    let mut labels = Vec::new();
    for tok in piece.split_whitespace() {
        let (name, mult) = match tok.split_once('^') {
            None => (tok, 1usize),
            Some((n, m)) => {
                let mult: usize = m.parse().map_err(|_| Error::Parse {
                    line: lineno,
                    reason: format!("invalid multiplicity `{m}` in token `{tok}`"),
                })?;
                if mult == 0 {
                    return Err(Error::Parse {
                        line: lineno,
                        reason: format!("zero multiplicity in token `{tok}`"),
                    });
                }
                (n, mult)
            }
        };
        if name.is_empty() {
            return Err(Error::Parse {
                line: lineno,
                reason: format!("empty label in token `{tok}`"),
            });
        }
        if name.contains(':') {
            return Err(Error::Parse {
                line: lineno,
                reason: format!("label `{name}` contains `:`"),
            });
        }
        let arity = labels.len().checked_add(mult).filter(|&a| a <= MAX_CONFIG_ARITY);
        if arity.is_none() {
            return Err(Error::Parse {
                line: lineno,
                reason: format!("configuration arity exceeds {MAX_CONFIG_ARITY} at token `{tok}`"),
            });
        }
        let l = alphabet.intern_or_get(name)?;
        labels.extend(std::iter::repeat_n(l, mult));
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inline_and_multiline() {
        let p = parse_problem(
            "name: demo\n\
             node: A A B | B B B\n\
             edge:\n  A B\n  B B\n",
        )
        .unwrap();
        assert_eq!(p.name(), "demo");
        assert_eq!(p.delta(), 3);
        assert_eq!(p.node().len(), 2);
        assert_eq!(p.edge().len(), 2);
    }

    #[test]
    fn exponent_notation() {
        let p = parse_problem("node: A^3\nedge: A^2").unwrap();
        assert_eq!(p.delta(), 3);
        assert!(p.node().contains(&p.labels(&["A", "A", "A"]).unwrap()));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p =
            parse_problem("# header\n\nname: c\n# mid\nnode: A A # trailing\nedge: A A\n").unwrap();
        assert_eq!(p.name(), "c");
        assert_eq!(p.delta(), 2);
    }

    #[test]
    fn unicode_labels_allowed() {
        let p = parse_problem("node: 1→ 1•^2\nedge: 1→ 1•").unwrap();
        assert!(p.alphabet().lookup("1→").is_some());
        assert!(p.alphabet().lookup("1•").is_some());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_problem("node: A A\nedge: A A A\n").unwrap_err();
        assert!(matches!(e, Error::Parse { line: 2, .. }), "{e:?}");
        let e = parse_problem("A A\n").unwrap_err();
        assert!(matches!(e, Error::Parse { line: 1, .. }), "{e:?}");
        let e = parse_problem("node: A^x\nedge: A A\n").unwrap_err();
        assert!(matches!(e, Error::Parse { line: 1, .. }), "{e:?}");
        let e = parse_problem("node: A^0\nedge: A A\n").unwrap_err();
        assert!(matches!(e, Error::Parse { line: 1, .. }), "{e:?}");
    }

    #[test]
    fn hostile_multiplicities_are_parse_errors() {
        for text in
            ["node: A^18446744073709551615\nedge: A A\n", "node: A^40000 B^40000\nedge: A A\n"]
        {
            let e = parse_problem(text).unwrap_err();
            assert!(matches!(e, Error::Parse { line: 1, .. }), "{e:?}");
        }
        let at_cap = format!("node: A^{MAX_CONFIG_ARITY}\nedge: A A\n");
        assert_eq!(parse_problem(&at_cap).unwrap().delta(), MAX_CONFIG_ARITY);
    }

    #[test]
    fn missing_sections_rejected() {
        assert!(parse_problem("node: A A\n").is_err());
        assert!(parse_problem("edge: A A\n").is_err());
        assert!(parse_problem("").is_err());
    }

    #[test]
    fn node_arity_mismatch_rejected() {
        let e = parse_problem("node: A A | A A A\nedge: A A\n").unwrap_err();
        assert!(matches!(e, Error::Parse { line: 1, .. }));
    }
}
