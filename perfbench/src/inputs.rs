//! Seeded inputs: label renamings of zoo problems and fresh small problems.
//! The program only ever sees the text these produce.

use crate::stats::Rng;
use roundelim::core::iso::{canonical_key, CanonicalKey};
use roundelim::core::problem::Problem;
use roundelim::problems::registry::{family, sweep_specs};
use std::collections::HashSet;

/// Instantiates `name:k:Δ` from the zoo.
pub fn zoo(name: &str, k: usize, delta: usize) -> Result<Problem, String> {
    family(name).and_then(|f| f.instantiate(k, delta)).map_err(|e| format!("{name}: {e}"))
}

/// `coloring:3:3`, the paper's lower bound at the acceptance budget.
pub fn c33() -> Result<Problem, String> {
    zoo("coloring", 3, 3)
}

/// The daemon's warm set: the `autolb --sweep` specs plus `coloring:3:3`,
/// each with the verdict `autolb` certifies at the acceptance budget.
pub fn warm_set() -> Result<Vec<(String, Problem, &'static str)>, String> {
    const VERDICTS: [&str; 8] = [
        "unbounded",
        "unbounded",
        "unbounded",
        "lower-bound 1",
        "lower-bound 0",
        "unbounded",
        "lower-bound 3",
        "lower-bound 2",
    ];
    let specs = sweep_specs();
    if specs.len() != VERDICTS.len() {
        return Err(format!("the sweep set has {} specs, expected 8", specs.len()));
    }
    let mut out = Vec::new();
    for (s, verdict) in specs.iter().zip(VERDICTS) {
        let spec = format!("{}:{}:{}", s.family, s.k, s.delta);
        out.push((spec, zoo(s.family, s.k, s.delta)?, verdict));
    }
    out.push(("coloring:3:3".into(), c33()?, "lower-bound 3"));
    Ok(out)
}

/// The problem's text with its labels renamed (`L0`, `L1`, … in seeded
/// order) and its configurations listed in seeded order: isomorphic to
/// `p`, different bytes.
pub fn renamed(p: &Problem, name: &str, rng: &mut Rng) -> String {
    let text = p.to_text();
    let labels: Vec<&str> = text
        .lines()
        .find_map(|l| l.strip_prefix("labels:"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let mut slots: Vec<usize> = (0..labels.len()).collect();
    rng.shuffle(&mut slots);
    let rename = |tok: &str| -> String {
        let (label, power) = match tok.split_once('^') {
            Some((l, k)) => (l, format!("^{k}")),
            None => (tok, String::new()),
        };
        match labels.iter().position(|&l| l == label) {
            Some(ix) => format!("L{}{power}", slots[ix]),
            None => tok.to_owned(),
        }
    };
    let mut names: Vec<String> = labels.iter().map(|l| rename(l)).collect();
    rng.shuffle(&mut names);
    let mut out = format!("name: {name}\nlabels: {}\n", names.join(" "));
    for key in ["node:", "edge:"] {
        let body = text.lines().find_map(|l| l.strip_prefix(key)).unwrap_or("");
        let mut configs: Vec<String> = body
            .split('|')
            .map(|c| {
                let mut toks: Vec<String> = c.split_whitespace().map(rename).collect();
                rng.shuffle(&mut toks);
                toks.join(" ")
            })
            .collect();
        rng.shuffle(&mut configs);
        out.push_str(&format!("{key} {}\n", configs.join(" | ")));
    }
    out
}

/// Distinct small problems (three labels, Δ ∈ {2, 3}), pairwise
/// non-isomorphic and outside `avoid`: each is a guaranteed store miss.
pub struct FreshProblems {
    rng: Rng,
    seen: HashSet<CanonicalKey>,
    count: usize,
}

impl FreshProblems {
    pub fn new(seed: u64, avoid: &[Problem]) -> FreshProblems {
        let seen = avoid.iter().map(canonical_key).collect();
        FreshProblems { rng: Rng::new(seed ^ 0xf7e54), seen, count: 0 }
    }

    /// The next fresh problem's text.
    pub fn next_text(&mut self) -> String {
        loop {
            let delta = 2 + self.rng.below(2);
            let node = self.configs(&multisets(delta));
            let edge = self.configs(&multisets(2));
            let text =
                format!("name: fresh{}\nlabels: x y z\nnode: {node}\nedge: {edge}\n", self.count);
            let Ok(p) = Problem::parse(&text) else { continue };
            if self.seen.insert(canonical_key(&p)) {
                self.count += 1;
                return text;
            }
        }
    }

    fn configs(&mut self, all: &[String]) -> String {
        let mut picked: Vec<&str> =
            all.iter().filter(|_| self.rng.chance(0.5)).map(String::as_str).collect();
        if picked.is_empty() {
            picked.push(&all[self.rng.below(all.len())]);
        }
        picked.join(" | ")
    }
}

/// Every multiset of `len` labels over `x y z`, as configuration text.
fn multisets(len: usize) -> Vec<String> {
    fn go(len: usize, from: usize, cur: &mut Vec<&'static str>, out: &mut Vec<String>) {
        if cur.len() == len {
            out.push(cur.join(" "));
            return;
        }
        for (ix, l) in ["x", "y", "z"].iter().enumerate().skip(from) {
            cur.push(l);
            go(len, ix, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    go(len, 0, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim::core::iso::are_isomorphic;

    #[test]
    fn renamings_are_isomorphic_and_differ() {
        let p = c33().unwrap();
        let mut rng = Rng::new(3);
        let text = renamed(&p, "r", &mut rng);
        let q = Problem::parse(&text).unwrap();
        assert!(are_isomorphic(&p, &q));
        assert_ne!(text, p.to_text());
    }

    #[test]
    fn fresh_problems_are_distinct() {
        let warm: Vec<Problem> = warm_set().unwrap().into_iter().map(|w| w.1).collect();
        let mut fresh = FreshProblems::new(1, &warm);
        let keys: HashSet<_> =
            (0..50).map(|_| canonical_key(&Problem::parse(&fresh.next_text()).unwrap())).collect();
        assert_eq!(keys.len(), 50);
        assert!(warm.iter().all(|p| !keys.contains(&canonical_key(p))));
    }
}
