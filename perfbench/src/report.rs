//! What a run reports: named metrics with units, the correctness tally,
//! exact work counters, and the final one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run (or one traced layer suite).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed before the result.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Exact work counters: equal inputs must give equal values.
    pub work: Vec<(String, u64)>,
    /// Notes on the run (pinned counters that moved, over-counts, …).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn work(&mut self, name: impl Into<String>, value: u64) {
        self.work.push((name.into(), value));
    }

    /// Counts one attempted operation; `problem` names its failed check.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// A failed check outside any single operation (still one failure).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Compares an exact work counter against its pinned value; a
    /// difference is reported as changed work, never as a timing.
    pub fn pinned(&mut self, name: &str, got: u64, want: u64) {
        if got != want {
            self.notes.push(format!("work changed: {name} = {got} (pinned {want})"));
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.metrics.extend(other.metrics);
        self.work.extend(other.work);
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report: metrics, work counters, notes, failures.
    pub fn render(&self, title: &str) -> String {
        let mut s = format!("== {title}\n");
        for m in &self.metrics {
            let _ = writeln!(s, "  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        if !self.work.is_empty() {
            let _ = writeln!(s, "  work counters (exact):");
            for (name, v) in &self.work {
                let _ = writeln!(s, "    {name:<38} {v:>14}");
            }
        }
        let rate =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        let _ = writeln!(
            s,
            "  error_rate {rate:.6} ({} failed / {} attempted)",
            self.failed, self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        s
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Milliseconds from nanoseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
