//! Benchmark support for the round-elimination workspace.
//!
//! This library holds the shared measurement helpers behind the
//! `bench_smoke` binary, which runs the speedup families in sample mode
//! and emits `BENCH_speedup.json` — a per-`(family, parameter)` median-ns
//! record that CI archives so successive PRs have a perf trajectory to
//! compare against.

use std::time::Instant;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark family, e.g. `E1_sinkless_full_step`.
    pub family: String,
    /// Family parameter (Δ or k).
    pub param: usize,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: u64,
    /// Iterations per sample the median was taken over.
    pub iters: u32,
}

/// Measures `f` in sample mode: one warm-up call, then `samples` timed
/// batches of `iters` iterations each; returns the median per-iteration
/// nanoseconds. `iters` is chosen by the caller to amortize timer noise on
/// fast cases (sub-µs work needs hundreds of iterations per batch).
pub fn measure<F: FnMut()>(samples: usize, iters: u32, mut f: F) -> u64 {
    assert!(samples > 0 && iters > 0);
    f(); // warm-up (first call pays lazy caches and allocator warmup)
    let mut per_iter: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(start.elapsed().as_nanos() as u64 / u64::from(iters));
    }
    per_iter.sort_unstable();
    per_iter[per_iter.len() / 2]
}

/// Picks an iteration count that spends roughly `budget_ns` per sample,
/// based on one throwaway timing of `f` (clamped to `[1, 10_000]`). The
/// probe runs after a warm-up call so lazy caches and allocator warmup do
/// not deflate the first family's iteration count.
pub fn calibrate_iters<F: FnMut()>(budget_ns: u64, mut f: F) -> u32 {
    f(); // warm-up: the timed probe should see steady-state cost
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1) as u64;
    (budget_ns / once).clamp(1, 10_000) as u32
}

/// Renders measurements as the `BENCH_speedup.json` document.
///
/// Hand-rolled writer: the workspace takes no registry dependencies, and
/// the schema is a flat list of records.
pub fn to_json(measurements: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"schema\": \"roundelim-bench-v1\",\n  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"param\": {}, \"median_ns\": {}, \"iters\": {}}}{}\n",
            m.family,
            m.param,
            m.median_ns,
            m.iters,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The outcome of diffing two `BENCH_speedup.json` documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// One formatted line per case present in both documents.
    pub lines: Vec<String>,
    /// Cases whose `median_ns` grew by more than the threshold factor.
    pub regressions: Vec<String>,
    /// Cases whose `median_ns` shrank by more than the threshold factor
    /// (reported so a perf win is visible in the CI log, not just the
    /// absence of a failure).
    pub improvements: Vec<String>,
    /// Cases only present in the current document (new benchmarks).
    pub new_cases: Vec<String>,
    /// Cases present in the baseline but absent from the current document.
    /// A silently dropped benchmark must fail the run — otherwise removing
    /// a family would pass CI while losing its perf coverage.
    pub missing: Vec<String>,
    /// Thread-scaling curves from the *current* document: for every family
    /// named `*_threads` the parameter is a worker-thread count, and each
    /// line reports the speedup of the N-thread median over the 1-thread
    /// median from the same run. Informational (machine-local by nature);
    /// cross-run regressions on these cases are still gated per
    /// `(family, param)` like everything else.
    pub scaling: Vec<String>,
}

/// Parses a `BENCH_speedup.json` document into `(family, param) → median_ns`.
fn parse_results(doc: &str) -> Result<Vec<(String, u64, u64)>, String> {
    let v = roundelim_auto::json::Json::parse(doc)?;
    let results = v
        .get("results")
        .and_then(roundelim_auto::json::Json::as_arr)
        .ok_or("missing `results` array")?;
    results
        .iter()
        .map(|r| {
            let family = r
                .get("family")
                .and_then(roundelim_auto::json::Json::as_str)
                .ok_or("case without `family`")?;
            let param = r
                .get("param")
                .and_then(roundelim_auto::json::Json::as_u64)
                .ok_or("case without `param`")?;
            let ns = r
                .get("median_ns")
                .and_then(roundelim_auto::json::Json::as_u64)
                .ok_or("case without `median_ns`")?;
            Ok((family.to_owned(), param, ns))
        })
        .collect()
}

/// Diffs a current `BENCH_speedup.json` against a baseline: a case
/// *regresses* when `current > baseline × threshold`. Sub-microsecond
/// baselines are skipped (timer noise dominates them).
///
/// # Errors
///
/// Returns a description of the first malformed document.
pub fn diff_benchmarks(
    baseline: &str,
    current: &str,
    threshold: f64,
) -> Result<DiffReport, String> {
    let base = parse_results(baseline)?;
    let cur = parse_results(current)?;
    let mut report = DiffReport::default();
    for (family, param, cur_ns) in &cur {
        match base.iter().find(|(f, p, _)| f == family && p == param) {
            None => report.new_cases.push(format!("{family}/{param}: new case ({cur_ns} ns)")),
            Some((_, _, base_ns)) => {
                let ratio = *cur_ns as f64 / (*base_ns).max(1) as f64;
                let line = format!("{family}/{param}: {base_ns} ns → {cur_ns} ns ({ratio:.2}x)");
                if *base_ns >= 1_000 && ratio > threshold {
                    report.regressions.push(line.clone());
                }
                if *base_ns >= 1_000 && ratio < 1.0 / threshold {
                    report.improvements.push(line.clone());
                }
                report.lines.push(line);
            }
        }
    }
    for (family, param, base_ns) in &base {
        if !cur.iter().any(|(f, p, _)| f == family && p == param) {
            report.missing.push(format!("{family}/{param}: missing (baseline had {base_ns} ns)"));
        }
    }
    report.scaling = scaling_lines(&cur);
    Ok(report)
}

/// Renders the thread-scaling curve of every `*_threads` family in a
/// parsed document: `family: 1→N threads R.RRx` per measured thread count
/// above 1, relative to the same family's 1-thread median. A `*_threads`
/// family without a 1-thread anchor yields a diagnostic line instead of a
/// silently absent curve.
fn scaling_lines(results: &[(String, u64, u64)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (family, _, _) in results {
        if !family.ends_with("_threads") || seen.contains(&family.as_str()) {
            continue;
        }
        seen.push(family);
        let Some((_, _, base_ns)) = results.iter().find(|(f, p, _)| f == family && *p == 1) else {
            out.push(format!("{family}: no 1-thread anchor, cannot compute speedups"));
            continue;
        };
        for (f, threads, ns) in results {
            if f == family && *threads > 1 {
                let speedup = *base_ns as f64 / (*ns).max(1) as f64;
                out.push(format!("{family}: 1→{threads} threads {speedup:.2}x speedup"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_median() {
        let mut x = 0u64;
        let ns = measure(3, 10, || x = x.wrapping_add(1).wrapping_mul(31));
        assert!(x > 0);
        // Median of a non-empty sample set; zero is fine for sub-ns work,
        // the call itself must not panic.
        let _ = ns;
    }

    #[test]
    fn calibrate_clamps() {
        let iters = calibrate_iters(1_000_000, || std::thread::sleep(std::time::Duration::ZERO));
        assert!((1..=10_000).contains(&iters));
    }

    #[test]
    fn diff_flags_only_real_regressions() {
        let mk = |ns_a: u64, ns_b: u64| {
            to_json(&[
                Measurement { family: "E1".into(), param: 3, median_ns: ns_a, iters: 10 },
                Measurement { family: "E3".into(), param: 9, median_ns: ns_b, iters: 10 },
            ])
        };
        // 1.2x growth on a ms-scale case: within a 1.5x threshold.
        let ok = diff_benchmarks(&mk(10_000, 1_000_000), &mk(12_000, 1_100_000), 1.5).unwrap();
        assert!(ok.regressions.is_empty(), "{:?}", ok.regressions);
        assert_eq!(ok.lines.len(), 2);
        // 3x growth: flagged.
        let bad = diff_benchmarks(&mk(10_000, 1_000_000), &mk(30_000, 1_000_000), 1.5).unwrap();
        assert_eq!(bad.regressions.len(), 1);
        assert!(bad.regressions[0].contains("E1/3"), "{:?}", bad.regressions);
        // Sub-µs baselines are never flagged (noise).
        let noisy = diff_benchmarks(&mk(500, 1_000_000), &mk(5_000, 1_000_000), 1.5).unwrap();
        assert!(noisy.regressions.is_empty());
    }

    #[test]
    fn diff_reports_new_and_missing_cases() {
        let base =
            to_json(&[Measurement { family: "E1".into(), param: 3, median_ns: 10, iters: 1 }]);
        let cur =
            to_json(&[Measurement { family: "A1".into(), param: 3, median_ns: 10, iters: 1 }]);
        let report = diff_benchmarks(&base, &cur, 1.5).unwrap();
        assert_eq!(report.new_cases.len(), 1);
        assert_eq!(report.missing.len(), 1, "dropped baseline cases are flagged");
        assert!(report.missing[0].contains("E1/3"));
        assert!(diff_benchmarks("not json", &cur, 1.5).is_err());
    }

    #[test]
    fn diff_reports_improvements_with_ratio() {
        let mk = |ns: u64| {
            to_json(&[Measurement { family: "E3".into(), param: 9, median_ns: ns, iters: 10 }])
        };
        let report = diff_benchmarks(&mk(271_000_000), &mk(5_000_000), 1.5).unwrap();
        assert!(report.regressions.is_empty());
        assert_eq!(report.improvements.len(), 1);
        assert!(report.improvements[0].contains("0.02x"), "{:?}", report.improvements);
        // A 1.2x improvement is inside the threshold band: not reported.
        let quiet = diff_benchmarks(&mk(12_000), &mk(10_000), 1.5).unwrap();
        assert!(quiet.improvements.is_empty());
    }

    #[test]
    fn diff_reports_thread_scaling_curves() {
        let mk = |n1: u64, n2: u64, n4: u64| {
            to_json(&[
                Measurement {
                    family: "A4_autolb_threads".into(),
                    param: 1,
                    median_ns: n1,
                    iters: 3,
                },
                Measurement {
                    family: "A4_autolb_threads".into(),
                    param: 2,
                    median_ns: n2,
                    iters: 3,
                },
                Measurement {
                    family: "A4_autolb_threads".into(),
                    param: 4,
                    median_ns: n4,
                    iters: 3,
                },
                Measurement { family: "E1".into(), param: 3, median_ns: 10_000, iters: 3 },
            ])
        };
        let doc = mk(1_000_000, 550_000, 400_000);
        let report = diff_benchmarks(&doc, &doc, 1.5).unwrap();
        // Curve comes from the current document only; non-`_threads`
        // families contribute nothing.
        assert_eq!(report.scaling.len(), 2, "{:?}", report.scaling);
        assert!(report.scaling[0].contains("1→2 threads 1.82x"), "{:?}", report.scaling);
        assert!(report.scaling[1].contains("1→4 threads 2.50x"), "{:?}", report.scaling);
        assert!(report.regressions.is_empty());
        // A `_threads` family without a 1-thread anchor is called out.
        let orphan = to_json(&[Measurement {
            family: "A4_autolb_threads".into(),
            param: 4,
            median_ns: 400_000,
            iters: 3,
        }]);
        let report = diff_benchmarks(&orphan, &orphan, 1.5).unwrap();
        assert_eq!(report.scaling.len(), 1);
        assert!(report.scaling[0].contains("no 1-thread anchor"), "{:?}", report.scaling);
    }

    #[test]
    fn json_shape() {
        let ms = vec![
            Measurement {
                family: "E1_sinkless_full_step".into(),
                param: 7,
                median_ns: 1234,
                iters: 100,
            },
            Measurement {
                family: "E2_coloring_half_step".into(),
                param: 6,
                median_ns: 5,
                iters: 1,
            },
        ];
        let json = to_json(&ms);
        assert!(json.contains("\"schema\": \"roundelim-bench-v1\""));
        assert!(json.contains("\"family\": \"E1_sinkless_full_step\", \"param\": 7"));
        assert!(json.trim_end().ends_with('}'));
        // exactly one comma between the two records
        assert_eq!(json.matches("},").count(), 1);
    }
}
