//! Per-stage wall-clock accounting for the hot engine paths.
//!
//! The speedup engine and the automated bound search are dominated by a
//! handful of stages (merge emission, componentwise closure, domination
//! filtering, isomorphism checks, the relax closure). This module gives
//! them a shared, allocation-free accounting surface: stages are a fixed
//! enum and a [`span`] guard accounts its elapsed time to its stage on
//! drop.
//!
//! Storage lives in the `roundelim-obs` metrics registry — each stage is
//! the histogram `stage.<name>`, so `--profile` totals, the daemon's
//! `metrics` command, and trace files all read the same numbers — and a
//! stage span doubles as a structured trace span whenever a trace sink is
//! installed (`--trace`).
//!
//! Accounting is **off by default** and costs one relaxed atomic load per
//! span while disabled. The CLI's `--profile` flag flips it on around one
//! command and prints [`report`] afterwards; parallel stages sum the time
//! of every worker, so on multicore runs a stage can exceed wall-clock
//! (the report says so).

use roundelim_obs as obs;
use std::sync::OnceLock;

/// The accounted engine stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Merge emission: alignment enumeration + candidate interning
    /// (`maximal_good_lines` stage 1).
    Merge,
    /// Componentwise closure of candidate lines (`close_line` probes).
    Close,
    /// Domination queries against the antichain (pre-filters, installs,
    /// evictions, and the final maximality pass).
    Domination,
    /// Isomorphism checks the bound search runs against the classes in a
    /// fingerprint bucket (the search computes no canonical keys).
    Canon,
    /// The relax/harden closure of the bound search (move generation,
    /// sibling pruning, interning, goal checks). Isomorphism checks and
    /// 0-round checks inside the closure are *also* counted under
    /// [`Stage::Canon`] and [`Stage::ZeroRound`].
    RelaxClosure,
    /// `full_step` computations taken by the bound search's step stage.
    Step,
    /// The existential constraint enumeration (Properties 2/3: all
    /// multisets over the new alphabet admitting a choice in the sibling
    /// constraint).
    Existential,
    /// 0-round solvability checks taken by the bound search's goal tests.
    ZeroRound,
}

const STAGES: [Stage; 8] = [
    Stage::Merge,
    Stage::Close,
    Stage::Domination,
    Stage::Canon,
    Stage::RelaxClosure,
    Stage::Step,
    Stage::Existential,
    Stage::ZeroRound,
];

impl Stage {
    /// Stable display name (matches the `--profile` report and the CI
    /// stage-breakdown artifact).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Merge => "merge",
            Stage::Close => "close",
            Stage::Domination => "domination",
            Stage::Canon => "canon",
            Stage::RelaxClosure => "relax-closure",
            Stage::Step => "step",
            Stage::Existential => "existential",
            Stage::ZeroRound => "zero-round",
        }
    }

    /// The stage's name in the metrics registry and in trace files.
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::Merge => "stage.merge",
            Stage::Close => "stage.close",
            Stage::Domination => "stage.domination",
            Stage::Canon => "stage.canon",
            Stage::RelaxClosure => "stage.relax-closure",
            Stage::Step => "stage.step",
            Stage::Existential => "stage.existential",
            Stage::ZeroRound => "stage.zero-round",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The per-stage histograms, resolved from the registry once.
fn stage_histogram(stage: Stage) -> &'static obs::metrics::Histogram {
    static HISTOGRAMS: OnceLock<[&'static obs::metrics::Histogram; STAGES.len()]> = OnceLock::new();
    HISTOGRAMS.get_or_init(|| STAGES.map(|s| obs::metrics::histogram(s.metric_name())))
        [stage.index()]
}

/// Whether accounting is on (one relaxed load — safe to call per probe).
#[inline]
pub fn enabled() -> bool {
    obs::profiling()
}

/// Turns accounting on or off. Turning it on does not reset counters; use
/// [`reset`] for a clean measurement window.
pub fn set_enabled(on: bool) {
    obs::set_profiling(on);
}

/// Zeroes every stage counter (other registry metrics are untouched).
pub fn reset() {
    for stage in STAGES {
        stage_histogram(stage).reset();
    }
}

/// One stage's accumulated totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTotals {
    /// The stage.
    pub stage: Stage,
    /// Summed span nanoseconds (across all workers).
    pub nanos: u64,
    /// Number of spans recorded.
    pub spans: u64,
}

/// Current totals for every stage, in fixed stage order.
pub fn snapshot() -> Vec<StageTotals> {
    STAGES
        .iter()
        .map(|&stage| {
            let h = stage_histogram(stage);
            StageTotals { stage, nanos: h.sum(), spans: h.count() }
        })
        .collect()
}

/// Renders the stage breakdown as the `--profile` report, including
/// p50/p99 per-span latency from the stage histograms. The parenthesized
/// span count stays the last field of each line — the CI artifact and
/// test suite parse it.
pub fn report() -> String {
    let mut out = String::from("per-stage breakdown (time summed across workers):\n");
    for t in snapshot() {
        let h = stage_histogram(t.stage).snapshot();
        let ms = t.nanos as f64 / 1e6;
        out.push_str(&format!(
            "  {:<14} {:>10.3} ms  p50 {:>9.1} us  p99 {:>9.1} us  ({} spans)\n",
            t.stage.name(),
            ms,
            h.p50() as f64 / 1e3,
            h.p99() as f64 / 1e3,
            t.spans
        ));
    }
    out
}

/// An RAII span: created by [`span`], adds its elapsed time to its stage
/// histogram on drop and emits a trace span while a sink is installed. A
/// no-op (no clock read) while both accounting and tracing are off.
#[must_use = "a span accounts its stage when dropped"]
pub struct Span {
    live: Option<(Stage, obs::time::Stopwatch, obs::trace::SpanToken)>,
}

/// Opens an accounting span for `stage`.
#[inline]
pub fn span(stage: Stage) -> Span {
    if !(enabled() || obs::trace::tracing()) {
        return Span { live: None };
    }
    let token = obs::trace::enter(stage.metric_name(), None);
    Span { live: Some((stage, obs::time::Stopwatch::start(), token)) }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stage, watch, token)) = self.live.take() {
            let ns = watch.elapsed_ns();
            obs::trace::exit(token);
            stage_histogram(stage).record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_only_while_enabled() {
        // The counters are process-global and other tests run in parallel;
        // while accounting is enabled here, a concurrently running engine
        // test may record spans too. Assertions are therefore one-sided
        // (≥) during the enabled window; the disabled-window asserts are
        // exact because nothing else enables accounting.
        reset();
        {
            let _s = span(Stage::Merge);
        }
        assert_eq!(snapshot()[Stage::Merge as usize].spans, 0, "disabled spans are no-ops");
        set_enabled(true);
        {
            let _s = span(Stage::Merge);
            std::hint::black_box(());
        }
        set_enabled(false);
        let t = snapshot()[Stage::Merge as usize];
        assert!(t.spans >= 1, "the enabled span must be recorded");
        assert_eq!(t.stage.name(), "merge");
        assert_eq!(t.stage.metric_name(), "stage.merge");
        let text = report();
        assert!(text.contains("merge") && text.contains("relax-closure"), "{text}");
        reset();
        assert_eq!(snapshot()[Stage::Merge as usize].spans, 0);
    }

    #[test]
    fn totals_come_from_the_shared_registry() {
        // The same numbers must be visible through the obs registry (the
        // daemon `metrics` command and trace counter trailer read it).
        set_enabled(true);
        {
            let _s = span(Stage::ZeroRound);
        }
        set_enabled(false);
        let ours = snapshot()[Stage::ZeroRound as usize];
        let reg = obs::metrics::histogram("stage.zero-round");
        assert!(reg.count() >= ours.spans);
        assert!(ours.spans >= 1);
    }
}
