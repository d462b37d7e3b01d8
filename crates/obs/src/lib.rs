//! Observability for the round-elimination workspace: structured span
//! tracing, atomic counters, and log-bucketed latency histograms.
//!
//! Every crate in the workspace emits into this one layer instead of
//! keeping private timing state:
//!
//! - [`metrics`] — a process-wide registry of named [`metrics::Counter`]s
//!   and HDR-style [`metrics::Histogram`]s with p50/p90/p99 summaries.
//!   Counters are always live (one relaxed `fetch_add`); timing histograms
//!   are recorded by call sites only while [`trace::tracing`] returns
//!   true, so an untraced run never reads the clock on hot paths.
//! - [`trace`] — span-based structured tracing. Enter/exit events carry
//!   parent span ids and land in per-thread buffers, drained into one
//!   in-memory sink and rendered as a JSON-Lines document (schema
//!   `roundelim-trace-v1`) when the trace is finished. `--trace` writes
//!   that document and `--profile` summarizes it. With no sink installed
//!   every probe is a single relaxed atomic load and no allocation —
//!   overhead is pinned by the `O1_trace_overhead` bench family.
//! - [`summary`] — reads a recorded trace back: per-span-name statistics
//!   (the `--profile` report), folded-stack output for flamegraph
//!   tooling, and timing-stripped
//!   projections used by the determinism tests.
//! - [`time`] — the one place in the workspace (outside `crates/bench`)
//!   allowed to touch `std::time::Instant`; everything else goes through
//!   [`time::Stopwatch`] / [`time::monotonic_ns`].
//!
//! Determinism contract: timing *values* are never deterministic and must
//! stay out of certificates, checkpoints, and the proof store. Event
//! *structure* — the span tree shape, per-span names/values, and counter
//! totals — is deterministic at `--threads 1`, and
//! [`summary::strip_timings`] of two such runs is byte-identical.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod summary;
pub mod time;
pub mod trace;
