//! The `roundelimd` wire protocol.
//!
//! One request per line, one or more responses per line, everything UTF-8
//! JSON (via the workspace's own [`roundelim_auto::json`] — the protocol
//! adds no dependencies). A client connects over TCP, writes a request
//! object terminated by `\n`, and reads response objects until it sees the
//! terminal event for that request:
//!
//! | request | terminal event | streamed events |
//! |---|---|---|
//! | `{"req":"solve", ...}` | `result` | `progress` (one per search depth) |
//! | `{"req":"status"}` | `status` | — |
//! | `{"req":"stats"}` | `stats` | — |
//! | `{"req":"metrics"}` | `metrics` | — |
//! | `{"req":"shutdown"}` | `shutdown` | — |
//!
//! Every response object carries `"ok"`: protocol/search failures are
//! reported as `{"ok":false,"error":"..."}` and the connection stays
//! usable. The one exception is a request line longer than
//! [`MAX_LINE_BYTES`]: it is answered with such an error and the
//! connection is closed. The full format, with examples, is pinned in
//! `docs/PROTOCOL.md`.

use roundelim_auto::certificate::{CertVerdict, Certificate, Direction};
use roundelim_auto::json::Json;
use roundelim_auto::search::{Progress, SearchOptions, Verdict};
use roundelim_obs as obs;
use std::time::Duration;

/// Protocol identifier, reported by `status`. Bump on breaking changes.
pub const PROTOCOL: &str = "roundelimd-1";

/// The longest request line the daemon reads, in bytes (without the
/// `\n`). A zoo problem's text is a few hundred bytes and a solve line a
/// few KiB at most, so 1 MiB leaves room for any problem the search can
/// handle while bounding what one connection makes the daemon buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Solve a problem (or serve it from the proof store).
    Solve(SolveRequest),
    /// Service liveness and configuration.
    Status,
    /// Service counters.
    Stats,
    /// The full observability registry: counter totals plus latency
    /// histogram summaries, as JSON and as a Prometheus text exposition.
    Metrics,
    /// Graceful shutdown: cancel in-flight searches, persist the cache
    /// snapshot, exit.
    Shutdown,
}

/// The payload of a `solve` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveRequest {
    /// The problem, in the standard text format (`name:`/`node:`/`edge:`).
    pub problem: String,
    /// Which bound to search.
    pub direction: Direction,
    /// Per-request search budgets; unset fields use the daemon defaults.
    pub budget: Budget,
}

/// Per-request overrides of the search budgets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// [`SearchOptions::max_steps`].
    pub max_steps: Option<usize>,
    /// [`SearchOptions::beam_width`].
    pub beam_width: Option<usize>,
    /// [`SearchOptions::max_labels`].
    pub max_labels: Option<usize>,
    /// [`SearchOptions::max_expansions`].
    pub max_expansions: Option<usize>,
    /// [`SearchOptions::time_budget`], in milliseconds.
    pub time_budget_ms: Option<u64>,
}

impl Budget {
    /// Applies the set fields on top of `opts`.
    pub fn apply(&self, opts: &mut SearchOptions) {
        if let Some(v) = self.max_steps {
            opts.max_steps = v;
        }
        if let Some(v) = self.beam_width {
            opts.beam_width = v;
        }
        if let Some(v) = self.max_labels {
            opts.max_labels = v;
        }
        if let Some(v) = self.max_expansions {
            opts.max_expansions = Some(v);
        }
        if let Some(ms) = self.time_budget_ms {
            opts.time_budget = Some(Duration::from_millis(ms));
        }
    }
}

/// Service counters, reported by the `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// `solve` requests received (well-formed ones).
    pub requests: u64,
    /// Served from the proof store without searching.
    pub cache_hits: u64,
    /// Required a fresh search.
    pub cache_misses: u64,
    /// Fresh searches that produced a certificate.
    pub solved: u64,
    /// Fresh searches that ended inconclusive.
    pub inconclusive: u64,
    /// Malformed requests and failed searches.
    pub errors: u64,
}

fn direction_from_str(s: &str) -> Option<Direction> {
    match s {
        "lower" | "lower-bound" => Some(Direction::Lower),
        "upper" | "upper-bound" => Some(Direction::Upper),
        _ => None,
    }
}

/// Stable name of a direction, as used on the wire.
pub fn direction_str(d: Direction) -> &'static str {
    match d {
        Direction::Lower => "lower-bound",
        Direction::Upper => "upper-bound",
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description of what is malformed (sent back to the
/// client as an `error` response; the connection survives).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let req = v.get("req").and_then(Json::as_str).ok_or("missing string field `req`")?;
    match req {
        "status" => Ok(Request::Status),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "solve" => {
            let problem = v
                .get("problem")
                .and_then(Json::as_str)
                .ok_or("solve needs a string field `problem` (problem text format)")?
                .to_owned();
            let direction = v
                .get("direction")
                .and_then(Json::as_str)
                .and_then(direction_from_str)
                .ok_or("solve needs `direction`: \"lower\" or \"upper\"")?;
            let mut budget = Budget::default();
            if let Some(b) = v.get("budget") {
                let field = |key: &str| -> Result<Option<u64>, String> {
                    match b.get(key) {
                        None => Ok(None),
                        Some(j) => j
                            .as_u64()
                            .map(Some)
                            .ok_or_else(|| format!("budget field `{key}` must be a number")),
                    }
                };
                budget.max_steps = field("max_steps")?.map(|n| n as usize);
                budget.beam_width = field("beam_width")?.map(|n| n as usize);
                budget.max_labels = field("max_labels")?.map(|n| n as usize);
                budget.max_expansions = field("max_expansions")?.map(|n| n as usize);
                budget.time_budget_ms = field("time_budget_ms")?;
            }
            Ok(Request::Solve(SolveRequest { problem, direction, budget }))
        }
        other => Err(format!("unknown request `{other}`")),
    }
}

/// Renders a `solve` request line (what the CLI client sends).
pub fn solve_line(problem: &str, direction: Direction, budget: &Budget) -> String {
    let mut fields = vec![
        ("req", Json::Str("solve".into())),
        ("problem", Json::Str(problem.to_owned())),
        ("direction", Json::Str(direction_str(direction).into())),
    ];
    let mut b = Vec::new();
    if let Some(v) = budget.max_steps {
        b.push(("max_steps", Json::Num(v as u64)));
    }
    if let Some(v) = budget.beam_width {
        b.push(("beam_width", Json::Num(v as u64)));
    }
    if let Some(v) = budget.max_labels {
        b.push(("max_labels", Json::Num(v as u64)));
    }
    if let Some(v) = budget.max_expansions {
        b.push(("max_expansions", Json::Num(v as u64)));
    }
    if let Some(v) = budget.time_budget_ms {
        b.push(("time_budget_ms", Json::Num(v)));
    }
    if !b.is_empty() {
        fields.push(("budget", Json::obj(b)));
    }
    Json::obj(fields).to_string_compact()
}

/// Renders a no-payload request line (`status` / `stats` / `shutdown`).
pub fn plain_request_line(req: &str) -> String {
    Json::obj([("req", Json::Str(req.to_owned()))]).to_string_compact()
}

/// Renders an error response line.
pub fn error_line(msg: &str) -> String {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(msg.to_owned()))]).to_string_compact()
}

/// Renders a streamed progress event.
pub fn progress_line(p: Progress) -> String {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::Str("progress".into())),
        ("depth", Json::Num(p.depth as u64)),
        ("expanded", Json::Num(p.expanded as u64)),
        ("classes", Json::Num(p.classes as u64)),
        ("frontier", Json::Num(p.frontier as u64)),
    ])
    .to_string_compact()
}

/// Renders the `status` response.
pub fn status_line(records: usize, classes: usize, active: usize, workers: usize) -> String {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::Str("status".into())),
        ("protocol", Json::Str(PROTOCOL.into())),
        ("records", Json::Num(records as u64)),
        ("classes", Json::Num(classes as u64)),
        ("active", Json::Num(active as u64)),
        ("workers", Json::Num(workers as u64)),
    ])
    .to_string_compact()
}

/// Renders the `stats` response.
pub fn stats_line(s: &DaemonStats) -> String {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::Str("stats".into())),
        ("requests", Json::Num(s.requests)),
        ("cache_hits", Json::Num(s.cache_hits)),
        ("cache_misses", Json::Num(s.cache_misses)),
        ("solved", Json::Num(s.solved)),
        ("inconclusive", Json::Num(s.inconclusive)),
        ("errors", Json::Num(s.errors)),
    ])
    .to_string_compact()
}

/// Renders the `metrics` response: every registry counter total, every
/// histogram as `{count, sum, min, max, p50, p90, p99}` (latency metrics
/// are in nanoseconds, `_ns` suffix), plus the same registry rendered as
/// a Prometheus text exposition in the `prometheus` string field.
pub fn metrics_line(snap: &obs::metrics::Snapshot) -> String {
    let counters =
        Json::Obj(snap.counters.iter().map(|(name, v)| (name.clone(), Json::Num(*v))).collect());
    let histograms = Json::Obj(
        snap.histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    Json::obj([
                        ("count", Json::Num(h.count)),
                        ("sum", Json::Num(h.sum)),
                        ("min", Json::Num(h.min)),
                        ("max", Json::Num(h.max)),
                        ("p50", Json::Num(h.p50())),
                        ("p90", Json::Num(h.p90())),
                        ("p99", Json::Num(h.p99())),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::Str("metrics".into())),
        ("counters", counters),
        ("histograms", histograms),
        ("prometheus", Json::Str(obs::metrics::prometheus_text(snap))),
    ])
    .to_string_compact()
}

/// Renders the `shutdown` acknowledgement.
pub fn shutdown_line() -> String {
    Json::obj([("ok", Json::Bool(true)), ("event", Json::Str("shutdown".into()))])
        .to_string_compact()
}

/// A search verdict as wire JSON (`{"kind": ..., "rounds"?: ...}`).
pub fn verdict_json(v: &Verdict) -> Json {
    match v {
        Verdict::Unbounded => Json::obj([("kind", Json::Str("unbounded".into()))]),
        Verdict::LowerBound { rounds } => Json::obj([
            ("kind", Json::Str("lower-bound".into())),
            ("rounds", Json::Num(*rounds as u64)),
        ]),
        Verdict::UpperBound { rounds } => Json::obj([
            ("kind", Json::Str("upper-bound".into())),
            ("rounds", Json::Num(*rounds as u64)),
        ]),
        Verdict::Inconclusive => Json::obj([("kind", Json::Str("inconclusive".into()))]),
    }
}

/// A stored certificate's verdict as wire JSON (same shape as
/// [`verdict_json`], so clients handle hits and fresh solves uniformly).
pub fn cert_verdict_json(v: &CertVerdict) -> Json {
    match v {
        CertVerdict::Unbounded { .. } => Json::obj([("kind", Json::Str("unbounded".into()))]),
        CertVerdict::LowerBound { rounds } => Json::obj([
            ("kind", Json::Str("lower-bound".into())),
            ("rounds", Json::Num(*rounds as u64)),
        ]),
        CertVerdict::UpperBound { rounds } => Json::obj([
            ("kind", Json::Str("upper-bound".into())),
            ("rounds", Json::Num(*rounds as u64)),
        ]),
    }
}

/// Renders the terminal `result` response of a `solve` request.
///
/// `problem` is the text of the problem the certificate derives — for a
/// cache hit on an isomorphic renaming, the stored representative (the
/// certificate replays against *it*, not against the query's spelling).
pub fn result_line(
    cached: bool,
    problem: &str,
    verdict: Json,
    stop: &str,
    incomplete: bool,
    certificate: Option<&Certificate>,
) -> String {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("event", Json::Str("result".into())),
        ("cached", Json::Bool(cached)),
        ("problem", Json::Str(problem.to_owned())),
        ("verdict", verdict),
        ("stop", Json::Str(stop.to_owned())),
        ("incomplete", Json::Bool(incomplete)),
        ("certificate", certificate.map_or(Json::Null, Certificate::json_value)),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_round_trips() {
        let budget = Budget { max_steps: Some(6), time_budget_ms: Some(500), ..Budget::default() };
        let line = solve_line("name: p\nnode: A A\nedge: A A", Direction::Lower, &budget);
        match parse_request(&line).unwrap() {
            Request::Solve(s) => {
                assert_eq!(s.problem, "name: p\nnode: A A\nedge: A A");
                assert_eq!(s.direction, Direction::Lower);
                assert_eq!(s.budget, budget);
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn plain_requests_parse() {
        for (name, want) in [
            ("status", Request::Status),
            ("stats", Request::Stats),
            ("metrics", Request::Metrics),
            ("shutdown", Request::Shutdown),
        ] {
            assert_eq!(parse_request(&plain_request_line(name)).unwrap(), want);
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(parse_request("not json").unwrap_err().contains("bad JSON"));
        assert!(parse_request("{}").unwrap_err().contains("req"));
        assert!(parse_request("{\"req\": \"dance\"}").unwrap_err().contains("dance"));
        assert!(parse_request("{\"req\": \"solve\"}").unwrap_err().contains("problem"));
        assert!(parse_request(
            "{\"req\": \"solve\", \"problem\": \"x\", \"direction\": \"sideways\"}"
        )
        .unwrap_err()
        .contains("direction"));
        assert!(parse_request(
            "{\"req\": \"solve\", \"problem\": \"x\", \"direction\": \"lower\", \
             \"budget\": {\"max_steps\": \"six\"}}"
        )
        .unwrap_err()
        .contains("max_steps"));
    }

    #[test]
    fn metrics_line_renders_counters_histograms_and_prometheus() {
        let snap = obs::metrics::Snapshot {
            counters: vec![("daemon.requests".to_owned(), 2)],
            histograms: vec![(
                "daemon.solve_ns".to_owned(),
                obs::metrics::HistogramSnapshot {
                    count: 1,
                    sum: 1500,
                    min: 1500,
                    max: 1500,
                    buckets: vec![(1535, 1)],
                },
            )],
        };
        let line = metrics_line(&snap);
        assert!(line.contains("\"event\": \"metrics\""), "{line}");
        assert!(line.contains("\"daemon.requests\": 2"), "{line}");
        assert!(line.contains("\"count\": 1"), "{line}");
        assert!(line.contains("\"p50\": 1500"), "{line}");
        assert!(line.contains("roundelim_daemon_requests 2"), "{line}");
        assert!(line.contains("roundelim_daemon_solve_ns_count 1"), "{line}");
        assert!(parse_request(&line).is_err(), "responses are not requests");
    }

    #[test]
    fn budget_applies_only_set_fields() {
        let mut opts = SearchOptions::default();
        let defaults = SearchOptions::default();
        Budget::default().apply(&mut opts);
        assert_eq!(opts.max_steps, defaults.max_steps);
        assert_eq!(opts.time_budget, None);
        Budget { max_steps: Some(3), time_budget_ms: Some(250), ..Budget::default() }
            .apply(&mut opts);
        assert_eq!(opts.max_steps, 3);
        assert_eq!(opts.time_budget, Some(Duration::from_millis(250)));
        assert_eq!(opts.beam_width, defaults.beam_width);
    }
}
