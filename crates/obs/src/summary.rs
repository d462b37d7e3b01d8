//! Reads a recorded `roundelim-trace-v1` document back: per-span-name
//! statistics (the `--profile` report and `trace summarize`),
//! folded-stack output for flamegraph tooling (`trace fold`), and the
//! timing-stripped / structural projections the determinism tests
//! compare. Summaries and folds share one enter/exit walk, so a span's
//! self time is the same number in every view.
//!
//! The parser targets exactly the grammar [`crate::trace`] emits (one
//! sorted-key JSON object per line); it is not a general JSON reader —
//! `roundelim_auto::json` cannot be used here because `obs` sits below
//! every other workspace crate.

use crate::metrics::Histogram;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// One parsed trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    Enter { id: u64, parent: u64, thread: u32, name: String, value: Option<u64>, t: Option<u64> },
    Exit { id: u64, t: Option<u64> },
}

/// A parsed trace: events in file order plus the counter trailer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    pub counters: Vec<(String, u64)>,
    pub dropped: u64,
}

/// Extracts the number following `"key": ` on `line`, if present.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Extracts the string following `"key": "` on `line`, if present.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

/// Parses a trace document produced by [`crate::trace`].
///
/// # Errors
///
/// Returns a description when the header is missing/mismatched, an
/// event line is missing a required field, or the span tree is
/// malformed: an `enter` whose id is 0 or repeats an earlier id, or whose
/// `par` is neither 0 nor the id of an earlier `enter`. The writer always
/// records a parent's enter before its child's (both sit on one thread's
/// buffer), so every parent link of a parsed trace points backwards and
/// the tree has no cycles.
pub fn parse(text: &str) -> Result<Trace, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| "empty trace file".to_owned())?;
    let schema = field_str(header, "schema").unwrap_or("<none>");
    if schema != "roundelim-trace-v1" {
        return Err(format!("unsupported trace schema {schema:?} (want roundelim-trace-v1)"));
    }
    let mut trace = Trace::default();
    let mut entered: HashSet<u64> = HashSet::new();
    for (ix, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}: {line}", ix + 1);
        match field_str(line, "ev") {
            Some("enter") => {
                let id = field_u64(line, "id").ok_or_else(|| bad("enter without id"))?;
                let parent = field_u64(line, "par").ok_or_else(|| bad("enter without par"))?;
                if parent != 0 && !entered.contains(&parent) {
                    return Err(bad("parent is not an earlier span"));
                }
                if id == 0 || !entered.insert(id) {
                    return Err(bad("span id is 0 or repeats an earlier id"));
                }
                trace.events.push(TraceEvent::Enter {
                    id,
                    parent,
                    thread: u32::try_from(field_u64(line, "th").unwrap_or(0))
                        .map_err(|_| bad("thread id overflows u32"))?,
                    name: field_str(line, "name")
                        .ok_or_else(|| bad("enter without name"))?
                        .to_owned(),
                    value: field_u64(line, "v"),
                    t: field_u64(line, "t"),
                });
            }
            Some("exit") => trace.events.push(TraceEvent::Exit {
                id: field_u64(line, "id").ok_or_else(|| bad("exit without id"))?,
                t: field_u64(line, "t"),
            }),
            Some("counters") => {
                // {"ev": "counters", "values": {"a.b": 1, "c.d": 2}}
                let inner = line
                    .split_once('{')
                    .and_then(|(_, rest)| rest.split_once('{'))
                    .map(|(_, inner)| inner.trim_end_matches(['}', ' ']))
                    .ok_or_else(|| bad("counters without values object"))?;
                for pair in inner.split(", ") {
                    if pair.is_empty() {
                        continue;
                    }
                    let (name, v) = pair.split_once("\": ").ok_or_else(|| bad("bad counter"))?;
                    let v = v.parse::<u64>().map_err(|_| bad("bad counter value"))?;
                    trace.counters.push((name.trim_start_matches('"').to_owned(), v));
                }
            }
            Some("dropped") => {
                trace.dropped = field_u64(line, "n").ok_or_else(|| bad("dropped without n"))?;
            }
            other => return Err(bad(&format!("unknown event kind {other:?}"))),
        }
    }
    Ok(trace)
}

/// Removes every `"t"` timestamp field. Two traces of the same
/// single-threaded run stripped this way are byte-identical — the
/// determinism contract the test suite pins.
#[must_use]
pub fn strip_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if let Some(pos) = line.find(", \"t\": ") {
            let rest = &line[pos + 7..];
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            out.push_str(&line[..pos]);
            out.push_str(&rest[digits..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The structural projection of a trace: one line per `enter` event in
/// file order — `depth name [v=value]` — where depth counts enclosing
/// spans on the same thread. Together with the counter totals this is
/// the "span tree shape" the determinism tests compare across runs.
#[must_use]
pub fn shape(trace: &Trace) -> Vec<String> {
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new(); // id -> depth
    let mut out = Vec::new();
    for ev in &trace.events {
        if let TraceEvent::Enter { id, parent, name, value, .. } = ev {
            let d = depth.get(parent).map_or(0, |p| p + 1);
            depth.insert(*id, d);
            match value {
                Some(v) => out.push(format!("{d} {name} v={v}")),
                None => out.push(format!("{d} {name}")),
            }
        }
    }
    out
}

/// Aggregated statistics for one span name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSummary {
    pub name: String,
    /// Number of `enter` events.
    pub count: u64,
    /// Summed wall time of closed spans, ns.
    pub total_ns: u64,
    /// Summed exclusive time of closed spans (each span's duration minus
    /// its children's, clamped at zero), ns: the total of the [`fold`]
    /// lines whose leaf is this name.
    pub self_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// A whole-trace summary: per-name span statistics plus the counter
/// trailer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Sorted by name.
    pub spans: Vec<SpanSummary>,
    pub counters: Vec<(String, u64)>,
    pub total_events: u64,
    /// Spans with no matching exit (trace finished while they were open).
    pub unclosed: u64,
    pub dropped: u64,
}

/// One span after its exit has been matched to its enter.
struct Span<'a> {
    name: &'a str,
    /// Index of the enclosing span, always below this span's own, so
    /// parent chains end.
    parent: Option<usize>,
    enter_t: Option<u64>,
    closed: bool,
    /// Set when both the enter and the exit carry a timestamp.
    dur: Option<u64>,
    /// Summed durations of the span's timed children.
    child_ns: u64,
}

/// The one enter/exit walk behind [`summarize`] and [`fold`]: every
/// span of the trace in enter order, with its duration and its
/// children's summed durations.
fn walk(trace: &Trace) -> Vec<Span<'_>> {
    let mut spans: Vec<Span<'_>> = Vec::with_capacity(trace.events.len() / 2);
    let mut index: HashMap<u64, usize> = HashMap::with_capacity(trace.events.len() / 2);
    for ev in &trace.events {
        match ev {
            TraceEvent::Enter { id, parent, name, t, .. } => {
                let parent = index.get(parent).copied();
                index.insert(*id, spans.len());
                spans.push(Span {
                    name,
                    parent,
                    enter_t: *t,
                    closed: false,
                    dur: None,
                    child_ns: 0,
                });
            }
            TraceEvent::Exit { id, t } => {
                let Some(&ix) = index.get(id) else { continue };
                let span = &mut spans[ix];
                if span.closed {
                    continue;
                }
                span.closed = true;
                if let (Some(t0), Some(t1)) = (span.enter_t, t) {
                    let dur = t1.saturating_sub(t0);
                    span.dur = Some(dur);
                    if let Some(p) = span.parent {
                        spans[p].child_ns += dur;
                    }
                }
            }
        }
    }
    spans
}

/// Summarizes a parsed trace: per-name counts, duration quantiles, and
/// self times (closed spans only; timing-stripped traces summarize with
/// zero durations but full counts).
#[must_use]
pub fn summarize(trace: &Trace) -> Summary {
    struct Agg {
        count: u64,
        self_ns: u64,
        hist: Histogram,
    }
    let spans = walk(trace);
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for span in &spans {
        let agg = by_name.entry(span.name).or_insert_with(|| Agg {
            count: 0,
            self_ns: 0,
            hist: Histogram::new(),
        });
        agg.count += 1;
        if let Some(dur) = span.dur {
            agg.hist.record(dur);
            agg.self_ns += dur.saturating_sub(span.child_ns);
        }
    }
    Summary {
        spans: by_name
            .into_iter()
            .map(|(name, agg)| {
                let s = agg.hist.snapshot();
                SpanSummary {
                    name: name.to_owned(),
                    count: agg.count,
                    total_ns: s.sum,
                    self_ns: agg.self_ns,
                    p50_ns: s.p50(),
                    p90_ns: s.p90(),
                    p99_ns: s.p99(),
                    max_ns: s.max,
                }
            })
            .collect(),
        counters: trace.counters.clone(),
        total_events: trace.events.len() as u64,
        unclosed: spans.iter().filter(|s| !s.closed).count() as u64,
        dropped: trace.dropped,
    }
}

impl Summary {
    /// A human-readable table (the `roundelim trace summarize` output).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} events, {} span names, {} unclosed, {} dropped",
            self.total_events,
            self.spans.len(),
            self.unclosed,
            self.dropped
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>10} {:>10} {:>10}",
            "span", "count", "total ms", "p50 us", "p90 us", "p99 us"
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10.1}",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.p50_ns as f64 / 1e3,
                s.p90_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<36} {v:>12}");
            }
        }
        out
    }

    /// The `--profile` report: one row per span name with its count, self
    /// time and p50/p99 duration, then `unattributed` (`wall_ns` minus the
    /// summed self times) and `wall`. Times are rounded to whole
    /// microseconds before the subtraction, so the printed rows sum to
    /// the printed wall exactly. Spans on parallel workers add up across
    /// them, so above one thread `unattributed` can go negative.
    #[must_use]
    pub fn render_profile(&self, wall_ns: u64) -> String {
        let us = |ns: u64| i64::try_from(ns.saturating_add(500) / 1000).unwrap_or(i64::MAX);
        let ms = |us: i64| {
            let sign = if us < 0 { "-" } else { "" };
            format!("{sign}{}.{:03}", us.unsigned_abs() / 1000, us.unsigned_abs() % 1000)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span profile: {} events, {} dropped (self time per span name; \
             spans on parallel workers sum across them)",
            self.total_events, self.dropped
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>10} {:>10}",
            "span", "count", "self ms", "p50 us", "p99 us"
        );
        let mut attributed = 0i64;
        for s in &self.spans {
            let self_us = us(s.self_ns);
            attributed += self_us;
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>10.1} {:>10.1}",
                s.name,
                s.count,
                ms(self_us),
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
            );
        }
        let wall = us(wall_ns);
        let _ = writeln!(out, "  {:<28} {:>8} {:>12}", "unattributed", "", ms(wall - attributed));
        let _ = writeln!(out, "  {:<28} {:>8} {:>12}", "wall", "", ms(wall));
        out
    }
}

/// Folds a trace into flamegraph stacks: one `root;child;leaf value`
/// line per distinct span path, sorted, where `value` is the path's
/// *exclusive* wall time in nanoseconds (children subtracted, clamped at
/// zero). The output feeds `flamegraph.pl` / `inferno-flamegraph`
/// directly. For traces without timings every path gets its enter count
/// instead, so stripped traces still fold non-empty.
#[must_use]
pub fn fold(trace: &Trace) -> Vec<String> {
    let spans = walk(trace);
    let timed = spans.iter().any(|s| s.dur.is_some());
    let mut by_path: BTreeMap<String, u64> = BTreeMap::new();
    let mut parts: Vec<&str> = Vec::new();
    for span in &spans {
        let value = match span.dur {
            Some(dur) => dur.saturating_sub(span.child_ns),
            None if timed => continue, // unclosed span in an otherwise timed trace
            None => 1,                 // stripped trace: fold by count
        };
        if value == 0 {
            continue;
        }
        parts.clear();
        let mut cur = Some(span);
        while let Some(s) = cur {
            parts.push(s.name);
            cur = s.parent.map(|p| &spans[p]);
        }
        parts.reverse();
        *by_path.entry(parts.join(";")).or_insert(0) += value;
    }
    by_path.into_iter().map(|(path, v)| format!("{path} {v}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "{\"schema\": \"roundelim-trace-v1\"}\n\
        {\"ev\": \"enter\", \"id\": 1, \"name\": \"search.depth\", \"par\": 0, \"t\": 100, \"th\": 0, \"v\": 0}\n\
        {\"ev\": \"enter\", \"id\": 2, \"name\": \"stage.merge\", \"par\": 1, \"t\": 200, \"th\": 0}\n\
        {\"ev\": \"exit\", \"id\": 2, \"t\": 700}\n\
        {\"ev\": \"enter\", \"id\": 3, \"name\": \"stage.merge\", \"par\": 1, \"t\": 800, \"th\": 0}\n\
        {\"ev\": \"exit\", \"id\": 3, \"t\": 900}\n\
        {\"ev\": \"exit\", \"id\": 1, \"t\": 1100}\n\
        {\"ev\": \"counters\", \"values\": {\"cache.intern_hits\": 3, \"cache.intern_misses\": 14}}\n";

    #[test]
    fn parses_every_event_kind() {
        let t = parse(SAMPLE).unwrap();
        assert_eq!(t.events.len(), 6);
        assert_eq!(
            t.counters,
            vec![("cache.intern_hits".to_owned(), 3), ("cache.intern_misses".to_owned(), 14)]
        );
        assert_eq!(t.dropped, 0);
        assert_eq!(
            t.events[0],
            TraceEvent::Enter {
                id: 1,
                parent: 0,
                thread: 0,
                name: "search.depth".to_owned(),
                value: Some(0),
                t: Some(100),
            }
        );
        assert!(parse("{\"schema\": \"something-else\"}\n").is_err());
        assert!(parse("").is_err());
        // Malformed span trees: a parent cycle, a self-parent, a repeated
        // id, id 0, and a parent that has not entered yet.
        let doc = |enters: &[(u64, u64)]| {
            let mut text = String::from("{\"schema\": \"roundelim-trace-v1\"}\n");
            for (id, par) in enters {
                text.push_str(&format!(
                    "{{\"ev\": \"enter\", \"id\": {id}, \"name\": \"a\", \"par\": {par}, \"t\": 0, \"th\": 0}}\n"
                ));
            }
            text
        };
        assert!(parse(&doc(&[(1, 2), (2, 1)])).is_err(), "parent cycle");
        assert!(parse(&doc(&[(1, 1)])).is_err(), "self-parent");
        assert!(parse(&doc(&[(1, 0), (1, 0)])).is_err(), "repeated id");
        assert!(parse(&doc(&[(0, 0)])).is_err(), "id 0");
        assert!(parse(&doc(&[(2, 0), (1, 3), (3, 0)])).is_err(), "later parent");
        assert!(parse(&doc(&[(2, 0), (1, 2)])).is_ok(), "ids need not ascend");
    }

    #[test]
    fn strip_timings_removes_only_timestamps_and_is_idempotent() {
        let stripped = strip_timings(SAMPLE);
        assert!(!stripped.contains("\"t\":"), "{stripped}");
        assert!(stripped.contains("\"v\": 0"), "v fields survive: {stripped}");
        assert!(stripped.contains("\"th\": 0"), "thread ids survive: {stripped}");
        assert_eq!(strip_timings(&stripped), stripped);
        // A stripped trace still parses and keeps its structure.
        let t = parse(&stripped).unwrap();
        assert_eq!(t.events.len(), 6);
        assert_eq!(shape(&t), shape(&parse(SAMPLE).unwrap()));
    }

    #[test]
    fn shape_reports_depth_name_and_value_in_file_order() {
        let t = parse(SAMPLE).unwrap();
        assert_eq!(shape(&t), vec!["0 search.depth v=0", "1 stage.merge", "1 stage.merge"]);
    }

    #[test]
    fn summarize_aggregates_per_name_durations() {
        let s = summarize(&parse(SAMPLE).unwrap());
        assert_eq!(s.total_events, 6);
        assert_eq!(s.unclosed, 0);
        let merge = s.spans.iter().find(|x| x.name == "stage.merge").unwrap();
        assert_eq!(merge.count, 2);
        assert_eq!(merge.total_ns, 600); // 500 + 100
        assert_eq!(merge.max_ns, 500);
        let depth = s.spans.iter().find(|x| x.name == "search.depth").unwrap();
        assert_eq!((depth.count, depth.total_ns), (1, 1000));
        assert_eq!((depth.self_ns, merge.self_ns), (400, 600));
        // Self time per name is the sum of `fold`'s lines with that leaf.
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for line in fold(&parse(SAMPLE).unwrap()) {
            let (stack, v) = line.rsplit_once(' ').unwrap();
            let leaf = stack.rsplit(';').next().unwrap();
            *folded.entry(leaf.to_owned()).or_insert(0) += v.parse::<u64>().unwrap();
        }
        let self_ns: BTreeMap<String, u64> =
            s.spans.iter().map(|x| (x.name.clone(), x.self_ns)).collect();
        assert_eq!(self_ns, folded);
        let rendered = s.render();
        assert!(rendered.contains("stage.merge"), "{rendered}");
        assert!(rendered.contains("cache.intern_misses"), "{rendered}");
    }

    #[test]
    fn profile_rows_and_unattributed_sum_to_wall() {
        // SAMPLE's times read as microseconds instead of nanoseconds.
        let mut s = summarize(&parse(SAMPLE).unwrap());
        for span in &mut s.spans {
            span.self_ns *= 1000;
        }
        let report = s.render_profile(1_500_000);
        assert!(report.starts_with("span profile: 6 events, 0 dropped"), "{report}");
        let row = |name: &str| -> Vec<&str> {
            let line = report.lines().find(|l| l.trim_start().starts_with(name)).unwrap();
            line.split_whitespace().collect()
        };
        assert_eq!(row("search.depth")[1..3], ["1", "0.400"]);
        assert_eq!(row("stage.merge")[1..3], ["2", "0.600"]);
        assert_eq!(row("unattributed")[1], "0.500");
        assert_eq!(row("wall")[1], "1.500");
        // Parallel spans can sum past the wall clock: the gap goes negative.
        let over = s.render_profile(200_000);
        assert!(over.contains(" -0.800\n"), "{over}");
    }

    #[test]
    fn fold_emits_exclusive_time_stacks() {
        let lines = fold(&parse(SAMPLE).unwrap());
        // depth span: 1000 total - 600 in children = 400 exclusive;
        // the two merge children aggregate on one path.
        assert_eq!(lines, vec!["search.depth 400", "search.depth;stage.merge 600"]);
        // A stripped trace folds by count instead of disappearing.
        let stripped = fold(&parse(&strip_timings(SAMPLE)).unwrap());
        assert_eq!(stripped, vec!["search.depth 1", "search.depth;stage.merge 2"]);
    }

    #[test]
    fn unclosed_spans_are_counted_not_fatal() {
        let text = "{\"schema\": \"roundelim-trace-v1\"}\n\
            {\"ev\": \"enter\", \"id\": 1, \"name\": \"a\", \"par\": 0, \"t\": 1, \"th\": 0}\n";
        let s = summarize(&parse(text).unwrap());
        assert_eq!(s.unclosed, 1);
        assert_eq!(s.spans[0].count, 1);
        assert_eq!(s.spans[0].total_ns, 0);
    }
}
