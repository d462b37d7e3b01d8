//! End-to-end observability tests: trace determinism across single-thread
//! re-runs, worker spans at two threads (searches and the simulator), and
//! the `roundelim trace` read-back subcommands.

use roundelim::auto::json::Json;
use roundelim::obs::summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_roundelim"))
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("roundelim-obs-e2e-{tag}-{}.jsonl", std::process::id()))
}

/// Runs `autolb sinkless-orientation::3 --threads 1 --trace <path>` in a
/// fresh process and returns the recorded trace text.
fn record_trace(path: &PathBuf) -> String {
    let out = cli()
        .args(["autolb", "sinkless-orientation::3", "--threads", "1", "--trace"])
        .arg(path)
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success(), "autolb failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote trace to"), "missing trace confirmation: {stderr}");
    std::fs::read_to_string(path).expect("trace file written")
}

#[test]
fn single_thread_traces_are_deterministic_across_runs() {
    let (path_a, path_b) = (tmp("det-a"), tmp("det-b"));
    let (text_a, text_b) = (record_trace(&path_a), record_trace(&path_b));

    // Timestamps are the only nondeterministic payload: stripped traces
    // from two single-threaded runs must be byte-identical.
    assert_eq!(
        summary::strip_timings(&text_a),
        summary::strip_timings(&text_b),
        "timing-stripped single-thread traces must be byte-identical"
    );

    let (trace_a, trace_b) = (
        summary::parse(&text_a).expect("trace A parses"),
        summary::parse(&text_b).expect("trace B parses"),
    );
    assert!(!trace_a.events.is_empty(), "the search must record events");
    assert_eq!(summary::shape(&trace_a), summary::shape(&trace_b), "span tree shape");
    assert_eq!(trace_a.counters, trace_b.counters, "counter totals");
    assert_eq!(trace_a.dropped, 0, "this search is far below the event cap");

    // Single-threaded: every event on the one (first) trace thread.
    for ev in &trace_a.events {
        if let summary::TraceEvent::Enter { thread, .. } = ev {
            assert_eq!(*thread, 0, "at --threads 1 all spans record on thread 0");
        }
    }

    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn trace_subcommand_summarizes_and_folds() {
    let path = tmp("readback");
    let text = record_trace(&path);

    let summarize = cli().args(["trace", "summarize"]).arg(&path).output().expect("spawn");
    assert!(summarize.status.success(), "{}", String::from_utf8_lossy(&summarize.stderr));
    let table = String::from_utf8(summarize.stdout).expect("utf8");
    assert!(table.contains("span names"), "{table}");
    assert!(table.contains("search.depth"), "{table}");
    assert!(table.contains("counters:"), "{table}");

    let json = cli().args(["trace", "summarize", "--json"]).arg(&path).output().expect("spawn");
    assert!(json.status.success());
    let doc = String::from_utf8(json.stdout).expect("utf8");
    assert!(doc.contains("\"spans\"") && doc.contains("\"total_events\""), "{doc}");

    let fold = cli().args(["trace", "fold"]).arg(&path).output().expect("spawn");
    assert!(fold.status.success(), "{}", String::from_utf8_lossy(&fold.stderr));
    let folded = String::from_utf8(fold.stdout).expect("utf8");
    assert!(!folded.trim().is_empty(), "folded stacks must be non-empty");
    // Folded lines are `path;to;span value` — check one known nesting.
    assert!(
        folded.lines().any(|l| l.contains(';') && l.contains("search.depth")),
        "expected nested stacks under search.depth:\n{folded}"
    );
    // The folded output agrees with the library fold of the same file.
    let lib_fold = summary::fold(&summary::parse(&text).unwrap());
    assert_eq!(folded.lines().count(), lib_fold.len());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn json_output_carries_the_obs_registry_section() {
    let out = cli()
        .args(["autolb", "sinkless-orientation::3", "--threads", "1", "--json"])
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = String::from_utf8(out.stdout).expect("utf8");
    assert!(doc.contains("\"obs\""), "{doc}");
    assert!(doc.contains("\"cache.intern_misses\""), "counters present: {doc}");
    assert!(doc.contains("\"search.beam_occupancy\""), "histograms present: {doc}");
}

#[test]
fn trace_subcommand_rejects_garbage() {
    let path = tmp("garbage");
    std::fs::write(&path, "not a trace\n").unwrap();
    let out = cli().args(["trace", "summarize"]).arg(&path).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "bad input is a usage error");
    let _ = std::fs::remove_file(&path);
}

/// Runs a small traced `sim-vs-bound` at `threads`; returns the report,
/// the trace's enter count per span name, and its `sim.receives` and
/// `sim.sends` counter totals.
fn traced_sim(threads: &str) -> (String, BTreeMap<String, u64>, [u64; 2]) {
    let (report, trace) = (tmp(&format!("sim-t{threads}.json")), tmp(&format!("sim-t{threads}")));
    let out = cli()
        .args(["sim-vs-bound", "--n", "20000", "--seed", "3", "--family", "maximal-matching"])
        .args(["--threads", threads, "--out"])
        .arg(&report)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success(), "sim-vs-bound failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let parsed = summary::parse(&text).expect("trace parses");
    assert_eq!(parsed.dropped, 0);
    let counts =
        summary::summarize(&parsed).spans.iter().map(|s| (s.name.clone(), s.count)).collect();
    let counter = |name: &str| {
        parsed.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).expect("counter traced")
    };
    let work = [counter("sim.receives"), counter("sim.sends")];
    let doc = std::fs::read_to_string(&report).expect("report written");
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&trace);
    (doc, counts, work)
}

#[test]
fn two_thread_traces_keep_every_worker_span() {
    // Executor workers drain their trace buffers before they return, so a
    // two-thread trace holds every span of the one-thread trace: the
    // embedded searches' `stage.*` spans (many recorded on workers) and
    // the simulator's stage spans.
    let (one_report, one, one_work) = traced_sim("1");
    let (two_report, two, two_work) = traced_sim("2");
    assert_eq!(one_report, two_report, "the report is thread-invariant");
    assert_eq!(one, two, "span counts per name");
    // The runner's receives and sends, exactly and at both thread counts:
    // frontier rounds receive only at live nodes and, once few are live,
    // send only where a live neighbour reads. A node broadcasts one
    // message per round. Every node receiving and sending each round
    // would make 280000 of each (n·rounds, 14 rounds).
    assert_eq!(one_work, [85_478, 135_023], "sim.receives, sim.sends at --threads 1");
    assert_eq!(two_work, one_work, "sim.receives, sim.sends at --threads 2");
    assert!(one.keys().any(|k| k.starts_with("stage.")), "{one:?}");
    for name in ["sim.search", "sim.generate", "sim.inputs", "sim.run", "sim.check"] {
        assert_eq!(one.get(name), Some(&1), "{name}: {one:?}");
    }
    let doc = Json::parse(&one_report).expect("report parses");
    let rounds = doc
        .get("cases")
        .and_then(Json::as_arr)
        .and_then(|c| c.first())
        .and_then(|c| c.get("rounds_used"))
        .and_then(Json::as_u64)
        .expect("rounds_used");
    assert_eq!(one.get("sim.round"), Some(&rounds), "one sim.round span per round");
}

/// Runs a traced `autolb maximal-matching::3` at `threads`; returns the
/// trace's enter count per `stage.*` span name.
fn traced_autolb_stages(threads: &str) -> BTreeMap<String, u64> {
    let trace = tmp(&format!("autolb-t{threads}"));
    let out = cli()
        .args(["autolb", "maximal-matching::3", "--steps", "6", "--beam", "6"])
        .args(["--max-labels", "10", "--threads", threads, "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success(), "autolb failed: {}", String::from_utf8_lossy(&out.stderr));
    let parsed = summary::parse(&std::fs::read_to_string(&trace).expect("trace written"))
        .expect("trace parses");
    let _ = std::fs::remove_file(&trace);
    assert_eq!(parsed.dropped, 0);
    summary::summarize(&parsed)
        .spans
        .iter()
        .filter(|s| s.name.starts_with("stage."))
        .map(|s| (s.name.clone(), s.count))
        .collect()
}

#[test]
fn autolb_stage_span_counts_match_across_threads() {
    // At two threads the wave interner's isomorphism checks and the new
    // classes' zero-round checks run on executor workers; every one of
    // their spans must reach the trace.
    let one = traced_autolb_stages("1");
    let two = traced_autolb_stages("2");
    assert_eq!(one, two, "stage span counts per name");
    for name in ["stage.canon", "stage.zero-round", "stage.relax-closure", "stage.step"] {
        assert!(one.get(name).is_some_and(|&n| n > 0), "{name}: {one:?}");
    }
}
