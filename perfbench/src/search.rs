//! `search_c33`: cold `roundelim autolb` processes on seeded renamings of
//! `coloring:3:3`, and the traced layer breakdown of one such search.

use crate::inputs::{c33, renamed};
use crate::proc::{self, Env, Finished};
use crate::report::{ms, Outcome};
use crate::stats::{median, Rng};
use roundelim::obs::summary;
use roundelim::obs::time::Stopwatch;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The acceptance budget of the paper's bound.
const BUDGET: [&str; 6] = ["--steps", "6", "--beam", "6", "--max-labels", "10"];

/// Search threads of the timed processes.
const THREADS: &str = "2";

/// Renamed inputs per run.
const INPUTS: usize = 16;

/// Work counters every search of `coloring:3:3` at this budget repeats,
/// in the order `autolb` prints them.
const PINNED: [(&str, u64); 4] =
    [("classes", 5102), ("expanded", 13), ("step_failures", 7), ("depth_reached", 4)];

/// Writes the canonical problem and `INPUTS` seeded renamings of it.
fn prepare(env: &Env, seed: u64) -> Result<(PathBuf, Vec<PathBuf>), String> {
    let p = c33()?;
    let canonical = env.path("c33.problem");
    proc::write(&canonical, &p.to_text())?;
    let mut rng = Rng::new(seed);
    let mut files = Vec::new();
    for i in 0..INPUTS {
        let path = env.path(&format!("c33-{i}.problem"));
        proc::write(&path, &renamed(&p, &format!("c33-{seed}-{i}"), &mut rng))?;
        files.push(path);
    }
    Ok((canonical, files))
}

fn autolb(env: &Env, file: &Path, threads: &str, extra: &[&str]) -> Result<Finished, String> {
    proc::run(
        env.cmd().arg("autolb").arg(file).args(BUDGET).args(["--threads", threads]).args(extra),
    )
    .map_err(|e| format!("autolb: {e}"))
}

/// Checks a search's text report: exit 0, LB 3, and its work counters.
fn check_search(out: &Finished) -> Result<Vec<u64>, String> {
    if !out.ok() {
        return Err(format!("autolb exited with {:?}", out.code));
    }
    // "c33-…: lower bound 3 rounds", after a "wrote certificate" line.
    if !out.stdout.lines().any(|l| !l.starts_with(' ') && l.ends_with(": lower bound 3 rounds")) {
        return Err("autolb did not prove lower bound 3".into());
    }
    // "  search: 5102 classes, 13 expansions, 7 dead ends, depth 4"
    let line = out
        .stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("search: "))
        .ok_or("autolb printed no search counters")?;
    let counts: Vec<u64> = line
        .split(", ")
        .filter_map(|part| part.split_whitespace().find_map(|w| w.parse().ok()))
        .collect();
    if counts.len() != PINNED.len() {
        return Err(format!("unreadable search counters `{line}`"));
    }
    Ok(counts)
}

/// Replays a certificate with an independent `cert verify` process.
fn verify(env: &Env, cert: &Path, want: &str) -> Result<Finished, String> {
    let out = proc::run(env.cmd().args(["cert", "verify"]).arg(cert))
        .map_err(|e| format!("cert verify: {e}"))?;
    if !out.ok() || !out.stdout.starts_with(&format!("VALID: {want}")) {
        return Err(format!("cert verify rejected {}: {}", cert.display(), out.stdout.trim()));
    }
    Ok(out)
}

/// The untraced workload: one cold search at a time until `seconds` pass.
pub fn workload(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let env = Env::new("search_c33")?;
    let (canonical, files) = prepare(&env, seed)?;
    let mut out = Outcome::default();

    // Set-up: confirm with `roundelim iso` that every input is a renaming
    // of coloring:3:3, three times over.
    let mut setups = Vec::new();
    for _ in 0..3 {
        let watch = Stopwatch::start();
        for f in &files {
            let iso = proc::run(env.cmd().arg("iso").arg(f).arg(&canonical))
                .map_err(|e| format!("iso: {e}"))?;
            if !iso.ok() || !iso.stdout.starts_with("isomorphic") {
                return Err(format!("{} is not a renaming of coloring:3:3", f.display()));
            }
        }
        setups.push(watch.elapsed_ns() as f64 / 1e9);
    }

    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), 0u64);
    let mut first: Option<Vec<u64>> = None;
    let watch = Stopwatch::start();
    let mut i = 0;
    while (watch.elapsed_ns() as f64) < seconds * 1e9 {
        let cert = env.path(&format!("c33-{i}.cert.json"));
        let file = &files[i % files.len()];
        let run = autolb(&env, file, THREADS, &["--cert", cert.to_str().unwrap_or_default()])?;
        walls.push(ms(run.usage.wall_ns));
        cpus.push(ms(run.usage.cpu_ns));
        rss = rss.max(run.usage.max_rss_kb);
        let problem = match check_search(&run) {
            Ok(counts) => match &first {
                None => {
                    first = Some(counts);
                    None
                }
                Some(f) if *f == counts => None,
                Some(f) => Some(format!("search {i}: work counters {counts:?} != {f:?}")),
            },
            Err(e) => Some(format!("search {i}: {e}")),
        };
        let problem = problem.or_else(|| verify(&env, &cert, "lower bound 3 rounds").err());
        out.check(problem);
        let _ = std::fs::remove_file(&cert);
        i += 1;
    }
    if let Some(counts) = first {
        for ((name, want), got) in PINNED.iter().zip(counts) {
            out.work(format!("search_c33.{name}"), got);
            out.pinned(name, got, *want);
        }
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_p50_ms", median(&walls), "ms");
    out.metric("cpu_ms_per_op", median(&cpus), "ms");
    out.metric("peak_rss_mb", rss as f64 / 1024.0, "MB");
    out.notes.push(format!("{} cold searches at --threads {THREADS}", walls.len()));
    Ok(out)
}

/// Per-span-name totals of a recorded trace: enter counts and folded
/// exclusive (self) time.
struct Folded {
    counts: BTreeMap<String, u64>,
    self_ns: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    dropped: u64,
}

fn fold_trace(path: &Path) -> Result<Folded, String> {
    let trace = summary::parse(&proc::read(path)?)?;
    let mut self_ns = BTreeMap::new();
    for line in summary::fold(&trace) {
        let (stack, v) = line.rsplit_once(' ').ok_or("bad folded line")?;
        let leaf = stack.rsplit(';').next().unwrap_or(stack);
        *self_ns.entry(leaf.to_owned()).or_insert(0) +=
            v.parse::<u64>().map_err(|e| e.to_string())?;
    }
    let s = summary::summarize(&trace);
    Ok(Folded {
        counts: s.spans.iter().map(|sp| (sp.name.clone(), sp.count)).collect(),
        self_ns,
        counters: trace.counters.into_iter().collect(),
        dropped: trace.dropped,
    })
}

/// Folded self time per span name of a recorded trace, ns.
pub fn self_times(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    Ok(fold_trace(path)?.self_ns)
}

/// Span name → per-layer metric, for the rows of the c33 breakdown.
const ROWS: [(&str, &str); 10] = [
    ("stage.canon", "core.iso.canon_self_ms"),
    ("stage.zero-round", "core.zero_round.self_ms"),
    ("stage.step", "core.speedup.step_self_ms"),
    ("stage.close", "core.speedup.close_self_ms"),
    ("stage.merge", "core.speedup.merge_self_ms"),
    ("stage.domination", "core.speedup.domination_self_ms"),
    ("stage.existential", "core.speedup.existential_self_ms"),
    ("search.wave", "auto.search.wave_self_ms"),
    ("search.depth", "auto.search.depth_self_ms"),
    ("stage.relax-closure", "auto.search.relax_closure_self_ms"),
];

/// The traced run: self time per layer at `--threads 1`, executor figures
/// and lost spans at `--threads 2`, certificate replay, parse time.
pub fn layers(seed: u64) -> Result<Outcome, String> {
    let env = Env::new("search_c33-trace")?;
    let (_, files) = prepare(&env, seed)?;
    let file = &files[0];
    let mut out = Outcome::default();

    let plain = autolb(&env, file, "1", &[])?;
    out.check(check_search(&plain).err());
    let t1_path = env.path("t1.jsonl");
    let traced = autolb(&env, file, "1", &["--trace", t1_path.to_str().unwrap_or_default()])?;
    out.check(check_search(&traced).err());
    let t1 = fold_trace(&t1_path)?;

    let wall = ms(traced.usage.wall_ns);
    let mut attributed = 0.0;
    for (span, metric) in ROWS {
        let v = ms(t1.self_ns.get(span).copied().unwrap_or(0));
        attributed += v;
        out.metric(metric, v, "ms");
    }
    let other: u64 = t1
        .self_ns
        .iter()
        .filter(|(k, _)| !ROWS.iter().any(|(span, _)| span == k))
        .map(|(_, v)| v)
        .sum();
    attributed += ms(other);
    out.metric("search_c33.other_spans_self_ms", ms(other), "ms");
    out.metric("search_c33.unattributed_ms", wall - attributed, "ms");
    out.metric("search_c33.traced_wall_ms", wall, "ms");
    out.metric("search_c33.trace_overhead_ms", wall - ms(plain.usage.wall_ns), "ms");
    if attributed > wall {
        out.notes.push(format!(
            "search_c33: folded self times sum to {attributed:.1} ms for a {wall:.1} ms process \
             (over-count {:.1} ms)",
            attributed - wall
        ));
    }
    let count = |f: &Folded, name: &str| f.counts.get(name).copied().unwrap_or(0);
    let canon = count(&t1, "stage.canon");
    let zero = count(&t1, "stage.zero-round");
    let misses = t1.counters.get("cache.intern_misses").copied().unwrap_or(0);
    out.metric("core.iso.canon_count", canon as f64, "count");
    out.metric("core.zero_round.count", zero as f64, "count");
    out.metric("auto.cache.intern_misses", misses as f64, "count");
    out.work("search_c33.stage.canon", canon);
    out.work("search_c33.stage.zero-round", zero);
    out.work("search_c33.cache.intern_misses", misses);
    out.pinned("stage.canon", canon, 6898);
    out.pinned("stage.zero-round", zero, 5102);

    let t2_path = env.path("t2.jsonl");
    let par = autolb(&env, file, "2", &["--trace", t2_path.to_str().unwrap_or_default()])?;
    out.check(check_search(&par).err());
    let t2 = fold_trace(&t2_path)?;
    let stages = |f: &Folded| -> u64 {
        f.counts.iter().filter(|(k, _)| k.starts_with("stage.")).map(|(_, v)| v).sum()
    };
    let lost = stages(&t1).saturating_sub(stages(&t2)) + t2.dropped;
    out.metric("obs.trace.lost_spans", lost as f64, "count");
    out.metric(
        "core.par.cpu_per_wall",
        par.usage.cpu_ns as f64 / par.usage.wall_ns as f64,
        "ratio",
    );
    let steals = t2.counters.get("exec.steals").copied().unwrap_or(0);
    out.metric("core.par.steals", steals as f64, "count");

    let cert = env.path("c33.cert.json");
    let made = autolb(&env, file, "2", &["--cert", cert.to_str().unwrap_or_default()])?;
    out.check(check_search(&made).err());
    let mut verifies = Vec::new();
    for _ in 0..5 {
        let v = verify(&env, &cert, "lower bound 3 rounds");
        out.check(v.as_ref().err().cloned());
        if let Ok(v) = v {
            verifies.push(ms(v.usage.wall_ns));
        }
    }
    out.metric("auto.certificate.verify_ms", median(&verifies), "ms");

    let text = proc::read(file)?;
    let mut parses = Vec::new();
    let mut parsed = Ok(());
    for _ in 0..200 {
        let watch = Stopwatch::start();
        let p = roundelim::core::problem::Problem::parse(std::hint::black_box(&text));
        parses.push(watch.elapsed_ns() as f64 / 1e3);
        parsed = parsed.and(p.map(drop));
    }
    out.check(parsed.err().map(|e| format!("parse: {e}")));
    out.metric("core.parser.parse_us", median(&parses), "us");
    Ok(out)
}
