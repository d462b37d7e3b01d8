//! `daemon_mix`: `roundelim serve` on a pristine copy of a seeded proof
//! store, driven by a kept-alive protocol session (warm hits plus cold
//! misses) and a stream of `roundelim client solve` processes.

use crate::inputs::{c33, renamed, warm_set, FreshProblems};
use crate::proc::{self, Env, Running, Usage};
use crate::report::{ms, Outcome};
use crate::stats::{median, quantile, tail, Rng};
use roundelim::auto::certificate::{Certificate, Direction};
use roundelim::auto::json::Json;
use roundelim::auto::search::{autolb, SearchOptions};
use roundelim::core::problem::Problem;
use roundelim::daemon::proto::{self, Budget};
use roundelim::daemon::ProofStore;
use roundelim::obs::time::Stopwatch;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

/// Share of session requests that are cold misses.
const MISS_RATE: f64 = 0.05;
/// Seeded renamings per warm problem.
const RENAMINGS: usize = 6;
/// Set-up samples (spawn → listening) per run.
const SETUPS: usize = 5;

/// The budget the store is seeded with: the acceptance budget.
fn seed_budget() -> Budget {
    Budget { max_steps: Some(6), beam_width: Some(6), max_labels: Some(10), ..Budget::default() }
}

/// The tight budget of a miss: a short search.
fn miss_budget() -> Budget {
    Budget {
        max_steps: Some(3),
        beam_width: Some(3),
        max_labels: Some(8),
        max_expansions: Some(3),
        time_budget_ms: None,
    }
}

/// A running daemon; dropping it without [`Daemon::stop`] kills it.
struct Daemon {
    run: Option<Running>,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(run) = self.run.take() {
            run.kill();
        }
    }
}

impl Daemon {
    /// Spawns `serve` and waits for its banner; returns spawn → listening.
    fn start(
        env: &Env,
        store: &Path,
        threads: usize,
        trace: Option<&Path>,
    ) -> Result<(Daemon, u64), String> {
        let mut cmd = env.cmd();
        cmd.arg("serve").arg("--store").arg(store).args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ]);
        cmd.args(["--threads", &threads.to_string()]);
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut run = Running::spawn(&mut cmd).map_err(|e| format!("serve: {e}"))?;
        let banner = run.read_line().map_err(|e| format!("serve: {e}"))?;
        let took = run.elapsed_ns();
        match banner.strip_prefix("roundelimd listening on ") {
            Some(addr) => Ok((Daemon { addr: addr.to_owned(), run: Some(run) }, took)),
            None => {
                run.kill();
                Err(format!("serve printed `{banner}` instead of its banner"))
            }
        }
    }

    /// Sends `shutdown` and reaps the process.
    fn stop(mut self) -> Result<Usage, String> {
        let shut = Session::connect(&self.addr)
            .and_then(|mut s| s.request(&proto::plain_request_line("shutdown")));
        shut.map_err(|e| format!("shutdown: {e}"))?;
        let run = self.run.take().ok_or("daemon already stopped")?;
        let done = run.finish().map_err(|e| format!("serve: {e}"))?;
        if !done.ok() {
            return Err(format!("serve exited with {:?}", done.code));
        }
        Ok(done.usage)
    }
}

/// One kept-alive protocol connection; every request is one write.
struct Session {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Session {
    fn connect(addr: &str) -> Result<Session, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Session { w, r })
    }

    /// Sends one request line; returns the terminal response line and the
    /// time from the write to its last byte.
    fn request(&mut self, line: &str) -> Result<(String, u64), String> {
        let framed = format!("{line}\n");
        let watch = Stopwatch::start();
        self.w.write_all(framed.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        loop {
            resp.clear();
            let n = self.r.read_line(&mut resp).map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("connection closed by the daemon".into());
            }
            if !resp.contains("\"event\": \"progress\"") {
                let took = watch.elapsed_ns();
                return Ok((resp.trim_end().to_owned(), took));
            }
        }
    }

    fn json(&mut self, req: &str) -> Result<Json, String> {
        let (line, _) = self.request(&proto::plain_request_line(req))?;
        Json::parse(&line)
    }
}

/// `"unbounded"` or `"lower-bound 3"` from a verdict object.
fn verdict_str(v: Option<&Json>) -> String {
    let kind = v.and_then(|d| d.get("kind")).and_then(Json::as_str).unwrap_or("none");
    match v.and_then(|d| d.get("rounds")).and_then(Json::as_u64) {
        Some(r) => format!("{kind} {r}"),
        None => kind.to_owned(),
    }
}

/// The seeded store and the requests a run draws from.
struct Setup {
    env: Env,
    store: PathBuf,
    /// Per warm problem: request lines (verbatim first, then renamings).
    hits: Vec<Vec<String>>,
    /// Per warm problem: its expected verdict.
    verdicts: Vec<&'static str>,
    /// Renamed problem files for the `client solve` stream.
    cli_files: Vec<(usize, PathBuf)>,
    warm: Vec<Problem>,
}

/// Seeds a store (untimed): the warm set, solved through a daemon.
fn prepare(tag: &str, seed: u64) -> Result<Setup, String> {
    let env = Env::new(tag)?;
    let store = env.path("seed-store");
    let warm = warm_set()?;
    let (daemon, _) = Daemon::start(&env, &store, 2, None)?;
    let mut session = Session::connect(&daemon.addr)?;
    for (spec, p, want) in &warm {
        let (line, _) =
            session.request(&proto::solve_line(&p.to_text(), Direction::Lower, &seed_budget()))?;
        let got = verdict_str(Json::parse(&line)?.get("verdict"));
        if got != *want {
            return Err(format!("seeding {spec}: verdict {got}, expected {want}"));
        }
    }
    drop(session);
    daemon.stop()?;
    let mut rng = Rng::new(seed);
    let mut hits = Vec::new();
    let mut cli_files = Vec::new();
    for (ix, (spec, p, _)) in warm.iter().enumerate() {
        let mut lines = vec![proto::solve_line(&p.to_text(), Direction::Lower, &Budget::default())];
        for r in 0..RENAMINGS {
            let text = renamed(p, &format!("{spec}-{seed}-{r}"), &mut rng);
            lines.push(proto::solve_line(&text, Direction::Lower, &Budget::default()));
            if r < 2 {
                let path = env.path(&format!("cli-{ix}-{r}.problem"));
                proc::write(&path, &text)?;
                cli_files.push((ix, path));
            }
        }
        hits.push(lines);
    }
    Ok(Setup {
        env,
        store,
        hits,
        verdicts: warm.iter().map(|w| w.2).collect(),
        cli_files,
        warm: warm.into_iter().map(|w| w.1).collect(),
    })
}

/// When a mix stops.
#[derive(Clone, Copy)]
enum Limit {
    Seconds(f64),
    /// Session requests, then `client solve` processes.
    Requests(usize, usize),
}

/// What one mix measured.
#[derive(Default)]
struct Mix {
    setup_s: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    cli_ms: Vec<f64>,
    elapsed_ns: u64,
    daemon: Usage,
    cli_cpu_ns: u64,
    cli_rss_kb: u64,
    /// Daemon histogram p50s from `metrics`, ns.
    p50_ns: BTreeMap<String, u64>,
    classes: u64,
    out: Outcome,
}

impl Mix {
    fn requests(&self) -> usize {
        self.hit_ms.len() + self.miss_ms.len() + self.cli_ms.len()
    }
}

/// The session stream: hits and misses on one connection.
fn session_stream(
    s: &Setup,
    addr: &str,
    seed: u64,
    limit: Limit,
    mix: &mut Mix,
) -> Result<(), String> {
    let mut session = Session::connect(addr)?;
    let mut rng = Rng::new(seed ^ 0x5e55);
    let mut fresh = FreshProblems::new(seed, &s.warm);
    let mut reference: Vec<Option<String>> = vec![None; s.hits.len()];
    let mut misses: Vec<(String, String)> = Vec::new();
    let watch = Stopwatch::start();
    let mut sent = 0usize;
    loop {
        match limit {
            Limit::Seconds(secs) if watch.elapsed_ns() as f64 >= secs * 1e9 => break,
            Limit::Requests(n, _) if sent >= n => break,
            _ => {}
        }
        sent += 1;
        if rng.chance(MISS_RATE) {
            let text = fresh.next_text();
            let (line, ns) =
                session.request(&proto::solve_line(&text, Direction::Lower, &miss_budget()))?;
            mix.miss_ms.push(ms(ns));
            misses.push((text, line));
            continue;
        }
        let w = rng.below(s.hits.len());
        let req = &s.hits[w][rng.below(s.hits[w].len())];
        let (line, ns) = session.request(req)?;
        mix.hit_ms.push(ms(ns));
        match &reference[w] {
            None => {
                mix.out.check(check_hit(s, w, &line));
                reference[w] = Some(line);
            }
            Some(r) => mix
                .out
                .check((*r != line).then(|| format!("hit on warm problem {w} changed bytes"))),
        }
    }
    for (text, line) in &misses {
        mix.out.check(check_miss(text, line).err());
    }
    Ok(())
}

/// A warm hit: cached, the expected verdict, and a certificate that an
/// independent `cert verify` replays green.
fn check_hit(s: &Setup, w: usize, line: &str) -> Option<String> {
    let check = || -> Result<(), String> {
        let v = Json::parse(line)?;
        if v.get("cached").and_then(Json::as_bool) != Some(true) {
            return Err("not served from the store".into());
        }
        let got = verdict_str(v.get("verdict"));
        if got != s.verdicts[w] {
            return Err(format!("verdict {got}, expected {}", s.verdicts[w]));
        }
        let cert = v.get("certificate").ok_or("no certificate")?;
        let path = s.env.path(&format!("served-{w}.cert.json"));
        proc::write(&path, &cert.to_string_pretty())?;
        let out = proc::run(s.env.cmd().args(["cert", "verify"]).arg(&path))
            .map_err(|e| e.to_string())?;
        if !out.ok() {
            return Err(format!("served certificate does not replay: {}", out.stdout.trim()));
        }
        Ok(())
    };
    check().err().map(|e| format!("hit on warm problem {w}: {e}"))
}

/// A cold miss: searched (not cached), the verdict the same search gives
/// in-process, and a certificate that replays green.
fn check_miss(text: &str, line: &str) -> Result<(), String> {
    let v = Json::parse(line)?;
    if v.get("cached").and_then(Json::as_bool) != Some(false) {
        return Err(format!("miss served as {line}"));
    }
    let p = Problem::parse(text).map_err(|e| e.to_string())?;
    let mut opts = SearchOptions::default();
    miss_budget().apply(&mut opts);
    opts.threads = 1;
    let want = autolb(&p, &opts).map_err(|e| e.to_string())?;
    let want = proto::verdict_json(&want.verdict).to_string_compact();
    let got = v.get("verdict").map(Json::to_string_compact).unwrap_or_default();
    if got != want {
        return Err(format!("miss verdict {got}, in-process search says {want}"));
    }
    if let Some(cert) = v.get("certificate").filter(|c| !matches!(c, Json::Null)) {
        let cert = Certificate::from_json(&cert.to_string_compact()).map_err(|e| e.to_string())?;
        cert.verify().map_err(|e| format!("miss certificate does not replay: {e}"))?;
    }
    Ok(())
}

/// The cli stream: `roundelim client solve` processes on warm hits.
fn cli_stream(s: &Setup, addr: &str, seed: u64, limit: Limit, mix: &mut Mix) {
    let mut rng = Rng::new(seed ^ 0xc11);
    let watch = Stopwatch::start();
    let mut sent = 0usize;
    loop {
        match limit {
            Limit::Seconds(secs) if watch.elapsed_ns() as f64 >= secs * 1e9 => break,
            Limit::Requests(_, n) if sent >= n => break,
            _ => {}
        }
        sent += 1;
        let (w, file) = &s.cli_files[rng.below(s.cli_files.len())];
        let run = proc::run(s.env.cmd().args(["client", "solve"]).arg(file).args(["--addr", addr]));
        let problem = match run {
            Err(e) => Some(format!("client solve: {e}")),
            Ok(run) => {
                mix.cli_ms.push(ms(run.usage.wall_ns));
                mix.cli_cpu_ns += run.usage.cpu_ns;
                mix.cli_rss_kb = mix.cli_rss_kb.max(run.usage.max_rss_kb);
                let kind = s.verdicts[*w].split(' ').next().unwrap_or("");
                let ok = run.ok()
                    && run.stdout.starts_with(&format!("verdict: {kind}"))
                    && run.stdout.contains("[cache hit")
                    && run.stdout.contains("re-verified locally");
                (!ok).then(|| {
                    format!("client solve {}: {:?} {}", file.display(), run.code, run.stdout.trim())
                })
            }
        };
        mix.out.check(problem);
    }
}

/// Runs both streams against a daemon on a pristine copy of the store.
fn run_mix(s: &Setup, seed: u64, limit: Limit, trace: Option<&Path>) -> Result<Mix, String> {
    let mut mix = Mix::default();
    let run_store = s.env.path("run-store");
    let mut daemon = None;
    for i in 0..SETUPS {
        proc::copy_dir(&s.store, &run_store)?;
        let (d, took) = Daemon::start(&s.env, &run_store, 1, trace.filter(|_| i + 1 == SETUPS))?;
        mix.setup_s.push(took as f64 / 1e9);
        if i + 1 < SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no daemon")?;
    let addr = daemon.addr.clone();
    let watch = Stopwatch::start();
    // The cli thread fills only the `cli_*` fields and its checks.
    let mut cli = Mix::default();
    let session = std::thread::scope(|scope| {
        let h = scope.spawn(|| cli_stream(s, &addr, seed, limit, &mut cli));
        let r = session_stream(s, &addr, seed, limit, &mut mix);
        let joined = h.join().map_err(|_| "cli stream panicked".to_owned());
        r.and(joined)
    });
    mix.elapsed_ns = watch.elapsed_ns();
    mix.cli_ms = cli.cli_ms;
    mix.cli_cpu_ns = cli.cli_cpu_ns;
    mix.cli_rss_kb = cli.cli_rss_kb;
    mix.out.absorb(cli.out);
    session?;

    let mut admin = Session::connect(&addr)?;
    let stats = admin.json("stats")?;
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let hits = (mix.hit_ms.len() + mix.cli_ms.len()) as u64;
    let misses = mix.miss_ms.len() as u64;
    if n("cache_hits") != hits || n("cache_misses") != misses || n("errors") != 0 {
        mix.out.fail(format!(
            "daemon counted {} hits, {} misses, {} errors; the streams sent {hits} hits, {misses} misses",
            n("cache_hits"),
            n("cache_misses"),
            n("errors")
        ));
    }
    let metrics = admin.json("metrics")?;
    if let Some(Json::Obj(hs)) = metrics.get("histograms") {
        for (name, h) in hs {
            mix.p50_ns.insert(name.clone(), h.get("p50").and_then(Json::as_u64).unwrap_or(0));
        }
    }
    mix.classes = admin.json("status")?.get("classes").and_then(Json::as_u64).unwrap_or(0);
    drop(admin);
    mix.daemon = daemon.stop()?;
    mix.out.work("daemon_mix.hits", hits);
    mix.out.work("daemon_mix.misses", misses);
    mix.out.work("daemon_mix.errors", n("errors"));
    Ok(mix)
}

/// The untraced workload: both streams for `seconds`.
pub fn workload(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let s = prepare("daemon_mix", seed)?;
    let mix = run_mix(&s, seed, Limit::Seconds(seconds), None)?;
    let mut out = Outcome::default();
    out.metric("setup_s", median(&mix.setup_s), "s");
    out.metric("latency_p50_ms", median(&mix.hit_ms), "ms");
    let cpu = mix.daemon.cpu_ns + mix.cli_cpu_ns;
    out.metric("cpu_ms_per_op", ms(cpu) / mix.requests().max(1) as f64, "ms");
    out.metric("peak_rss_mb", mix.daemon.max_rss_kb as f64 / 1024.0, "MB");
    let (tail_name, tail_ms) = tail(&mix.hit_ms);
    out.notes.push(format!(
        "{:.2} requests/s; session: {} hits (p50 {:.3} ms, {tail_name} {tail_ms:.3} ms), \
         {} misses (p50 {:.3} ms); cli: {} hits (p50 {:.3} ms)",
        mix.requests() as f64 / (mix.elapsed_ns as f64 / 1e9),
        mix.hit_ms.len(),
        median(&mix.hit_ms),
        mix.miss_ms.len(),
        median(&mix.miss_ms),
        mix.cli_ms.len(),
        median(&mix.cli_ms)
    ));
    out.notes.push(format!(
        "daemon CPU {:.3} ms per request; client solve processes: {:.3} ms CPU each, \
         peak RSS {:.1} MB",
        ms(mix.daemon.cpu_ns) / mix.requests().max(1) as f64,
        ms(mix.cli_cpu_ns) / mix.cli_ms.len().max(1) as f64,
        mix.cli_rss_kb as f64 / 1024.0
    ));
    out.absorb(mix.out);
    Ok(out)
}

/// Median time of `f` over `reps` calls, in ns.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let watch = Stopwatch::start();
        std::hint::black_box(f());
        v.push(watch.elapsed_ns() as f64);
    }
    median(&v)
}

/// The traced layer suite: in-process store and encoder timings, then the
/// same fixed mix against an untraced and a traced daemon.
pub fn layers(seed: u64) -> Result<Outcome, String> {
    let s = prepare("daemon_mix-trace", seed)?;
    let mut out = Outcome::default();

    let copy = s.env.path("probe-store");
    let mut opens = Vec::new();
    for _ in 0..SETUPS {
        proc::copy_dir(&s.store, &copy)?;
        let watch = Stopwatch::start();
        ProofStore::open(&copy).map_err(|e| e.to_string())?;
        opens.push(ms(watch.elapsed_ns()));
    }
    out.metric("daemon.store.open_ms", median(&opens), "ms");

    let mut store = ProofStore::open(&copy).map_err(|e| e.to_string())?;
    let c33 = c33()?;
    let mut rng = Rng::new(seed);
    let queries: Vec<Problem> = (0..8)
        .map(|i| {
            Problem::parse(&renamed(&c33, &format!("q{i}"), &mut rng)).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut i = 0;
    let mut found = true;
    let lookup_ns = time_median(400, || {
        i += 1;
        let hit = store.lookup(&queries[i % queries.len()], Direction::Lower).is_some();
        found &= hit;
    });
    out.check((!found).then(|| "in-process lookup of renamed coloring:3:3 missed".to_owned()));
    out.metric("daemon.store.lookup_us", lookup_ns / 1e3, "us");
    let rec =
        store.lookup(&c33, Direction::Lower).cloned().ok_or("coloring:3:3 is not in the store")?;
    let text = rec.problem.to_text();
    let encode_ns = time_median(50, || {
        proto::result_line(
            true,
            &text,
            proto::cert_verdict_json(&rec.certificate.verdict),
            "cached",
            rec.certificate.incomplete,
            Some(&rec.certificate),
        )
    });
    out.metric("daemon.proto.encode_us", encode_ns / 1e3, "us");

    let mut fresh = FreshProblems::new(seed ^ 0x1a5, &s.warm);
    let mut opts = SearchOptions::default();
    miss_budget().apply(&mut opts);
    opts.threads = 1;
    let before = std::fs::metadata(copy.join("proofs.bin")).map(|m| m.len()).unwrap_or(0);
    let mut inserts = Vec::new();
    while inserts.len() < 30 {
        let p = Problem::parse(&fresh.next_text()).map_err(|e| e.to_string())?;
        let Some(cert) = autolb(&p, &opts).map_err(|e| e.to_string())?.certificate else {
            continue;
        };
        let watch = Stopwatch::start();
        let added = store.insert(p, cert).map_err(|e| e.to_string())?;
        inserts.push(ms(watch.elapsed_ns()));
        out.check((!added).then(|| "a fresh problem was already stored".to_owned()));
    }
    let after = std::fs::metadata(copy.join("proofs.bin")).map(|m| m.len()).unwrap_or(0);
    out.metric("daemon.store.insert_ms", median(&inserts), "ms");
    out.metric("daemon.store.bytes_per_insert", after.saturating_sub(before) as f64 / 30.0, "B");

    let limit = Limit::Requests(200, 20);
    let plain = run_mix(&s, seed, limit, None)?;
    let trace_path = s.env.path("daemon.trace.jsonl");
    let traced = run_mix(&s, seed, limit, Some(&trace_path))?;
    // About 190 hits: p90 is the highest percentile with ten beyond it.
    let hit_p50 = median(&plain.hit_ms);
    out.metric("daemon.hit_p50_ms", hit_p50, "ms");
    out.metric("daemon.hit_p90_ms", quantile(&plain.hit_ms, 0.9), "ms");
    out.metric("daemon.miss_p50_ms", median(&plain.miss_ms), "ms");
    out.metric("daemon.cli_hit_p50_ms", median(&plain.cli_ms), "ms");
    out.metric(
        "daemon.requests_per_s",
        plain.requests() as f64 / (plain.elapsed_ns as f64 / 1e9),
        "1/s",
    );
    let p50 = |name: &str| plain.p50_ns.get(name).copied().unwrap_or(0) as f64;
    out.metric("daemon.queue_wait_us", p50("daemon.queue_wait_ns") / 1e3, "us");
    out.metric("daemon.encode_us", p50("daemon.encode_ns") / 1e3, "us");
    out.metric("daemon.solve_ms", p50("daemon.solve_ns") / 1e6, "ms");
    let gap = hit_p50 - (p50("daemon.queue_wait_ns") + p50("daemon.encode_ns")) / 1e6;
    out.metric("daemon.socket_gap_ms", gap, "ms");
    out.metric("daemon.store.classes", plain.classes as f64, "count");

    let folded = crate::search::self_times(&trace_path)?;
    let session_ms: f64 = traced.hit_ms.iter().chain(&traced.miss_ms).sum();
    let mut attributed = 0.0;
    for (span, metric) in [
        ("daemon.request", "daemon.request_self_ms"),
        ("daemon.solve", "daemon.solve_self_ms"),
        ("daemon.encode", "daemon.encode_self_ms"),
    ] {
        let v = ms(folded.get(span).copied().unwrap_or(0));
        attributed += v;
        out.metric(metric, v, "ms");
    }
    let search: u64 =
        folded.iter().filter(|(k, _)| !k.starts_with("daemon.")).map(|(_, v)| v).sum();
    attributed += ms(search);
    out.metric("daemon.search_spans_self_ms", ms(search), "ms");
    out.metric("daemon.unattributed_ms", session_ms - attributed, "ms");
    let plain_ms: f64 = plain.hit_ms.iter().chain(&plain.miss_ms).sum();
    out.metric("daemon.traced_session_ms", session_ms, "ms");
    out.metric("daemon.trace_overhead_ms", session_ms - plain_ms, "ms");
    out.notes.push(format!("daemon: {} kept-alive hits in the untraced mix", plain.hit_ms.len()));
    out.absorb(plain.out);
    let mut traced = traced.out;
    traced.work.clear();
    out.absorb(traced);
    Ok(out)
}
