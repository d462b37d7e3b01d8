//! End-to-end tests of `roundelimd`, the persistent proof-cache service:
//! a problem solved once is served from the store on every later request
//! — including after a kill-and-restart, and for isomorphic renamings —
//! with a byte-identical certificate and no re-search, and the store
//! bytes are independent of the search worker-thread count.
//!
//! NOTE on wire assertions: the daemon renders every response through
//! `auto::json`, which sorts object keys and puts a space after each
//! colon (`"cached": true`), so the patterns below use that spelling.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_roundelim"))
}

/// A fresh per-test scratch directory (unique per process so parallel
/// suite runs cannot tamper with each other's fixtures).
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roundelim-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sinkless orientation (Δ = 3) and an isomorphic renaming of it
/// (O ↦ X, I ↦ Y, with the configurations re-ordered): the classic
/// "same problem, different spelling" pair for cache-hit tests.
const SO: &str = "name: so\nnode: O O O | O O I | O I I\nedge: O I";
const SO_RENAMED: &str = "name: so2\nnode: Y X X | X X X | Y Y X\nedge: X Y";

/// A daemon process plus the address it bound and its stdout reader
/// (kept open so the daemon's final println cannot hit a closed pipe).
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

/// A test failure must not leak the daemon: a leaked child holds the
/// harness's captured output pipe open and hangs the whole `cargo test`.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns `roundelim serve --addr 127.0.0.1:0 --store <dir>` plus
    /// `extra_args` and parses the bound address from the banner line.
    fn spawn(store: &Path, extra_args: &[&str]) -> Daemon {
        let mut child = cli()
            .args(["serve", "--addr", "127.0.0.1:0", "--store", store.to_str().unwrap()])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner
            .trim()
            .strip_prefix("roundelimd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_owned();
        Daemon { child, addr, stdout }
    }

    /// Sends one request line and reads response lines until the terminal
    /// event for that request (anything but a progress event).
    fn request(&self, line: &str) -> Vec<String> {
        let mut stream = TcpStream::connect(&self.addr).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut lines = Vec::new();
        for l in BufReader::new(stream).lines() {
            let l = l.unwrap();
            let done = !l.contains("\"event\": \"progress\"");
            lines.push(l);
            if done {
                break;
            }
        }
        assert!(!lines.is_empty(), "daemon closed the connection without replying");
        lines
    }

    /// The terminal response line for a request.
    fn response(&self, line: &str) -> String {
        self.request(line).pop().unwrap()
    }

    /// Requests shutdown and waits for a clean exit (code 0).
    fn shutdown(&mut self) -> String {
        let ack = self.response("{\"req\":\"shutdown\"}");
        assert!(ack.contains("\"event\": \"shutdown\""), "{ack}");
        let status = wait_with_deadline(&mut self.child, Duration::from_secs(60));
        assert_eq!(status.code(), Some(0), "requested shutdown must exit 0");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        rest
    }
}

/// Waits for the child with a deadline, SIGKILLing it on timeout so a
/// regression can never hang the suite.
fn wait_with_deadline(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() >= deadline {
            child.kill().unwrap();
            let status = child.wait().unwrap();
            panic!("daemon did not exit within {timeout:?} (killed, status {status})");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn solve_line(problem: &str) -> String {
    solve_line_with(problem, "")
}

/// A lower-bound `solve` line; `budget` is empty or a `,"budget":{…}` field.
fn solve_line_with(problem: &str, budget: &str) -> String {
    let p = json_escape(problem);
    format!("{{\"req\":\"solve\",\"problem\":\"{p}\",\"direction\":\"lower\"{budget}}}")
}

/// The `"certificate": …` field of a result line — the part that must be
/// byte-identical between a fresh solve and every later cache hit. Keys
/// are rendered sorted, so the field ends where `"event"` begins.
fn cert_part(result: &str) -> &str {
    let start = result.find("\"certificate\":").expect("result carries a certificate");
    let end = result.find(",\"event\"").expect("result carries an event field");
    assert!(start < end, "unexpected result layout: {result}");
    &result[start..end]
}

/// One daemon lifetime: a cold solve populates the store, an identical
/// request is a cache hit with a byte-identical certificate, and `stats`
/// sees exactly one miss and one hit.
#[test]
fn second_solve_is_a_byte_identical_cache_hit() {
    let store = tmp_dir("warm");
    let mut d = Daemon::spawn(&store, &[]);

    let cold = d.response(&solve_line(SO));
    assert!(cold.contains("\"ok\": true"), "{cold}");
    assert!(cold.contains("\"cached\": false"), "first solve must miss: {cold}");
    assert!(cold.contains("\"kind\": \"unbounded\""), "{cold}");

    let warm = d.response(&solve_line(SO));
    assert!(warm.contains("\"cached\": true"), "second solve must hit: {warm}");
    assert_eq!(
        cert_part(&cold),
        cert_part(&warm),
        "the served certificate must be byte-identical to the solved one"
    );

    let stats = d.response("{\"req\":\"stats\"}");
    assert!(stats.contains("\"cache_hits\": 1"), "{stats}");
    assert!(stats.contains("\"cache_misses\": 1"), "{stats}");

    let status = d.response("{\"req\":\"status\"}");
    assert!(status.contains("\"protocol\": \"roundelimd-1\""), "{status}");
    assert!(status.contains("\"records\": 1"), "{status}");

    // Malformed requests report an error but keep the daemon alive.
    let err = d.response("{\"req\":\"frobnicate\"}");
    assert!(err.contains("\"ok\": false"), "{err}");
    let tail = d.shutdown();
    assert!(tail.contains("shutdown requested"), "{tail}");
}

/// The acceptance lifecycle: solve, SIGTERM-kill the daemon (exit 3),
/// restart it on the same store, and both the original spelling and an
/// isomorphic renaming are served from the store without re-searching.
#[cfg(unix)]
#[test]
fn killed_and_restarted_daemon_serves_isomorphic_hits_from_the_store() {
    let store = tmp_dir("restart");
    let mut d = Daemon::spawn(&store, &[]);
    let cold = d.response(&solve_line(SO));
    assert!(cold.contains("\"cached\": false"), "{cold}");

    let term = Command::new("kill").args(["-TERM", &d.child.id().to_string()]).status().unwrap();
    assert!(term.success(), "kill -TERM failed");
    let status = wait_with_deadline(&mut d.child, Duration::from_secs(60));
    assert_eq!(status.code(), Some(3), "SIGTERM must map to the interrupted exit code");
    let mut tail = String::new();
    d.stdout.read_to_string(&mut tail).unwrap();
    assert!(tail.contains("stopped early (interrupted); store persisted"), "{tail}");
    assert!(store.join("proofs.bin").exists(), "the proof store must survive the SIGTERM");

    let mut d = Daemon::spawn(&store, &[]);
    let same = d.response(&solve_line(SO));
    assert!(same.contains("\"cached\": true"), "restart must serve the stored proof: {same}");
    assert_eq!(cert_part(&cold), cert_part(&same));

    let iso = d.response(&solve_line(SO_RENAMED));
    assert!(iso.contains("\"cached\": true"), "isomorphic renaming must hit the store: {iso}");
    assert_eq!(
        cert_part(&cold),
        cert_part(&iso),
        "an isomorphic query is served the stored representative's certificate"
    );
    let stats = d.response("{\"req\":\"stats\"}");
    assert!(stats.contains("\"cache_misses\": 0"), "restart must never re-search: {stats}");
    d.shutdown();
}

/// The `metrics` command: after a cold solve (search) and a warm solve
/// (cache hit), the registry counters reconcile with the per-request
/// spans — two requests, one solve-latency sample (only the miss
/// searched) — and the same totals appear in the Prometheus exposition.
#[test]
fn metrics_command_reconciles_counters_with_request_spans() {
    let store = tmp_dir("metrics");
    let mut d = Daemon::spawn(&store, &[]);

    let cold = d.response(&solve_line(SO));
    assert!(cold.contains("\"cached\": false"), "{cold}");
    let warm = d.response(&solve_line(SO));
    assert!(warm.contains("\"cached\": true"), "{warm}");

    let m = d.response("{\"req\":\"metrics\"}");
    assert!(m.contains("\"ok\": true") && m.contains("\"event\": \"metrics\""), "{m}");
    assert!(m.contains("\"daemon.requests\": 2"), "{m}");
    assert!(m.contains("\"daemon.cache_hits\": 1"), "{m}");
    assert!(m.contains("\"daemon.cache_misses\": 1"), "{m}");
    // Histogram keys render sorted (count first), so the sample counts
    // are stable substrings: exactly the one cache miss ran a search,
    // while both requests waited in the queue and encoded a result.
    assert!(m.contains("\"daemon.solve_ns\": {\"count\": 1"), "{m}");
    assert!(m.contains("\"daemon.queue_wait_ns\": {\"count\": 2"), "{m}");
    assert!(m.contains("\"daemon.encode_ns\": {\"count\": 2"), "{m}");
    // The Prometheus exposition reports the same totals, and quantile
    // summaries for the solve latency.
    assert!(m.contains("roundelim_daemon_requests 2"), "{m}");
    assert!(m.contains("roundelim_daemon_solve_ns_count 1"), "{m}");
    assert!(m.contains("quantile=\\\"0.99\\\""), "{m}");

    // `stats` reads the same atomics: the two surfaces cannot disagree.
    let stats = d.response("{\"req\":\"stats\"}");
    assert!(stats.contains("\"requests\": 2"), "{stats}");
    assert!(stats.contains("\"cache_hits\": 1"), "{stats}");
    d.shutdown();
}

/// A multiplicity past the parser's configuration cap is an `ok: false`
/// reply, not an allocation that aborts the daemon: the same connection
/// pattern keeps working afterwards.
#[test]
fn hostile_multiplicity_is_an_error_reply_and_the_daemon_survives() {
    let store = tmp_dir("hostile");
    let mut d = Daemon::spawn(&store, &[]);
    let r = d.response(&solve_line("node: A^18446744073709551615\nedge: A A"));
    assert!(r.contains("\"ok\": false"), "{r}");
    assert!(r.contains("arity exceeds"), "{r}");
    let status = d.response("{\"req\":\"status\"}");
    assert!(status.contains("\"protocol\": \"roundelimd-1\""), "{status}");
    d.shutdown();
}

/// With `--threads 1` every search of the daemon stays on its worker's
/// thread: after distinct misses on two workers at once, the executor has
/// started no thread at all, so at most two search threads were busy.
#[test]
fn one_search_thread_per_worker_starts_no_executor_threads() {
    let store = tmp_dir("one-thread");
    let mut d = Daemon::spawn(&store, &["--workers", "2", "--threads", "1"]);
    // coloring:3:3's speedup steps are large enough to run their closure
    // in parallel when they are given threads; the others are the zoo's
    // maximal matching and MIS.
    let c33 = "name: c33\nnode: 1^3 | 2^3 | 3^3\nedge: 1 2 | 1 3 | 2 3";
    let mm = "name: mm\nnode: M O^2 | P^3\nedge: M^2 | O^2 | O P";
    let mis = "name: mis\nnode: A^3 | P O^2\nedge: A P | A O | O^2";
    let budget = ",\"budget\":{\"max_steps\":4,\"beam_width\":6,\"max_labels\":10}";
    let solve = |p: &str| {
        let r = d.response(&solve_line_with(p, budget));
        assert!(r.contains("\"ok\": true") && r.contains("\"cached\": false"), "{r}");
    };
    std::thread::scope(|s| {
        s.spawn(|| [c33, SO].map(solve));
        s.spawn(|| [mm, mis].map(solve));
    });
    let m = d.response("{\"req\":\"metrics\"}");
    assert!(m.contains("\"daemon.cache_misses\": 4,"), "{m}");
    assert!(m.contains("\"exec.tasks\": "), "the searches ran executor calls: {m}");
    assert!(m.contains("\"exec.spawns\": 0,"), "{m}");
    d.shutdown();
}

/// A request line longer than the protocol's cap is refused before the
/// daemon buffers it: the client gets an `ok: false` reply and its
/// connection is closed, and the daemon keeps serving.
#[test]
fn oversized_request_line_is_refused_and_the_daemon_survives() {
    let store = tmp_dir("oversized");
    let mut d = Daemon::spawn(&store, &[]);
    let mut stream = TcpStream::connect(&d.addr).unwrap();
    stream.write_all(&vec![b'x'; roundelim::daemon::proto::MAX_LINE_BYTES + 1]).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "one reply, then the daemon closes: {reply:?}");
    assert!(lines[0].contains("\"ok\": false") && lines[0].contains("exceeds"), "{reply}");
    let out = cli().args(["client", "status", "--addr", &d.addr]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    d.shutdown();
}

/// The store file is byte-identical whether the daemon searched with 1
/// or 4 worker threads (search determinism reaches the persisted bytes),
/// and it is the only file a graceful shutdown leaves.
#[test]
fn store_bytes_are_independent_of_the_thread_count() {
    let mut stores = Vec::new();
    for threads in ["1", "4"] {
        let store = tmp_dir(&format!("threads-{threads}"));
        let mut d = Daemon::spawn(&store, &["--threads", threads]);
        let coloring = "name: c3\nnode: 1 0 0 | 0 1 0 | 0 0 1\nedge: 0 1 | 0 2 | 1 2";
        let budget = ",\"budget\":{\"max_steps\":4,\"beam_width\":4,\"max_labels\":8}";
        for (p, budget) in [(SO, ""), (coloring, budget)] {
            let r = d.response(&solve_line_with(p, budget));
            assert!(r.contains("\"ok\": true"), "{r}");
        }
        d.shutdown();
        stores.push(store);
    }
    assert_eq!(
        std::fs::read(stores[0].join("proofs.bin")).unwrap(),
        std::fs::read(stores[1].join("proofs.bin")).unwrap(),
        "proofs.bin must not depend on the search thread count"
    );
    for store in &stores {
        assert!(!store.join("cache.snap.bin").exists(), "shutdown must write only proofs.bin");
    }
}

/// The bundled client: a solve round-trip re-verifies the served
/// certificate locally, `--cert` exports it, and `cert verify` replays
/// the export green.
#[test]
fn client_reverifies_and_exports_certificates() {
    let store = tmp_dir("client");
    let dir = tmp_dir("client-files");
    let problem = dir.join("so.problem");
    std::fs::write(&problem, SO).unwrap();
    let cert = dir.join("so.cert.json");
    let mut d = Daemon::spawn(&store, &[]);

    for pass in ["cold", "warm"] {
        let out = cli()
            .args(["client", "solve", problem.to_str().unwrap()])
            .args(["--addr", &d.addr, "--cert", cert.to_str().unwrap()])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{pass}: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains("certificate re-verified locally"), "{pass}: {stdout}");
        if pass == "warm" {
            assert!(stdout.contains("cache hit"), "second client solve must hit: {stdout}");
        }
    }
    let out = cli().args(["cert", "verify", cert.to_str().unwrap()]).output().unwrap();
    assert!(
        out.status.success(),
        "exported certificate must replay green: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    d.shutdown();
}
