//! The `roundelimd` TCP server.
//!
//! One accept loop, one thread per connection, and a fixed pool of search
//! workers. Connections parse requests ([`crate::proto`]) and enqueue
//! `solve` jobs; workers consult the [`ProofStore`] first and only search
//! on a miss, streaming `progress` events back through the requesting
//! connection. Every in-flight search carries a
//! [`CancelToken`], so `shutdown` (a request, or the process signal probe
//! wired in by the CLI) stops the pool cooperatively: running searches
//! wind down at their next poll point, and [`Server::run`] returns. Every
//! insert is already durable in the store file, so shutdown writes
//! nothing.

use crate::proto::{self, Budget, DaemonStats, Request, SolveRequest};
use crate::store::ProofStore;
use roundelim_auto::certificate::Direction;
use roundelim_auto::search::{autolb, autoub, CancelToken, ProgressHook, SearchOptions};
use roundelim_core::error::{Error, Result};
use roundelim_core::problem::Problem;
use roundelim_obs as obs;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7412` (`:0` picks a free port).
    pub addr: String,
    /// Directory holding the proof store file, `proofs.bin`.
    pub store_dir: PathBuf,
    /// Search worker threads (`0` means 2). Each worker runs one search at
    /// a time; `threads` sets each search's own parallelism.
    pub workers: usize,
    /// Per-job search thread budget, resolved once when the server binds
    /// (`0` means all cores) and handed to every search through the same
    /// [`SearchOptions::threads`] path the CLI uses.
    pub threads: usize,
    /// External shutdown probe (e.g. a SIGTERM/SIGINT flag), polled by the
    /// accept loop. Firing takes the same graceful path as a `shutdown`
    /// request.
    pub signal: Option<fn() -> bool>,
}

impl ServeConfig {
    /// A config with the given address and store directory, default pool,
    /// no signal probe.
    pub fn new(addr: impl Into<String>, store_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            store_dir: store_dir.into(),
            workers: 0,
            threads: 0,
            signal: None,
        }
    }
}

/// Why [`Server::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// A client sent `shutdown`.
    Requested,
    /// The [`ServeConfig::signal`] probe fired.
    Signalled,
}

/// The daemon's service counters, rebuilt on atomics: each cell is a
/// `daemon.*` counter in the `roundelim-obs` registry, so the `stats`
/// response, the `metrics` response, and trace counter trailers all read
/// the same numbers — and a panicking worker can never poison the stats
/// path (the old `Mutex<DaemonStats>` aborted unrelated connections once
/// poisoned).
///
/// Registry counters are process-global; a server counts from whatever
/// the process has accumulated (zero in the one-daemon-per-process
/// deployment the CLI sets up).
struct StatsCells {
    requests: &'static obs::metrics::Counter,
    cache_hits: &'static obs::metrics::Counter,
    cache_misses: &'static obs::metrics::Counter,
    solved: &'static obs::metrics::Counter,
    inconclusive: &'static obs::metrics::Counter,
    errors: &'static obs::metrics::Counter,
}

impl StatsCells {
    fn new() -> StatsCells {
        StatsCells {
            requests: obs::metrics::counter("daemon.requests"),
            cache_hits: obs::metrics::counter("daemon.cache_hits"),
            cache_misses: obs::metrics::counter("daemon.cache_misses"),
            solved: obs::metrics::counter("daemon.solved"),
            inconclusive: obs::metrics::counter("daemon.inconclusive"),
            errors: obs::metrics::counter("daemon.errors"),
        }
    }

    /// A point-in-time copy as the wire snapshot type.
    fn snapshot(&self) -> DaemonStats {
        DaemonStats {
            requests: self.requests.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            solved: self.solved.get(),
            inconclusive: self.inconclusive.get(),
            errors: self.errors.get(),
        }
    }
}

/// State shared between the accept loop, connections, and workers.
struct Shared {
    store: Mutex<ProofStore>,
    stats: StatsCells,
    /// Cancellation tokens of in-flight searches, by job id.
    active: Mutex<HashMap<u64, CancelToken>>,
    next_job: AtomicU64,
    shutdown: AtomicBool,
    workers: usize,
    /// Per-job search thread budget (see [`ServeConfig::threads`]).
    search_threads: usize,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for token in self.active.lock().expect("active registry poisoned").values() {
            token.cancel();
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// What a worker streams back to the requesting connection.
enum Reply {
    /// A `progress` event line.
    Progress(String),
    /// The terminal line of the request (result or error).
    Done(String),
}

/// A queued `solve` job.
struct Job {
    problem: Problem,
    direction: Direction,
    budget: Budget,
    reply: Sender<Reply>,
    /// `obs::time::monotonic_ns` at enqueue; the worker that dequeues the
    /// job records the difference as `daemon.queue_wait_ns`.
    enqueued_ns: u64,
}

/// A bound, not-yet-running `roundelimd` instance.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    signal: Option<fn() -> bool>,
}

impl Server {
    /// Opens the proof store and binds the listen socket.
    ///
    /// # Errors
    ///
    /// Store open failures (corrupted store) and socket errors.
    pub fn bind(cfg: &ServeConfig) -> Result<Server> {
        let store = ProofStore::open(&cfg.store_dir)?;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| Error::Io { path: cfg.addr.clone(), reason: format!("bind: {e}") })?;
        listener.set_nonblocking(true).map_err(|e| Error::Io {
            path: cfg.addr.clone(),
            reason: format!("set_nonblocking: {e}"),
        })?;
        let shared = Arc::new(Shared {
            store: Mutex::new(store),
            stats: StatsCells::new(),
            active: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            workers: if cfg.workers == 0 { 2 } else { cfg.workers },
            search_threads: roundelim_core::par::resolve_threads(cfg.threads),
        });
        Ok(Server { listener, shared, signal: cfg.signal })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| Error::Io { path: "listener".into(), reason: format!("local_addr: {e}") })
    }

    /// Serves until shutdown, then waits for the workers to stop.
    ///
    /// # Errors
    ///
    /// Accept-loop socket failures. Per-request failures are reported to
    /// the requesting client, not here.
    pub fn run(self) -> Result<Exit> {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers: Vec<_> = (0..self.shared.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                let rx = Arc::clone(&job_rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        let mut exit = Exit::Requested;
        loop {
            if self.shared.shutting_down() {
                break;
            }
            if self.signal.is_some_and(|fired| fired()) {
                exit = Exit::Signalled;
                self.shared.begin_shutdown();
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    let tx = job_tx.clone();
                    std::thread::spawn(move || handle_connection(stream, &shared, &tx));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(e) => {
                    return Err(Error::Io { path: "accept".into(), reason: e.to_string() });
                }
            }
        }
        // Wake queued jobs' connections by draining the pool: workers exit
        // on the shutdown flag, dropped jobs surface as errors client-side.
        drop(job_tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(exit)
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let rx = rx.lock().expect("job queue poisoned");
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    if shared.shutting_down() {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        if shared.shutting_down() {
            let _ = job.reply.send(Reply::Done(proto::error_line("daemon is shutting down")));
            continue;
        }
        run_job(shared, &job);
    }
}

/// Serves one `solve` job: store hit, or a real search followed by a
/// durable insert. The request is wrapped in a `daemon.request` trace
/// span with `daemon.solve`/`daemon.encode` children, and its queue
/// wait, solve, and encode latencies land in the `daemon.*_ns`
/// histograms (always recorded — the `metrics` command must answer
/// without a trace sink installed).
fn run_job(shared: &Shared, job: &Job) {
    let _request_span = obs::trace::span("daemon.request");
    obs::metrics::histogram("daemon.queue_wait_ns")
        .record(obs::time::monotonic_ns().saturating_sub(job.enqueued_ns));
    shared.stats.requests.incr();
    // Cache first: an isomorphic class solved in this direction is served
    // with its stored representative and certificate, no search.
    let hit = {
        let store = shared.store.lock().expect("store poisoned");
        store
            .lookup(&job.problem, job.direction)
            .map(|rec| (rec.problem.to_text(), rec.certificate.clone()))
    };
    if let Some((problem_text, cert)) = hit {
        shared.stats.cache_hits.incr();
        let encode_span = obs::trace::span("daemon.encode");
        let encode_watch = obs::time::Stopwatch::start();
        let line = proto::result_line(
            true,
            &problem_text,
            proto::cert_verdict_json(&cert.verdict),
            "cached",
            cert.incomplete,
            Some(&cert),
        );
        obs::metrics::histogram("daemon.encode_ns").record(encode_watch.elapsed_ns());
        drop(encode_span);
        let _ = job.reply.send(Reply::Done(line));
        obs::trace::flush_thread();
        return;
    }
    shared.stats.cache_misses.incr();
    let mut opts = SearchOptions::default();
    job.budget.apply(&mut opts);
    opts.threads = shared.search_threads;
    let token = CancelToken::new();
    let job_id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    shared.active.lock().expect("active registry poisoned").insert(job_id, token.clone());
    opts.cancel = Some(token);
    let progress_tx = Mutex::new(job.reply.clone());
    opts.progress = Some(ProgressHook::new(move |p| {
        let tx = progress_tx.lock().expect("progress sender poisoned");
        let _ = tx.send(Reply::Progress(proto::progress_line(p)));
    }));
    let solve_span = obs::trace::span("daemon.solve");
    let solve_watch = obs::time::Stopwatch::start();
    let outcome = match job.direction {
        Direction::Lower => autolb(&job.problem, &opts),
        Direction::Upper => autoub(&job.problem, &opts),
    };
    obs::metrics::histogram("daemon.solve_ns").record(solve_watch.elapsed_ns());
    drop(solve_span);
    shared.active.lock().expect("active registry poisoned").remove(&job_id);
    let encode_span = obs::trace::span("daemon.encode");
    let encode_watch = obs::time::Stopwatch::start();
    let line = match outcome {
        Err(e) => {
            shared.stats.errors.incr();
            proto::error_line(&format!("search failed: {e}"))
        }
        Ok(out) => {
            if let Some(cert) = &out.certificate {
                let inserted = {
                    let mut store = shared.store.lock().expect("store poisoned");
                    store.insert(job.problem.clone(), cert.clone())
                };
                if let Err(e) = inserted {
                    shared.stats.errors.incr();
                    let _ = job.reply.send(Reply::Done(proto::error_line(&format!(
                        "proof store write failed: {e}"
                    ))));
                    obs::trace::flush_thread();
                    return;
                }
                shared.stats.solved.incr();
            } else {
                shared.stats.inconclusive.incr();
            }
            proto::result_line(
                false,
                &job.problem.to_text(),
                proto::verdict_json(&out.verdict),
                out.stop.as_str(),
                out.incomplete(),
                out.certificate.as_ref(),
            )
        }
    };
    obs::metrics::histogram("daemon.encode_ns").record(encode_watch.elapsed_ns());
    drop(encode_span);
    let _ = job.reply.send(Reply::Done(line));
    // Worker threads are long-lived: push this request's trace events to
    // the sink now instead of waiting for thread exit.
    obs::trace::flush_thread();
}

/// Writes one response line; returns whether the connection is still good.
fn send_line(stream: &mut TcpStream, line: &str) -> bool {
    stream.write_all(line.as_bytes()).is_ok()
        && stream.write_all(b"\n").is_ok()
        && stream.flush().is_ok()
}

fn handle_connection(stream: TcpStream, shared: &Shared, job_tx: &Sender<Job>) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut w = stream;
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        // Read at most one byte past the cap, so a line without a newline
        // in sight is refused before the daemon buffers more of it.
        buf.clear();
        let cap = proto::MAX_LINE_BYTES as u64 + 1;
        if !matches!((&mut reader).take(cap).read_until(b'\n', &mut buf), Ok(n) if n > 0) {
            break;
        }
        if buf.len() > proto::MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            shared.stats.errors.incr();
            let msg = format!("request line exceeds {} bytes", proto::MAX_LINE_BYTES);
            let _ = send_line(&mut w, &proto::error_line(&msg));
            break;
        }
        // The JSON parser skips the line's trailing `\n` (or `\r\n`).
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        if line.trim().is_empty() {
            continue;
        }
        let request = match proto::parse_request(line) {
            Ok(r) => r,
            Err(msg) => {
                shared.stats.errors.incr();
                if send_line(&mut w, &proto::error_line(&msg)) {
                    continue;
                }
                break;
            }
        };
        let alive = match request {
            Request::Status => {
                let (records, classes) = {
                    let store = shared.store.lock().expect("store poisoned");
                    (store.len(), store.classes())
                };
                let active = shared.active.lock().expect("active registry poisoned").len();
                send_line(&mut w, &proto::status_line(records, classes, active, shared.workers))
            }
            Request::Stats => send_line(&mut w, &proto::stats_line(&shared.stats.snapshot())),
            Request::Metrics => send_line(&mut w, &proto::metrics_line(&obs::metrics::snapshot())),
            Request::Shutdown => {
                let _ = send_line(&mut w, &proto::shutdown_line());
                shared.begin_shutdown();
                false
            }
            Request::Solve(req) => handle_solve(&mut w, shared, job_tx, req),
        };
        if !alive {
            break;
        }
    }
}

/// Enqueues a `solve` and streams its replies back to the client.
fn handle_solve(
    w: &mut TcpStream,
    shared: &Shared,
    job_tx: &Sender<Job>,
    req: SolveRequest,
) -> bool {
    let problem = match Problem::parse(&req.problem) {
        Ok(p) => p,
        Err(e) => {
            shared.stats.errors.incr();
            return send_line(w, &proto::error_line(&format!("bad problem: {e}")));
        }
    };
    if shared.shutting_down() {
        return send_line(w, &proto::error_line("daemon is shutting down"));
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        problem,
        direction: req.direction,
        budget: req.budget,
        reply: tx,
        enqueued_ns: obs::time::monotonic_ns(),
    };
    if job_tx.send(job).is_err() {
        return send_line(w, &proto::error_line("daemon is shutting down"));
    }
    loop {
        match rx.recv() {
            Ok(Reply::Progress(line)) => {
                if !send_line(w, &line) {
                    return false;
                }
            }
            Ok(Reply::Done(line)) => return send_line(w, &line),
            // The worker pool died under us (shutdown drained the queue).
            Err(_) => return send_line(w, &proto::error_line("daemon is shutting down")),
        }
    }
}
