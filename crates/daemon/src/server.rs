//! The `roundelimd` TCP server.
//!
//! One accept loop and one thread per connection. A connection thread
//! parses its client's requests ([`crate::proto`]) and serves each one
//! itself: a `solve` consults the [`ProofStore`] first and only searches
//! on a miss, writing the search's `progress` events straight to the
//! client. At most [`ServeConfig::workers`] solves run at once: each holds
//! a solve slot while it runs, and a solve that finds every slot taken
//! waits for one. All searches share one [`CancelToken`], so `shutdown`
//! (a request, or the process signal probe wired in by the CLI) stops
//! them cooperatively: running searches wind down at their next poll
//! point, solves still waiting for a slot are refused, and
//! [`Server::run`] returns once every slot is free. Every insert is
//! already durable in the store file, so shutdown writes nothing.

use crate::proto::{self, Request, SolveRequest};
use crate::store::ProofStore;
use roundelim_auto::certificate::Direction;
use roundelim_auto::search::{autolb, autoub, CancelToken, ProgressHook, SearchOptions};
use roundelim_core::error::{Error, Result};
use roundelim_core::problem::Problem;
use roundelim_obs as obs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long one write to a client may block. A client that stops reading
/// while its solve streams output cannot stall the search (and with it
/// shutdown) for longer: its connection stops receiving and is closed
/// once the solve ends.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7412` (`:0` picks a free port).
    pub addr: String,
    /// Directory holding the proof store file, `proofs.bin`.
    pub store_dir: PathBuf,
    /// Solve slots (`0` means 2): at most this many `solve` requests, store
    /// hits included, are served at once, each on its connection's thread;
    /// the others wait for a slot. `threads` sets each search's own
    /// parallelism.
    pub workers: usize,
    /// Per-solve search thread budget, resolved once when the server binds
    /// (`0` means all cores) and handed to every search through the same
    /// [`SearchOptions::threads`] path the CLI uses.
    pub threads: usize,
    /// External shutdown probe (e.g. a SIGTERM/SIGINT flag), polled by the
    /// accept loop. Firing takes the same graceful path as a `shutdown`
    /// request.
    pub signal: Option<fn() -> bool>,
}

impl ServeConfig {
    /// A config with the given address and store directory, default slot
    /// and thread counts, no signal probe.
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

/// Cached handles of the daemon's service counters: each is a `daemon.*`
/// counter in the `roundelim-obs` registry, so the `stats` response, the
/// `metrics` response, and trace counter trailers all read the same
/// numbers, and a panicking solve can never poison the stats path.
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
}

/// State shared between the accept loop and the connections.
struct Shared {
    store: Mutex<ProofStore>,
    stats: StatsCells,
    /// Solve slots taken, at most `workers` (see [`Shared::take_slot`]).
    busy: Mutex<usize>,
    /// Signalled when a slot frees and when shutdown begins.
    slot_freed: Condvar,
    /// Handed to every search; cancelled when shutdown begins.
    cancel: CancelToken,
    shutdown: AtomicBool,
    workers: usize,
    /// Per-solve search thread budget (see [`ServeConfig::threads`]).
    search_threads: usize,
}

impl Shared {
    fn begin_shutdown(&self) {
        // Set under the slot lock, so a solve waiting for a slot either
        // reads the flag before it sleeps or is woken below.
        let _busy = self.slots();
        self.shutdown.store(true, Ordering::SeqCst);
        self.cancel.cancel();
        self.slot_freed.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn slots(&self) -> MutexGuard<'_, usize> {
        self.busy.lock().expect("solve slots poisoned")
    }

    /// Waits for a free solve slot and takes it. Once shutdown has begun
    /// the wait ends at once with a refused slot, taken past the cap so
    /// that [`Server::run`] also waits for the refusal to be written.
    fn take_slot(&self) -> Slot<'_> {
        let busy = self.slots();
        let mut busy = self
            .slot_freed
            .wait_while(busy, |busy| *busy >= self.workers && !self.shutting_down())
            .expect("solve slots poisoned");
        *busy += 1;
        Slot { shared: self, refused: self.shutting_down() }
    }
}

/// A taken solve slot. Dropping it frees the slot (also when the solve
/// panics) and wakes the solves waiting for one, and the drain in
/// [`Server::run`].
struct Slot<'a> {
    shared: &'a Shared,
    /// Shutdown had begun: the solve is refused, not run.
    refused: bool,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        *self.shared.slots() -= 1;
        self.shared.slot_freed.notify_all();
    }
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
            busy: Mutex::new(0),
            slot_freed: Condvar::new(),
            cancel: CancelToken::new(),
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

    /// Serves until shutdown, then waits until no solve holds a slot.
    ///
    /// # Errors
    ///
    /// Accept-loop socket failures. Per-request failures are reported to
    /// the requesting client, not here.
    pub fn run(self) -> Result<Exit> {
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
                    std::thread::spawn(move || handle_connection(stream, &shared));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(e) => {
                    return Err(Error::Io { path: "accept".into(), reason: e.to_string() });
                }
            }
        }
        // Searches are cancelled and waiting solves refused: wait for each
        // to write its terminal line.
        let busy = self.shared.slots();
        drop(self.shared.slot_freed.wait_while(busy, |busy| *busy > 0));
        Ok(exit)
    }
}

/// Serves one `solve` while holding a solve slot: a store hit, or a real
/// search followed by a durable insert. Returns the terminal line; the
/// search's progress lines go straight to `w`. The caller wraps this in
/// the `daemon.request` trace span; `daemon.solve`/`daemon.encode`
/// children wrap the search and the encoding, and their latencies land
/// in the `daemon.*_ns` histograms (always recorded — the `metrics`
/// command must answer without a trace sink installed).
fn solve(shared: &Shared, w: &TcpStream, problem: &Problem, req: &SolveRequest) -> String {
    shared.stats.requests.incr();
    // Cache first: an isomorphic class solved in this direction is served
    // with its stored representative and certificate, no search.
    let hit = {
        let store = shared.store.lock().expect("store poisoned");
        store
            .lookup(problem, req.direction)
            .map(|rec| (rec.problem.to_text(), rec.certificate.clone()))
    };
    if let Some((problem_text, cert)) = hit {
        shared.stats.cache_hits.incr();
        let _encode_span = obs::trace::span("daemon.encode");
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
        return line;
    }
    shared.stats.cache_misses.incr();
    let mut opts = SearchOptions::default();
    req.budget.apply(&mut opts);
    opts.threads = shared.search_threads;
    opts.cancel = Some(shared.cancel.clone());
    opts.progress = w.try_clone().ok().map(|progress| {
        ProgressHook::new(move |p| {
            // A write that failed (or timed out) shuts the connection for
            // writing, so no later write to it blocks again.
            if !send_line(&progress, &proto::progress_line(p)) {
                let _ = progress.shutdown(Shutdown::Write);
            }
        })
    });
    let solve_span = obs::trace::span("daemon.solve");
    let solve_watch = obs::time::Stopwatch::start();
    let outcome = match req.direction {
        Direction::Lower => autolb(problem, &opts),
        Direction::Upper => autoub(problem, &opts),
    };
    obs::metrics::histogram("daemon.solve_ns").record(solve_watch.elapsed_ns());
    drop(solve_span);
    let _encode_span = obs::trace::span("daemon.encode");
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
                    store.insert(problem.clone(), cert.clone())
                };
                if let Err(e) = inserted {
                    shared.stats.errors.incr();
                    return proto::error_line(&format!("proof store write failed: {e}"));
                }
                shared.stats.solved.incr();
            } else {
                shared.stats.inconclusive.incr();
            }
            proto::result_line(
                false,
                &problem.to_text(),
                proto::verdict_json(&out.verdict),
                out.stop.as_str(),
                out.incomplete(),
                out.certificate.as_ref(),
            )
        }
    };
    obs::metrics::histogram("daemon.encode_ns").record(encode_watch.elapsed_ns());
    line
}

/// Writes one response line; returns whether the connection is still good.
fn send_line(mut w: &TcpStream, line: &str) -> bool {
    w.write_all(line.as_bytes()).is_ok() && w.write_all(b"\n").is_ok() && w.flush().is_ok()
}

fn handle_connection(w: TcpStream, shared: &Shared) {
    let _ = w.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(read_half) = w.try_clone() else { return };
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
            let _ = send_line(&w, &proto::error_line(&msg));
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
                if send_line(&w, &proto::error_line(&msg)) {
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
                let active = *shared.slots();
                send_line(&w, &proto::status_line(records, classes, active, shared.workers))
            }
            Request::Stats => send_line(&w, &proto::stats_line(&obs::metrics::snapshot())),
            Request::Metrics => send_line(&w, &proto::metrics_line(&obs::metrics::snapshot())),
            Request::Shutdown => {
                let _ = send_line(&w, &proto::shutdown_line());
                shared.begin_shutdown();
                false
            }
            Request::Solve(req) => handle_solve(&w, shared, &req),
        };
        if !alive {
            break;
        }
    }
}

/// Serves a `solve` in a solve slot and writes its terminal line.
fn handle_solve(w: &TcpStream, shared: &Shared, req: &SolveRequest) -> bool {
    let problem = match Problem::parse(&req.problem) {
        Ok(p) => p,
        Err(e) => {
            shared.stats.errors.incr();
            return send_line(w, &proto::error_line(&format!("bad problem: {e}")));
        }
    };
    let wait_watch = obs::time::Stopwatch::start();
    let slot = shared.take_slot();
    if slot.refused {
        return send_line(w, &proto::error_line("daemon is shutting down"));
    }
    let line = {
        let _request_span = obs::trace::span("daemon.request");
        obs::metrics::histogram("daemon.queue_wait_ns").record(wait_watch.elapsed_ns());
        solve(shared, w, &problem, req)
    };
    let alive = send_line(w, &line);
    // Connection threads live as long as their client: push this
    // request's trace events to the sink now instead of at thread exit.
    obs::trace::flush_thread();
    drop(slot);
    alive
}
