//! Span-based structured tracing with per-thread buffers.
//!
//! A trace is recorded between [`install`] and [`finish`]. While armed,
//! [`enter`]/[`exit`] (usually via the RAII [`span`]/[`span_v`] guards)
//! append events to a thread-local buffer; buffers drain into the global
//! sink when they hit a flush threshold, when their thread exits, and at
//! [`finish`], which renders the whole trace to a JSON-Lines document
//! (schema `roundelim-trace-v1`) and returns it. The trace lives in
//! memory only: the CLI writes the document atomically for `--trace` and
//! summarizes it for `--profile`, so both read one record.
//!
//! With no sink installed every probe is one relaxed atomic load: no
//! clock read, no allocation, no lock (pinned by `O1_trace_overhead`).
//!
//! File format (one JSON object per line, keys sorted):
//!
//! ```text
//! {"schema": "roundelim-trace-v1"}
//! {"ev": "enter", "id": 1, "name": "search.depth", "par": 0, "t": 812, "th": 0, "v": 0}
//! {"ev": "exit", "id": 1, "t": 90211}
//! {"ev": "counters", "values": {"cache.intern_misses": 14}}
//! ```
//!
//! `id` is a per-trace span id (1-based; `par` 0 means "root"), `th` a
//! per-trace thread id in first-event order, `t` nanoseconds since the
//! trace started, and `v` an optional caller-supplied value (e.g. the
//! search depth). The trailer carries every registry counter total; a
//! `{"ev": "dropped", "n": …}` line follows if the event cap was hit.
//! Timestamps are the only nondeterministic payload — at one worker
//! thread, [`crate::summary::strip_timings`] of two runs is
//! byte-identical.

use crate::metrics;
use crate::time;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Thread-local buffer size that triggers a drain into the global sink.
const FLUSH_AT: usize = 4096;

/// Cap on buffered events per trace; one `full_step` emits a handful of
/// spans but canonical-cache probes fire per interned problem, so a long
/// daemon run or bench loop could otherwise grow without bound. Beyond
/// the cap events are counted as dropped, never reallocated.
pub const MAX_EVENTS: usize = 1 << 20;

/// True while a trace sink is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Bumped on every [`install`]; stale thread-local state and span guards
/// from a previous trace compare their generation and stand down.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Next span id (1-based; 0 is the "no parent" sentinel).
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Next per-trace thread id, assigned in first-event order.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// `time::monotonic_ns` at [`install`]; event times are relative to it.
static START_NS: AtomicU64 = AtomicU64::new(0);

#[derive(Clone, Debug)]
enum Event {
    Enter { id: u64, parent: u64, thread: u32, name: &'static str, value: Option<u64>, t: u64 },
    Exit { id: u64, t: u64 },
}

struct Sink {
    events: Vec<Event>,
    dropped: u64,
}

fn sink() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn lock_sink() -> std::sync::MutexGuard<'static, Option<Sink>> {
    // A panicking traced thread must not poison tracing for the rest of
    // the process; the buffer is structurally intact either way.
    sink().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-thread event buffer and open-span stack.
struct Local {
    generation: u64,
    thread: u32,
    thread_assigned: bool,
    stack: Vec<u64>,
    events: Vec<Event>,
}

impl Local {
    const fn new() -> Self {
        Local {
            generation: 0,
            thread: 0,
            thread_assigned: false,
            stack: Vec::new(),
            events: Vec::new(),
        }
    }

    fn reset_for(&mut self, generation: u64) {
        self.generation = generation;
        self.thread_assigned = false;
        self.stack.clear();
        self.events.clear();
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        flush_into_sink(self);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
}

/// Registry counter of events that reached the sink after their trace
/// finished: they cannot enter the rendered document, but they are counted.
const LATE_COUNTER: &str = "trace.dropped_late";

fn flush_into_sink(local: &mut Local) {
    if local.events.is_empty() {
        return;
    }
    let mut guard = lock_sink();
    match guard.as_mut() {
        Some(s) if local.generation == GENERATION.load(Ordering::Relaxed) => {
            let room = MAX_EVENTS.saturating_sub(s.events.len());
            let take = local.events.len().min(room);
            s.dropped += (local.events.len() - take) as u64;
            s.events.extend(local.events.drain(..take));
            local.events.clear();
        }
        // The trace these events belong to has finished (or was replaced
        // by a newer one): nothing to attach them to, so count the loss.
        _ => {
            metrics::counter(LATE_COUNTER).add(local.events.len() as u64);
            local.events.clear();
        }
    }
}

/// True while a trace is being recorded.
pub fn tracing() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// A handle for a span opened with [`enter`]; pass to [`exit`]. Inert
/// (id 0) when tracing was off at enter time or the trace has since been
/// replaced.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanToken {
    id: u64,
    generation: u64,
}

impl SpanToken {
    /// True when the token refers to a recorded span.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.id != 0
    }
}

fn now_rel() -> u64 {
    time::monotonic_ns().saturating_sub(START_NS.load(Ordering::Relaxed))
}

/// Opens a span. Returns an inert token (and does no work beyond one
/// atomic load) when no trace is installed.
pub fn enter(name: &'static str, value: Option<u64>) -> SpanToken {
    if !tracing() {
        return SpanToken::default();
    }
    debug_assert!(
        name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-'),
        "span names must be JSON-safe identifiers: {name:?}"
    );
    let t = now_rel();
    LOCAL
        .try_with(|cell| {
            let mut local = cell.borrow_mut();
            let generation = GENERATION.load(Ordering::Relaxed);
            if local.generation != generation {
                local.reset_for(generation);
            }
            if !local.thread_assigned {
                local.thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                local.thread_assigned = true;
            }
            let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
            let parent = local.stack.last().copied().unwrap_or(0);
            local.stack.push(id);
            let thread = local.thread;
            local.events.push(Event::Enter { id, parent, thread, name, value, t });
            if local.events.len() >= FLUSH_AT {
                flush_into_sink(&mut local);
            }
            SpanToken { id, generation }
        })
        .unwrap_or_default()
}

/// Closes a span opened by [`enter`]. A no-op for inert tokens, after
/// the trace finished, or across an [`install`] boundary.
pub fn exit(token: SpanToken) {
    if !token.is_live() || !tracing() {
        return;
    }
    let t = now_rel();
    let _ = LOCAL.try_with(|cell| {
        let mut local = cell.borrow_mut();
        if local.generation != token.generation
            || token.generation != GENERATION.load(Ordering::Relaxed)
        {
            return;
        }
        // RAII guards close in LIFO order per thread; tolerate a leaked
        // guard by truncating to the matching frame.
        if let Some(pos) = local.stack.iter().rposition(|&id| id == token.id) {
            local.stack.truncate(pos);
        }
        local.events.push(Event::Exit { id: token.id, t });
        if local.events.len() >= FLUSH_AT {
            flush_into_sink(&mut local);
        }
    });
}

/// RAII span: opens on construction, closes on drop.
#[derive(Debug)]
pub struct SpanGuard {
    token: SpanToken,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        exit(self.token);
    }
}

/// Opens a named span closed when the guard drops.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard { token: enter(name, None) }
}

/// Opens a named span carrying a value (e.g. the search depth).
#[must_use = "the span closes when the guard drops"]
pub fn span_v(name: &'static str, value: u64) -> SpanGuard {
    SpanGuard { token: enter(name, Some(value)) }
}

/// Drains this thread's buffered events into the global sink; a no-op
/// when the buffer is empty. Called automatically at thread exit and at
/// [`finish`] (for the finishing thread). Scoped workers call it before
/// their closure returns — `std::thread::scope` does not wait for TLS
/// destructors — and long-lived threads that outlive a trace (daemon
/// workers) call it at request boundaries so their events are not
/// stranded.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|cell| flush_into_sink(&mut cell.borrow_mut()));
}

/// Installs the in-memory trace sink: resets span/thread numbering and
/// arms tracing until [`finish`].
///
/// # Errors
///
/// Returns an error if a trace is already being recorded (one trace per
/// process at a time).
pub fn install() -> Result<(), String> {
    let mut guard = lock_sink();
    if guard.is_some() {
        return Err("a trace is already being recorded".to_owned());
    }
    GENERATION.fetch_add(1, Ordering::Relaxed);
    NEXT_SPAN.store(1, Ordering::Relaxed);
    NEXT_THREAD.store(0, Ordering::Relaxed);
    START_NS.store(time::monotonic_ns(), Ordering::Relaxed);
    *guard = Some(Sink { events: Vec::new(), dropped: 0 });
    // Release pairs with the Acquire in `tracing()`: a thread that sees
    // the trace armed also sees the reset numbering above.
    ARMED.store(true, Ordering::Release);
    Ok(())
}

/// Disarms tracing, drains the finishing thread's buffer, and returns
/// the rendered trace document, or `None` when no trace was installed.
/// Spawned threads must flush (or be joined) first: events they flush
/// later are counted in the `trace.dropped_late` registry counter, not
/// rendered.
pub fn finish() -> Option<String> {
    ARMED.store(false, Ordering::Release);
    flush_thread();
    lock_sink().take().map(|s| render(&s))
}

/// Renders the trace as the `roundelim-trace-v1` JSON-Lines document.
/// Keys are sorted within each object (workspace JSON convention) and a
/// space follows each colon, matching `roundelim_auto::json`.
fn render(s: &Sink) -> String {
    let mut out = String::with_capacity(s.events.len() * 56 + 256);
    out.push_str("{\"schema\": \"roundelim-trace-v1\"}\n");
    for ev in &s.events {
        match *ev {
            Event::Enter { id, parent, thread, name, value, t } => {
                let _ = write!(
                    out,
                    "{{\"ev\": \"enter\", \"id\": {id}, \"name\": \"{name}\", \"par\": {parent}"
                );
                let _ = write!(out, ", \"t\": {t}, \"th\": {thread}");
                if let Some(v) = value {
                    let _ = write!(out, ", \"v\": {v}");
                }
                out.push_str("}\n");
            }
            Event::Exit { id, t } => {
                let _ = writeln!(out, "{{\"ev\": \"exit\", \"id\": {id}, \"t\": {t}}}");
            }
        }
    }
    let snap = metrics::snapshot();
    out.push_str("{\"ev\": \"counters\", \"values\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {v}");
    }
    out.push_str("}}\n");
    if s.dropped > 0 {
        let _ = writeln!(out, "{{\"ev\": \"dropped\", \"n\": {}}}", s.dropped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state is process-global; tests that arm it take this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_probes_are_inert() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!tracing());
        let token = enter("test.inert", None);
        assert!(!token.is_live());
        exit(token); // must not panic or record
        drop(span("test.inert_guard"));
    }

    #[test]
    fn install_record_finish_roundtrip() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install().unwrap();
        assert!(tracing());
        assert!(install().is_err(), "one trace at a time");
        {
            let _outer = span_v("test.outer", 7);
            let _inner = span("test.inner");
        }
        let text = finish().expect("a trace was installed");
        assert!(!tracing());
        assert!(finish().is_none(), "second finish is a no-op");

        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"schema\": \"roundelim-trace-v1\"}");
        assert!(lines[1].contains("\"ev\": \"enter\""), "{text}");
        assert!(lines[1].contains("\"id\": 1") && lines[1].contains("\"par\": 0"), "{text}");
        assert!(lines[1].contains("\"name\": \"test.outer\"") && lines[1].contains("\"v\": 7"));
        assert!(lines[2].contains("\"name\": \"test.inner\"") && lines[2].contains("\"par\": 1"));
        // Guards drop innermost-first.
        assert!(lines[3].contains("\"ev\": \"exit\"") && lines[3].contains("\"id\": 2"), "{text}");
        assert!(lines[4].contains("\"ev\": \"exit\"") && lines[4].contains("\"id\": 1"), "{text}");
        assert!(lines.last().unwrap().contains("\"ev\": \"counters\""), "{text}");
    }

    #[test]
    fn spans_from_a_previous_trace_do_not_leak_into_the_next() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install().unwrap();
        let stale = enter("test.stale", None);
        assert!(stale.is_live());
        let _ = finish();
        install().unwrap();
        exit(stale); // belongs to the finished trace: must be dropped
        let _fresh = span("test.fresh");
        drop(_fresh);
        let text = finish().unwrap();
        assert!(!text.contains("test.stale"), "{text}");
        assert!(text.contains("test.fresh"), "{text}");
        // Numbering restarted for the new trace.
        assert!(text.contains("\"id\": 1"), "{text}");
    }

    #[test]
    fn worker_thread_events_carry_their_own_thread_id() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install().unwrap();
        {
            let _outer = span("test.main");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    drop(span("test.worker"));
                    // `scope` may return before the TLS destructor runs.
                    flush_thread();
                });
            });
        }
        let text = finish().unwrap();
        let main_line = text.lines().find(|l| l.contains("test.main")).unwrap();
        let worker_line = text.lines().find(|l| l.contains("test.worker")).unwrap();
        assert!(main_line.contains("\"th\": 0"), "{text}");
        assert!(worker_line.contains("\"th\": 1"), "{text}");
        // The worker span opened on a fresh thread: no cross-thread parent.
        assert!(worker_line.contains("\"par\": 0"), "{text}");
    }

    #[test]
    fn events_flushed_after_finish_are_counted_as_late() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let late = metrics::counter(LATE_COUNTER);
        install().unwrap();
        let (to_worker, from_main) = std::sync::mpsc::channel::<()>();
        let (to_main, from_worker) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            drop(span("test.late")); // one enter + one exit, buffered
            to_main.send(()).unwrap();
            from_main.recv().unwrap();
            let before = late.get();
            flush_thread();
            let after = late.get();
            flush_thread(); // empty buffer: a no-op
            (before, after, late.get())
        });
        // The worker has buffered its span; finish the trace first.
        from_worker.recv().unwrap();
        let text = finish().unwrap();
        to_worker.send(()).unwrap();
        let (before, after, again) = worker.join().unwrap();
        assert_eq!(after - before, 2, "both events of the late span are counted");
        assert_eq!(again, after);
        assert!(!text.contains("test.late"), "{text}");
    }
}
