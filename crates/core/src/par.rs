//! The workspace's work-stealing executor: deterministic data
//! parallelism for the search, the merge closure, and the simulator.
//!
//! Everything here maps a *pure* function over a task list and returns
//! per-task results in task order, so outputs are **bit-identical for
//! every thread count** — only the schedule is nondeterministic. The
//! schedule itself is a chunked atomic claim index with stealing: each
//! worker owns a contiguous range of the task list behind an atomic
//! cursor, claims tasks from its own range first, and when the range
//! drains switches to claiming from the other workers' cursors. One slow
//! task (a heavyweight `full_step`, a dense merge chunk) therefore never
//! idles the rest of the pool the way the old static fork-join chunks
//! did — the remaining workers steal the stragglers' queued work.
//!
//! Panic containment: [`par_map_catch`] captures unwinds **per task** and
//! stores every completed result into its slot immediately, so a panic —
//! even one whose payload escapes `catch_unwind` — costs exactly the
//! panicking task, never a whole chunk. [`par_map`] is the strict
//! variant for callers whose tasks must not panic.
//!
//! One thread budget: an entry point resolves its thread count once with
//! [`resolve_threads`] (0 means all cores there and only there), and a
//! parallel call hands each of its tasks a [`share`] of that count, so
//! nested calls split the budget instead of multiplying it. Chunked work
//! goes through [`par_chunks`] (read-only, weight-balanced chunks) or
//! [`par_each`] (owned items, typically `&mut` chunks filled in place);
//! [`par_each_catch`] is the owned-item claim with per-item panic capture.
//!
//! The executor reports into the `roundelim-obs` registry: `exec.tasks`,
//! `exec.steals` and `exec.spawns` (worker threads started) counters are
//! always live; the `exec.worker_idle_ns`
//! histogram (per-worker wall time not spent inside tasks) records only
//! while [`roundelim_obs::trace::tracing`] — an unobserved run never reads the
//! clock here. Every worker drains its trace buffer before it returns, so
//! a trace finished right after a parallel call still holds its spans.

use roundelim_obs as obs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Resolves a worker-thread count at an entry point: the explicit option
/// if positive, else all available cores.
///
/// This is the one thread-budget rule of the workspace. The entry points
/// (the CLI's `--threads`, `SearchOptions`, `CrossvalOptions`,
/// `CheckOptions`, `ServeConfig`) resolve their option here once; every
/// call below them takes the resolved count, treats 0 as 1, and hands
/// nested calls a [`share`] of it.
pub fn resolve_threads(opt: usize) -> usize {
    if opt > 0 {
        return opt;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread budget of each of `tasks` tasks that a parallel call with
/// `threads` threads runs on `min(tasks, threads)` workers:
/// `max(1, threads / min(tasks, threads))`. Nested calls that take their
/// share split the budget instead of multiplying it, so together they
/// never run more than `threads` threads.
pub fn share(threads: usize, tasks: usize) -> usize {
    (threads / threads.min(tasks).max(1)).max(1)
}

/// Chunks cut per worker by the chunked helpers. Oversubscribing the
/// executor lets stealing, not the chunk-weight model, absorb mispredicted
/// chunk costs: a worker that drains its own chunks early steals the
/// stragglers' queue instead of idling at the caller's barrier.
pub const OVERSUB: usize = 4;

/// Registry handles for the executor probes, resolved once so the hot
/// paths pay one relaxed `fetch_add` per event instead of a registry
/// lock.
struct ExecMetrics {
    tasks: &'static obs::metrics::Counter,
    steals: &'static obs::metrics::Counter,
    spawns: &'static obs::metrics::Counter,
    idle_ns: &'static obs::metrics::Histogram,
}

fn exec_metrics() -> &'static ExecMetrics {
    static M: OnceLock<ExecMetrics> = OnceLock::new();
    M.get_or_init(|| ExecMetrics {
        tasks: obs::metrics::counter("exec.tasks"),
        steals: obs::metrics::counter("exec.steals"),
        spawns: obs::metrics::counter("exec.spawns"),
        idle_ns: obs::metrics::histogram("exec.worker_idle_ns"),
    })
}

/// Maps `f` over `items` on stealing workers, returning per-item results
/// in item order. A panic inside `f` is captured **per item**: the item's
/// slot comes back `None` and the second return value counts the panics.
/// Completed results are stored into their slots the moment they finish,
/// so even an unwind that escapes `catch_unwind` (a panicking panic
/// payload) can only lose the one in-flight item, never a chunk. (The
/// panic payload is dropped; the default panic hook has already printed
/// it.)
///
/// `threads <= 1` or a single item runs inline on the caller's thread —
/// same results, no spawns.
pub fn par_map_catch<T, R, F>(items: &[T], threads: usize, f: F) -> (Vec<Option<R>>, usize)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let metrics = exec_metrics();
    metrics.tasks.add(n as u64);
    // `f` is pure per-item work over `&T`; a panic cannot leave behind
    // broken shared state, so the unwind-safety assertion is sound.
    if threads <= 1 || n < 2 {
        let out: Vec<Option<R>> =
            items.iter().map(|item| catch_unwind(AssertUnwindSafe(|| f(item))).ok()).collect();
        let panics = out.iter().filter(|r| r.is_none()).count();
        return (out, panics);
    }
    let workers = threads.min(n);
    metrics.spawns.add(workers as u64);
    let per = n.div_ceil(workers);
    // Worker `w` owns tasks `bounds[w]..bounds[w + 1]` behind `cursors[w]`.
    let bounds: Vec<usize> = (0..=workers).map(|w| (w * per).min(n)).collect();
    let cursors: Vec<AtomicUsize> =
        bounds[..workers].iter().map(|&lo| AtomicUsize::new(lo)).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let steals = AtomicUsize::new(0);
    let armed = obs::trace::tracing();
    let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let region = armed.then(obs::time::Stopwatch::start);
    std::thread::scope(|s| {
        for w in 0..workers {
            let (bounds, cursors, slots) = (&bounds, &cursors, &slots);
            let (steals, busy, f) = (&steals, &busy, &f);
            s.spawn(move || {
                // Sweep the ranges starting with our own. A range's cursor
                // only moves forward, so by the time the sweep leaves a
                // range every one of its tasks has been claimed by someone;
                // after a full sweep nothing is left anywhere.
                for v in 0..workers {
                    let victim = (w + v) % workers;
                    loop {
                        let i = cursors[victim].fetch_add(1, Ordering::Relaxed);
                        if i >= bounds[victim + 1] {
                            break;
                        }
                        if victim != w {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        let watch = armed.then(obs::time::Stopwatch::start);
                        if let Ok(r) = catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                            *slots[i].lock().expect("result slot poisoned") = Some(r);
                        }
                        if let Some(watch) = watch {
                            busy[w].fetch_add(watch.elapsed_ns(), Ordering::Relaxed);
                        }
                    }
                }
                // `scope` may return before this thread's TLS destructor
                // drains its trace buffer; drain it while still joined.
                obs::trace::flush_thread();
            });
        }
    });
    metrics.steals.add(steals.load(Ordering::Relaxed) as u64);
    if let Some(region) = region {
        let wall = region.elapsed_ns();
        for b in &busy {
            metrics.idle_ns.record(wall.saturating_sub(b.load(Ordering::Relaxed)));
        }
    }
    let out: Vec<Option<R>> =
        slots.into_iter().map(|slot| slot.into_inner().expect("result slot poisoned")).collect();
    let panics = out.iter().filter(|r| r.is_none()).count();
    (out, panics)
}

/// Strict [`par_map_catch`]: maps `f` over `items` and panics if any task
/// panicked. For stages whose tasks are infallible by construction (the
/// merge closure, the simulator) — a panic there is a bug, not a
/// degradable condition.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    strict(par_map_catch(items, threads, f))
}

/// The results of a catching call, or a panic if any task panicked.
fn strict<R>((out, panics): (Vec<Option<R>>, usize)) -> Vec<R> {
    assert!(panics == 0, "parallel worker panicked ({panics} task(s) lost)");
    out.into_iter().map(|r| r.expect("no panics counted")).collect()
}

/// Maps `f` over contiguous chunks of the index range `0..len` on the
/// executor, returning chunk results in chunk order: the workspace's one
/// chunking helper.
///
/// At most `threads ·` [`OVERSUB`] chunks are cut, with boundaries
/// balanced by `weight(index)` (a constant weight cuts equal chunks of
/// `len.div_ceil(threads · OVERSUB)` indices). Boundaries are a pure
/// function of `(len, threads, weight)`, so a caller that consumes the
/// results in order and emits per index in index order stays
/// deterministic for every thread count. Below `min_items` indices, or at
/// one thread, `f` runs once inline on all of `0..len`.
pub fn par_chunks<R, F, W>(len: usize, threads: usize, min_items: usize, weight: W, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
    W: Fn(usize) -> u64,
{
    if threads <= 1 || len < min_items.max(2) {
        return vec![f(0..len)];
    }
    // Greedy contiguous partition into ≤ `threads * OVERSUB` weight-
    // balanced chunks.
    let chunks = threads * OVERSUB;
    let total: u64 = (0..len).map(&weight).sum();
    let target = total.div_ceil(chunks as u64).max(1);
    let mut bounds: Vec<usize> = Vec::with_capacity(chunks + 1);
    bounds.push(0);
    let mut acc = 0u64;
    for i in 0..len {
        acc += weight(i);
        if acc >= target && bounds.len() < chunks && i + 1 < len {
            bounds.push(i + 1);
            acc = 0;
        }
    }
    bounds.push(len);
    let parts: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    par_map(&parts, threads, |part| f(part.clone()))
}

/// Runs `f` once on each owned item and returns the results in item
/// order: the in-place claim helper. The items are typically disjoint
/// `&mut` chunks of one buffer (`buf.chunks_mut(len)`), so a buffer is
/// filled or sorted where it lies instead of collected and flattened.
/// At one thread the items run inline in order and are never collected,
/// so a call whose `f` returns `()` allocates nothing. Otherwise at most
/// one item also runs inline, and more go through [`par_each_catch`],
/// where a panic is fatal.
pub fn par_each<I, R, F>(items: impl IntoIterator<Item = I>, threads: usize, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let items: Vec<I> = items.into_iter().collect();
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    strict(par_each_catch(items, threads, f))
}

/// [`par_map_catch`] over owned items: each executor task claims its item
/// from a slot exactly once and moves it into `f`. Results come back in
/// item order with panics captured per item, and the executor counters
/// (`exec.tasks`, `exec.spawns`) count exactly as for [`par_map_catch`],
/// the inline one-thread path included. This is the workspace's one claim
/// of owned items.
pub fn par_each_catch<I, R, F>(items: Vec<I>, threads: usize, f: F) -> (Vec<Option<R>>, usize)
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    par_map_catch(&slots, threads, |slot| {
        let item = slot.lock().expect("item slot").take().expect("claimed once");
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |&x| x * 3 + 1), expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs_run_inline() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, 8, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn panics_are_captured_per_item() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let (out, panics) = par_map_catch(&items, threads, |&i| {
                assert!(i % 10 != 3, "injected");
                i * 2
            });
            assert_eq!(panics, 10, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                if i % 10 == 3 {
                    assert!(r.is_none());
                } else {
                    assert_eq!(*r, Some(i * 2));
                }
            }
        }
    }

    #[test]
    fn more_threads_than_items_still_covers_everything() {
        let items: Vec<usize> = (0..5).collect();
        assert_eq!(par_map(&items, 64, |&i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stealing_drains_a_slow_range() {
        // One pathological item at the front of worker 0's range; the
        // other workers must steal the rest of range 0's tasks. The
        // assertion is on results only (the schedule is free), but the
        // case exercises the steal path deterministically enough to keep
        // it covered.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 4, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn mutex_claimed_mutable_chunks_compose_with_the_executor() {
        // The in-place pattern of the simulator: disjoint &mut chunks,
        // each claimed by one task, results in chunk order.
        let mut data = vec![0u32; 100];
        let lens = par_each(data.chunks_mut(17).enumerate(), 4, |(c, part)| {
            for (i, slot) in (c * 17..).zip(part.iter_mut()) {
                *slot = i as u32;
            }
            part.len()
        });
        assert_eq!(lens, [17, 17, 17, 17, 17, 15]);
        assert_eq!(data, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn map_indexed_preserves_order() {
        // Chunk results flatten to the sequential map for every thread
        // count, inline threshold and weight; weights `len - i` (the merge
        // closure's) cut shorter chunks first.
        let square = |r: Range<usize>| r.map(|i| i * i).collect::<Vec<_>>();
        for (threads, min_items) in [(1, 0), (2, 0), (5, 2), (5, 100)] {
            let chunks = par_chunks(17, threads, min_items, |i| 17 - i as u64, square);
            assert!(chunks.len() <= threads * OVERSUB);
            assert_eq!(chunks.concat(), square(0..17));
        }
        let lens = par_chunks(200, 2, 16, |i| 200 - i as u64, |r| r.len());
        assert!(lens.len() == 2 * OVERSUB && lens[0] < lens[lens.len() - 1], "{lens:?}");
    }

    #[test]
    fn nested_shares_never_exceed_the_outer_budget() {
        // The outer call's workers times each task's share is at most the
        // budget; a one-wide call passes the whole budget down.
        for threads in 1..=16 {
            for tasks in 0..=40 {
                assert!(threads.min(tasks) * share(threads, tasks) <= threads);
            }
        }
        assert_eq!((share(8, 1), share(8, 3), share(2, 6), share(1, 0)), (8, 2, 1, 1));
    }

    #[test]
    fn owned_items_are_claimed_once_with_panics_captured_per_item() {
        // Each owned item moves into exactly one task; a panic costs only
        // its own item. Executor tasks count at one thread too, where the
        // items run inline.
        let tasks = obs::metrics::counter("exec.tasks");
        for threads in [1, 4] {
            let before = tasks.get();
            let items: Vec<String> = (0..50).map(|i| i.to_string()).collect();
            let (out, panics) = par_each_catch(items, threads, |s| {
                assert!(!s.ends_with('7'), "injected");
                s.len()
            });
            assert_eq!(panics, 5, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r, (i % 10 != 7).then(|| i.to_string().len()), "threads={threads}");
            }
            assert!(tasks.get() - before >= 50, "threads={threads}");
        }
    }

    #[test]
    fn spawns_count_the_workers_of_each_call() {
        // The registry is process-global and other tests run alongside,
        // so only a lower bound on the delta is exact.
        let spawns = obs::metrics::counter("exec.spawns");
        let before = spawns.get();
        let items: Vec<u32> = (0..100).collect();
        par_map(&items, 3, |&x| x);
        par_map(&items[..2], 8, |&x| x);
        assert!(spawns.get() - before >= 5, "3 workers, then one per item");
    }

    #[test]
    fn resolve_threads_prefers_the_explicit_option() {
        assert_eq!(resolve_threads(3), 3);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), cores, "0 means all cores");
    }
}
