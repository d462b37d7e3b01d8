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
//! The executor reports into the `roundelim-obs` registry: `exec.tasks`,
//! `exec.steals` and `exec.spawns` (worker threads started) counters are
//! always live; the `exec.worker_idle_ns`
//! histogram (per-worker wall time not spent inside tasks) records only
//! while [`roundelim_obs::armed`] — an unobserved run never reads the
//! clock here. Every worker drains its trace buffer before it returns, so
//! a trace finished right after a parallel call still holds its spans.

use roundelim_obs as obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Resolves a worker-thread count: explicit option if positive, else the
/// `ROUNDELIM_THREADS` environment variable, else all available cores.
///
/// This is the one thread-budget convention of the workspace: the beam
/// search, the merge closure, the simulator, and the daemon's per-job
/// searches all resolve through here.
pub fn resolve_threads(opt: usize) -> usize {
    if opt > 0 {
        return opt;
    }
    std::env::var("ROUNDELIM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

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
    let armed = obs::armed();
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
    let (out, panics) = par_map_catch(items, threads, f);
    assert!(panics == 0, "parallel worker panicked ({panics} task(s) lost)");
    out.into_iter().map(|r| r.expect("no panics counted")).collect()
}

/// Runs `f(0), f(1), …, f(tasks - 1)` to completion on stealing workers,
/// discarding results. The closure typically claims exclusive state (a
/// `Mutex`-wrapped `&mut` chunk) by index. Panics if any task panics.
pub fn par_for_each_index<F>(tasks: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let indices: Vec<usize> = (0..tasks).collect();
    par_map(&indices, threads, |&i| f(i));
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
        // The in-place pattern the simulator uses: disjoint &mut chunks
        // behind per-task Mutexes, claimed by index.
        let mut data = vec![0u32; 100];
        {
            type Chunk<'a> = Mutex<Option<(usize, &'a mut [u32])>>;
            let chunks: Vec<Chunk> = data
                .chunks_mut(17)
                .enumerate()
                .map(|(ci, part)| Mutex::new(Some((ci * 17, part))))
                .collect();
            par_for_each_index(chunks.len(), 4, |i| {
                let (base, part) =
                    chunks[i].lock().expect("chunk slot").take().expect("claimed once");
                for (j, slot) in part.iter_mut().enumerate() {
                    *slot = (base + j) as u32;
                }
            });
        }
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(data, expect);
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
        assert!(resolve_threads(0) >= 1);
    }
}
