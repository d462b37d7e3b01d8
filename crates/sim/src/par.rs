//! Deterministic data parallelism for the simulator, on the workspace's
//! shared work-stealing executor ([`roundelim_core::par`]).
//!
//! Everything here computes a pure function of its inputs: work is split
//! into contiguous chunks run as executor tasks and results are consumed
//! in item order, so outputs are **bit-identical for every thread
//! count** — the same discipline the bound engine's closure uses. The
//! `threads` argument follows the engine convention: `0` resolves the
//! `ROUNDELIM_THREADS` environment variable, else all available cores.

use std::sync::Mutex;

/// Resolves a worker-thread count through the workspace-wide convention:
/// explicit option, else `ROUNDELIM_THREADS`, else all available cores.
pub use roundelim_core::par::resolve_threads;

/// Below this many work items a stage runs inline: spawning costs more
/// than the work it would offload.
const PAR_MIN_ITEMS: usize = 4096;

/// Chunks cut per worker: oversubscribing the executor lets stealing
/// absorb per-chunk cost skew (e.g. high-degree regions of a graph).
pub(crate) const OVERSUB: usize = 4;

/// Builds `vec![f(0), f(1), …, f(len - 1)]`, computing disjoint contiguous
/// chunks in place on executor workers. The result depends only on `f`
/// and `len`.
pub fn fill_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Clone + Default,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1);
    let mut out = vec![T::default(); len];
    if threads == 1 || len < PAR_MIN_ITEMS {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return out;
    }
    let chunk = len.div_ceil(threads * OVERSUB).max(1);
    {
        // Disjoint &mut chunks behind per-task Mutexes, claimed by index —
        // the executor's in-place pattern.
        type Task<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;
        let tasks: Vec<Task<T>> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, part)| Mutex::new(Some((ci * chunk, part))))
            .collect();
        roundelim_core::par::par_for_each_index(tasks.len(), threads, |i| {
            let (base, part) = tasks[i].lock().expect("chunk slot").take().expect("claimed once");
            for (j, slot) in part.iter_mut().enumerate() {
                *slot = f(base + j);
            }
        });
    }
    out
}

/// Maps `f` over `0..count`, returning results in index order. Unlike
/// [`fill_indexed`] the result type needs no `Default`; used for per-chunk
/// reductions (the streaming checker's partial reports).
pub fn map_indexed<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || count < 2 {
        return (0..count).map(f).collect();
    }
    let per = count.div_ceil(threads * OVERSUB).max(1);
    let ranges: Vec<(usize, usize)> =
        (0..count.div_ceil(per)).map(|c| (c * per, ((c + 1) * per).min(count))).collect();
    let chunks: Vec<Vec<R>> =
        roundelim_core::par::par_map(&ranges, threads, |&(lo, hi)| (lo..hi).map(&f).collect());
    chunks.into_iter().flatten().collect()
}

/// Sorts key/value pairs: parallel chunk sorts followed by a sequential
/// k-way merge. `Ord` on tuples is total, so the output equals a plain
/// `sort_unstable` for every thread count.
pub fn sort_pairs(mut v: Vec<(u64, u32)>, threads: usize) -> Vec<(u64, u32)> {
    let threads = threads.max(1);
    if threads == 1 || v.len() < PAR_MIN_ITEMS {
        v.sort_unstable();
        return v;
    }
    let chunk = v.len().div_ceil(threads);
    {
        type Task<'a> = Mutex<Option<&'a mut [(u64, u32)]>>;
        let tasks: Vec<Task> = v.chunks_mut(chunk).map(|part| Mutex::new(Some(part))).collect();
        roundelim_core::par::par_for_each_index(tasks.len(), threads, |i| {
            tasks[i].lock().expect("chunk slot").take().expect("claimed once").sort_unstable();
        });
    }
    // k-way merge of the sorted runs (k = threads, so the linear scan per
    // output element is cheap).
    let runs: Vec<&[(u64, u32)]> = v.chunks(chunk).collect();
    let mut cursors = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(v.len());
    loop {
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            if cursors[r] < run.len() && best.is_none_or(|b| run[cursors[r]] < runs[b][cursors[b]])
            {
                best = Some(r);
            }
        }
        match best {
            Some(r) => {
                out.push(runs[r][cursors[r]]);
                cursors[r] += 1;
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_indexed_matches_sequential() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seq: Vec<u64> = (0..10_000).map(f).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(fill_indexed(10_000, threads, f), seq);
        }
        assert_eq!(fill_indexed(0, 4, f), Vec::<u64>::new());
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 5] {
            let got = map_indexed(17, threads, |i| i * i);
            assert_eq!(got, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sort_pairs_matches_sort_unstable() {
        let mut v: Vec<(u64, u32)> = Vec::new();
        let mut state = 42u64;
        for i in 0..9000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v.push((state >> 32, i));
        }
        let mut expect = v.clone();
        expect.sort_unstable();
        for threads in [1, 2, 4, 7] {
            assert_eq!(sort_pairs(v.clone(), threads), expect);
        }
    }
}
