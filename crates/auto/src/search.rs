//! The automated bound search: best-first beam exploration of the graph
//! whose nodes are problems (deduplicated up to isomorphism) and whose
//! edges are speedup steps and candidate relaxations/hardenings.
//!
//! ## Lower bounds ([`autolb`])
//!
//! From the input problem, the search interleaves
//! [`full_step`](roundelim_core::speedup::full_step) edges with
//! searched relaxations ([`crate::moves::for_each_relax_move`]), exactly the §2.1
//! recipe but with the relaxations *discovered* instead of hand-supplied.
//! It stops on
//!
//! * a **cycle up to isomorphism** containing at least one step edge — the
//!   §4.4 fixed-point argument, certifying an unbounded lower bound;
//! * a **0-round problem** at step depth `d` — certifying lower bound `d`;
//! * **budget exhaustion** — certifying the depth reached.
//!
//! ## Upper bounds ([`autoub`])
//!
//! The dual hardening direction (§4.5): edges are speedup steps and
//! searched hardenings ([`crate::moves::for_each_harden_move`]); reaching a 0-round
//! problem after `d` step edges certifies upper bound `d` on the
//! Theorem-1/2 regime.
//!
//! Every verdict is emitted as a [`Certificate`] and independently
//! replayed by [`Certificate::verify`] before being returned, so a search
//! bug cannot produce a wrong bound.
//!
//! ## Parallelism and determinism
//!
//! Frontier expansion fans out across cores on the shared executor
//! ([`roundelim_core::par`]): the *pure* per-node work — speedup steps,
//! candidate generation, isomorphism and goal checks — runs on workers,
//! and results are folded into the cache sequentially in item order. The
//! outcome is identical for every thread count; the `threads` option
//! (0 = all cores) only sets how fast it arrives. It is the search's whole
//! budget: a step stage running k speedup steps gives each one a
//! [`share`] of it.

use crate::cache::{CacheStats, CanonCache, NodeId, Probe};
use crate::certificate::{CertVerdict, Certificate, Direction, Edge};
use crate::checkpoint::{checkpoint_file, legacy_checkpoint_file, Checkpoint};
use crate::failpoint;
use crate::moves::{for_each_harden_move, for_each_relax_move, Move};
use roundelim_core::error::{Error, Result};
use roundelim_core::iso::{fingerprint_and_ranks, isomorphism, isomorphism_ranked};
use roundelim_core::label::Label;
use roundelim_core::par::{resolve_threads, share};
use roundelim_core::problem::Problem;
use roundelim_core::sequence::ZeroRoundModel;
use roundelim_core::speedup::{complete_step, half_step_edge, HalfStep};
use roundelim_core::zero_round::check_oriented_delta;
use roundelim_obs as obs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shareable cooperative-cancellation probe (see [`SearchOptions::cancel`]).
///
/// Two flavors cover the two callers:
///
/// * [`CancelToken::new`] wraps a fresh atomic flag the owner flips with
///   [`CancelToken::cancel`] — the daemon hands one to all its searches
///   and cancels it on shutdown;
/// * [`CancelToken::from_probe`] adapts a plain `fn() -> bool`, which is
///   what a signal handler can reach (the CLI's SIGTERM/SIGINT flag is a
///   `static AtomicBool` the handler stores to).
#[derive(Debug, Clone)]
pub struct CancelToken(TokenInner);

#[derive(Debug, Clone)]
enum TokenInner {
    Flag(Arc<AtomicBool>),
    Probe(fn() -> bool),
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken(TokenInner::Flag(Arc::new(AtomicBool::new(false))))
    }

    /// Adapts an external probe (e.g. a signal-handler flag reader).
    /// [`CancelToken::cancel`] is a no-op on such tokens — cancellation is
    /// owned by whoever sets the probed state.
    pub fn from_probe(probe: fn() -> bool) -> CancelToken {
        CancelToken(TokenInner::Probe(probe))
    }

    /// Requests cancellation. Every clone of this token observes it.
    pub fn cancel(&self) {
        if let TokenInner::Flag(flag) = &self.0 {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        match &self.0 {
            TokenInner::Flag(flag) => flag.load(Ordering::SeqCst),
            TokenInner::Probe(probe) => probe(),
        }
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

/// A depth-boundary progress report (see [`SearchOptions::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// The depth-loop counter at the boundary.
    pub depth: usize,
    /// Nodes expanded so far.
    pub expanded: usize,
    /// Isomorphism classes interned so far.
    pub classes: usize,
    /// Frontier size entering this depth.
    pub frontier: usize,
}

/// A progress observer called at every depth boundary of a search (the
/// same consistency points where checkpoints are taken), so a service can
/// stream progress events without touching the search's hot paths.
#[derive(Clone)]
pub struct ProgressHook(Arc<dyn Fn(Progress) + Send + Sync>);

impl ProgressHook {
    /// Wraps a callback. It runs on the search thread — keep it cheap.
    pub fn new(f: impl Fn(Progress) + Send + Sync + 'static) -> ProgressHook {
        ProgressHook(Arc::new(f))
    }

    pub(crate) fn emit(&self, p: Progress) {
        (self.0)(p);
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Tuning knobs for [`autolb`] / [`autoub`].
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Speedup-step depth budget.
    pub max_steps: usize,
    /// Nodes stepped per depth level (and kept per relaxation wave).
    pub beam_width: usize,
    /// Whether to search relaxations/hardenings at all; with `false`,
    /// [`autolb`] degenerates to the plain iterated speedup.
    pub use_relaxations: bool,
    /// Problems with more labels than this are not enqueued (the speedup
    /// can grow alphabets doubly exponentially; relaxations are how the
    /// search gets back under the limit).
    pub max_labels: usize,
    /// Worker threads, the search's whole budget; 0 means all cores.
    pub threads: usize,
    /// The 0-round model for goal checks.
    pub model: ZeroRoundModel,
    /// Skip sibling move candidates that a verified constraint-row
    /// automorphism maps onto an earlier sibling
    /// ([`crate::moves::for_each_relax_move`]). The searched class set,
    /// verdicts, and certificates are identical with or without pruning
    /// (property-tested); `false` exists for that cross-check and costs
    /// the duplicated canonicalization work.
    pub prune_siblings: bool,
    /// Wall-clock budget. On exhaustion the search stops at the next poll
    /// point and emits its best already-verified partial result
    /// ([`StopCause::TimeBudget`]). Inherently timing-dependent — for
    /// reproducible budget stops use [`SearchOptions::max_expansions`].
    pub time_budget: Option<Duration>,
    /// Expansion budget, checked at depth boundaries only, so a budget
    /// stop is deterministic: the same budget always stops at the same
    /// boundary with the same partial result ([`StopCause::ExpansionBudget`]).
    pub max_expansions: Option<usize>,
    /// Checkpoint persistence; `None` runs without any on-disk state.
    pub checkpoint: Option<CheckpointConf>,
    /// Cooperative cancellation probe (e.g. a SIGTERM flag or a daemon
    /// request token), polled at the same points as the time budget; a
    /// cancelled token stops the search gracefully
    /// ([`StopCause::Interrupted`]).
    pub cancel: Option<CancelToken>,
    /// Depth-boundary progress observer; `None` runs silently.
    pub progress: Option<ProgressHook>,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            max_steps: 12,
            beam_width: 8,
            use_relaxations: true,
            max_labels: 12,
            threads: 0,
            model: ZeroRoundModel::Oriented,
            prune_siblings: true,
            time_budget: None,
            max_expansions: None,
            checkpoint: None,
            cancel: None,
            progress: None,
        }
    }
}

/// Checkpoint persistence settings (see [`SearchOptions::checkpoint`]).
///
/// Snapshots are written only at **depth boundaries** — the top of the
/// step-depth loop, where the cache, the per-node metadata, and the loop
/// state are mutually consistent — so a resumed search replays exactly the
/// suffix an uninterrupted search would have run. A search that completes
/// deletes its snapshot; one stopped by a budget or interruption leaves the
/// latest boundary snapshot behind for [`CheckpointConf::resume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConf {
    /// Directory holding the snapshot file ([`checkpoint_file`] names it).
    pub dir: PathBuf,
    /// Write a snapshot at the first depth boundary at which at least this
    /// many expansions happened since the last write (1 = every boundary
    /// with progress).
    pub every_expansions: usize,
    /// Continue from an existing snapshot in `dir` if one is present (the
    /// older [`legacy_checkpoint_file`] name is read when
    /// [`checkpoint_file`] is absent; a missing file falls back to a fresh
    /// start, which makes resuming after a crash-before-first-write safe).
    pub resume: bool,
}

impl CheckpointConf {
    /// Checkpointing into `dir` at every boundary, without resume.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConf {
        CheckpointConf { dir: dir.into(), every_expansions: 1, resume: false }
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The search ran to its natural end: a conclusive verdict, or the
    /// reachable graph was exhausted.
    Completed,
    /// [`SearchOptions::max_steps`] was reached with a live frontier; a
    /// deeper budget may improve the bound.
    DepthExhausted,
    /// [`SearchOptions::time_budget`] expired.
    TimeBudget,
    /// [`SearchOptions::max_expansions`] was reached.
    ExpansionBudget,
    /// [`SearchOptions::cancel`] reported an interruption (e.g. SIGTERM).
    Interrupted,
}

impl StopCause {
    /// Whether the stop was forced by a budget or interruption (as opposed
    /// to running to natural completion or the configured depth).
    pub fn is_forced(self) -> bool {
        matches!(self, StopCause::TimeBudget | StopCause::ExpansionBudget | StopCause::Interrupted)
    }

    /// Stable machine-readable name (used in JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            StopCause::Completed => "completed",
            StopCause::DepthExhausted => "depth-exhausted",
            StopCause::TimeBudget => "time-budget",
            StopCause::ExpansionBudget => "expansion-budget",
            StopCause::Interrupted => "interrupted",
        }
    }
}

/// The search's conclusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A speedup cycle up to isomorphism: the lower bound exceeds every `t`
    /// admitting a t-independent girth-(2t+2) class (e.g. Ω(log n) for
    /// sinkless orientation).
    Unbounded,
    /// A certified lower bound of `rounds` rounds.
    LowerBound {
        /// The certified bound.
        rounds: usize,
    },
    /// A certified upper bound of `rounds` rounds on the Theorem-1/2 regime.
    UpperBound {
        /// The certified bound.
        rounds: usize,
    },
    /// The budget was exhausted without a certifiable verdict.
    Inconclusive,
}

/// Search effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes whose speedup step was taken.
    pub expanded: usize,
    /// Speedup steps that died on a resource limit (alphabet overflow);
    /// those paths end there, the search continues elsewhere.
    pub step_failures: usize,
    /// Step depth reached.
    pub depth_reached: usize,
    /// Worker-thread panics captured by the parallel map; each one costs
    /// the panicking item's results (the beam degrades) but never the
    /// search.
    pub worker_panics: usize,
    /// Class cache counters.
    pub cache: CacheStats,
}

/// The result of a search: verdict, replayable certificate (already
/// verified), and effort counters.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The conclusion.
    pub verdict: Verdict,
    /// The certificate backing the verdict (`None` only for
    /// [`Verdict::Inconclusive`]).
    pub certificate: Option<Certificate>,
    /// Why the search stopped. A forced stop ([`StopCause::is_forced`])
    /// still carries a fully verified — if partial — certificate.
    pub stop: StopCause,
    /// Effort counters.
    pub stats: SearchStats,
}

impl Outcome {
    /// Whether the outcome is a partial result: its certificate (when
    /// present) carries the `incomplete` marker, or the search stopped
    /// before its natural end without producing one.
    pub fn incomplete(&self) -> bool {
        self.certificate.as_ref().map_or(self.stop != StopCause::Completed, |c| c.incomplete)
    }
}

/// Pre-key shard count of the wave interner. A power of two
/// comfortably above any sane thread count: shard skew is what limits the
/// interner's parallelism, not shard count. Fixed independently of the
/// thread count, so cache counters (and with them `SearchStats`) stay
/// bit-identical at every thread count.
const DEFAULT_SHARDS: usize = 64;

/// The search's parallel map: the shared work-stealing executor
/// ([`roundelim_core::par::par_map_catch`]) with the `worker-panic`
/// failpoint armed per item. Results come back in item order,
/// bit-identical for every thread count. A panic inside `f` is captured
/// **per item** — the item's slot comes back `None` and the second return
/// value counts the panics — so one poisoned problem degrades the beam
/// instead of aborting the search.
fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> (Vec<Option<R>>, usize)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    roundelim_core::par::par_map_catch(items, threads, |item| {
        failpoint::hit("worker-panic");
        f(item)
    })
}

/// A beam node's Π'_{1/2} with its fingerprint and label ranks
/// ([`fingerprint_and_ranks`]).
type RefinedHalf = (HalfStep, u64, Box<[u16]>);

/// Finishes a beam's speedup steps once per isomorphism class of their
/// half-steps. `halves` holds each item's half in the shape [`par_map`]
/// returns: outer `None` is a captured panic, inner `None` a dead end.
/// An item whose half is `same` as an earlier item's joins that item's
/// class. `finish` (`None`: a dead end) runs on every class's first
/// member, then on every other member unless the first member's result
/// was a dead end (a class invariant, so those members are dead ends with
/// no work), each time with its [`share`] of `threads`. A panic proves
/// nothing about a class, so the members of a panicked first member are
/// finished too. Each result comes from the item's own half, never from
/// another member's.
///
/// Returns the results in the shape of `halves`, the panics captured here,
/// and the number of members marked dead from their class.
fn finish_by_class<H, R>(
    halves: Vec<Option<Option<H>>>,
    same: impl Fn(&H, &H) -> bool,
    threads: usize,
    finish: impl Fn(H, usize) -> Option<R> + Sync,
) -> (Vec<Option<Option<R>>>, usize, usize)
where
    H: Send,
    R: Send,
{
    let half = |i: usize| halves[i].as_ref().and_then(Option::as_ref);
    // Each item's class, named by its first member (`None` for the first
    // members themselves and for items without a half).
    let mut firsts: Vec<usize> = Vec::new();
    let class_of: Vec<Option<usize>> = (0..halves.len())
        .map(|i| {
            let h = half(i)?;
            let f = firsts.iter().copied().find(|&f| same(half(f).expect("first has a half"), h));
            if f.is_none() {
                firsts.push(i);
            }
            f
        })
        .collect();
    // Items without a half keep their phase-1 outcome, and members marked
    // dead keep this `Some(None)`; every other slot is overwritten below.
    let mut out: Vec<Option<Option<R>>> = halves.iter().map(|h| h.as_ref().map(|_| None)).collect();
    let mut halves: Vec<Option<H>> = halves.into_iter().map(Option::flatten).collect();
    // The search's `par_map` over owned halves: the `worker-panic`
    // failpoint is armed per item.
    let mut run = |items: &[usize]| {
        let inner = share(threads, items.len());
        let owned = items.iter().map(|&i| halves[i].take().expect("each half finishes once"));
        roundelim_core::par::par_each_catch(owned.collect(), threads, |h| {
            failpoint::hit("worker-panic");
            finish(h, inner)
        })
    };
    let (done, mut panics) = run(&firsts);
    for (&i, res) in firsts.iter().zip(done) {
        out[i] = res;
    }
    let mut dedups = 0;
    let mut rest = Vec::new();
    for (i, class) in class_of.into_iter().enumerate() {
        match class {
            Some(f) if matches!(out[f], Some(None)) => dedups += 1,
            Some(_) => rest.push(i),
            None => {}
        }
    }
    let (done, more) = run(&rest);
    panics += more;
    for (&i, res) in rest.iter().zip(done) {
        out[i] = res;
    }
    (out, panics, dedups)
}

/// Per-node search bookkeeping, indexed by [`NodeId`] in lockstep with the
/// cache's class store.
#[derive(Debug)]
pub struct Meta {
    /// Step edges on the first-reach path from the root.
    pub depth: usize,
    /// First-reach parent and the edge that produced this node's
    /// representative from the parent's representative (verbatim — this is
    /// what makes certificate chains replay exactly).
    pub parent: Option<(NodeId, Edge)>,
}

struct Search {
    cache: CanonCache,
    meta: Vec<Meta>,
    opts: SearchOptions,
    threads: usize,
    stats: SearchStats,
    /// Wall-clock anchor for [`SearchOptions::time_budget`] (restarts on
    /// resume: the budget is per process run, not cumulative).
    started: obs::time::Stopwatch,
    /// Expansion count at the last checkpoint write (`None` = never
    /// written this run, so the first boundary writes immediately).
    last_ckpt: Option<usize>,
}

/// The depth-loop state of [`autolb`]/[`autoub`] — everything the loops
/// carry besides the [`Search`] itself, split out so a checkpoint can
/// capture and restore it wholesale.
struct LoopState {
    /// Current step depth (the loop counter).
    depth: usize,
    /// Frontier entering this depth.
    frontier: Vec<NodeId>,
    /// 0-round endpoints found so far.
    goals: Vec<NodeId>,
    /// Deepest non-goal chain endpoint seen (depth, node).
    deepest: (usize, NodeId),
}

/// A cycle hit: expanding `from` with `edge` derived `problem`, whose class
/// is the ancestor `back_to`.
struct CycleHit {
    from: NodeId,
    edge: Edge,
    problem: Problem,
    back_to: NodeId,
}

impl Search {
    fn new(opts: &SearchOptions) -> Search {
        Search {
            cache: CanonCache::new(),
            meta: Vec::new(),
            opts: opts.clone(),
            threads: resolve_threads(opts.threads),
            stats: SearchStats::default(),
            started: obs::time::Stopwatch::start(),
            last_ckpt: None,
        }
    }

    /// Sets up a search on `p`: resumes from an on-disk checkpoint when the
    /// options ask for it and one exists, else starts fresh. The root is
    /// always [`NodeId`] 0. The `bool` is `true` for a fresh start.
    fn init(
        p: &Problem,
        opts: &SearchOptions,
        direction: Direction,
    ) -> Result<(Search, LoopState, bool)> {
        if opts.model == ZeroRoundModel::Oriented {
            check_oriented_delta(p.delta())?;
        }
        if let Some(conf) = &opts.checkpoint {
            if conf.resume {
                let found = [checkpoint_file(&conf.dir), legacy_checkpoint_file(&conf.dir)]
                    .into_iter()
                    .find(|path| path.exists());
                if let Some(path) = found {
                    let ck = Checkpoint::load(&path)?;
                    let (s, st) = Search::from_checkpoint(ck, opts, direction, p)?;
                    return Ok((s, st, false));
                }
            }
        }
        let mut s = Search::new(opts);
        let (root, _) = s.cache.intern(p.clone());
        s.meta.push(Meta { depth: 0, parent: None });
        debug_assert_eq!(root, NodeId(0));
        let st =
            LoopState { depth: 0, frontier: vec![root], goals: Vec::new(), deepest: (0, root) };
        Ok((s, st, true))
    }

    /// First stop cause that currently applies, if any. Polled at depth
    /// boundaries (all causes) and at mid-depth points (where the
    /// expansion check is still deterministic: `expanded` only moves at
    /// boundaries).
    fn stop_cause(&self) -> Option<StopCause> {
        if self.opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopCause::Interrupted);
        }
        if self.opts.time_budget.is_some_and(|b| self.started.elapsed() >= b) {
            return Some(StopCause::TimeBudget);
        }
        if self.opts.max_expansions.is_some_and(|m| self.stats.expanded >= m) {
            return Some(StopCause::ExpansionBudget);
        }
        None
    }

    /// The non-deterministic stop signals only (wall clock, cancellation),
    /// safe to poll anywhere — inside the relaxation closure, between
    /// stages — without affecting deterministic (budget/fresh) runs.
    fn soft_stop(&self) -> bool {
        self.opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.opts.time_budget.is_some_and(|b| self.started.elapsed() >= b)
    }

    /// Captures the complete search state at a depth boundary. The cache
    /// and the meta list move into the checkpoint, which encodes them in
    /// place; [`Search::write_checkpoint`] moves them back.
    fn take_checkpoint(
        &mut self,
        st: &LoopState,
        direction: Direction,
        root: &Problem,
    ) -> Checkpoint {
        Checkpoint {
            direction,
            model: self.opts.model,
            root: root.clone(),
            beam_width: self.opts.beam_width,
            max_labels: self.opts.max_labels,
            use_relaxations: self.opts.use_relaxations,
            prune_siblings: self.opts.prune_siblings,
            depth: st.depth,
            frontier: st.frontier.clone(),
            goals: st.goals.clone(),
            deepest_depth: st.deepest.0,
            deepest_node: st.deepest.1,
            stats: self.stats,
            cache: std::mem::take(&mut self.cache),
            meta: std::mem::take(&mut self.meta),
        }
    }

    /// Rebuilds the boundary state captured by [`Search::take_checkpoint`].
    /// [`Checkpoint::from_bin`] has checked the class table and its ids;
    /// this checks that the snapshot belongs to this search. The
    /// continuation is a pure function of this state and the options, so
    /// the resumed search produces the verdict, certificate, and counters
    /// of the uninterrupted run, bit for bit.
    fn from_checkpoint(
        ck: Checkpoint,
        opts: &SearchOptions,
        direction: Direction,
        root: &Problem,
    ) -> Result<(Search, LoopState)> {
        let bad = |reason: &str| Err(Error::Inconsistent { reason: reason.into() });
        if ck.direction != direction {
            return bad("checkpoint direction does not match this search");
        }
        if ck.root != *root {
            return bad("checkpoint was taken on a different input problem");
        }
        if ck.model != opts.model
            || ck.beam_width != opts.beam_width
            || ck.max_labels != opts.max_labels
            || ck.use_relaxations != opts.use_relaxations
            || ck.prune_siblings != opts.prune_siblings
        {
            return bad("checkpoint was produced with different search options \
                 (model/beam/max-labels/relaxations/pruning must match; \
                 steps, budgets and threads may differ)");
        }
        let s = Search {
            cache: ck.cache,
            meta: ck.meta,
            opts: opts.clone(),
            threads: resolve_threads(opts.threads),
            stats: ck.stats,
            started: obs::time::Stopwatch::start(),
            // Nothing new since the snapshot we just loaded.
            last_ckpt: Some(ck.stats.expanded),
        };
        let deepest = (ck.deepest_depth, ck.deepest_node);
        Ok((s, LoopState { depth: ck.depth, frontier: ck.frontier, goals: ck.goals, deepest }))
    }

    /// Emits a depth-boundary progress event, if an observer is installed.
    fn report_progress(&self, st: &LoopState) {
        if let Some(hook) = &self.opts.progress {
            hook.emit(Progress {
                depth: st.depth,
                expanded: self.stats.expanded,
                classes: self.cache.len(),
                frontier: st.frontier.len(),
            });
        }
    }

    /// Writes a boundary checkpoint if one is configured and due.
    fn maybe_checkpoint(
        &mut self,
        st: &LoopState,
        direction: Direction,
        root: &Problem,
    ) -> Result<()> {
        let Some(conf) = &self.opts.checkpoint else {
            return Ok(());
        };
        let due = match self.last_ckpt {
            None => true,
            Some(at) => self.stats.expanded.saturating_sub(at) >= conf.every_expansions,
        };
        if due {
            self.write_checkpoint(st, direction, root)?;
        }
        Ok(())
    }

    /// Unconditionally writes a boundary checkpoint (no-op without a
    /// checkpoint configuration). Called for due periodic writes and for
    /// the final write on a forced stop.
    fn write_checkpoint(
        &mut self,
        st: &LoopState,
        direction: Direction,
        root: &Problem,
    ) -> Result<()> {
        let Some(dir) = self.opts.checkpoint.as_ref().map(|conf| conf.dir.clone()) else {
            return Ok(());
        };
        let _sp = obs::trace::span("search.checkpoint_write");
        let watch = obs::time::Stopwatch::start();
        let ck = self.take_checkpoint(st, direction, root);
        let saved = ck.save(&checkpoint_file(&dir));
        (self.cache, self.meta) = (ck.cache, ck.meta);
        saved?;
        // A snapshot under the older name is stale from here on.
        let _ = std::fs::remove_file(legacy_checkpoint_file(&dir));
        obs::metrics::histogram("search.checkpoint_write_ns").record(watch.elapsed_ns());
        obs::metrics::counter("search.checkpoint_writes").incr();
        self.last_ckpt = Some(self.stats.expanded);
        Ok(())
    }

    /// Removes the on-disk snapshot after a completed search: a later
    /// `--resume` must rerun from scratch, not replay a finished search's
    /// stale frontier.
    fn clear_checkpoint(&self) {
        if let Some(conf) = &self.opts.checkpoint {
            let _ = std::fs::remove_file(checkpoint_file(&conf.dir));
            let _ = std::fs::remove_file(legacy_checkpoint_file(&conf.dir));
        }
    }

    /// Problems above this label count are not interned at all: they are
    /// too symmetric to canonicalize affordably and too far from the beam
    /// to ever be relaxed back under [`SearchOptions::max_labels`] by
    /// pairwise merges.
    fn intern_cap(&self) -> usize {
        (4 * self.opts.max_labels).max(24)
    }

    fn zero(&mut self, id: NodeId) -> bool {
        let model = self.opts.model;
        self.cache.is_zero_round(id, model)
    }

    fn is_ancestor(&self, anc: NodeId, mut n: NodeId) -> bool {
        loop {
            if n == anc {
                return true;
            }
            match self.meta[n.index()].parent {
                Some((p, _)) => n = p,
                None => return false,
            }
        }
    }

    /// The first-reach chain root → `n`: problems and connecting edges.
    fn chain_to(&self, n: NodeId) -> (Vec<Problem>, Vec<Edge>, Vec<NodeId>) {
        let mut ids = vec![n];
        let mut edges = Vec::new();
        let mut cur = n;
        while let Some((p, e)) = &self.meta[cur.index()].parent {
            ids.push(*p);
            edges.push(e.clone());
            cur = *p;
        }
        ids.reverse();
        edges.reverse();
        let problems = ids.iter().map(|&id| self.cache.materialize(id)).collect();
        (problems, edges, ids)
    }

    /// Orders `pool` by (score, id) and truncates to the beam width.
    fn select_beam(&self, pool: &mut Vec<NodeId>) {
        pool.sort_by_key(|&id| (crate::score::score(self.cache.packed(id)), id));
        pool.truncate(self.opts.beam_width);
    }

    /// The beam actually stepped: best nodes whose alphabet fits
    /// [`SearchOptions::max_labels`] (oversized pool members only serve as
    /// relaxation sources — stepping them would blow the alphabet up
    /// further).
    fn steppable_beam(&self, pool: &[NodeId]) -> Vec<NodeId> {
        let mut beam: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&id| self.cache.packed(id).label_count() <= self.opts.max_labels)
            .collect();
        self.select_beam(&mut beam);
        beam
    }

    /// Expands relaxation (or hardening) moves from `pool` to a fixed
    /// point, interning new nodes at `depth`. New 0-round nodes are pushed
    /// to `goals` and not expanded further. Returns a cycle hit as soon as
    /// one closes (lower-bound direction only; hardening chains cannot
    /// cycle usefully and `detect_cycles` is false there).
    fn sideways_closure(
        &mut self,
        pool: &mut Vec<NodeId>,
        depth: usize,
        direction: Direction,
        detect_cycles: bool,
        goals: &mut Vec<NodeId>,
    ) -> Option<CycleHit> {
        let _sp = obs::trace::span("stage.relax-closure");
        let prune = self.opts.prune_siblings;
        let mut wave: Vec<NodeId> = pool.clone();
        let mut wave_ix = 0u64;
        while !wave.is_empty() {
            // One trace span per relaxation wave; the wave size histogram
            // feeds the `--json` obs section and the daemon metrics.
            let _wave_span = obs::trace::span_v("search.wave", wave_ix);
            wave_ix += 1;
            obs::metrics::histogram("search.wave_size").record(wave.len() as u64);
            // Relaxation waves can run long; honor wall-clock budgets and
            // interruptions between waves (deterministic budget runs never
            // trigger this — see `soft_stop`).
            if self.soft_stop() {
                return None;
            }
            // Generate candidates (packed quotients of each source class's
            // rows, keyed into probes by their pre-keys) in parallel; the
            // per-candidate work is pure and builds no names. The wave
            // interner refines only the candidates whose pre-keys collide
            // and resolves them with short isomorphism checks in its
            // parallel shard phase.
            let cap = self.intern_cap();
            // Oversized sources (above the step bound) only exist to be
            // relaxed back under it; their quadratic pairwise-merge fan-out
            // is restricted to ⊆-comparable edge rows (see
            // `for_each_relax_move`).
            let max_labels = self.opts.max_labels;
            let cache = &self.cache;
            type Refined = Vec<(Probe, Vec<Label>)>;
            let (cands, panics): (Vec<Option<Refined>>, usize) =
                par_map(&wave, self.threads, |&n| {
                    let p = cache.packed(n);
                    let mut moves = Vec::new();
                    {
                        let _sp = obs::trace::span("search.moves");
                        let keep = |m: Move| {
                            if m.result.label_count() <= cap {
                                moves.push(m);
                            }
                        };
                        match direction {
                            Direction::Lower => {
                                let subset_only = prune && p.label_count() > max_labels;
                                for_each_relax_move(p, prune, subset_only, keep);
                            }
                            Direction::Upper => for_each_harden_move(p, prune, keep),
                        }
                    }
                    let _sp = obs::trace::span("search.fingerprint");
                    let mut counts = Vec::new();
                    moves
                        .into_iter()
                        .map(|Move { kind, map, kept, result }| {
                            (Probe::derived(n, kind, kept, result, &mut counts), map)
                        })
                        .collect()
                });
            // Flatten the surviving candidates in item order and resolve
            // the whole wave against the sharded cache at once: dedup runs
            // in parallel across pre-key shards, then `NodeId`s are
            // assigned in a deterministic sequential pass in the same item
            // order the old one-at-a-time fold used — ids, buckets, and
            // counters are bit-identical to it at every thread count.
            self.stats.worker_panics += panics;
            let mut flat: Vec<Probe> = Vec::new();
            let mut origin: Vec<(NodeId, Edge)> = Vec::new();
            for (n, list) in wave.iter().zip(cands) {
                // A captured worker panic loses this source's candidates;
                // the closure continues with everyone else's.
                let Some(list) = list else {
                    continue;
                };
                for (probe, map) in list {
                    let edge = match direction {
                        Direction::Lower => Edge::Relax { map },
                        Direction::Upper => Edge::Harden { map },
                    };
                    origin.push((*n, edge));
                    flat.push(probe);
                }
            }
            let resolved = self.cache.intern_wave(flat, self.threads, DEFAULT_SHARDS);
            // Goal-check the wave's new classes on the executor; the loop
            // below only reads the memos.
            let new: Vec<NodeId> =
                resolved.iter().filter(|(_, back)| back.is_none()).map(|(id, _)| *id).collect();
            self.cache.fill_zero_round(&new, self.opts.model, self.threads);
            let mut next_wave = Vec::new();
            let mut hit: Option<CycleHit> = None;
            for ((n, edge), (c, returned)) in origin.into_iter().zip(resolved) {
                match returned {
                    None => {
                        // A new class: a goal if 0-round, else it joins
                        // the pool and the next wave.
                        // The wave's classes were already committed in item
                        // order, so the k-th new item here carries the k-th
                        // freshly assigned id — meta stays in id lockstep.
                        self.meta.push(Meta { depth, parent: Some((n, edge)) });
                        debug_assert_eq!(self.meta.len(), c.index() + 1);
                        if self.zero(c) {
                            goals.push(c);
                        } else {
                            pool.push(c);
                            next_wave.push(c);
                        }
                    }
                    Some(probe) => {
                        if hit.is_none()
                            && detect_cycles
                            && self.is_ancestor(c, n)
                            && self.meta[n.index()].depth > self.meta[c.index()].depth
                        {
                            // A sideways edge closing onto an ancestor with
                            // at least one step edge in between. Keep
                            // scanning so the wave commits whole (the first
                            // hit in item order is returned either way).
                            let problem = self.cache.materialize_probe(probe);
                            hit = Some(CycleHit { from: n, edge, problem, back_to: c });
                        }
                    }
                }
            }
            if hit.is_some() {
                return hit;
            }
            // Keep the wave (and the per-depth pool) bounded: relaxation
            // chains strictly shrink the alphabet, so this terminates, but
            // without a beam the partition lattice is explored whole.
            self.select_beam(&mut next_wave);
            wave = next_wave;
        }
        None
    }

    /// Takes the speedup step of every beam node in parallel, interning
    /// children at `depth + 1`. Steps that die on a resource limit
    /// (alphabet overflow) or whose child exceeds the intern cap are dead
    /// ends: the path stops, the search continues. Returns the new
    /// frontier and a cycle hit if one closed.
    ///
    /// Π'_{1/2} → Π'₁ is a fixed procedure, so every dead-end test on a
    /// step result is an isomorphism invariant of the node's Π'_{1/2}. The
    /// step therefore runs in phases: each node's Π'_{1/2} and its
    /// refinement in parallel, then [`finish_by_class`], which completes
    /// one half per isomorphism class first and marks the other members
    /// of a dead-end class dead with no work. Each phase runs its k steps
    /// on `min(k, threads)` workers and gives each step a [`share`] of the
    /// budget, so a one-wide beam steps on every thread.
    fn step_beam(
        &mut self,
        beam: &[NodeId],
        depth: usize,
        detect_cycles: bool,
        goals: &mut Vec<NodeId>,
    ) -> (Vec<NodeId>, Option<CycleHit>) {
        // Memoized steps resolve immediately (successor id only — the
        // derived problem is fetched just on the cycle-hit path); the rest
        // compute in parallel.
        let mut todo: Vec<(NodeId, Problem)> = Vec::new();
        let mut resolved: Vec<(NodeId, Option<NodeId>)> = Vec::new();
        for &n in beam {
            match self.cache.step_succ(n) {
                Some(succ) => resolved.push((n, Some(succ))),
                None => {
                    todo.push((n, self.cache.materialize(n)));
                    resolved.push((n, None));
                }
            }
        }
        let cap = self.intern_cap();
        // Inner Option: resource dead end. Outer (from par_map): panic.
        let inner = share(self.threads, todo.len());
        let (halves, panics) = par_map(&todo, self.threads, |(_, p)| {
            let _sp = obs::trace::span("stage.step");
            let half = half_step_edge(p, inner).ok()?;
            let (fp, ranks) = fingerprint_and_ranks(half.problem.packed());
            Some((half, fp, ranks))
        });
        self.stats.worker_panics += panics;
        // A beam-local check: the class store never sees these halves, so
        // the cache's isomorphism counters do not move.
        let same = |(a, fa, ra): &RefinedHalf, (b, fb, rb): &RefinedHalf| {
            fa == fb && isomorphism_ranked(a.problem.packed(), ra, b.problem.packed(), rb).is_some()
        };
        let (computed, panics, dedups) =
            finish_by_class(halves, same, self.threads, |(half, _, _): RefinedHalf, inner| {
                let derived = {
                    let _sp = obs::trace::span("stage.step");
                    complete_step(half, inner).ok()?.full.problem
                };
                if derived.alphabet().len() > cap
                    || derived.node().is_empty()
                    || derived.edge().is_empty()
                {
                    // Over-cap children cannot be canonicalized affordably; an
                    // empty constraint means the derived problem is unsolvable
                    // outright (and the text format cannot express it). Both
                    // end the path here.
                    return None;
                }
                let probe = Probe::new(derived.clone());
                Some((derived, probe))
            });
        obs::metrics::counter("search.step_dedups").add(dedups as u64);
        self.stats.worker_panics += panics;
        let mut computed_iter = computed.into_iter();
        let mut frontier = Vec::new();
        let mut hit = None;
        for (n, memo) in resolved {
            self.stats.expanded += 1;
            let (child, new) = match memo {
                Some(succ) => (succ, false),
                None => {
                    // Outer `None` is a captured worker panic, inner `None`
                    // a resource dead end; both end the path here.
                    let Some((derived, probe)) =
                        computed_iter.next().expect("one result per todo item").flatten()
                    else {
                        self.stats.step_failures += 1;
                        continue; // dead end: overflow, over-cap child, or panic
                    };
                    let (succ, new) = self.cache.record_step(n, derived, probe);
                    if new {
                        self.meta.push(Meta { depth: depth + 1, parent: Some((n, Edge::Step)) });
                        debug_assert_eq!(self.meta.len(), self.cache.len());
                    }
                    (succ, new)
                }
            };
            if hit.is_some() {
                continue; // a cycle already closed; drain deterministically
            }
            if new {
                if self.zero(child) {
                    goals.push(child);
                } else {
                    // Oversized children stay in the frontier as
                    // relaxation sources; `steppable_beam` keeps them away
                    // from the next step stage.
                    frontier.push(child);
                }
            } else if detect_cycles && self.is_ancestor(child, n) {
                let problem =
                    self.cache.step_derived(n).expect("memo recorded for this node").clone();
                hit = Some(CycleHit { from: n, edge: Edge::Step, problem, back_to: child });
            }
            // A dedup into a non-ancestor class is exhausted ground: that
            // class was (or will be) expanded from its first-reach path.
        }
        (frontier, hit)
    }

    /// Builds and **verifies** the unbounded certificate for a cycle hit.
    fn unbounded_certificate(&self, hit: &CycleHit) -> Certificate {
        let (mut problems, mut edges, ids) = self.chain_to(hit.from);
        let cycle_start = ids
            .iter()
            .position(|&id| id == hit.back_to)
            .expect("cycle target is an ancestor of the closing node");
        edges.push(hit.edge.clone());
        problems.push(hit.problem.clone());
        let iso_map = isomorphism(hit.problem.packed(), problems[cycle_start].packed())
            .expect("same class implies isomorphic");
        Certificate {
            direction: Direction::Lower,
            model: self.opts.model,
            problems,
            edges,
            incomplete: false,
            verdict: CertVerdict::Unbounded { cycle_start, iso_map },
        }
    }

    fn outcome(
        &self,
        verdict: Verdict,
        certificate: Option<Certificate>,
        stop: StopCause,
    ) -> Outcome {
        let mut stats = self.stats;
        stats.cache = self.cache.stats;
        Outcome { verdict, certificate, stop, stats }
    }
}

/// Searches for a lower bound on `p` (see module docs). The returned
/// certificate has already replayed green under
/// [`Certificate::verify`].
///
/// # Errors
///
/// Propagates engine errors (e.g. alphabet overflow during a speedup) and
/// rejects internally inconsistent certificates (a search bug, surfaced
/// rather than silently mis-reported).
pub fn autolb(p: &Problem, opts: &SearchOptions) -> Result<Outcome> {
    let (mut s, mut st, fresh) = Search::init(p, opts, Direction::Lower)?;
    let root = NodeId(0);
    if fresh && s.zero(root) {
        let cert = Certificate {
            direction: Direction::Lower,
            model: opts.model,
            problems: vec![p.clone()],
            edges: vec![],
            incomplete: false,
            verdict: CertVerdict::LowerBound { rounds: 0 },
        };
        s.clear_checkpoint();
        return finish(s.outcome(
            Verdict::LowerBound { rounds: 0 },
            Some(cert),
            StopCause::Completed,
        ));
    }
    let mut stop = StopCause::Completed;
    while st.depth < opts.max_steps {
        let _depth_span = obs::trace::span_v("search.depth", st.depth as u64);
        obs::metrics::histogram("search.beam_occupancy").record(st.frontier.len() as u64);
        // Depth boundary: cache, metadata and loop state are consistent —
        // the only place snapshots are taken and budgets can force a stop
        // deterministically.
        if let Some(cause) = s.stop_cause() {
            stop = cause;
            s.write_checkpoint(&st, Direction::Lower, p)?;
            break;
        }
        s.maybe_checkpoint(&st, Direction::Lower, p)?;
        s.report_progress(&st);
        let mut pool = st.frontier.clone();
        if opts.use_relaxations {
            if let Some(hit) =
                s.sideways_closure(&mut pool, st.depth, Direction::Lower, true, &mut st.goals)
            {
                let cert = s.unbounded_certificate(&hit);
                s.clear_checkpoint();
                return finish(s.outcome(Verdict::Unbounded, Some(cert), StopCause::Completed));
            }
        }
        if let Some(cause) = s.stop_cause() {
            // Mid-depth stop (time budget/interruption during the closure):
            // emit the partial verdict from what is already verified. No
            // snapshot here — the cache has advanced past the boundary the
            // loop state describes, so the last boundary snapshot stands.
            stop = cause;
            break;
        }
        let beam = s.steppable_beam(&pool);
        let (next, hit) = s.step_beam(&beam, st.depth, true, &mut st.goals);
        st.depth += 1;
        s.stats.depth_reached = s.stats.depth_reached.max(st.depth);
        if let Some(hit) = hit {
            let cert = s.unbounded_certificate(&hit);
            s.clear_checkpoint();
            return finish(s.outcome(Verdict::Unbounded, Some(cert), StopCause::Completed));
        }
        if next.is_empty() {
            st.frontier.clear();
            break;
        }
        st.deepest = (st.depth, next[0]);
        st.frontier = next;
    }
    if stop == StopCause::Completed && !st.frontier.is_empty() {
        // Ran out of configured depth with a live frontier.
        stop = StopCause::DepthExhausted;
        s.write_checkpoint(&st, Direction::Lower, p)?;
    }
    // Certify the best endpoint seen — a 0-round endpoint at maximal step
    // depth, or the deepest non-0-round chain.
    let best_goal = st.goals.iter().map(|&g| (s.meta[g.index()].depth, g)).max_by_key(|&(d, _)| d);
    let (rounds, endpoint) = match best_goal {
        Some((d, g)) if d >= st.deepest.0 => (d, g),
        _ => st.deepest,
    };
    let incomplete = stop != StopCause::Completed;
    let (problems, edges, _) = s.chain_to(endpoint);
    let cert = Certificate {
        direction: Direction::Lower,
        model: opts.model,
        problems,
        edges,
        incomplete,
        verdict: CertVerdict::LowerBound { rounds },
    };
    if !incomplete {
        s.clear_checkpoint();
    }
    finish(s.outcome(Verdict::LowerBound { rounds }, Some(cert), stop))
}

/// Searches for an upper-bound derivation for `p` (see module docs). The
/// returned certificate has already replayed green under
/// [`Certificate::verify`].
///
/// # Errors
///
/// Propagates engine errors; rejects internally inconsistent certificates.
pub fn autoub(p: &Problem, opts: &SearchOptions) -> Result<Outcome> {
    let (mut s, mut st, fresh) = Search::init(p, opts, Direction::Upper)?;
    if fresh && s.zero(NodeId(0)) {
        st.goals.push(NodeId(0));
    }
    let mut stop = StopCause::Completed;
    while st.goals.is_empty() && st.depth < opts.max_steps && !st.frontier.is_empty() {
        let _depth_span = obs::trace::span_v("search.depth", st.depth as u64);
        obs::metrics::histogram("search.beam_occupancy").record(st.frontier.len() as u64);
        if let Some(cause) = s.stop_cause() {
            stop = cause;
            s.write_checkpoint(&st, Direction::Upper, p)?;
            break;
        }
        s.maybe_checkpoint(&st, Direction::Upper, p)?;
        s.report_progress(&st);
        let mut pool = st.frontier.clone();
        if opts.use_relaxations {
            s.sideways_closure(&mut pool, st.depth, Direction::Upper, false, &mut st.goals);
        }
        if !st.goals.is_empty() {
            break; // a hardening reached a 0-round problem at this depth
        }
        if let Some(cause) = s.stop_cause() {
            stop = cause; // mid-depth stop: see the autolb twin for why no snapshot
            break;
        }
        let beam = s.steppable_beam(&pool);
        let (next, _) = s.step_beam(&beam, st.depth, false, &mut st.goals);
        st.depth += 1;
        s.stats.depth_reached = s.stats.depth_reached.max(st.depth);
        st.frontier = next;
    }
    // The shallowest goal wins (BFS by step depth ⇒ the first recorded
    // goal is at the minimal step depth reached).
    let Some(&goal) = st.goals.first() else {
        if stop == StopCause::Completed && !st.frontier.is_empty() && st.depth >= opts.max_steps {
            stop = StopCause::DepthExhausted;
            s.write_checkpoint(&st, Direction::Upper, p)?;
        }
        if stop == StopCause::Completed {
            s.clear_checkpoint();
        }
        return Ok(s.outcome(Verdict::Inconclusive, None, stop));
    };
    let rounds = s.meta[goal.index()].depth;
    let (problems, edges, _) = s.chain_to(goal);
    let cert = Certificate {
        direction: Direction::Upper,
        model: opts.model,
        problems,
        edges,
        incomplete: false,
        verdict: CertVerdict::UpperBound { rounds },
    };
    s.clear_checkpoint();
    finish(s.outcome(Verdict::UpperBound { rounds }, Some(cert), StopCause::Completed))
}

/// Replays the outcome's certificate before handing it to the caller: the
/// search never returns a bound its own verifier rejects.
fn finish(outcome: Outcome) -> Result<Outcome> {
    if let Some(cert) = &outcome.certificate {
        cert.verify().map_err(|e| roundelim_core::error::Error::Inconsistent {
            reason: format!("search produced an invalid certificate (bug): {e}"),
        })?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn so3() -> Problem {
        Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap()
    }

    /// A fresh checkpoint directory unique to this test.
    fn ckpt_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("roundelim-search-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn zero_expansion_budget_yields_a_verified_incomplete_result() {
        let opts =
            SearchOptions { max_expansions: Some(0), threads: 1, ..SearchOptions::default() };
        let out = autolb(&so3(), &opts).unwrap();
        assert_eq!(out.stop, StopCause::ExpansionBudget);
        assert!(out.stop.is_forced());
        assert_eq!(out.verdict, Verdict::LowerBound { rounds: 0 });
        let cert = out.certificate.unwrap();
        assert!(cert.incomplete);
        cert.verify().unwrap();
    }

    #[test]
    fn budget_cut_then_resume_matches_the_uninterrupted_run_exactly() {
        for threads in [1, 4] {
            let opts = SearchOptions { threads, ..SearchOptions::default() };
            let reference = autolb(&so3(), &opts).unwrap();
            assert_eq!(reference.verdict, Verdict::Unbounded);
            assert_eq!(reference.stop, StopCause::Completed);

            let dir = ckpt_dir(&format!("resume-t{threads}"));
            let cut = SearchOptions {
                max_expansions: Some(1),
                checkpoint: Some(CheckpointConf::new(&dir)),
                ..opts.clone()
            };
            let partial = autolb(&so3(), &cut).unwrap();
            assert_eq!(partial.stop, StopCause::ExpansionBudget);
            assert!(partial.certificate.unwrap().incomplete);
            assert!(checkpoint_file(&dir).exists(), "forced stop must leave a snapshot");

            let resume = SearchOptions {
                checkpoint: Some(CheckpointConf { resume: true, ..CheckpointConf::new(&dir) }),
                ..opts.clone()
            };
            let resumed = autolb(&so3(), &resume).unwrap();
            assert_eq!(resumed.verdict, reference.verdict, "threads={threads}");
            assert_eq!(resumed.certificate, reference.certificate, "threads={threads}");
            assert_eq!(resumed.stats, reference.stats, "threads={threads}");
            assert!(!checkpoint_file(&dir).exists(), "completed search must clear its snapshot");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn resume_with_missing_snapshot_starts_fresh() {
        let dir = ckpt_dir("fresh");
        let opts = SearchOptions {
            threads: 1,
            checkpoint: Some(CheckpointConf { resume: true, ..CheckpointConf::new(&dir) }),
            ..SearchOptions::default()
        };
        let out = autolb(&so3(), &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Unbounded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_options_problem_and_direction() {
        let dir = ckpt_dir("mismatch");
        let cut = SearchOptions {
            threads: 1,
            max_expansions: Some(1),
            checkpoint: Some(CheckpointConf::new(&dir)),
            ..SearchOptions::default()
        };
        autolb(&so3(), &cut).unwrap();
        assert!(checkpoint_file(&dir).exists());
        let resume_conf = Some(CheckpointConf { resume: true, ..CheckpointConf::new(&dir) });
        // Changed beam width: incompatible.
        let bad_beam = SearchOptions {
            beam_width: 3,
            checkpoint: resume_conf.clone(),
            ..SearchOptions::default()
        };
        assert!(autolb(&so3(), &bad_beam).is_err());
        // Different input problem: incompatible.
        let ok_opts = SearchOptions { checkpoint: resume_conf.clone(), ..SearchOptions::default() };
        let other = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        assert!(autolb(&other, &ok_opts).is_err());
        // Wrong direction: incompatible.
        assert!(autoub(&so3(), &ok_opts).is_err());
        // Deeper step/expansion budgets are compatible by design.
        let deeper =
            SearchOptions { max_steps: 20, checkpoint: resume_conf, ..SearchOptions::default() };
        assert_eq!(autolb(&so3(), &deeper).unwrap().verdict, Verdict::Unbounded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sinkless_orientation_is_unbounded_without_hand_relaxations() {
        let out = autolb(&so3(), &SearchOptions::default()).unwrap();
        assert_eq!(out.verdict, Verdict::Unbounded);
        let cert = out.certificate.unwrap();
        cert.verify().unwrap();
        assert!(cert.steps() >= 1);
    }

    #[test]
    fn plain_speedup_mode_finds_the_sinkless_cycle_too() {
        let opts = SearchOptions { use_relaxations: false, ..SearchOptions::default() };
        let out = autolb(&so3(), &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Unbounded);
    }

    #[test]
    fn trivial_problem_is_zero_rounds_both_directions() {
        let t = Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap();
        let lb = autolb(&t, &SearchOptions::default()).unwrap();
        assert_eq!(lb.verdict, Verdict::LowerBound { rounds: 0 });
        let ub = autoub(&t, &SearchOptions::default()).unwrap();
        assert_eq!(ub.verdict, Verdict::UpperBound { rounds: 0 });
        ub.certificate.unwrap().verify().unwrap();
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        // Verdict, certificate, AND every effort counter must be
        // bit-identical at every thread count: the executor only changes
        // the schedule, the sharded wave interner assigns ids in item
        // order, and the shard count is fixed independently of `threads`.
        let base =
            autolb(&so3(), &SearchOptions { threads: 1, ..SearchOptions::default() }).unwrap();
        for threads in [2, 3, 4, 7, 8] {
            let out =
                autolb(&so3(), &SearchOptions { threads, ..SearchOptions::default() }).unwrap();
            assert_eq!(out.verdict, base.verdict, "threads={threads}");
            assert_eq!(out.certificate, base.certificate, "threads={threads}");
            assert_eq!(out.stats, base.stats, "threads={threads}");
        }
    }

    #[test]
    fn one_round_problem_gets_upper_bound_one() {
        // Not 0-round solvable (no node config is edge-self-compatible in
        // any orientation split), but its full step is: upper bound 1.
        let p = Problem::parse("name: ub1\nnode: A B | A C\nedge: A A | A C | B B").unwrap();
        let out = autoub(&p, &SearchOptions::default()).unwrap();
        assert_eq!(out.verdict, Verdict::UpperBound { rounds: 1 });
        let cert = out.certificate.unwrap();
        assert_eq!(cert.steps(), 1);
        cert.verify().unwrap();
    }

    #[test]
    fn maximal_matching_needs_a_searched_relaxation() {
        // Maximal matching at Δ=3: the plain iterated speedup dies on
        // description growth after 2 steps, but with searched label merges
        // the chain reaches a third non-0-round step — a strictly better
        // bound that *requires* a relax edge in its certificate.
        let mm = roundelim_problems::matching::maximal_matching(3).unwrap();
        let opts = SearchOptions {
            max_steps: 6,
            beam_width: 6,
            max_labels: 10,
            ..SearchOptions::default()
        };
        let with = autolb(&mm, &opts).unwrap();
        assert_eq!(with.verdict, Verdict::LowerBound { rounds: 3 });
        let cert = with.certificate.unwrap();
        assert!(
            cert.edges.iter().any(|e| matches!(e, Edge::Relax { .. })),
            "the depth-3 chain must use a searched relaxation"
        );
        let without = autolb(&mm, &SearchOptions { use_relaxations: false, ..opts }).unwrap();
        assert_eq!(without.verdict, Verdict::LowerBound { rounds: 2 });
    }

    #[test]
    fn sibling_pruning_preserves_the_search_exactly() {
        // With every explored problem inside the step bound (no oversized
        // sources, so the edge-row subset restriction never fires), the
        // pruned search must intern the same canonical class set and emit
        // the same verdict and certificate as the unpruned search — the
        // pruning only skips isomorphic sibling duplicates.
        let specs = [
            ("name: so\nnode: O O O | O O I | O I I\nedge: O I", 2),
            ("name: c3\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3", 1),
            ("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1", 2),
        ];
        for (text, steps) in specs {
            let p = Problem::parse(text).unwrap();
            let base = SearchOptions {
                max_steps: steps,
                beam_width: 6,
                max_labels: 16,
                threads: 1,
                prune_siblings: false,
                ..SearchOptions::default()
            };
            let unpruned = autolb(&p, &base).unwrap();
            let pruned =
                autolb(&p, &SearchOptions { prune_siblings: true, ..base.clone() }).unwrap();
            assert_eq!(pruned.verdict, unpruned.verdict, "{text}");
            assert_eq!(pruned.certificate, unpruned.certificate, "{text}");
            assert_eq!(
                pruned.stats.cache.classes, unpruned.stats.cache.classes,
                "{text}: class sets diverged"
            );
        }
    }

    #[test]
    fn a_panicked_representative_leaves_its_class_to_be_finished() {
        use std::sync::atomic::AtomicUsize;
        // Items are (class, item) halves: 0 and 2 share class 7, 1 and 3
        // share class 8. Item 4 ended in phase 1 as a dead end, item 5
        // panicked there. Class 7's first member panics in phase 2, class
        // 8's first member is a dead end.
        let halves = vec![
            Some(Some((7, 0))),
            Some(Some((8, 1))),
            Some(Some((7, 2))),
            Some(Some((8, 3))),
            Some(None),
            None,
        ];
        for threads in [1, 2] {
            let calls = AtomicUsize::new(0);
            let (out, panics, dedups) = finish_by_class(
                halves.clone(),
                |a: &(u8, usize), b: &(u8, usize)| a.0 == b.0,
                threads,
                |(class, item), inner| {
                    // Two first members share the budget; item 2 finishes alone.
                    assert_eq!(inner, if item == 2 { threads } else { 1 });
                    calls.fetch_add(1, Ordering::SeqCst);
                    assert!(item != 0, "injected panic on a phase-2 representative");
                    (class == 7).then_some(item * 10)
                },
            );
            assert_eq!(panics, 1, "threads={threads}");
            // The panicked class's other member is computed, not marked
            // dead; the dead-end class's other member costs nothing.
            assert_eq!(out, [None, Some(None), Some(Some(20)), Some(None), Some(None), None]);
            assert_eq!(dedups, 1, "threads={threads}");
            assert_eq!(calls.load(Ordering::SeqCst), 3, "threads={threads}");
        }
    }

    #[test]
    fn depth_budget_yields_a_partial_lower_bound() {
        let opts = SearchOptions { max_steps: 0, ..SearchOptions::default() };
        let out = autolb(&so3(), &opts).unwrap();
        assert_eq!(out.verdict, Verdict::LowerBound { rounds: 0 });
        out.certificate.unwrap().verify().unwrap();
    }
}
