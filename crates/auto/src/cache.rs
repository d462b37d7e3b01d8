//! Canonical-form memo cache: the node store of the search graph.
//!
//! Every problem the search touches is interned here, deduplicated up to
//! isomorphism so isomorphic problems share one node. The index is the
//! [`fingerprint`], a 64-bit digest of refined isomorphism invariants, and
//! **every class registers its fingerprint when it is created**: the root,
//! step children, and every wave commit. Isomorphic problems share a
//! fingerprint, so a fingerprint miss proves a problem new, and a hit costs
//! one [`are_isomorphic`] check per class in the bucket. No canonical form
//! is ever enumerated, at any alphabet size.
//!
//! Two entry points intern: [`CanonCache::intern_wave`] resolves a whole
//! relaxation wave in parallel across fingerprint shards, and
//! [`CanonCache::intern`] takes one problem at a time (the search root, the
//! daemon's proof store). Step children go through
//! [`CanonCache::record_step`] with a fingerprint computed on a worker.
//!
//! A **process-wide `full_step` memo** ([`full_step_cached`]), keyed by the
//! fingerprint and resolved by exact problem equality, makes repeated
//! searches in one process (sweeps, benches, the CLI) never recompute a
//! speedup they have already taken.
//!
//! Per node the cache also memoizes the two expensive per-problem queries
//! the search repeats: the [`full_step`] successor (by node id, so a whole
//! isomorphism class pays for one speedup computation) and 0-round
//! solvability per model.

use crate::failpoint;
use roundelim_core::error::{Error, Result};
use roundelim_core::iso::are_isomorphic;
use roundelim_core::problem::Problem;
use roundelim_core::profile::{span, Stage};
use roundelim_core::sequence::ZeroRoundModel;
use roundelim_core::speedup::full_step;
use roundelim_core::zero_round::{zero_round_oriented, zero_round_pn};
use roundelim_obs as obs;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Identifier of an interned problem (an isomorphism class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Entry {
    /// The first concrete representative that reached this class.
    problem: Problem,
    /// Memoized [`full_step`] successor (and the derived problem itself,
    /// which may differ from the successor class representative by a label
    /// renaming — certificates need the concrete derived problem).
    step: Option<(NodeId, Problem)>,
    /// Memoized 0-round verdicts, one slot per [`ZeroRoundModel`].
    zero_round: [Option<bool>; 2],
}

/// Cache counters, reported in search outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Interned problems that were new (distinct isomorphism classes).
    pub classes: usize,
    /// Intern calls answered by an existing class.
    pub dedup_hits: usize,
    /// Isomorphism checks against the members of a fingerprint bucket.
    pub iso_resolutions: usize,
    /// `full_step` computations avoided by the memo.
    pub step_hits: usize,
    /// `full_step` computations performed.
    pub step_misses: usize,
}

/// Cheap isomorphism-invariant digest (re-exported from core's `iso`,
/// which owns the refined-hash machinery it must stay in lockstep with).
pub use roundelim_core::iso::fingerprint;

/// The canonical-form cache (see module docs).
#[derive(Debug, Default)]
pub struct CanonCache {
    /// Fingerprint index over every interned class, ids in creation order
    /// within a bucket (collisions resolved by isomorphism).
    fps: HashMap<u64, Vec<NodeId>>,
    entries: Vec<Entry>,
    /// Hit/miss counters.
    pub stats: CacheStats,
}

impl CanonCache {
    /// An empty cache.
    pub fn new() -> CanonCache {
        CanonCache::default()
    }

    /// Number of interned isomorphism classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interns a problem, returning its class id and whether the class is
    /// new. The first problem to reach a class stays its representative.
    pub fn intern(&mut self, p: Problem) -> (NodeId, bool) {
        let fp = fingerprint(&p);
        let (id, back) = self.intern_fp(fp, p);
        (id, back.is_none())
    }

    /// Interns `p` under its fingerprint `fp`: the bucket's classes are
    /// checked in creation order, and a miss creates a class. On dedup the
    /// problem is handed back (`Some`); a new class consumes it (`None`).
    fn intern_fp(&mut self, fp: u64, p: Problem) -> (NodeId, Option<Problem>) {
        for &id in self.fps.get(&fp).map(Vec::as_slice).unwrap_or_default() {
            self.stats.iso_resolutions += 1;
            let iso = {
                let _sp = span(Stage::Canon);
                are_isomorphic(&self.entries[id.index()].problem, &p)
            };
            if iso {
                self.stats.dedup_hits += 1;
                return (id, Some(p));
            }
        }
        (self.push_class(fp, p), None)
    }

    /// Creates a class for a problem known to be new and registers its
    /// fingerprint.
    fn push_class(&mut self, fp: u64, problem: Problem) -> NodeId {
        failpoint::hit("cache-insert");
        let id = NodeId(u32::try_from(self.entries.len()).expect("node count fits u32"));
        self.entries.push(Entry { problem, step: None, zero_round: [None, None] });
        self.stats.classes += 1;
        self.fps.entry(fp).or_default().push(id);
        id
    }

    /// Interns a whole wave of fingerprinted candidates at once, resolving
    /// them **in parallel across fingerprint shards** and then assigning
    /// `NodeId`s in a deterministic sequential pass in item order.
    ///
    /// Correctness of the sharding: [`fingerprint`] is an isomorphism
    /// invariant, so two isomorphic candidates always carry the same
    /// fingerprint and land in the same shard (`fp % shards`). Every class
    /// is in the fingerprint index, so a shard that finds no isomorphic
    /// class in the frozen pre-wave bucket nor among its own earlier
    /// candidates has found a new class, and the dup/new decision for every
    /// item is independent of both the shard count and the schedule. The
    /// commit pass then creates the new classes in item order, so the
    /// resulting cache — ids, bucket order, `cache-insert` failpoints,
    /// counters — is bit-identical to [`CanonCache::intern`]ing the items
    /// one by one on one thread.
    ///
    /// Per item, a dup hands the probe problem back (`Some`) and a new
    /// class consumes it (`None`).
    pub fn intern_wave(
        &mut self,
        items: Vec<(u64, Problem)>,
        threads: usize,
        shards: usize,
    ) -> Vec<(NodeId, Option<Problem>)> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let shards = shards.max(1);
        // Partition by fingerprint shard; item order is preserved within a
        // shard, so each shard worker sees its items in global item order.
        let mut split: Vec<Vec<(usize, u64, Problem)>> = (0..shards).map(|_| Vec::new()).collect();
        for (idx, (fp, p)) in items.into_iter().enumerate() {
            split[(fp % shards as u64) as usize].push((idx, fp, p));
        }
        // Phase 1 (parallel): resolve every shard against the frozen cache.
        // Tasks own their item lists behind a claim Mutex so the problems
        // can be moved, not cloned, into the resolution.
        let frozen = &*self;
        type ShardTask = Mutex<Option<Vec<(usize, u64, Problem)>>>;
        let tasks: Vec<ShardTask> = split.into_iter().map(|list| Mutex::new(Some(list))).collect();
        let resolved = roundelim_core::par::par_map(&tasks, threads, |task| {
            let list = task.lock().expect("shard task slot").take().expect("claimed once");
            resolve_wave_shard(frozen, list)
        });
        // Phase 2 (sequential, item order): allocate ids and commit. A
        // shard creates its fresh classes in item order, so its k-th new
        // item is its k-th fresh class and receives the k-th id assigned
        // to the shard.
        let mut per_item: Vec<Option<(usize, WaveRes)>> = (0..n).map(|_| None).collect();
        let mut fresh = Vec::with_capacity(shards);
        for (s, (out, shard)) in resolved.into_iter().enumerate() {
            self.stats.iso_resolutions += shard.iso_resolutions;
            self.stats.dedup_hits += shard.dedup_hits;
            fresh.push(shard.fresh.into_iter());
            for (idx, res) in out {
                per_item[idx] = Some((s, res));
            }
        }
        let mut assigned: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        let mut out = Vec::with_capacity(n);
        for slot in per_item {
            let (s, res) = slot.expect("every wave item resolves");
            out.push(match res {
                Some((WaveRef::Global(id), problem)) => (id, Some(problem)),
                Some((WaveRef::Fresh(f), problem)) => (assigned[s][f], Some(problem)),
                None => {
                    let (problem, fp) = fresh[s].next().expect("one new item per fresh class");
                    let id = self.push_class(fp, problem);
                    assigned[s].push(id);
                    (id, None)
                }
            });
        }
        out
    }

    /// The representative problem of a class.
    pub fn problem(&self, id: NodeId) -> &Problem {
        &self.entries[id.index()].problem
    }

    /// Memoized 0-round solvability of a class under `model`. Sound across
    /// the class because 0-round solvability is isomorphism-invariant.
    pub fn is_zero_round(&mut self, id: NodeId, model: ZeroRoundModel) -> bool {
        let slot = zero_slot(model);
        if let Some(v) = self.entries[id.index()].zero_round[slot] {
            return v;
        }
        let v = zero_round_check(&self.entries[id.index()].problem, model);
        self.entries[id.index()].zero_round[slot] = Some(v);
        v
    }

    /// Fills the `model` 0-round memo of every class in `ids` that lacks
    /// one, running the checks on the executor. Each check is a pure
    /// function of its class, and the results are written in `ids` order,
    /// so the memos are the same at every thread count.
    pub fn fill_zero_round(&mut self, ids: &[NodeId], model: ZeroRoundModel, threads: usize) {
        let slot = zero_slot(model);
        let todo: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|id| self.entries[id.index()].zero_round[slot].is_none())
            .collect();
        let entries = &self.entries;
        let verdicts = roundelim_core::par::par_map(&todo, threads, |id| {
            zero_round_check(&entries[id.index()].problem, model)
        });
        for (id, v) in todo.into_iter().zip(verdicts) {
            self.entries[id.index()].zero_round[slot] = Some(v);
        }
    }

    /// Memoized speedup: the [`full_step`] successor class of `id`, plus
    /// the concrete derived problem (exactly `full_step(problem(id))`,
    /// recorded so certificate chains can splice it in verbatim).
    ///
    /// # Errors
    ///
    /// Propagates speedup errors (e.g. alphabet overflow).
    pub fn step(&mut self, id: NodeId) -> Result<(NodeId, Problem)> {
        if let Some(succ) = self.step_succ(id) {
            let derived = self.step_derived(id).expect("memo present").clone();
            return Ok((succ, derived));
        }
        let derived = full_step_cached(&self.entries[id.index()].problem)?;
        let fp = fingerprint(&derived);
        let (succ, _) = self.record_step(id, derived.clone(), fp);
        Ok((succ, derived))
    }

    /// The memoized step successor class, if it has been computed. Cheap
    /// (no problem clone) — fetch the derived problem separately with
    /// [`CanonCache::step_derived`] on the rare paths that need it.
    pub fn step_succ(&mut self, id: NodeId) -> Option<NodeId> {
        let memo = self.entries[id.index()].step.as_ref().map(|(succ, _)| *succ);
        if memo.is_some() {
            self.stats.step_hits += 1;
        }
        memo
    }

    /// The memoized concrete derived problem of `id`'s step, if computed.
    pub fn step_derived(&self, id: NodeId) -> Option<&Problem> {
        self.entries[id.index()].step.as_ref().map(|(_, derived)| derived)
    }

    /// Records a step result the caller computed (with its fingerprint) on
    /// a worker thread; interns the derived problem and fills the memo.
    /// Returns the successor class and whether it is new.
    pub fn record_step(&mut self, id: NodeId, derived: Problem, fp: u64) -> (NodeId, bool) {
        self.stats.step_misses += 1;
        let (succ, back) = self.intern_fp(fp, derived.clone());
        self.entries[id.index()].step = Some((succ, derived));
        (succ, back.is_none())
    }

    /// A deep snapshot of the cache, for checkpointing. [`CanonCache::restore`]
    /// rebuilds a behaviorally identical cache from it.
    pub fn snapshot(&self) -> CacheSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|e| (e.problem.clone(), e.step.clone(), e.zero_round))
            .collect();
        // The fingerprint index is exported verbatim (sorted by fingerprint
        // for stable serialization bytes), so a restored cache probes its
        // buckets in the same order and counts the same checks.
        let mut fps: Vec<(u64, Vec<NodeId>)> =
            self.fps.iter().map(|(fp, ids)| (*fp, ids.clone())).collect();
        fps.sort_unstable_by_key(|(fp, _)| *fp);
        CacheSnapshot { entries, fps, stats: self.stats }
    }

    /// Rebuilds a cache from a snapshot: entries, the fingerprint index,
    /// and the counters are restored verbatim, so the result deduplicates,
    /// memoizes, and counts exactly like the cache the snapshot was taken
    /// from. Snapshots written before every class registered its
    /// fingerprint lack the root and step children; those classes are
    /// registered here, in id order, so a fingerprint miss still proves a
    /// problem new.
    ///
    /// # Errors
    ///
    /// Rejects snapshots with out-of-range node ids.
    pub fn restore(snap: CacheSnapshot) -> Result<CanonCache> {
        let n = snap.entries.len();
        let bad = |reason: String| Error::Inconsistent { reason };
        if u32::try_from(n).is_err() {
            return Err(bad("cache snapshot: too many entries".into()));
        }
        let mut cache = CanonCache { stats: snap.stats, ..CanonCache::default() };
        for (i, (problem, step, zero_round)) in snap.entries.into_iter().enumerate() {
            if let Some((succ, _)) = &step {
                if succ.index() >= n {
                    return Err(bad(format!(
                        "cache snapshot: entry {i} has step successor {} out of range",
                        succ.0
                    )));
                }
            }
            cache.entries.push(Entry { problem, step, zero_round });
        }
        let mut indexed = vec![false; n];
        for (fp, ids) in snap.fps {
            for id in &ids {
                if id.index() >= n {
                    return Err(bad(format!(
                        "cache snapshot: fingerprint {fp:#x} indexes node {} out of range",
                        id.0
                    )));
                }
                indexed[id.index()] = true;
            }
            cache.fps.insert(fp, ids);
        }
        for (i, e) in cache.entries.iter().enumerate() {
            if !indexed[i] {
                cache.fps.entry(fingerprint(&e.problem)).or_default().push(NodeId(i as u32));
            }
        }
        Ok(cache)
    }
}

/// The memo slot of a [`ZeroRoundModel`].
fn zero_slot(model: ZeroRoundModel) -> usize {
    match model {
        ZeroRoundModel::PlainPn => 0,
        ZeroRoundModel::Oriented => 1,
    }
}

/// One 0-round solvability check, timed as a `stage.zero-round` span.
fn zero_round_check(p: &Problem, model: ZeroRoundModel) -> bool {
    let _sp = span(Stage::ZeroRound);
    match model {
        ZeroRoundModel::PlainPn => zero_round_pn(p).is_some(),
        ZeroRoundModel::Oriented => zero_round_oriented(p).is_some(),
    }
}

/// A resolved reference inside a shard: either a pre-wave class or a fresh
/// one from this wave (an index into the shard's `fresh` table).
#[derive(Clone, Copy)]
enum WaveRef {
    Global(NodeId),
    Fresh(usize),
}

/// Per-item resolution of a wave candidate (see [`CanonCache::intern_wave`]):
/// a dup of a pre-wave class, or of a class first created by an earlier
/// item of this wave (same shard by fingerprint invariance), hands the
/// probe problem back; `None` is a brand-new class, parked in the shard's
/// `fresh` table until the commit pass assigns its id.
type WaveRes = Option<(WaveRef, Problem)>;

/// Working state of one shard's resolution: the classes first seen in this
/// wave and the stat deltas, summed into [`CacheStats`] at commit (sums are
/// order-independent, so the totals stay deterministic).
#[derive(Default)]
struct ShardState {
    /// `(problem, fingerprint)` of each fresh class, in creation order.
    fresh: Vec<(Problem, u64)>,
    /// Fingerprint buckets of the fresh classes (indexes into `fresh`).
    new_fps: HashMap<u64, Vec<usize>>,
    iso_resolutions: usize,
    dedup_hits: usize,
}

impl ShardState {
    /// Resolves one candidate with the probe sequence of
    /// [`CanonCache::intern`]: the fingerprint bucket's frozen members in
    /// creation order, then this wave's. A miss is a new class.
    fn resolve(&mut self, cache: &CanonCache, fp: u64, p: Problem) -> WaveRes {
        let frozen = cache.fps.get(&fp).into_iter().flatten().map(|&id| WaveRef::Global(id));
        let local = self.new_fps.get(&fp).into_iter().flatten().map(|&f| WaveRef::Fresh(f));
        let mut checks = 0;
        let found = frozen.chain(local).find(|&r| {
            checks += 1;
            let target = match r {
                WaveRef::Global(id) => &cache.entries[id.index()].problem,
                WaveRef::Fresh(f) => &self.fresh[f].0,
            };
            let _sp = span(Stage::Canon);
            are_isomorphic(target, &p)
        });
        self.iso_resolutions += checks;
        if let Some(to) = found {
            self.dedup_hits += 1;
            return Some((to, p));
        }
        self.new_fps.entry(fp).or_default().push(self.fresh.len());
        self.fresh.push((p, fp));
        None
    }
}

/// Resolves one shard's candidates against the frozen pre-wave cache plus
/// the shard's own earlier candidates (see [`ShardState::resolve`]).
/// Returns `(global item index, resolution)` in item order and the shard's
/// final state.
fn resolve_wave_shard(
    cache: &CanonCache,
    items: Vec<(usize, u64, Problem)>,
) -> (Vec<(usize, WaveRes)>, ShardState) {
    let metrics = intern_metrics();
    let mut st = ShardState::default();
    let mut out = Vec::with_capacity(items.len());
    for (idx, fp, p) in items {
        let watch = obs::armed().then(obs::time::Stopwatch::start);
        let res = st.resolve(cache, fp, p);
        let (count, latency) = if res.is_none() {
            (metrics.misses, metrics.miss_ns)
        } else {
            (metrics.hits, metrics.hit_ns)
        };
        count.incr();
        if let Some(watch) = watch {
            latency.record(watch.elapsed_ns());
        }
        out.push((idx, res));
    }
    (out, st)
}

/// One class in a [`CacheSnapshot`]: the representative problem, the step
/// memo (successor class plus the concrete derived problem), and the
/// per-model 0-round memos.
pub type SnapshotEntry = (Problem, Option<(NodeId, Problem)>, [Option<bool>; 2]);

/// A deep, serializable snapshot of a [`CanonCache`]
/// (see [`CanonCache::snapshot`]).
#[derive(Debug, Clone)]
pub struct CacheSnapshot {
    /// Per class, in id order (see [`SnapshotEntry`]).
    pub entries: Vec<SnapshotEntry>,
    /// The fingerprint index, sorted by fingerprint; ids inside a bucket
    /// keep their registration order.
    pub fps: Vec<(u64, Vec<NodeId>)>,
    /// The counters at snapshot time.
    pub stats: CacheStats,
}

/// Entry cap of the process-wide [`full_step_cached`] memo; beyond it new
/// results are computed but not stored (the cap bounds memory for
/// long-lived processes, and the first thousand problems cover every
/// sweep/bench workload by a wide margin).
const STEP_MEMO_CAP: usize = 1024;

/// Registry handles for the cache probes, resolved once so the hot
/// paths pay one relaxed `fetch_add` per event instead of a registry
/// lock.
struct CacheMetrics {
    hits: &'static obs::metrics::Counter,
    misses: &'static obs::metrics::Counter,
    hit_ns: &'static obs::metrics::Histogram,
    miss_ns: &'static obs::metrics::Histogram,
}

fn intern_metrics() -> &'static CacheMetrics {
    static M: OnceLock<CacheMetrics> = OnceLock::new();
    M.get_or_init(|| CacheMetrics {
        hits: obs::metrics::counter("cache.intern_hits"),
        misses: obs::metrics::counter("cache.intern_misses"),
        hit_ns: obs::metrics::histogram("cache.intern_hit_ns"),
        miss_ns: obs::metrics::histogram("cache.intern_miss_ns"),
    })
}

fn step_memo_metrics() -> &'static CacheMetrics {
    static M: OnceLock<CacheMetrics> = OnceLock::new();
    M.get_or_init(|| CacheMetrics {
        hits: obs::metrics::counter("cache.step_memo_hits"),
        misses: obs::metrics::counter("cache.step_memo_misses"),
        hit_ns: obs::metrics::histogram("cache.step_memo_hit_ns"),
        miss_ns: obs::metrics::histogram("cache.step_memo_miss_ns"),
    })
}

/// The process-wide step memo's storage.
#[derive(Default)]
struct StepMemo {
    /// Fingerprint-bucketed (source, derived) pairs.
    buckets: HashMap<u64, Vec<(Problem, Problem)>>,
    /// Pairs stored across all buckets, kept under [`STEP_MEMO_CAP`].
    len: usize,
}

/// Process-wide exact `full_step` memo, keyed by the [`fingerprint`] and
/// resolved by **exact problem equality** (an isomorphic hit is not
/// enough: the search and the certificates need the concrete derived
/// problem of *this* representative, names included).
///
/// This is what makes repeated searches in one process — `autolb --sweep`
/// over the registry, bench iterations, chained CLI searches — pay for
/// each distinct speedup once. Within a single search the per-class memo
/// in [`CanonCache::step`] already deduplicates, so this layer only fires
/// across searches.
///
/// # Errors
///
/// Propagates speedup errors (e.g. alphabet overflow). Errors are not
/// memoized.
pub fn full_step_cached(p: &Problem) -> Result<Problem> {
    static MEMO: OnceLock<Mutex<StepMemo>> = OnceLock::new();
    let memo = MEMO.get_or_init(Mutex::default);
    let fp = fingerprint(p);
    let metrics = step_memo_metrics();
    let watch = obs::armed().then(obs::time::Stopwatch::start);
    {
        let guard = memo.lock().expect("step memo poisoned");
        if let Some(bucket) = guard.buckets.get(&fp) {
            for (src, derived) in bucket {
                if src == p {
                    metrics.hits.incr();
                    if let Some(watch) = watch {
                        metrics.hit_ns.record(watch.elapsed_ns());
                    }
                    return Ok(derived.clone());
                }
            }
        }
    }
    metrics.misses.incr();
    let _sp = span(Stage::Step);
    let derived = full_step(p)?.problem().clone();
    if let Some(watch) = watch {
        metrics.miss_ns.record(watch.elapsed_ns());
    }
    let mut guard = memo.lock().expect("step memo poisoned");
    let memo = &mut *guard;
    if memo.len < STEP_MEMO_CAP {
        let bucket = memo.buckets.entry(fp).or_default();
        if !bucket.iter().any(|(src, _)| src == p) {
            bucket.push((p.clone(), derived.clone()));
            memo.len += 1;
        }
    }
    Ok(derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use roundelim_core::iso::{dedup_key, DedupKey};

    fn sc() -> Problem {
        Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap()
    }

    fn renamed_sc() -> Problem {
        Problem::parse("name: r\nnode: B A A\nedge: A A | A B").unwrap()
    }

    fn trivial() -> Problem {
        Problem::parse("name: t\nnode: X X X\nedge: X X").unwrap()
    }

    fn two() -> Problem {
        Problem::parse("name: two\nnode: A A A | B B B\nedge: A B").unwrap()
    }

    /// The keyed interner the fingerprint index replaced, kept as an
    /// oracle: exact canonical keys dedup on the first bucket member,
    /// coarse (signature-profile) keys above 9 labels by isomorphism.
    #[derive(Default)]
    struct KeyedOracle {
        ids: HashMap<DedupKey, Vec<NodeId>>,
        problems: Vec<Problem>,
        dedup_hits: usize,
    }

    impl KeyedOracle {
        fn intern(&mut self, p: Problem) -> (NodeId, bool) {
            let key = dedup_key(&p);
            let exact = key.is_exact();
            let bucket = self.ids.entry(key).or_default();
            let problems = &self.problems;
            if let Some(&id) =
                bucket.iter().find(|id| exact || are_isomorphic(&problems[id.index()], &p))
            {
                self.dedup_hits += 1;
                return (id, false);
            }
            let id = NodeId(self.problems.len() as u32);
            bucket.push(id);
            self.problems.push(p);
            (id, true)
        }
    }

    /// A random problem shape: label count, node configurations (Δ = 3)
    /// and edge configurations, as label indexes.
    type Shape = (usize, Vec<Vec<usize>>, Vec<Vec<usize>>);

    fn random_shape(rng: &mut rand::rngs::StdRng, labels: usize) -> Shape {
        let mut configs = |arity: usize, count: usize| -> Vec<Vec<usize>> {
            (0..count).map(|_| (0..arity).map(|_| rng.gen_range(0..labels)).collect()).collect()
        };
        let node = configs(3, labels);
        (labels, node, configs(2, labels + 2))
    }

    /// Renders `shape` under a random renaming of its labels.
    fn render(shape: &Shape, rng: &mut rand::rngs::StdRng) -> Problem {
        let (labels, node, edge) = shape;
        let mut names: Vec<String> = (0..*labels).map(|i| format!("q{i}")).collect();
        names.shuffle(rng);
        let line = |cs: &[Vec<usize>]| {
            cs.iter()
                .map(|c| c.iter().map(|&l| names[l].as_str()).collect::<Vec<_>>().join(" "))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        Problem::parse(&format!("name: r\nnode: {}\nedge: {}", line(node), line(edge))).unwrap()
    }

    #[test]
    fn isomorphic_problems_share_a_class() {
        let mut cache = CanonCache::new();
        let (a, new_a) = cache.intern(sc());
        let (b, new_b) = cache.intern(renamed_sc());
        assert!(new_a && !new_b);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats.dedup_hits, 1);
        // The representative is the first problem interned.
        assert_eq!(cache.problem(a).name(), "sc");
    }

    #[test]
    fn large_problems_use_coarse_keys_and_still_dedup() {
        // 12 labels: above the canonical-form regime, where the keyed
        // interner fell back to coarse keys. A renamed copy must still
        // dedup through the fingerprint index.
        let mk = |names: &[&str]| {
            let node = names.chunks(2).map(|c| c.join(" ")).collect::<Vec<_>>().join(" | ");
            let edge = names.windows(2).map(|c| c.join(" ")).collect::<Vec<_>>().join(" | ");
            Problem::parse(&format!("name: big\nnode: {node}\nedge: {edge}")).unwrap()
        };
        let names: Vec<&str> = vec!["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];
        let renamed: Vec<&str> =
            vec!["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "xa", "xb"];
        assert!(!dedup_key(&mk(&names)).is_exact());
        let mut cache = CanonCache::new();
        let (a, _) = cache.intern(mk(&names));
        let (b, new_b) = cache.intern(mk(&renamed));
        assert_eq!(a, b);
        assert!(!new_b);
    }

    #[test]
    fn fingerprint_intern_skips_canonical_keys_on_dedup() {
        let mut cache = CanonCache::new();
        let (a, new_a) = cache.intern(sc());
        assert!(new_a);
        // A renamed copy has the same fingerprint and dedups with exactly
        // one isomorphism check against the bucket's one class.
        assert_eq!(fingerprint(&sc()), fingerprint(&renamed_sc()), "isomorphism-invariant");
        let (b, new_b) = cache.intern(renamed_sc());
        assert_eq!(a, b);
        assert!(!new_b);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats.iso_resolutions, 1);
        // A new class with an empty bucket costs no check at all.
        cache.intern(trivial());
        assert_eq!(cache.stats.iso_resolutions, 1);
    }

    #[test]
    fn fingerprint_index_and_keyed_intern_agree() {
        // Fingerprint-only dedup against the keyed oracle: random waves of
        // renamed copies of random shapes (a third of them above 9
        // labels), on top of a root and a step child created outside the
        // wave path. Ids, hence the class partition, and dedup counts must
        // match at every thread and shard count.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1A6);
        let shapes: Vec<Shape> = (0..14)
            .map(|i| {
                let labels = if i % 3 == 0 { rng.gen_range(10..=12) } else { rng.gen_range(2..=5) };
                random_shape(&mut rng, labels)
            })
            .collect();
        let root = render(&shapes[0], &mut rng);
        let child = render(&shapes[1], &mut rng);
        let waves: Vec<Vec<Problem>> = (0..4)
            .map(|_| (0..30).map(|_| render(shapes.choose(&mut rng).unwrap(), &mut rng)).collect())
            .collect();
        assert!(waves.iter().flatten().any(|p| p.alphabet().len() > 9));

        let mut oracle = KeyedOracle::default();
        oracle.intern(root.clone());
        oracle.intern(child.clone());
        let expect: Vec<Vec<(NodeId, bool)>> =
            waves.iter().map(|w| w.iter().map(|p| oracle.intern(p.clone())).collect()).collect();
        // Wave items dedup onto the root and the step child too.
        assert!(expect.iter().flatten().any(|&(id, new)| !new && id == NodeId(0)));
        assert!(expect.iter().flatten().any(|&(id, new)| !new && id == NodeId(1)));
        for threads in [1, 2, 4] {
            for shards in [1, 4, 64] {
                let mut cache = CanonCache::new();
                let (r, _) = cache.intern(root.clone());
                cache.record_step(r, child.clone(), fingerprint(&child));
                for (w, want) in waves.iter().zip(&expect) {
                    let items = w.iter().map(|p| (fingerprint(p), p.clone())).collect();
                    let got: Vec<(NodeId, bool)> = cache
                        .intern_wave(items, threads, shards)
                        .into_iter()
                        .map(|(id, back)| (id, back.is_none()))
                        .collect();
                    assert_eq!(&got, want, "threads={threads} shards={shards}");
                }
                assert_eq!(cache.len(), oracle.problems.len());
                assert_eq!(cache.stats.dedup_hits, oracle.dedup_hits);
            }
        }
    }

    #[test]
    fn wave_intern_matches_sequential_and_every_shard_count() {
        // A wave with in-wave duplicates (renamed copies), cross-wave
        // duplicates (classes already interned), and fresh classes. The
        // wave interner must hand back exactly what one-at-a-time `intern`
        // does — same ids, same dup/new split, same final cache — at every
        // thread and shard count.
        let wave: Vec<Problem> =
            vec![sc(), trivial(), renamed_sc(), two(), trivial(), sc(), renamed_sc(), two()];
        let items = |w: &[Problem]| -> Vec<(u64, Problem)> {
            w.iter().map(|p| (fingerprint(p), p.clone())).collect()
        };

        // Reference: sequential interning into a pre-seeded cache (one
        // class interned before the wave, so frozen-vs-fresh dedup is
        // exercised too).
        let mut reference = CanonCache::new();
        reference.intern(sc());
        let (expect, expect_snap) = {
            let mut c = CanonCache::restore(reference.snapshot()).unwrap();
            let ids: Vec<(NodeId, bool)> = wave.iter().map(|p| c.intern(p.clone())).collect();
            (ids, c.snapshot())
        };
        for threads in [1, 2, 4] {
            for shards in [1, 4, 64] {
                let mut c = CanonCache::restore(reference.snapshot()).unwrap();
                let got: Vec<(NodeId, bool)> = c
                    .intern_wave(items(&wave), threads, shards)
                    .into_iter()
                    .map(|(id, back)| (id, back.is_none()))
                    .collect();
                // 3 classes: sc (pre-seeded), trivial, two; the other 6
                // wave items dedup (renamed ≅ sc).
                assert_eq!(got, expect, "threads={threads} shards={shards}");
                assert_eq!(c.len(), 3, "threads={threads} shards={shards}");
                assert_eq!(c.stats.classes, 3);
                assert_eq!(c.stats.dedup_hits, 6);
                // Same buckets in the same order, same counters.
                let snap = c.snapshot();
                assert_eq!(snap.fps, expect_snap.fps);
                assert_eq!(snap.stats, expect_snap.stats);
            }
        }
    }

    #[test]
    fn step_is_memoized() {
        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(sc());
        let (s1, d1) = cache.step(id).unwrap();
        let (s2, d2) = cache.step(id).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(d1, d2);
        assert_eq!(cache.stats.step_misses, 1);
        assert_eq!(cache.stats.step_hits, 1);
        // §4.4: the derived problem of sinkless coloring is isomorphic to it.
        assert_eq!(s1, id);
    }

    #[test]
    fn process_step_memo_returns_exact_results() {
        let p = sc();
        let a = full_step_cached(&p).unwrap();
        let b = full_step_cached(&p).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, full_step(&p).unwrap().problem().clone());
    }

    #[test]
    fn snapshot_restore_preserves_behavior_and_counters() {
        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(sc());
        cache.step(id).unwrap();
        assert!(!cache.is_zero_round(id, ZeroRoundModel::Oriented));
        cache.intern_wave(vec![(fingerprint(&trivial()), trivial())], 1, 1);

        let mut restored = CanonCache::restore(cache.snapshot()).unwrap();
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.stats, cache.stats);
        // Dedup still lands on the original ids through both intern paths.
        let (rid, new) = restored.intern(renamed_sc());
        assert_eq!(rid, id);
        assert!(!new);
        let got = restored.intern_wave(vec![(fingerprint(&trivial()), trivial())], 2, 4);
        assert_eq!(got[0].0.index(), 1);
        assert!(got[0].1.is_some());
        // The step memo came along: no recomputation.
        let misses = restored.stats.step_misses;
        let (succ, _) = restored.step(id).unwrap();
        assert_eq!(succ, id);
        assert_eq!(restored.stats.step_misses, misses);
        // So did the 0-round memo.
        assert!(!restored.is_zero_round(id, ZeroRoundModel::Oriented));
    }

    #[test]
    fn restore_registers_classes_missing_from_the_fingerprint_index() {
        // Snapshots written before every class registered its fingerprint
        // (old checkpoints and store sidecars) lack the root and the step
        // children. Restoring one must still dedup isomorphic problems onto
        // the original ids instead of minting duplicate classes.
        let mut cache = CanonCache::new();
        let (root, _) = cache.intern(sc());
        let (child, new) = cache.record_step(root, two(), fingerprint(&two()));
        assert!(new);
        let full = cache.snapshot();
        let renamed_two = Problem::parse("name: t2\nnode: P P P | Q Q Q\nedge: Q P").unwrap();
        for (omit, probe) in [(root, renamed_sc()), (child, renamed_two)] {
            let mut snap = cache.snapshot();
            for (_, ids) in &mut snap.fps {
                ids.retain(|&id| id != omit);
            }
            snap.fps.retain(|(_, ids)| !ids.is_empty());
            assert_ne!(snap.fps, full.fps);
            let mut restored = CanonCache::restore(snap).unwrap();
            assert_eq!(restored.snapshot().fps, full.fps, "registration completes the index");
            let (id, fresh) = restored.intern(probe);
            assert_eq!(id, omit);
            assert!(!fresh);
            assert_eq!(restored.len(), 2);
        }
    }

    #[test]
    fn restore_rejects_out_of_range_ids() {
        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(sc());
        cache.step(id).unwrap();
        let mut snap = cache.snapshot();
        snap.entries[0].1.as_mut().unwrap().0 = NodeId(99);
        assert!(CanonCache::restore(snap).is_err());
        let mut snap2 = cache.snapshot();
        snap2.fps.push((7, vec![NodeId(42)]));
        assert!(CanonCache::restore(snap2).is_err());
    }

    #[test]
    fn zero_round_is_memoized_per_model() {
        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(trivial());
        assert!(cache.is_zero_round(id, ZeroRoundModel::PlainPn));
        assert!(cache.is_zero_round(id, ZeroRoundModel::Oriented));
        let (sc_id, _) = cache.intern(sc());
        assert!(!cache.is_zero_round(sc_id, ZeroRoundModel::Oriented));
        assert!(!cache.is_zero_round(sc_id, ZeroRoundModel::Oriented)); // memo path
    }
}
