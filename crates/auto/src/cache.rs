//! Pre-key + isomorphism class cache: the node store of the search graph.
//!
//! Every problem the search touches is interned here, deduplicated up to
//! isomorphism so isomorphic problems share one node. The index is the
//! [`pre_key`], a cheap structural isomorphism invariant, and every class
//! registers its pre-key when it is created: the root, step children, and
//! every wave commit. Isomorphic problems share a pre-key, so a problem
//! whose pre-key bucket is empty is new, and nothing refines it.
//!
//! **Refine only on collision.** A problem is refined (one
//! Weisfeiler–Leman refinement,
//! [`fingerprint_and_ranks`](roundelim_core::iso::fingerprint_and_ranks),
//! for its [`fingerprint`](roundelim_core::iso::fingerprint) and label
//! ranks) only when its pre-key bucket holds another member, and a stored
//! class is refined the first time its bucket gains a second member. A class keeps
//! its refinement, so each problem is refined at most once. Inside a bucket
//! a query is checked against the members with its fingerprint, in creation
//! order, with [`isomorphism_ranked`] — the candidate filter and the
//! search, with no refinement of either side. Equal fingerprints imply
//! equal pre-keys, so these are exactly the members of the query's
//! fingerprint bucket, and the checks are those of an index keyed by
//! fingerprint. No canonical form is ever enumerated, at any alphabet size.
//!
//! A class is stored as a [`PackedProblem`] (the names-free part of a
//! [`Problem`]: its constraints as sorted label rows), its fingerprint and
//! label ranks once refined, and `u32` ids into one name table per cache,
//! so a class costs about its row tables. Everything the cache and the search run per class —
//! fingerprints, isomorphism checks, 0-round deciders, move generation
//! ([`CanonCache::packed`]) — reads those rows;
//! [`CanonCache::materialize`] attaches names for the callers that need
//! them: step sources and certificates. A checkpoint writes each class
//! straight from its rows and name ids, and reading one back pushes each
//! class into a new cache in id order (see [`crate::checkpoint`]).
//!
//! Two entry points intern: [`CanonCache::intern_wave`] resolves a whole
//! relaxation wave in parallel across pre-key shards, and
//! [`CanonCache::intern`] takes one problem at a time (the search root).
//! Step children go through [`CanonCache::record_step`] with a probe built
//! on a worker.
//!
//! Per node the cache also memoizes the two expensive per-problem queries
//! the search repeats: the speedup successor (by node id, so a whole
//! isomorphism class pays for one speedup computation) and 0-round
//! solvability per model.

use crate::binenc::encode_memos;
use crate::failpoint;
use crate::moves::MoveKind;
use roundelim_core::binenc::{encode_problem_parts, Enc};
use roundelim_core::iso::{isomorphism_ranked, pre_key, Refiner};
use roundelim_core::label::Label;
use roundelim_core::packed::PackedProblem;
use roundelim_core::problem::Problem;
use roundelim_core::sequence::ZeroRoundModel;
use roundelim_core::zero_round::{zero_round_oriented, zero_round_pn};
use roundelim_obs as obs;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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
    /// The first concrete representative that reached this class, packed.
    packed: PackedProblem,
    /// The representative's refinement, set the first time the class's
    /// pre-key bucket gains a second member.
    refined: OnceLock<Refined>,
    /// The representative's names as ids into the cache's [`NameTable`]:
    /// the problem name, then the label names in index order.
    names: Box<[u32]>,
    /// Memoized speedup successor (and the derived problem itself, which
    /// may differ from the successor class representative by a label
    /// renaming — certificates need the concrete derived problem).
    step: Option<(NodeId, Box<Problem>)>,
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
    /// Speedup steps answered by the memo.
    pub step_hits: usize,
    /// Speedup steps recorded ([`CanonCache::record_step`]).
    pub step_misses: usize,
}

/// A problem in the form the cache interns: its packed constraints, its
/// [`pre_key`] (computed where the probe is built), its refinement once
/// the cache needs it, plus what it is named if it becomes a new class.
/// Dedup probes never touch the names, and a move's result carries no
/// name strings at all: the cache builds them when the result commits as
/// a new class.
#[derive(Debug)]
pub struct Probe {
    packed: PackedProblem,
    key: u64,
    refined: Option<Refined>,
    names: ProbeNames,
}

/// One refinement of a problem
/// ([`fingerprint_and_ranks`](roundelim_core::iso::fingerprint_and_ranks)):
/// its fingerprint and label ranks.
#[derive(Debug, Clone)]
struct Refined {
    fp: u64,
    ranks: Box<[u16]>,
}

/// Refines `p` with `refiner`'s buffers, counted in `cache.refinements`.
/// Every refinement the cache makes comes through here.
fn refine(p: &PackedProblem, refiner: &mut Refiner) -> Refined {
    refinements().incr();
    let (fp, ranks) = refiner.fingerprint_and_ranks(p);
    Refined { fp, ranks }
}

#[derive(Debug)]
enum ProbeNames {
    /// A problem's own names, moved out of it.
    Own { name: String, labels: Vec<String> },
    /// A move's result, named after the class it was generated from:
    /// `kept[i]` is the source label that names label `i`.
    Derived { source: NodeId, kind: MoveKind, kept: Vec<Label> },
}

impl Probe {
    /// A problem for interning, keyed by its pre-key (timed as a
    /// `search.fingerprint` span).
    pub fn new(p: Problem) -> Probe {
        let (name, labels, packed) = p.into_parts();
        let key = {
            let _sp = obs::trace::span("search.fingerprint");
            pre_key(&packed, &mut Vec::new())
        };
        Probe { packed, key, refined: None, names: ProbeNames::Own { name, labels } }
    }

    /// A move's result for interning, keyed with the reused pre-key buffer
    /// `counts` and named (if it becomes a class) after the class `source`
    /// the move was generated from.
    pub fn derived(
        source: NodeId,
        kind: MoveKind,
        kept: Vec<Label>,
        packed: PackedProblem,
        counts: &mut Vec<u64>,
    ) -> Probe {
        let key = pre_key(&packed, counts);
        Probe { packed, key, refined: None, names: ProbeNames::Derived { source, kind, kept } }
    }
}

/// The problem and label names of a cache, each distinct name stored once
/// and referred to by a dense `u32` id.
#[derive(Debug, Default)]
struct NameTable {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl NameTable {
    /// The id of `name`, adding it to the table if new.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("name count fits u32");
        let name: Arc<str> = name.into();
        packed_bytes().add(name.len() as u64);
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    fn get(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// The pre-key + isomorphism class cache (see module docs).
#[derive(Debug, Default)]
pub struct CanonCache {
    /// Pre-key index over every interned class, ids in creation order
    /// within a bucket (collisions resolved by fingerprint, then by
    /// isomorphism).
    keys: HashMap<u64, Vec<NodeId>>,
    entries: Vec<Entry>,
    names: NameTable,
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
        let (id, back) = self.intern_probe(Probe::new(p));
        (id, back.is_none())
    }

    /// Interns `probe` under its pre-key: a miss in its bucket creates a
    /// class. On dedup the probe is handed back (`Some`); a new class
    /// consumes it (`None`).
    fn intern_probe(&mut self, mut probe: Probe) -> (NodeId, Option<Probe>) {
        let (found, checks) = self.probe_bucket(&mut probe);
        self.stats.iso_resolutions += checks;
        match found {
            Some(id) => {
                self.stats.dedup_hits += 1;
                (id, Some(probe))
            }
            None => (self.push_class(probe), None),
        }
    }

    /// Checks the classes of `probe`'s pre-key bucket against its rows
    /// (see [`first_isomorphic`]). An empty bucket refines nothing; a
    /// bucket with members refines the probe (if not yet done) and every
    /// member still lacking a refinement, in one `search.fingerprint` span.
    /// Returns the first isomorphic class and the number of checks made.
    fn probe_bucket(&self, probe: &mut Probe) -> (Option<NodeId>, usize) {
        let Some(bucket) = self.keys.get(&probe.key) else {
            return (None, 0);
        };
        let query = {
            let _sp = obs::trace::span("search.fingerprint");
            let mut refiner = Refiner::new();
            for &id in bucket {
                self.refined(id, &mut refiner);
            }
            probe.refined.get_or_insert_with(|| refine(&probe.packed, &mut refiner))
        };
        let members = bucket.iter().map(|&id| (id, self.class(id)));
        first_isomorphic(members, &probe.packed, query)
    }

    /// The refinement of class `id`, computed with `refiner`'s buffers the
    /// first time it is needed and kept with the class. It is a pure
    /// function of the class, so which caller computes it does not matter;
    /// in a wave it is always the shard that owns the class's pre-key.
    fn refined(&self, id: NodeId, refiner: &mut Refiner) -> &Refined {
        let e = &self.entries[id.index()];
        e.refined.get_or_init(|| {
            packed_bytes().add(2 * e.packed.label_count() as u64);
            refine(&e.packed, refiner)
        })
    }

    /// Creates a class for a problem known to be new and registers its
    /// pre-key.
    fn push_class(&mut self, probe: Probe) -> NodeId {
        failpoint::hit("cache-insert");
        let key = probe.key;
        let id = self.push_entry(probe, None, [None, None]);
        self.stats.classes += 1;
        self.keys.entry(key).or_default().push(id);
        id
    }

    /// Stores a class: its packed rows, its refinement if the probe has
    /// one, and its names as table ids.
    fn push_entry(
        &mut self,
        probe: Probe,
        step: Option<(NodeId, Box<Problem>)>,
        zero_round: [Option<bool>; 2],
    ) -> NodeId {
        let id = NodeId(u32::try_from(self.entries.len()).expect("node count fits u32"));
        let Probe { packed, refined, names, .. } = probe;
        let names: Box<[u32]> = match names {
            ProbeNames::Own { name, labels } => {
                std::iter::once(&name).chain(&labels).map(|n| self.names.intern(n)).collect()
            }
            // The labels are the source's, so their names are in the table
            // already; only the problem name is new text.
            ProbeNames::Derived { source, kind, kept } => {
                let src = &self.entries[source.index()].names;
                let name = self.names.intern(&kind.result_name(self.names.get(src[0])));
                std::iter::once(name).chain(kept.iter().map(|l| src[1 + l.index()])).collect()
            }
        };
        let ranks = refined.as_ref().map_or(0, |r| std::mem::size_of_val(&*r.ranks));
        let bytes = packed.heap_bytes() + ranks + std::mem::size_of_val(&*names);
        packed_bytes().add(bytes as u64);
        let refined = refined.map_or_else(OnceLock::new, OnceLock::from);
        self.entries.push(Entry { packed, refined, names, step, zero_round });
        id
    }

    /// Interns a whole wave of candidates at once, resolving them **in
    /// parallel across pre-key shards** and then assigning `NodeId`s in a
    /// deterministic sequential pass in item order.
    ///
    /// Correctness of the sharding: the pre-key is an isomorphism
    /// invariant, so two isomorphic candidates always carry the same
    /// pre-key and land in the same shard (`key % shards`). Every class is
    /// in the pre-key index, so a shard that finds no isomorphic class in
    /// the frozen pre-wave bucket nor among its own earlier candidates has
    /// found a new class, and the dup/new decision for every item is
    /// independent of both the shard count and the schedule. So is what is
    /// refined (see `refine_collisions`), and a frozen class is refined
    /// by the one shard that owns its bucket. The commit pass then creates
    /// the new classes in item order, so the resulting cache — ids, bucket
    /// order, name ids, `cache-insert` failpoints, counters — is
    /// bit-identical to [`CanonCache::intern`]ing the items one by one on
    /// one thread.
    ///
    /// Per item, a dup hands the probe back (`Some`) and a new class
    /// consumes it (`None`).
    pub fn intern_wave(
        &mut self,
        items: Vec<Probe>,
        threads: usize,
        shards: usize,
    ) -> Vec<(NodeId, Option<Probe>)> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let shards = shards.max(1);
        // Partition by pre-key shard; item order is preserved within a
        // shard, so each shard worker sees its items in global item order.
        let mut split: Vec<Vec<(usize, Probe)>> = (0..shards).map(|_| Vec::new()).collect();
        for (idx, p) in items.into_iter().enumerate() {
            split[(p.key % shards as u64) as usize].push((idx, p));
        }
        // Phase 1 (parallel): resolve every shard against the frozen cache.
        // Each task owns its item list, so the probes are moved, not
        // cloned, into the resolution.
        let frozen = &*self;
        let (resolved, _) = roundelim_core::par::par_each_catch(split, threads, |list| {
            resolve_wave_shard(frozen, list)
        });
        // Phase 2 (sequential, item order): allocate ids and commit. A
        // shard creates its fresh classes in item order, so its k-th new
        // item is its k-th fresh class and receives the k-th id assigned
        // to the shard.
        let mut per_item: Vec<Option<(usize, WaveRes)>> = (0..n).map(|_| None).collect();
        let mut fresh = Vec::with_capacity(shards);
        let resolved = resolved.into_iter().map(|r| r.expect("a wave shard panicked"));
        for (s, (out, shard)) in resolved.enumerate() {
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
                Some((WaveRef::Global(id), probe)) => (id, Some(probe)),
                Some((WaveRef::Fresh(f), probe)) => (assigned[s][f], Some(probe)),
                None => {
                    let probe = fresh[s].next().expect("one new item per fresh class");
                    let id = self.push_class(probe);
                    assigned[s].push(id);
                    (id, None)
                }
            });
        }
        out
    }

    /// The packed representative of a class and its refinement, which
    /// must have been computed.
    fn class(&self, id: NodeId) -> (&PackedProblem, &Refined) {
        let e = &self.entries[id.index()];
        (&e.packed, e.refined.get().expect("a bucket member is refined before its checks"))
    }

    /// The rows of a class's representative: what the kernels and the
    /// move generators read.
    pub fn packed(&self, id: NodeId) -> &PackedProblem {
        &self.entries[id.index()].packed
    }

    /// Rebuilds the representative problem of a class, names included.
    pub fn materialize(&self, id: NodeId) -> Problem {
        let e = &self.entries[id.index()];
        let name = |&n: &u32| self.names.get(n);
        Problem::from_packed(name(&e.names[0]), e.names[1..].iter().map(name), e.packed.clone())
    }

    /// The problem a probe stands for, names included: a move's result is
    /// named as it would be had it committed as a new class.
    pub fn materialize_probe(&self, probe: Probe) -> Problem {
        match probe.names {
            ProbeNames::Own { name, labels } => Problem::from_packed(name, labels, probe.packed),
            ProbeNames::Derived { source, kind, kept } => {
                let src = &self.entries[source.index()].names;
                let name = kind.result_name(self.names.get(src[0]));
                let labels = kept.iter().map(|l| self.names.get(src[1 + l.index()]));
                Problem::from_packed(name, labels, probe.packed)
            }
        }
    }

    /// Memoized 0-round solvability of a class under `model`. Sound across
    /// the class because 0-round solvability is isomorphism-invariant.
    pub fn is_zero_round(&mut self, id: NodeId, model: ZeroRoundModel) -> bool {
        let slot = zero_slot(model);
        if let Some(v) = self.entries[id.index()].zero_round[slot] {
            return v;
        }
        let v = zero_round_check(&self.entries[id.index()].packed, model);
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
            zero_round_check(&entries[id.index()].packed, model)
        });
        for (id, v) in todo.into_iter().zip(verdicts) {
            self.entries[id.index()].zero_round[slot] = Some(v);
        }
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
        self.entries[id.index()].step.as_ref().map(|(_, derived)| &**derived)
    }

    /// Records a step result the caller computed on a worker thread (the
    /// speedup step of the class representative, recorded verbatim so
    /// certificate chains can splice it in), with `probe` (its
    /// [`Probe::new`]) built there too; interns the derived problem and
    /// fills the memo. Returns the successor class and whether it is new.
    pub fn record_step(&mut self, id: NodeId, derived: Problem, probe: Probe) -> (NodeId, bool) {
        self.stats.step_misses += 1;
        let (succ, back) = self.intern_probe(probe);
        self.entries[id.index()].step = Some((succ, Box::new(derived)));
        (succ, back.is_none())
    }

    /// Writes class `id`'s representative as [`encode_problem_parts`]
    /// does, straight from its rows and name ids.
    pub(crate) fn encode_class(&self, id: NodeId, e: &mut Enc) {
        let entry = &self.entries[id.index()];
        let name = |&n: &u32| self.names.get(n);
        let labels = entry.names[1..].iter().map(name);
        encode_problem_parts(name(&entry.names[0]), labels, &entry.packed, e);
    }

    /// Writes class `id`'s memos (see [`encode_memos`]), the derived
    /// problem of its step by reference.
    pub(crate) fn encode_memos(&self, id: NodeId, e: &mut Enc) {
        let entry = &self.entries[id.index()];
        let step = entry.step.as_ref().map(|(succ, derived)| (succ.0, &**derived));
        encode_memos(step, &entry.zero_round, e);
    }

    /// Appends a class read back from a checkpoint, memos included, and
    /// registers its pre-key. Pushing a written cache's classes in id order
    /// gives a cache that deduplicates and memoizes exactly like it; the
    /// reader restores the counters. Nothing is refined until a bucket
    /// collision needs it.
    pub(crate) fn push_decoded(
        &mut self,
        rep: Problem,
        step: Option<(NodeId, Problem)>,
        zero_round: [Option<bool>; 2],
    ) {
        let probe = Probe::new(rep);
        let key = probe.key;
        let id = self.push_entry(probe, step.map(|(succ, d)| (succ, Box::new(d))), zero_round);
        self.keys.entry(key).or_default().push(id);
    }
}

/// The first of a bucket's `members` (each a class's rows and
/// refinement, in creation order) isomorphic to the query, plus the
/// number of checks made. Only members with the query's fingerprint are
/// checked, each by [`same_class`].
fn first_isomorphic<'a, T>(
    members: impl Iterator<Item = (T, (&'a PackedProblem, &'a Refined))>,
    packed: &PackedProblem,
    query: &Refined,
) -> (Option<T>, usize) {
    let mut checks = 0;
    let found = members
        .filter(|(_, (_, class))| class.fp == query.fp)
        .find(|(_, (class_packed, class))| {
            checks += 1;
            same_class(class_packed, &class.ranks, packed, &query.ranks)
        })
        .map(|(r, _)| r);
    (found, checks)
}

/// One isomorphism check between a cached class and a query, each given
/// by its packed rows and label ranks, timed as a `stage.canon` span and
/// counted as `cache.iso_checks`. Both sides were refined before the
/// check, so the span covers only the candidate filter and the search.
fn same_class(class: &PackedProblem, ranks: &[u16], query: &PackedProblem, qranks: &[u16]) -> bool {
    iso_checks().incr();
    let _sp = obs::trace::span("stage.canon");
    isomorphism_ranked(class, ranks, query, qranks).is_some()
}

/// The memo slot of a [`ZeroRoundModel`].
fn zero_slot(model: ZeroRoundModel) -> usize {
    match model {
        ZeroRoundModel::PlainPn => 0,
        ZeroRoundModel::Oriented => 1,
    }
}

/// One 0-round solvability check, timed as a `stage.zero-round` span.
fn zero_round_check(p: &PackedProblem, model: ZeroRoundModel) -> bool {
    let _sp = obs::trace::span("stage.zero-round");
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
/// item of this wave (same shard by pre-key invariance), hands the
/// probe back; `None` is a brand-new class, parked in the shard's `fresh`
/// table until the commit pass assigns its id.
type WaveRes = Option<(WaveRef, Probe)>;

/// Working state of one shard's resolution: the classes first seen in this
/// wave and the stat deltas, summed into [`CacheStats`] at commit (sums are
/// order-independent, so the totals stay deterministic).
#[derive(Default)]
struct ShardState {
    /// The probe of each fresh class, in creation order.
    fresh: Vec<Probe>,
    /// Pre-key buckets of the fresh classes (indexes into `fresh`).
    new_keys: HashMap<u64, Vec<usize>>,
    iso_resolutions: usize,
    dedup_hits: usize,
}

impl ShardState {
    /// Resolves one candidate with the probe sequence of
    /// [`CanonCache::intern`]: the pre-key bucket's frozen members in
    /// creation order, then this wave's. A miss is a new class.
    /// [`refine_collisions`] has refined every member this compares.
    fn resolve(&mut self, cache: &CanonCache, probe: Probe) -> WaveRes {
        let key = probe.key;
        let frozen = cache.keys.get(&key).into_iter().flatten().map(|&id| WaveRef::Global(id));
        let local = self.new_keys.get(&key).into_iter().flatten().map(|&f| WaveRef::Fresh(f));
        let mut members = frozen.chain(local).peekable();
        if members.peek().is_some() {
            let fresh = &self.fresh;
            let members = members.map(|r| match r {
                WaveRef::Global(id) => (r, cache.class(id)),
                WaveRef::Fresh(f) => {
                    let p = &fresh[f];
                    (r, (&p.packed, p.refined.as_ref().expect("a colliding candidate is refined")))
                }
            });
            let query = probe.refined.as_ref().expect("a colliding candidate is refined");
            let (found, checks) = first_isomorphic(members, &probe.packed, query);
            self.iso_resolutions += checks;
            if let Some(to) = found {
                self.dedup_hits += 1;
                return Some((to, probe));
            }
        }
        self.new_keys.entry(key).or_default().push(self.fresh.len());
        self.fresh.push(probe);
        None
    }
}

/// Refines what resolving a shard's `items` compares, in one
/// `search.fingerprint` span: every candidate whose pre-key bucket holds
/// a frozen class or another candidate of the shard, and those frozen
/// classes. A candidate alone in its bucket is a new class that nothing
/// is compared against, so it stays unrefined; it is refined the first
/// time a later problem lands in its bucket. Which problems are refined
/// depends only on the items and the frozen index, never on the schedule.
fn refine_collisions(cache: &CanonCache, items: &mut [(usize, Probe)]) {
    if items.is_empty() {
        return;
    }
    let _sp = obs::trace::span("search.fingerprint");
    let mut in_shard: HashMap<u64, u32> = HashMap::with_capacity(items.len());
    for (_, p) in items.iter() {
        *in_shard.entry(p.key).or_default() += 1;
    }
    let mut refiner = Refiner::new();
    for (_, p) in items.iter_mut() {
        let frozen = cache.keys.get(&p.key).map_or(&[][..], Vec::as_slice);
        if frozen.is_empty() && in_shard[&p.key] == 1 {
            continue;
        }
        for &id in frozen {
            cache.refined(id, &mut refiner);
        }
        p.refined.get_or_insert_with(|| refine(&p.packed, &mut refiner));
    }
}

/// Resolves one shard's candidates against the frozen pre-wave cache plus
/// the shard's own earlier candidates (see [`ShardState::resolve`]), after
/// [`refine_collisions`]. Returns `(global item index, resolution)` in
/// item order and the shard's final state.
fn resolve_wave_shard(
    cache: &CanonCache,
    mut items: Vec<(usize, Probe)>,
) -> (Vec<(usize, WaveRes)>, ShardState) {
    refine_collisions(cache, &mut items);
    let metrics = intern_metrics();
    let mut st = ShardState::default();
    let mut out = Vec::with_capacity(items.len());
    for (idx, p) in items {
        let watch = obs::trace::tracing().then(obs::time::Stopwatch::start);
        let res = st.resolve(cache, p);
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

/// `cache.iso_checks`: isomorphism checks against fingerprint-bucket
/// members, the process-wide sum of [`CacheStats::iso_resolutions`].
fn iso_checks() -> &'static obs::metrics::Counter {
    static C: OnceLock<&'static obs::metrics::Counter> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("cache.iso_checks"))
}

/// `cache.refinements`: label refinements the caches made, of queries and
/// of stored classes alike (see [`refine`]).
fn refinements() -> &'static obs::metrics::Counter {
    static C: OnceLock<&'static obs::metrics::Counter> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("cache.refinements"))
}

/// `cache.packed_bytes`: the bytes a cache stores per class (packed rows
/// and name ids, and label ranks once the class is refined) and per
/// distinct name (its name-table string), added as each is stored.
fn packed_bytes() -> &'static obs::metrics::Counter {
    static C: OnceLock<&'static obs::metrics::Counter> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("cache.packed_bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{decode_classes, encode_classes};
    use crate::search::Meta;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use roundelim_core::binenc::{encode_problem, Dec};
    use roundelim_core::error::Result;
    use roundelim_core::iso::are_isomorphic;
    use roundelim_core::iso::fingerprint;
    use roundelim_core::speedup::full_step;

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

    /// Steps class `id` the way the search does: the speedup step of its
    /// representative, recorded with [`CanonCache::record_step`]. Returns
    /// the successor class and the derived problem.
    fn step(cache: &mut CanonCache, id: NodeId) -> Result<(NodeId, Problem)> {
        let derived = full_step(&cache.materialize(id), 1)?.full.problem;
        let (succ, _) = cache.record_step(id, derived.clone(), Probe::new(derived.clone()));
        Ok((succ, derived))
    }

    /// `cache`'s classes written as a checkpoint's class table, each at
    /// depth 0 with no parent.
    fn table(cache: &CanonCache) -> Vec<u8> {
        let meta: Vec<Meta> = (0..cache.len()).map(|_| Meta { depth: 0, parent: None }).collect();
        let mut e = Enc::new();
        encode_classes(cache, &meta, &mut e);
        e.into_bytes()
    }

    /// Reads `cache`'s class table back the way a resume does.
    fn reload(cache: &CanonCache) -> Result<CanonCache> {
        let root = cache.materialize(NodeId(0));
        Ok(decode_classes(&mut Dec::new(&table(cache)), &root, cache.stats)?.0)
    }

    /// Whether class `id` has been refined.
    fn is_refined(cache: &CanonCache, id: NodeId) -> bool {
        cache.entries[id.index()].refined.get().is_some()
    }

    /// The interner with no index at all, kept as an oracle: a problem
    /// joins the first earlier class it is isomorphic to.
    #[derive(Default)]
    struct ScanOracle {
        problems: Vec<Problem>,
        dedup_hits: usize,
    }

    impl ScanOracle {
        fn intern(&mut self, p: Problem) -> (NodeId, bool) {
            if let Some(i) = self.problems.iter().position(|q| are_isomorphic(q, &p)) {
                self.dedup_hits += 1;
                return (NodeId(i as u32), false);
            }
            self.problems.push(p);
            (NodeId(self.problems.len() as u32 - 1), true)
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
        assert_eq!(cache.materialize(a).name(), "sc");
        assert_eq!(cache.materialize(a), sc());
    }

    #[test]
    fn large_problems_use_coarse_keys_and_still_dedup() {
        // 12 labels: above the canonical-form regime, where an interner
        // keyed by canonical forms would fall back to coarse keys. A renamed
        // copy must dedup through the fingerprint index.
        let mk = |names: &[&str]| {
            let node = names.chunks(2).map(|c| c.join(" ")).collect::<Vec<_>>().join(" | ");
            let edge = names.windows(2).map(|c| c.join(" ")).collect::<Vec<_>>().join(" | ");
            Problem::parse(&format!("name: big\nnode: {node}\nedge: {edge}")).unwrap()
        };
        let names: Vec<&str> = vec!["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];
        let renamed: Vec<&str> =
            vec!["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "xa", "xb"];
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
        assert_eq!(fingerprint(sc().packed()), fingerprint(renamed_sc().packed()), "invariant");
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
        // Fingerprint-only dedup against the scanning oracle: random waves of
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

        let mut oracle = ScanOracle::default();
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
                cache.record_step(r, child.clone(), Probe::new(child.clone()));
                for (w, want) in waves.iter().zip(&expect) {
                    let items = w.iter().map(|p| Probe::new(p.clone())).collect();
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
        // Two waves with in-wave duplicates (renamed copies), cross-wave
        // duplicates (classes already interned), and fresh classes. `p3`
        // and `p4` share a pre-key but not a fingerprint: `p3` is alone in
        // its bucket in the first wave, so it is stored unrefined, and the
        // second wave's `p4` and renamed `p3` collide with it only then.
        // The wave interner must hand back exactly what one-at-a-time
        // `intern` does — same ids, same dup/new split, same final cache —
        // at every thread and shard count.
        let p3 = Problem::parse("name: p3\nnode: C C | B C | A D\nedge: B D | A C | C D").unwrap();
        let p4 = Problem::parse("name: p4\nnode: A D | A A | B C\nedge: B D | A C | A D").unwrap();
        let p3r = Problem::parse("name: r\nnode: Y Y | X Y | W Z\nedge: X Z | W Y | Y Z").unwrap();
        let mut counts = Vec::new();
        assert_eq!(pre_key(p3.packed(), &mut counts), pre_key(p4.packed(), &mut counts));
        assert_ne!(fingerprint(p3.packed()), fingerprint(p4.packed()));
        let waves: [Vec<Problem>; 2] = [
            vec![sc(), trivial(), renamed_sc(), two(), trivial(), p3.clone()],
            vec![sc(), p4, renamed_sc(), two(), p3r, p3],
        ];
        let items =
            |w: &[Problem]| -> Vec<Probe> { w.iter().map(|p| Probe::new(p.clone())).collect() };

        // Reference: sequential interning into a pre-seeded cache (one
        // class interned before the waves, so frozen-vs-fresh dedup is
        // exercised too).
        let seeded = || {
            let mut c = CanonCache::new();
            c.intern(sc());
            c
        };
        let (expect, expect_table, expect_stats) = {
            let mut c = seeded();
            let ids: Vec<Vec<(NodeId, bool)>> =
                waves.iter().map(|w| w.iter().map(|p| c.intern(p.clone())).collect()).collect();
            (ids, table(&c), c.stats)
        };
        for threads in [1, 2, 4] {
            for shards in [1, 4, 64] {
                let mut c = seeded();
                for (w, (wave, want)) in waves.iter().zip(&expect).enumerate() {
                    let got: Vec<(NodeId, bool)> = c
                        .intern_wave(items(wave), threads, shards)
                        .into_iter()
                        .map(|(id, back)| (id, back.is_none()))
                        .collect();
                    assert_eq!(&got, want, "wave {w} threads={threads} shards={shards}");
                    // `p3`'s class is the first wave's last; it is refined
                    // only once the second wave collides with it.
                    assert_eq!(is_refined(&c, NodeId(3)), w == 1, "wave {w}");
                }
                // 5 classes: sc (pre-seeded), trivial, two, p3, p4; the
                // other 8 wave items dedup (renamed ≅ sc, p3r ≅ p3).
                assert_eq!(c.len(), 5, "threads={threads} shards={shards}");
                assert_eq!(c.stats.classes, 5);
                assert_eq!(c.stats.dedup_hits, 8);
                // Same classes in the same order, same counters.
                assert_eq!(table(&c), expect_table);
                assert_eq!(c.stats, expect_stats);
            }
        }
    }

    #[test]
    fn move_probes_are_named_after_their_source() {
        use crate::moves::{for_each_harden_move, for_each_relax_move};
        // The three merges of 3-coloring are isomorphic: the first commits
        // a class, the other two dedup onto it.
        let c3 = Problem::parse("name: c3\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        let mut cache = CanonCache::new();
        let (src, _) = cache.intern(c3.clone());
        let mut moves = Vec::new();
        for_each_relax_move(c3.packed(), false, false, |mv| moves.push(mv));
        for_each_harden_move(c3.packed(), false, |mv| moves.push(mv));
        let name = |l: &Label| c3.alphabet().name(*l);
        let want: Vec<Problem> = moves
            .iter()
            .map(|mv| {
                let labels = mv.kept.iter().map(name);
                Problem::from_packed(mv.kind.result_name(c3.name()), labels, mv.result.clone())
            })
            .collect();
        let mut counts = Vec::new();
        let items = moves
            .into_iter()
            .map(|mv| Probe::derived(src, mv.kind, mv.kept, mv.result, &mut counts))
            .collect();
        let (mut new, mut dups) = (0, 0);
        for ((id, back), want) in cache.intern_wave(items, 2, 4).into_iter().zip(&want) {
            match back {
                None => {
                    new += 1;
                    assert_eq!(&cache.materialize(id), want);
                }
                Some(probe) => {
                    dups += 1;
                    assert_eq!(&cache.materialize_probe(probe), want);
                }
            }
        }
        assert!(new > 0 && dups > 0, "{new} new, {dups} dups");
        assert_eq!(cache.materialize(NodeId(1)).name(), "c3″");
    }

    #[test]
    fn step_is_memoized() {
        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(sc());
        assert_eq!(cache.step_succ(id), None);
        let (s1, d1) = step(&mut cache, id).unwrap();
        assert_eq!(cache.step_succ(id), Some(s1));
        assert_eq!(cache.step_derived(id), Some(&d1));
        assert_eq!(cache.stats.step_misses, 1);
        assert_eq!(cache.stats.step_hits, 1);
        // §4.4: the derived problem of sinkless coloring is isomorphic to it.
        assert_eq!(s1, id);
    }

    #[test]
    fn a_lone_pre_key_creates_its_class_without_refining() {
        let mut cache = CanonCache::new();
        let (a, _) = cache.intern(sc());
        let (t, _) = cache.intern(trivial());
        let w = cache.intern_wave(vec![Probe::new(two())], 1, 1)[0].0;
        assert_eq!(cache.len(), 3);
        assert!([a, t, w].iter().all(|&id| !is_refined(&cache, id)), "no bucket collided");
        assert_eq!(cache.stats.iso_resolutions, 0);
        // A renamed copy lands in `sc`'s bucket: both sides are refined
        // then, and one check dedups it. The other classes stay unrefined.
        let (b, new) = cache.intern(renamed_sc());
        assert_eq!((b, new), (a, false));
        assert!(is_refined(&cache, a));
        assert!(!is_refined(&cache, t) && !is_refined(&cache, w));
        assert_eq!(cache.stats.iso_resolutions, 1);
    }

    #[test]
    fn snapshot_restore_preserves_behavior_and_counters() {
        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(sc());
        step(&mut cache, id).unwrap();
        assert!(!cache.is_zero_round(id, ZeroRoundModel::Oriented));
        let t = cache.intern_wave(vec![Probe::new(trivial())], 1, 1)[0].0;
        // A step child: its class is created by `record_step`, not a wave.
        let (child, new) = cache.record_step(t, two(), Probe::new(two()));
        assert!(new);

        let mut restored = reload(&cache).unwrap();
        assert_eq!(table(&restored), table(&cache));
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.stats, cache.stats);
        // Dedup still lands on the original ids through both intern paths,
        // for a renamed root and a renamed step child too.
        let renamed_two = Problem::parse("name: t2\nnode: P P P | Q Q Q\nedge: Q P").unwrap();
        assert_eq!(restored.intern(renamed_sc()), (id, false));
        assert_eq!(restored.intern(renamed_two), (child, false));
        let got = restored.intern_wave(vec![Probe::new(trivial())], 2, 4);
        assert_eq!(got[0].0, t);
        assert!(got[0].1.is_some());
        assert_eq!(restored.len(), cache.len());
        // The step memo came along: no recomputation.
        assert_eq!(restored.step_succ(id), Some(id));
        assert_eq!(restored.step_derived(id), cache.step_derived(id));
        // So did the 0-round memo.
        assert!(!restored.is_zero_round(id, ZeroRoundModel::Oriented));
    }

    #[test]
    fn restore_rejects_out_of_range_ids() {
        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(sc());
        let (_, derived) = step(&mut cache, id).unwrap();
        // The one class with its step successor at 0, then at 99: a table
        // of one class has no class 99.
        let one_class = |succ: u32| {
            let mut e = Enc::new();
            e.u32(1);
            encode_problem(&sc(), &mut e);
            e.usize(0);
            e.u8(0);
            encode_memos(Some((succ, &derived)), &[None, None], &mut e);
            e.into_bytes()
        };
        assert_eq!(one_class(0), table(&cache));
        let err = decode_classes(&mut Dec::new(&one_class(99)), &sc(), cache.stats).unwrap_err();
        assert!(err.to_string().contains("step successor 99 out of range"), "{err}");
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
