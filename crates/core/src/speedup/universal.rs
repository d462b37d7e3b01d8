//! The *universal* half of a speedup step: maximal "good lines".
//!
//! Given a constraint `C` of arity `r`, a **line** is a multiset
//! `(X₁, …, X_r)` of non-empty label sets. A line is **good** if *every*
//! choice `x_i ∈ X_i` yields a configuration of `C` — this is Property 1
//! (for `g_{1/2}`) and Property 4 (for `h₁`) of the paper. The simplified
//! problems of Theorem 2 keep only the ⊆-*maximal* good lines
//! (Properties 5 and 6).
//!
//! # Algorithm
//!
//! We enumerate maximal good lines by a *merge closure*:
//!
//! 1. Seed with `C`'s configurations viewed as lines of singletons (these
//!    are trivially good).
//! 2. Repeatedly **merge** two good lines: for an alignment σ of their
//!    positions and a distinguished position `j`, form
//!    `(A₁∩B_{σ(1)}, …, A_j∪B_{σ(j)}, …)`. Any choice from the merged line
//!    picks its `j`-entry from `A_j` or `B_{σ(j)}` and all other entries
//!    from intersections, so it is a choice of `A` or of `B`; hence merges
//!    of good lines are good (*soundness*).
//! 3. Keep only a dominating antichain (lines not componentwise-contained
//!    in another kept line, up to alignment).
//!
//! *Completeness:* any good line is produced by iterated merges of the
//! seeds — split some `X_j = {a} ⊎ rest` and merge the two (inductively
//! reachable) sub-lines with the identity alignment at `j`. Pruning
//! dominated lines preserves completeness because merging is monotone in
//! both arguments, so the invariant "every good line is dominated by a kept
//! line" survives; at a fixpoint the kept antichain is exactly the set of
//! maximal good lines. Tests cross-check against a brute-force oracle.
//!
//! # Hot-core representation
//!
//! Three layers keep the closure fast (see the README's Performance
//! section for measurements):
//!
//! * **Trie-backed universal checks.** "Every choice of this line is in
//!   `C`" ([`line_good`], and the `can_extend` probes of the componentwise
//!   closure) runs as a set-branching DFS over the constraint's cached
//!   [`ConfigTrie`]: branch on the multiplicity of
//!   the smallest assignable label, advance the trie along the run of equal
//!   labels, recurse. Choices sharing a sorted prefix share the walk, a
//!   missing trie edge refutes a whole subtree of choices at once, and the
//!   inner loop is bitmask tests — no allocation, no per-choice sort, no
//!   per-choice row search.
//! * **Interned lines.** The engine stores every distinct line once in a
//!   flat arena with `u32` ids (`pool::LinePool`). Deduplication is a hash
//!   probe plus slice compare, and each line carries a component-size /
//!   component-union signature that rejects most domination queries before
//!   the alignment matcher runs. The matcher works on candidate bitmasks,
//!   greedy-first with a backtracking fallback. Merge emission prunes at
//!   the source: when the aligned pair at the distinguished position is
//!   ⊆-comparable, the result is dominated by one of the operands and is
//!   never materialized.
//! * **Round-parallel closure.** The work queue is processed in rounds:
//!   all queued lines merge (against the antichain, each other, and
//!   themselves) in chunks, and the surviving candidates close
//!   componentwise in chunks, both through the executor's chunking helper
//!   [`crate::par::par_chunks`] on the thread count the caller passes (one
//!   chunk, inline, at one thread); interning and antichain updates happen
//!   single-threaded at the barriers. Chunks emit in item order and the
//!   barrier consumes chunk outputs in item order, so ids, processing
//!   order, and output are **bit-identical for every thread count**
//!   (property-tested).

use crate::constraint::Constraint;
use crate::label::Label;
use crate::labelset::LabelSet;
use crate::speedup::pool::{DomIndex, LinePool};
use crate::trie::ConfigTrie;
use roundelim_obs::trace::span;

/// A multiset of label sets, canonically sorted. See module docs.
pub type Line = Vec<LabelSet>;

/// Canonicalizes a line (sorts its components).
pub fn canonical(mut line: Line) -> Line {
    line.sort_unstable();
    line
}

/// Groups a line's components as `(set, multiplicity)` pairs into `out`.
///
/// Works on unsorted input (group order is irrelevant to the universal
/// check), so callers need neither a clone nor a sort.
fn group_components(line: &[LabelSet], skip: usize, out: &mut Vec<(LabelSet, usize)>) {
    for (j, s) in line.iter().enumerate() {
        if j == skip {
            continue;
        }
        match out.iter_mut().find(|(g, _)| g == s) {
            Some((_, n)) => *n += 1,
            None => out.push((*s, 1)),
        }
    }
}

/// Whether every choice `x_i ∈ line[i]` is a configuration of `c`.
///
/// Identical components are grouped and the grouped line is checked by a
/// single set-branching DFS over `c`'s trie index — see
/// [`ConfigTrie::all_choices_contained`]. The input need not be sorted and
/// is not copied.
pub fn line_good(line: &[LabelSet], c: &Constraint) -> bool {
    if line.len() != c.arity() || line.iter().any(LabelSet::is_empty) {
        return false;
    }
    let mut groups: Vec<(LabelSet, usize)> = Vec::with_capacity(line.len());
    group_components(line, usize::MAX, &mut groups);
    c.trie().all_choices_contained(&groups)
}

/// Whether line `a` dominates line `b`: some alignment σ has
/// `b[i] ⊆ a[σ(i)]` for all `i` (σ a bijection of positions).
pub fn dominates(a: &[LabelSet], b: &[LabelSet]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n > 64 {
        return dominates_general(a, b);
    }
    // cand[i]: bitmask of a-positions that can host b[i].
    let mut cand = [0u64; 64];
    for (i, bi) in b.iter().enumerate() {
        let mut mask = 0u64;
        for (j, aj) in a.iter().enumerate() {
            if bi.is_subset(aj) {
                mask |= 1 << j;
            }
        }
        if mask == 0 {
            return false;
        }
        cand[i] = mask;
    }
    // Greedy-first matching over the masks; backtracking only on a jam.
    crate::speedup::existential::matches_masks(&cand[..n])
}

/// Fallback matcher for lines longer than 64 components (no bitmasks).
fn dominates_general(a: &[LabelSet], b: &[LabelSet]) -> bool {
    let n = a.len();
    let mut used = vec![false; n];
    fn assign(b: &[LabelSet], a: &[LabelSet], used: &mut [bool], i: usize) -> bool {
        if i == b.len() {
            return true;
        }
        for j in 0..a.len() {
            if !used[j] && b[i].is_subset(&a[j]) {
                used[j] = true;
                if assign(b, a, used, i + 1) {
                    used[j] = false;
                    return true;
                }
                used[j] = false;
            }
        }
        false
    }
    assign(b, a, &mut used, 0)
}

/// Domination between interned lines, signature pre-filter first.
fn dominates_ids(pool: &LinePool, a: u32, b: u32) -> bool {
    a != b && pool.may_dominate(a, b) && dominates(pool.get(a), pool.get(b))
}

/// Whether any antichain member dominates line `id`: the signature-bucket
/// index narrows the antichain to members whose union contains `id`'s
/// (usually none), and only those run the per-pair filter and matcher.
/// Accounted to the domination stage; the single point every antichain
/// filter goes through. `buf` is per-caller query scratch.
fn dominated_by_any(pool: &LinePool, dom: &DomIndex, id: u32, buf: &mut Vec<u64>) -> bool {
    let _sp = span("stage.domination");
    dom.any_superset_candidate(&pool.union_of(id), buf, |m| dominates_ids(pool, m, id))
}

/// All canonical merges of two lines (over all alignments and distinguished
/// positions), dropping results with empty components and results equal to
/// `a` itself (the caller always knows `a`). Each surviving merge is
/// canonicalized in the reusable scratch buffers and handed to `emit`
/// (typically an interning sink) — no per-candidate allocation.
///
/// Alignments range over the *distinct* permutations of `b`'s multiset of
/// sets (lines typically repeat few distinct sets, so this is far smaller
/// than n! — the difference between Δ = 7 finishing in milliseconds and in
/// minutes). Per alignment, the componentwise intersections are computed
/// once and shared by every distinguished position.
fn merges<F: FnMut(&[LabelSet])>(
    a: &[LabelSet],
    b: &[LabelSet],
    scratch: &mut MergeScratch,
    emit: &mut F,
) {
    let n = a.len();
    if n == 0 {
        return;
    }
    // Group b's distinct sets with multiplicities.
    let mut distinct: Vec<LabelSet> = Vec::new();
    let mut remaining: Vec<usize> = Vec::new();
    for s in b {
        match distinct.iter().position(|d| d == s) {
            Some(ix) => remaining[ix] += 1,
            None => {
                distinct.push(*s);
                remaining.push(1);
            }
        }
    }
    let mut assignment: Vec<usize> = Vec::with_capacity(n);
    unique_perms(a, &distinct, &mut remaining, &mut assignment, scratch, emit);

    fn unique_perms<F: FnMut(&[LabelSet])>(
        a: &[LabelSet],
        distinct: &[LabelSet],
        remaining: &mut Vec<usize>,
        assignment: &mut Vec<usize>,
        scratch: &mut MergeScratch,
        emit: &mut F,
    ) {
        let n = a.len();
        if assignment.len() == n {
            emit_merges(a, distinct, assignment, scratch, emit);
            return;
        }
        for d in 0..distinct.len() {
            if remaining[d] > 0 {
                remaining[d] -= 1;
                assignment.push(d);
                unique_perms(a, distinct, remaining, assignment, scratch, emit);
                assignment.pop();
                remaining[d] += 1;
            }
        }
    }

    fn emit_merges<F: FnMut(&[LabelSet])>(
        a: &[LabelSet],
        distinct: &[LabelSet],
        assignment: &[usize],
        scratch: &mut MergeScratch,
        emit: &mut F,
    ) {
        let n = a.len();
        // Intersections are shared by every distinguished position:
        // compute them once per alignment. Two or more empty intersections
        // kill the whole alignment (a line with an empty non-distinguished
        // component is dead for every j except the empty position itself);
        // exactly one empty at `p` leaves only j = p viable.
        let inter = &mut scratch.inter;
        inter.clear();
        let mut only_j = usize::MAX; // MAX: all viable; n: none viable
        for i in 0..n {
            let s = a[i].intersection(&distinct[assignment[i]]);
            if s.is_empty() {
                only_j = if only_j == usize::MAX { i } else { n };
            }
            inter.push(s);
        }
        if only_j == n {
            return;
        }
        let j_range = if only_j == usize::MAX { 0..n } else { only_j..only_j + 1 };
        for j in j_range {
            let bj = &distinct[assignment[j]];
            // Every non-distinguished component is an intersection, so the
            // result is dominated by `a` (identity alignment) whenever
            // `bσ(j) ⊆ a[j]`, and by `b` (via σ⁻¹) whenever
            // `a[j] ⊆ bσ(j)`. Both operands are in the antichain-or-batch
            // by the time candidates are filtered, so comparable aligned
            // pairs can never contribute a new maximal line — only
            // incomparable ones are worth emitting. (This subsumes the
            // result-equals-`a` and equal-pair cases.)
            if bj.is_subset(&a[j]) || a[j].is_subset(bj) {
                continue;
            }
            let line = &mut scratch.line;
            line.clear();
            line.extend_from_slice(inter);
            line[j] = a[j].union(bj);
            line.sort_unstable();
            emit(line);
        }
    }
}

/// Reusable buffers for [`merges`]: per-alignment intersections and the
/// candidate line under construction. One per worker.
#[derive(Debug, Clone, Default)]
struct MergeScratch {
    inter: Vec<LabelSet>,
    line: Vec<LabelSet>,
}

/// Extends a label to one position if every choice of the other (already
/// grouped) components combined with it stays in the constraint: one trie
/// DFS. The closure probes every missing label of a position against the
/// *same* sibling groups, so the grouping is hoisted out of the label
/// loop. The forced singleton rides as its own trailing group — two groups
/// with equal sets enumerate the same choice multisets as one merged
/// group, so coverage is unchanged.
fn can_extend_grouped(l: Label, trie: &ConfigTrie, scratch: &mut CloseScratch) -> bool {
    scratch.groups.push((LabelSet::singleton(l), 1));
    let CloseScratch { groups, dfs } = scratch;
    let ok = trie.all_choices_contained_scratch(groups, dfs);
    scratch.groups.pop();
    ok
}

/// Reusable buffers for [`close_line`] probes: the grouped components and
/// the trie DFS working space. One per worker; no per-probe allocation.
#[derive(Debug, Default)]
struct CloseScratch {
    groups: Vec<(LabelSet, usize)>,
    dfs: crate::trie::DfsScratch,
}

/// Componentwise closure, in place: maximize each component given the
/// others, then re-canonicalize. The result dominates the input and is
/// still good; maximal good lines are exactly the closed good lines that
/// no other closed line strictly dominates.
///
/// One pass over `(position, missing label)` pairs reaches the fixpoint:
/// successful extensions only *grow* components, which makes every later
/// `can_extend` probe strictly harder (more choices must stay inside the
/// constraint), so a pair that fails once can never succeed later and a
/// second pass would find nothing new.
///
/// **Delta re-closure:** canonical lines keep equal components adjacent,
/// and a position whose component equals its predecessor's sees the very
/// same sibling grouping and missing-label set — *provided the
/// predecessor's probes changed nothing*. Such positions are skipped
/// outright (their probes would fail identically); only the groups the
/// pass has actually affected are re-probed. High-degree lines repeat few
/// distinct components many times, so this collapses the per-line probe
/// count from Δ positions to the number of distinct groups. Equality with
/// the skip-free closure is property-tested.
fn close_line(line: &mut Line, trie: &ConfigTrie, universe: &LabelSet, scratch: &mut CloseScratch) {
    // (component value at probe time, whether that probe grew anything)
    let mut prev: Option<(LabelSet, bool)> = None;
    for i in 0..line.len() {
        if let Some((set, grew)) = prev {
            if !grew && set == line[i] {
                // Identical component, identical siblings, nothing changed
                // since the previous probe: the same probes fail the same
                // way.
                continue;
            }
        }
        let before = line[i];
        let missing = universe.difference(&line[i]);
        if missing.is_empty() {
            prev = Some((before, false));
            continue;
        }
        // The sibling groups are invariant while probing position `i` —
        // only `line[i]` changes, and it is excluded from the grouping.
        scratch.groups.clear();
        group_components(line, i, &mut scratch.groups);
        for l in missing.iter() {
            if can_extend_grouped(l, trie, scratch) {
                line[i].insert(l);
            }
        }
        prev = Some((before, line[i] != before));
    }
    line.sort_unstable();
}

/// [`close_line`] without the delta skip: probes every position
/// unconditionally. Oracle for the delta-equality property test.
#[cfg(test)]
fn close_line_full(
    line: &mut Line,
    trie: &ConfigTrie,
    universe: &LabelSet,
    scratch: &mut CloseScratch,
) {
    for i in 0..line.len() {
        let missing = universe.difference(&line[i]);
        if missing.is_empty() {
            continue;
        }
        scratch.groups.clear();
        group_components(line, i, &mut scratch.groups);
        for l in missing.iter() {
            if can_extend_grouped(l, trie, scratch) {
                line[i].insert(l);
            }
        }
    }
    line.sort_unstable();
}

/// Below this many work items a closure stage runs inline: spawning costs
/// more than the work it would offload.
const PAR_MIN_ITEMS: usize = 16;

/// Enumerates all ⊆-maximal good lines of `c` (the simplified universal
/// transform of Theorem 2) on `threads` worker threads (0 is treated as
/// 1). Lines never contain the empty set: dropping the degenerate lines
/// with an empty component is the paper's compression convention (§4.2)
/// — they cannot occur in a correct solution because the existential
/// sibling constraint cannot pick an element from ∅.
///
/// The output — and every intermediate interning decision — is identical
/// for every `threads` value; `threads` only sets how many cores the merge
/// and closure stages may use.
pub fn maximal_good_lines(c: &Constraint, threads: usize) -> Vec<Line> {
    maximal_good_lines_impl(c, threads, PAR_MIN_ITEMS)
}

/// Engine body with an explicit parallel-stage threshold, so tests can
/// force the chunked code paths onto small constraints (the production
/// threshold keeps tiny workloads inline, which would otherwise leave the
/// parallel branches unexercised by any fast-running test).
fn maximal_good_lines_impl(c: &Constraint, threads: usize, par_min: usize) -> Vec<Line> {
    if c.arity() == 2 {
        return maximal_good_pairs(c);
    }
    let trie = c.trie();
    let universe = *trie.universe();

    // Interned lines; the pool doubles as the "ever emitted" set, while
    // `enqueued` (indexed by id) marks the subset that entered the work
    // queue — a merge candidate that is already componentwise-closed is
    // interned once but must still be processed. Every enqueued line is
    // closed (componentwise maximal), which keeps the state space near the
    // antichain of maximal lines instead of the exponentially larger space
    // of all good lines.
    let mut pool = LinePool::new(c.arity());
    let mut enqueued: Vec<bool> = Vec::new();
    let mut antichain: Vec<u32> = Vec::new();
    let mut dom = DomIndex::default();
    let mut dombuf: Vec<u64> = Vec::new();
    let mut queue: Vec<u32> = Vec::new();
    let mut close_scratch = CloseScratch::default();
    let mut candidates: Vec<u32> = Vec::new();

    for cfg in c.iter() {
        // A seed dominated by an already-closed seed line contributes
        // nothing: merging is monotone in both arguments, so every line
        // reachable through the dominated seed is dominated by a line
        // reachable through its dominator (the same argument that lets the
        // closure skip dominated queue entries). Skipping the closure here
        // saves the lion's share of the seeding cost on constraints whose
        // configurations collapse onto few maximal lines. For a line of
        // singletons, domination is exactly the existential matching
        // question, whose matcher shares one candidate mask per run of
        // equal labels.
        if queue.iter().any(|&q| crate::speedup::existential::config_matches(cfg, pool.get(q))) {
            continue;
        }
        let mut line: Line = cfg.iter().copied().map(LabelSet::singleton).collect();
        {
            let _sp = span("stage.close");
            close_line(&mut line, trie, &universe, &mut close_scratch);
        }
        let (id, _) = pool.intern(&line);
        enqueued.resize(pool.len(), false);
        if !enqueued[id as usize] {
            enqueued[id as usize] = true;
            queue.push(id);
        }
    }

    // Round-based closure: drain the whole queue per round. Queue order is
    // a pure function of the constraint (workers emit in item order and
    // barriers consume chunk outputs in item order), so processing order —
    // and with it every interned id — is identical for every thread count.
    while !queue.is_empty() {
        let mut batch = std::mem::take(&mut queue);
        // Skip lines the antichain already dominates.
        batch.retain(|&id| !dominated_by_any(&pool, &dom, id, &mut dombuf));

        // Stage 1: merge every batch line with itself, the antichain, and
        // every later batch line.
        candidates.clear();
        // Chunks intern into chunk-local pools (first occurrence in item
        // order survives), so concatenating chunk outputs reproduces the
        // sequential emission stream; at one thread the one chunk is the
        // whole batch. Item `bi` merges against the antichain plus the
        // `len - bi - 1` later batch items, which is the chunk-balancing
        // weight.
        let pair_weight = |bi: usize| (antichain.len() + batch.len() - bi) as u64;
        let chunk_pools: Vec<LinePool> =
            crate::par::par_chunks(batch.len(), threads, par_min, pair_weight, |indices| {
                let _sp = span("stage.merge");
                let mut local = LinePool::new(c.arity());
                let mut scratch = MergeScratch::default();
                for bi in indices {
                    let line = pool.get(batch[bi]);
                    let mut sink = |cand: &[LabelSet]| {
                        local.intern(cand);
                    };
                    merges(line, line, &mut scratch, &mut sink);
                    for &m in &antichain {
                        merges(line, pool.get(m), &mut scratch, &mut sink);
                    }
                    for &bj in &batch[bi + 1..] {
                        merges(line, pool.get(bj), &mut scratch, &mut sink);
                    }
                }
                local
            });
        for local in &chunk_pools {
            for cand in local.lines() {
                let (id, fresh) = pool.intern(cand);
                if fresh {
                    candidates.push(id);
                }
            }
        }

        // Install the batch, evicting dominated antichain entries (the
        // index narrows the eviction scan to members whose union the new
        // line's contains).
        for &id in &batch {
            if dominated_by_any(&pool, &dom, id, &mut dombuf) {
                continue;
            }
            let _sp = span("stage.domination");
            let mut evicted: Vec<u32> = Vec::new();
            dom.any_subset_candidate(&pool.union_of(id), &mut dombuf, |m| {
                if dominates_ids(&pool, id, m) {
                    evicted.push(m);
                }
                false
            });
            for &m in &evicted {
                dom.remove(m, &pool.union_of(m));
            }
            if !evicted.is_empty() {
                antichain.retain(|m| !evicted.contains(m));
            }
            antichain.push(id);
            dom.insert(id, &pool.union_of(id));
        }
        // Stage 2: close the surviving candidates and enqueue the fresh
        // closures.
        let closed_chunks: Vec<Vec<Option<Line>>> = crate::par::par_chunks(
            candidates.len(),
            threads,
            par_min,
            |_| 1,
            |ids| {
                let mut close_scratch = CloseScratch::default();
                let mut dombuf: Vec<u64> = Vec::new();
                candidates[ids]
                    .iter()
                    .map(|&id| {
                        if dominated_by_any(&pool, &dom, id, &mut dombuf) {
                            return None;
                        }
                        let _sp = span("stage.close");
                        let mut line = pool.get(id).to_vec();
                        close_line(&mut line, trie, &universe, &mut close_scratch);
                        Some(line)
                    })
                    .collect()
            },
        );
        for closed in closed_chunks.into_iter().flatten().flatten() {
            let (cid, _) = pool.intern(&closed);
            enqueued.resize(pool.len(), false);
            if !enqueued[cid as usize] && !dominated_by_any(&pool, &dom, cid, &mut dombuf) {
                enqueued[cid as usize] = true;
                queue.push(cid);
            }
        }
    }

    // Final pass: keep only maximal lines. Ids are unique and lines
    // canonical, so mutual domination between distinct entries is
    // impossible and no duplicate check is needed; the signature filter
    // rejects most candidate pairs before the alignment matcher runs.
    let mut result: Vec<Line> = antichain
        .iter()
        .filter(|&&id| !dominated_by_any(&pool, &dom, id, &mut dombuf))
        .map(|&id| pool.get(id).to_vec())
        .collect();
    result.sort();
    result
}

/// Arity-2 fast path: maximal good pairs are exactly the *formal
/// concepts* of the symmetric compatibility relation — closed pairs
/// `(Y, cl(Y))` with `cl(S) = {x : ∀s∈S, {x,s} ∈ c}`. Every concept
/// extent is an intersection of single-label closures, so the ∩-closure
/// of `{cl({s})}` enumerates them all.
fn maximal_good_pairs(c: &Constraint) -> Vec<Line> {
    use std::collections::BTreeSet;
    let universe = c.used_labels();
    let trie = c.trie();
    let cl = |s: &LabelSet| -> LabelSet {
        let mut out = LabelSet::empty();
        for x in universe.iter() {
            if s.iter().all(|y| {
                let pair = if x <= y { [x, y] } else { [y, x] };
                trie.contains_sorted(&pair)
            }) {
                out.insert(x);
            }
        }
        out
    };
    // ∩-closure of the single-label closures (plus the full universe),
    // deduplicated in an ordered set instead of O(n) vector scans.
    let mut extents: BTreeSet<LabelSet> = BTreeSet::new();
    extents.insert(universe);
    for l in universe.iter() {
        let base = cl(&LabelSet::singleton(l));
        let mut new_items: Vec<LabelSet> = Vec::new();
        for e in &extents {
            let meet = e.intersection(&base);
            if !extents.contains(&meet) {
                new_items.push(meet);
            }
        }
        new_items.push(base);
        extents.extend(new_items);
    }
    let mut out: BTreeSet<Line> = BTreeSet::new();
    for e in extents {
        if e.is_empty() {
            continue;
        }
        let partner = cl(&e);
        if partner.is_empty() || cl(&partner) != e {
            continue; // not a concept (or degenerate)
        }
        out.insert(canonical(vec![e, partner]));
    }
    out.into_iter().collect()
}

/// Brute-force oracle: all good lines over subsets of `universe`, maximal
/// ones only. Exponential; used by tests on tiny instances.
pub fn maximal_good_lines_bruteforce(c: &Constraint, universe: &LabelSet) -> Vec<Line> {
    let all = all_good_lines_bruteforce(c, universe);
    all.iter().filter(|l| !all.iter().any(|m| m != *l && dominates(m, l))).cloned().collect()
}

/// All good lines (not only maximal) over subsets of `universe`; the
/// unsimplified Theorem-1 transform. Exponential in `universe.len()`.
pub fn all_good_lines_bruteforce(c: &Constraint, universe: &LabelSet) -> Vec<Line> {
    let subsets = crate::labelset::nonempty_subsets(universe);
    let r = c.arity();
    let mut all: Vec<Line> = Vec::new();
    let mut cur: Line = Vec::with_capacity(r);
    fn rec(
        subsets: &[LabelSet],
        start: usize,
        left: usize,
        cur: &mut Line,
        c: &Constraint,
        all: &mut Vec<Line>,
    ) {
        if left == 0 {
            if line_good(cur, c) {
                all.push(cur.clone());
            }
            return;
        }
        for i in start..subsets.len() {
            cur.push(subsets[i]);
            rec(subsets, i, left - 1, cur, c, all);
            cur.pop();
        }
    }
    rec(&subsets, 0, r, &mut cur, c, &mut all);
    all.sort();
    all.dedup();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn l(i: usize) -> Label {
        Label::from_index(i)
    }

    fn cfg(ixs: &[usize]) -> Config {
        Config::new(ixs.iter().map(|&i| l(i)).collect())
    }

    fn set(ixs: &[usize]) -> LabelSet {
        ixs.iter().map(|&i| l(i)).collect()
    }

    /// Sinkless-coloring edge constraint: {0,0} and {0,1} allowed.
    fn sc_edge() -> Constraint {
        Constraint::from_configs(2, [cfg(&[0, 0]), cfg(&[0, 1])]).unwrap()
    }

    #[test]
    fn line_good_basics() {
        let c = sc_edge();
        assert!(line_good(&[set(&[0]), set(&[0, 1])], &c));
        assert!(line_good(&[set(&[0, 1]), set(&[0])], &c)); // unsorted input
        assert!(!line_good(&[set(&[0, 1]), set(&[0, 1])], &c)); // {1,1} not allowed
        assert!(!line_good(&[set(&[1]), set(&[1])], &c));
        assert!(!line_good(&[LabelSet::empty(), set(&[0])], &c)); // empty component
    }

    #[test]
    fn sinkless_coloring_edge_has_unique_maximal_line() {
        // Paper §4.4: the only maximal element of g_{1/2} is {{0},{0,1}}.
        let lines = maximal_good_lines(&sc_edge(), 1);
        assert_eq!(lines, vec![canonical(vec![set(&[0]), set(&[0, 1])])]);
    }

    #[test]
    fn matches_bruteforce_on_coloring() {
        // 3-coloring edge constraint: all pairs of distinct colors.
        let c = Constraint::from_configs(2, [cfg(&[0, 1]), cfg(&[0, 2]), cfg(&[1, 2])]).unwrap();
        let fast = maximal_good_lines(&c, 1);
        let slow = maximal_good_lines_bruteforce(&c, &LabelSet::first_n(3));
        assert_eq!(fast, slow);
        // Maximal disjoint pairs {Y, complement-ish}: {0}{1,2}, {1}{0,2}, {2}{0,1}.
        assert_eq!(fast.len(), 3);
    }

    #[test]
    fn matches_bruteforce_on_arity3() {
        // "at least one 1": node constraint of sinkless orientation, Δ=3,
        // labels {0,1}: configs 001, 011, 111.
        let c = Constraint::from_configs(3, [cfg(&[0, 0, 1]), cfg(&[0, 1, 1]), cfg(&[1, 1, 1])])
            .unwrap();
        let fast = maximal_good_lines(&c, 1);
        let slow = maximal_good_lines_bruteforce(&c, &LabelSet::first_n(2));
        assert_eq!(fast, slow);
        // Unique maximal line: ({1},{0,1},{0,1}).
        assert_eq!(fast, vec![canonical(vec![set(&[1]), set(&[0, 1]), set(&[0, 1])])]);
    }

    #[test]
    fn matches_bruteforce_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(20190226);
        for trial in 0..30 {
            let n = rng.gen_range(2..=4);
            let arity = rng.gen_range(2..=3);
            let univ = LabelSet::first_n(n);
            let all = crate::config::all_multisets(n, arity);
            let c = Constraint::from_configs(arity, all.into_iter().filter(|_| rng.gen_bool(0.45)))
                .unwrap();
            if c.is_empty() {
                continue;
            }
            let fast = maximal_good_lines(&c, 1);
            let slow = maximal_good_lines_bruteforce(&c, &univ);
            assert_eq!(fast, slow, "trial {trial} mismatch for constraint {c:?}");
        }
    }

    #[test]
    fn delta_reclosure_equals_full_reclosure() {
        use rand::{Rng, SeedableRng};
        // The probe-skip in `close_line` (equal adjacent components whose
        // predecessor's probes changed nothing) must close every line to
        // exactly what the skip-free pass produces — including lines with
        // high component multiplicities, where the skip actually fires.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDE17A);
        for trial in 0..80 {
            let n = rng.gen_range(2..=5);
            let arity = rng.gen_range(3..=6);
            let c = Constraint::from_configs(
                arity,
                crate::config::all_multisets(n, arity).into_iter().filter(|_| rng.gen_bool(0.4)),
            )
            .unwrap();
            if c.is_empty() {
                continue;
            }
            let trie = c.trie();
            let universe = *trie.universe();
            for _ in 0..20 {
                // Random canonical line, biased toward repeated components.
                let mut distinct: Vec<LabelSet> = Vec::new();
                for _ in 0..rng.gen_range(1..=2usize) {
                    let mut s = LabelSet::empty();
                    for i in 0..n {
                        if rng.gen_bool(0.5) {
                            s.insert(Label::from_index(i));
                        }
                    }
                    if s.is_empty() {
                        s.insert(Label::from_index(rng.gen_range(0..n)));
                    }
                    distinct.push(s);
                }
                let mut line: Line =
                    (0..arity).map(|_| distinct[rng.gen_range(0..distinct.len())]).collect();
                line.sort_unstable();
                let mut with_delta = line.clone();
                let mut without = line;
                close_line(&mut with_delta, trie, &universe, &mut CloseScratch::default());
                close_line_full(&mut without, trie, &universe, &mut CloseScratch::default());
                assert_eq!(with_delta, without, "trial {trial} constraint {c:?}");
            }
        }
    }

    #[test]
    fn forced_parallel_paths_match_sequential() {
        use rand::{Rng, SeedableRng};
        // Production thresholds keep small batches inline, so this test
        // drops `par_min` to 1: every round takes the chunk-pool merge
        // path and the chunked close path, with real scoped threads
        // (par_chunks spawns from 2 items once the threshold allows).
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        for trial in 0..10 {
            let n = rng.gen_range(3usize..=5);
            let arity = rng.gen_range(3usize..=4);
            let c = Constraint::from_configs(
                arity,
                crate::config::all_multisets(n, arity).into_iter().filter(|_| rng.gen_bool(0.5)),
            )
            .unwrap();
            if c.is_empty() {
                continue;
            }
            let sequential = maximal_good_lines_impl(&c, 1, PAR_MIN_ITEMS);
            // Threads 0 is treated as 1.
            for threads in [0usize, 2, 4] {
                let forced = maximal_good_lines_impl(&c, threads, 1);
                assert_eq!(forced, sequential, "trial {trial} threads {threads}");
            }
        }
    }

    #[test]
    fn dominates_respects_alignment() {
        let a = vec![set(&[0, 1]), set(&[2])];
        let b = vec![set(&[2]), set(&[0])];
        assert!(dominates(&a, &b)); // align ({2}→{2}, {0}→{0,1})
        assert!(!dominates(&b, &a));
        assert!(dominates(&a, &a));
    }

    #[test]
    fn dominates_bitmask_agrees_with_general() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let n = rng.gen_range(1usize..=5);
            let labels = rng.gen_range(2usize..=4);
            let rand_line = |rng: &mut rand::rngs::StdRng| -> Line {
                (0..n)
                    .map(|_| {
                        let mut s = LabelSet::empty();
                        for i in 0..labels {
                            if rng.gen_bool(0.5) {
                                s.insert(l(i));
                            }
                        }
                        if s.is_empty() {
                            s.insert(l(0));
                        }
                        s
                    })
                    .collect()
            };
            let a = rand_line(&mut rng);
            let b = rand_line(&mut rng);
            assert_eq!(dominates(&a, &b), dominates_general(&a, &b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn all_good_lines_superset_of_maximal() {
        let c = sc_edge();
        let univ = LabelSet::first_n(2);
        let all = all_good_lines_bruteforce(&c, &univ);
        let max = maximal_good_lines_bruteforce(&c, &univ);
        for m in &max {
            assert!(all.contains(m));
        }
        assert!(all.len() >= max.len());
    }
}
