//! Problem isomorphism and fixed-point detection.
//!
//! Two problems are *isomorphic* if some bijection of their alphabets maps
//! one's node and edge constraints exactly onto the other's. Detecting
//! isomorphism is how the iterated-speedup driver recognizes fixed points
//! such as the §4.4 loop (sinkless coloring → sinkless orientation →
//! sinkless coloring), which certifies that the speedup sequence never
//! reaches a 0-round-solvable problem.
//!
//! Every check starts from a Weisfeiler–Leman label refinement
//! ([`refined_label_hashes`]). One refinement yields both a problem's
//! [`fingerprint`] and its label ranks ([`fingerprint_and_ranks`]); an
//! index that keeps the ranks checks a fingerprint-bucket member with
//! [`isomorphism_ranked`], which runs only the candidate filter and the
//! search and refines neither side again.

use crate::constraint::Constraint;
use crate::label::Label;
use crate::packed::PackedProblem;
use crate::problem::Problem;

/// The canonical `(node, edge)` image computed by [`canonical_key`].
pub type CanonicalKey = (Vec<Vec<usize>>, Vec<Vec<usize>>);

/// Deterministic 64-bit mixer for invariant hashing (splitmix64 finalizer).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds `w` into the running invariant hash `h` (order-dependent).
#[inline]
fn fold(h: u64, w: u64) -> u64 {
    mix64(h ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Per-label *refined* invariant hashes: Weisfeiler–Leman-style
/// neighborhood refinement over the constraint structure. Each round
/// replaces a label's hash with a digest of (its own hash, and the sorted
/// multiset of side-tagged digests of the configurations containing it,
/// each folding the co-label hashes with multiplicities). Refinement stops
/// as soon as a round fails to split any class.
///
/// Isomorphic problems produce hash multisets that correspond under every
/// isomorphism — the hashes are computed from label-name-independent data
/// only — so the result can prune isomorphism searches (equal-hash
/// candidate filtering), group canonical-key permutations, and serve as a
/// coarse dedup profile. Refinement splits symmetric-looking labels that
/// plain signatures conflate, which is what keeps the permutation
/// enumerations and coarse-bucket collision chains short on the derived
/// problems the speedup engine produces.
pub fn refined_label_hashes(p: &PackedProblem) -> Vec<u64> {
    Refiner::default().refine(p).to_vec()
}

/// The label refinement behind [`refined_label_hashes`], [`fingerprint`]
/// and [`fingerprint_and_ranks`], with its buffers kept across calls: a
/// caller that refines many problems (a relaxation wave's candidates)
/// reuses one `Refiner` and allocates only when a problem outgrows the
/// buffers.
#[derive(Debug, Default)]
pub struct Refiner {
    flat: FlatRuns,
    scratch: RefineScratch,
    /// The current round's hashes; the result once [`Refiner::refine`]
    /// returns.
    h: Vec<u64>,
    /// The next round's hashes.
    next: Vec<u64>,
}

impl Refiner {
    /// A refiner with empty buffers.
    pub fn new() -> Refiner {
        Refiner::default()
    }

    /// The per-label refined hashes of `p` (see [`refined_label_hashes`]).
    fn refine(&mut self, p: &PackedProblem) -> &[u64] {
        let n = p.label_count();
        self.flat.fill(p);
        let Refiner { flat, scratch, h, next } = self;
        scratch.reset(flat.runs.len(), n);
        // Seed with a constant: round 1 then separates labels by their
        // configuration-shape profile (the classic signature), later rounds
        // by neighborhood structure.
        h.clear();
        h.resize(n, REFINE_SEED);
        next.clear();
        next.resize(n, 0);
        let mut distinct = 1usize;
        for _ in 0..MAX_REFINE_ROUNDS {
            flat.refine_into(h, next, scratch);
            let d = count_distinct(next, &mut scratch.sorted);
            if d <= distinct && distinct > 1 {
                break;
            }
            distinct = d;
            std::mem::swap(h, next);
            if distinct == n {
                break; // fully discrete — further rounds cannot split more
            }
        }
        h
    }

    /// The [`fingerprint`] of `p`, through this refiner's buffers.
    pub fn fingerprint(&mut self, p: &PackedProblem) -> u64 {
        // Leaves the per-label hashes in `h` and their sorted multiset in
        // `scratch.sorted`, where `fingerprint_and_ranks` reads them.
        self.refine(p);
        let sorted = &mut self.scratch.sorted;
        sorted.clear();
        sorted.extend_from_slice(&self.h);
        sorted.sort_unstable();
        let mut h = fold(0xCBF2_9CE4_8422_2325u64, p.label_count() as u64);
        h = fold(h, p.delta() as u64);
        h = fold(h, p.edge().arity() as u64);
        h = fold(h, ((p.node().len() as u64) << 32) | p.edge().len() as u64);
        sorted.iter().fold(h, |h, &w| fold(h, w))
    }

    /// [`fingerprint_and_ranks`] of `p`.
    pub fn fingerprint_and_ranks(&mut self, p: &PackedProblem) -> (u64, Box<[u16]>) {
        let fp = self.fingerprint(p);
        let distinct = &mut self.scratch.sorted;
        distinct.dedup();
        let rank = |h: &u64| distinct.binary_search(h).expect("a refined hash") as u16;
        (fp, self.h.iter().map(rank).collect())
    }
}

/// A packed problem's [`fingerprint`] plus each label's *rank*: the index
/// of its refined hash ([`refined_label_hashes`]) among the problem's
/// distinct refined hashes, in ascending order.
///
/// Ranks stand in for the hashes in [`isomorphism_ranked`]: two problems
/// with equal fingerprints have equal sorted hash multisets (barring a
/// 64-bit collision), and then `ranks_a[l] == ranks_b[m]` exactly when the
/// hashes of `l` and `m` are equal. A caller that keeps the ranks of a
/// problem never refines it again to check it for isomorphism.
pub fn fingerprint_and_ranks(p: &PackedProblem) -> (u64, Box<[u16]>) {
    Refiner::default().fingerprint_and_ranks(p)
}

/// Refinement-round cap for [`refined_label_hashes`]. The hashes are
/// computed per relax candidate on the search's hot path, so rounds are
/// precious; after the shape round, two rounds of neighborhood refinement
/// are where the problems this engine produces stop splitting.
const MAX_REFINE_ROUNDS: usize = 3;

/// The value every label's hash starts from.
const REFINE_SEED: u64 = 0xA076_1D64_78BD_642F;
/// Seed of the per-side tags that keep node and edge digests apart.
const SIDE_SEED: u64 = 0x2545_F491_4F6C_DD1D;
/// Seed of each label's per-round fold.
const LABEL_SEED: u64 = 0xE703_7ED1_A0B4_28DB;

/// Number of distinct values in `h`, sorted through the reused `sorted`.
fn count_distinct(h: &[u64], sorted: &mut Vec<u64>) -> usize {
    sorted.clear();
    sorted.extend_from_slice(h);
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Every configuration of a problem flattened once into its
/// `(label, multiplicity)` runs, with each label's *slot* range: one slot
/// per configuration run of that label. A refinement round writes each
/// run's digest into its label's next slot, so the per-label digest
/// multisets live in one buffer and no round allocates.
#[derive(Debug, Default)]
struct FlatRuns {
    /// `(label index, multiplicity)` of every run, configurations in
    /// constraint order (node side first), labels ascending within one.
    runs: Vec<(u32, u32)>,
    /// `ends[c]`: one past configuration `c`'s last run.
    ends: Vec<u32>,
    /// Number of node configurations (the rest are edge configurations).
    node_configs: usize,
    /// `offsets[l]..offsets[l + 1]`: label `l`'s slot range.
    offsets: Vec<u32>,
}

/// Buffers a refinement reuses across its rounds.
#[derive(Debug, Default)]
struct RefineScratch {
    /// Per-label digest slots, laid out by [`FlatRuns::offsets`].
    slots: Vec<u64>,
    /// Next free slot of every label during a round.
    cursor: Vec<u32>,
    /// One configuration's co-label digests.
    co: Vec<u64>,
    /// [`count_distinct`]'s sort buffer.
    sorted: Vec<u64>,
}

impl RefineScratch {
    /// Sizes the buffers for `runs` runs over `n` labels.
    fn reset(&mut self, runs: usize, n: usize) {
        self.slots.clear();
        self.slots.resize(runs, 0);
        self.cursor.clear();
        self.cursor.resize(n, 0);
    }
}

impl FlatRuns {
    /// Flattens `p`, reusing the buffers of the previous problem.
    fn fill(&mut self, p: &PackedProblem) {
        let FlatRuns { runs, ends, node_configs, offsets } = self;
        runs.clear();
        runs.reserve(p.node().len() * p.delta() + p.edge().len() * p.edge().arity());
        ends.clear();
        offsets.clear();
        offsets.resize(p.label_count() + 1, 0);
        *node_configs = p.node().len();
        for cfg in p.node().iter().chain(p.edge().iter()) {
            let start = runs.len();
            for &l in cfg {
                let x = l.index() as u32;
                match runs[start..].last_mut() {
                    Some((last, m)) if *last == x => *m += 1,
                    _ => {
                        runs.push((x, 1));
                        offsets[l.index() + 1] += 1;
                    }
                }
            }
            ends.push(runs.len() as u32);
        }
        for l in 1..offsets.len() {
            offsets[l] += offsets[l - 1];
        }
    }

    /// One refinement round from `h` into `next` (see
    /// [`refined_label_hashes`]): each configuration folds its sorted
    /// co-label digests into a side-tagged base, and each of its runs
    /// leaves `fold(base, multiplicity)` in its label's next slot; then
    /// each label folds its own hash, its slot count and its sorted slots.
    /// The values equal the per-label-`Vec` formulation's bit for bit, so
    /// persisted fingerprints stay valid.
    fn refine_into(&self, h: &[u64], next: &mut [u64], scratch: &mut RefineScratch) {
        let RefineScratch { slots, cursor, co, .. } = scratch;
        cursor.copy_from_slice(&self.offsets[..h.len()]);
        let side_tags = [fold(SIDE_SEED, 0), fold(SIDE_SEED, 1)];
        let mut start = 0usize;
        for (c, &end) in self.ends.iter().enumerate() {
            let cfg_runs = &self.runs[start..end as usize];
            start = end as usize;
            co.clear();
            co.extend(cfg_runs.iter().map(|&(x, m)| fold(h[x as usize], m as u64)));
            co.sort_unstable();
            let mut base = side_tags[usize::from(c >= self.node_configs)];
            for &w in co.iter() {
                base = fold(base, w);
            }
            for &(x, m) in cfg_runs {
                let slot = &mut cursor[x as usize];
                slots[*slot as usize] = fold(base, m as u64);
                *slot += 1;
            }
        }
        for (l, out) in next.iter_mut().enumerate() {
            let own = &mut slots[self.offsets[l] as usize..self.offsets[l + 1] as usize];
            own.sort_unstable();
            let mut acc = fold(LABEL_SEED, h[l]);
            acc = fold(acc, own.len() as u64);
            for &w in own.iter() {
                acc = fold(acc, w);
            }
            *out = acc;
        }
    }
}

/// Searches for an isomorphism from `a` to `b`: refines both, then runs
/// [`isomorphism_ranked`].
///
/// Returns, if one exists, the label mapping `m` with
/// `m[l.index()]` = the `b`-label corresponding to `a`-label `l`.
///
/// ```
/// use roundelim_core::problem::Problem;
/// use roundelim_core::iso::isomorphism;
/// let p = Problem::parse("name: p\nnode: A A B\nedge: A B").unwrap();
/// let q = Problem::parse("name: q\nnode: Y X X\nedge: X Y").unwrap();
/// assert!(isomorphism(p.packed(), q.packed()).is_some());
/// ```
pub fn isomorphism(a: &PackedProblem, b: &PackedProblem) -> Option<Vec<Label>> {
    let mut refiner = Refiner::default();
    let (fa, ra) = refiner.fingerprint_and_ranks(a);
    let (fb, rb) = refiner.fingerprint_and_ranks(b);
    if fa != fb {
        return None; // the fingerprint is an isomorphism invariant
    }
    isomorphism_ranked(a, &ra, b, &rb)
}

/// [`isomorphism`] with each problem's label ranks
/// ([`fingerprint_and_ranks`]) supplied by the caller, so neither problem
/// is refined again.
///
/// Candidate targets are filtered by rank equality. When the two problems'
/// hash multisets agree (as they do for isomorphic problems and for equal
/// fingerprints), that is the same filter as hash equality, so candidates,
/// search order and the first mapping found are those of the hash-filtered
/// search. When they differ, no isomorphism exists, and the search — which
/// only accepts a mapping that carries every configuration of `a` into `b`
/// — returns `None` whatever the candidates.
///
/// # Panics
///
/// If a rank slice's length is not its problem's label count.
pub fn isomorphism_ranked(
    a: &PackedProblem,
    ra: &[u16],
    b: &PackedProblem,
    rb: &[u16],
) -> Option<Vec<Label>> {
    assert!(ra.len() == a.label_count() && rb.len() == b.label_count(), "one rank per label");
    let (candidates, order) = candidates_and_order(a, ra, b, rb)?;
    search(a, b, &candidates, &order)
}

/// The closing-probe search for a mapping from `a` to `b` that assigns
/// `order`'s labels in turn, each to one of its `candidates`.
fn search(
    a: &PackedProblem,
    b: &PackedProblem,
    candidates: &[Vec<Label>],
    order: &[usize],
) -> Option<Vec<Label>> {
    let n = order.len();
    let mut probe = ClosingProbe::new(a, b, order);
    let mut mapping: Vec<Option<Label>> = vec![None; n];
    let mut used = vec![false; n];
    if assign(candidates, order, 0, &mut mapping, &mut used, &mut probe) {
        Some(mapping.into_iter().map(|m| m.expect("assignment complete")).collect())
    } else {
        None
    }
}

/// Whether two problems agree on label count, arities and configuration
/// counts (isomorphism's cheapest invariants).
fn same_shape(a: &PackedProblem, b: &PackedProblem) -> bool {
    a.label_count() == b.label_count()
        && a.node().len() == b.node().len()
        && a.edge().len() == b.edge().len()
        && a.delta() == b.delta()
        && a.edge().arity() == b.edge().arity()
}

/// The isomorphism search's candidate targets per source label and its
/// label order, or `None` when a cheap invariant already rules an
/// isomorphism out.
fn candidates_and_order(
    a: &PackedProblem,
    ra: &[u16],
    b: &PackedProblem,
    rb: &[u16],
) -> Option<(Vec<Vec<Label>>, Vec<usize>)> {
    if !same_shape(a, b) {
        return None;
    }
    let n = a.label_count();
    // Any isomorphism maps a label onto one of equal refined hash, hence of
    // equal rank: the rank multisets must agree.
    {
        let mut sa = ra.to_vec();
        let mut sb = rb.to_vec();
        sa.sort_unstable();
        sb.sort_unstable();
        if sa != sb {
            return None;
        }
    }
    // Equal rank multisets leave every label at least one candidate.
    let candidates: Vec<Vec<Label>> = ra
        .iter()
        .map(|&r| (0..n).filter(|&m| rb[m] == r).map(Label::from_index).collect())
        .collect();
    // Order source labels by fewest candidates first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| candidates[i].len());
    Some((candidates, order))
}

/// The configurations of `a` grouped by the search depth that completes
/// them: `closing[ends[d - 1]..ends[d]]` (from 0 at `d = 0`) holds every
/// configuration whose last-assigned label is `order[d]`, paired with the
/// constraint of `b` its image must lie in. At depth `d` exactly these
/// configurations become fully mapped, so they are the only ones whose
/// images are new facts to probe.
struct ClosingProbe<'a> {
    /// `(configuration of a, constraint of b)`, by closing depth.
    closing: Vec<(&'a [Label], &'a Constraint)>,
    /// `ends[d]`: one past the last configuration closed at depth `d`.
    ends: Vec<usize>,
    /// Reused image buffer: one configuration mapped and sorted.
    image: Vec<Label>,
}

impl<'a> ClosingProbe<'a> {
    fn new(a: &'a PackedProblem, b: &'a PackedProblem, order: &[usize]) -> ClosingProbe<'a> {
        let n = order.len();
        let mut depth_of = vec![0usize; n];
        for (d, &l) in order.iter().enumerate() {
            depth_of[l] = d;
        }
        let closing_depth = |cfg: &[Label]| {
            cfg.iter().map(|l| depth_of[l.index()]).max().expect("configurations are non-empty")
        };
        let mut keyed: Vec<(usize, &[Label], &Constraint)> =
            Vec::with_capacity(a.node().len() + a.edge().len());
        for (ca, cb) in [(a.node(), b.node()), (a.edge(), b.edge())] {
            keyed.extend(ca.iter().map(|cfg| (closing_depth(cfg), cfg, cb)));
        }
        keyed.sort_by_key(|&(d, _, _)| d);
        let ends = (0..n).map(|d| keyed.partition_point(|&(e, _, _)| e <= d)).collect();
        let closing = keyed.into_iter().map(|(_, cfg, cb)| (cfg, cb)).collect();
        ClosingProbe { closing, ends, image: Vec::with_capacity(a.delta()) }
    }

    /// Whether every configuration closed at `depth` maps into `b` under
    /// `mapping` (which assigns every label up to `depth`). Configurations
    /// closed at earlier depths were probed when their depth was placed.
    fn closed_consistent(&mut self, depth: usize, mapping: &[Option<Label>]) -> bool {
        let start = if depth == 0 { 0 } else { self.ends[depth - 1] };
        for &(cfg, target) in &self.closing[start..self.ends[depth]] {
            self.image.clear();
            self.image.extend(
                cfg.iter().map(|l| mapping[l.index()].expect("closed configurations are mapped")),
            );
            self.image.sort_unstable();
            if !target.contains(&self.image) {
                return false;
            }
        }
        true
    }
}

fn assign(
    candidates: &[Vec<Label>],
    order: &[usize],
    depth: usize,
    mapping: &mut [Option<Label>],
    used: &mut [bool],
    probe: &mut ClosingProbe<'_>,
) -> bool {
    if depth == order.len() {
        // Every configuration of `a` closed at some depth and was found in
        // `b`; the mapping is a bijection, so distinct configurations have
        // distinct images, and both sides have equally many
        // configurations. The images therefore are exactly `b`'s
        // constraints — the full rebuild `check_full` does is implied.
        return true;
    }
    let src = order[depth];
    for &tgt in &candidates[src] {
        if used[tgt.index()] {
            continue;
        }
        mapping[src] = Some(tgt);
        used[tgt.index()] = true;
        if probe.closed_consistent(depth, mapping)
            && assign(candidates, order, depth + 1, mapping, used, probe)
        {
            // Leave the successful assignment in `mapping` for the caller.
            return true;
        }
        mapping[src] = None;
        used[tgt.index()] = false;
    }
    false
}

/// Whether renaming `a` through `map` rebuilds `b`'s constraints exactly.
fn check_full(a: &Problem, b: &Problem, map: &[Label]) -> bool {
    let map_constraint = |c: &Constraint| -> Constraint { c.map_labels(|l| map[l.index()]) };
    &map_constraint(a.node()) == b.node() && &map_constraint(a.edge()) == b.edge()
}

/// Whether two problems are isomorphic (alphabet renaming only).
pub fn are_isomorphic(a: &Problem, b: &Problem) -> bool {
    isomorphism(a.packed(), b.packed()).is_some()
}

/// Checks a *claimed* isomorphism witness instead of searching for one:
/// `map[l.index()]` must be a bijection from `a`'s labels onto `b`'s that
/// carries `a`'s node and edge constraints exactly onto `b`'s.
///
/// This is the certificate-replay hook: an independent verifier re-checks a
/// recorded witness in polynomial time, without re-running the isomorphism
/// search that produced it.
pub fn check_isomorphism(a: &Problem, b: &Problem, map: &[Label]) -> bool {
    let n = a.alphabet().len();
    if map.len() != n || b.alphabet().len() != n {
        return false;
    }
    let mut used = vec![false; n];
    for &t in map {
        if t.index() >= n || used[t.index()] {
            return false;
        }
        used[t.index()] = true;
    }
    check_full(a, b, map)
}

/// A 64-bit digest of a problem's isomorphism invariants: label count,
/// arities, configuration counts, and the sorted
/// [`refined_label_hashes`]. Isomorphic problems always agree on it;
/// distinct problems may collide, so any index keyed by it must resolve
/// collisions with an isomorphism check ([`isomorphism_ranked`] when the
/// index keeps [`fingerprint_and_ranks`]). Much cheaper than
/// [`canonical_key`] — a few refinement passes, no permutation
/// enumeration. The bound search's fingerprint interning and the speedup
/// sequence's fixed-point index are built on it.
pub fn fingerprint(p: &PackedProblem) -> u64 {
    Refiner::default().fingerprint(p)
}

/// A structural isomorphism invariant far cheaper than the [`fingerprint`]:
/// a digest of the label count, Δ, the edge arity, the per-side
/// configuration counts, and the sorted multiset of per-label
/// `(node configurations containing it, node occurrences, edge
/// configurations containing it, edge occurrences)`, multiplicities
/// counted. One pass over the rows and a sort of one word per label: less
/// work than one refinement round.
///
/// The fingerprint's first refinement round already separates labels by
/// these counts, so problems with equal fingerprints have equal pre-keys
/// (barring a 64-bit collision), and an index keyed by pre-key holds every
/// fingerprint bucket whole. `counts` is the per-label buffer, reused
/// across calls: a warm call allocates nothing.
pub fn pre_key(p: &PackedProblem, counts: &mut Vec<u64>) -> u64 {
    counts.clear();
    counts.resize(p.label_count(), 0);
    // Four 16-bit fields per label, high to low: node configurations, node
    // occurrences, edge configurations, edge occurrences. A field that
    // overflows carries into its neighbor, which keeps the word invariant.
    for (side, shift) in [(p.node(), 32), (p.edge(), 0)] {
        for cfg in side.iter() {
            // Rows are sorted, so a label's first slot in a row starts its run.
            for (i, &l) in cfg.iter().enumerate() {
                let first = u64::from(i == 0 || cfg[i - 1] != l);
                counts[l.index()] = counts[l.index()].wrapping_add(((first << 16) | 1) << shift);
            }
        }
    }
    counts.sort_unstable();
    let mut h = fold(PRE_KEY_SEED, p.label_count() as u64);
    h = fold(h, p.delta() as u64);
    h = fold(h, p.edge().arity() as u64);
    h = fold(h, ((p.node().len() as u64) << 32) | p.edge().len() as u64);
    counts.iter().fold(h, |h, &c| fold(h, c))
}

/// The value a [`pre_key`] digest starts from.
const PRE_KEY_SEED: u64 = 0x8EBC_6AF0_9C88_C6E3;

/// A canonical key for a problem, equal for isomorphic problems.
///
/// Computed by trying all signature-respecting renamings and keeping the
/// lexicographically smallest `(node, edge)` image; intended for the small
/// alphabets the generic engine produces. Complexity is bounded by the
/// isomorphism search over the problem against itself.
pub fn canonical_key(p: &Problem) -> CanonicalKey {
    let n = p.alphabet().len();
    // Refined invariant classes, each assigned a contiguous range of
    // *canonical slots* ordered by the (label-name-independent) class hash
    // value. A renaming may map a label onto any free slot of its class's
    // range — and nothing else. Anchoring targets to invariant slot ranks
    // (rather than to same-class *source indices*) is what makes the
    // minimum image independent of the input labeling: isomorphic problems
    // enumerate renamings onto the same canonical slot layout, so their
    // minima coincide. Refinement keeps the classes (and with them the
    // factorial enumeration) small; fully-refined problems admit exactly
    // one renaming.
    let hashes: Vec<u64> = refined_label_hashes(p.packed());
    let mut class_values: Vec<u64> = hashes.clone();
    class_values.sort_unstable();
    class_values.dedup();
    // slots[l] = the canonical slot range of l's class.
    let class_start = |h: u64| -> usize {
        let rank = class_values.binary_search(&h).expect("hash of an existing class");
        hashes.iter().filter(|&&x| class_values.binary_search(&x).unwrap() < rank).count()
    };
    let slots: Vec<(usize, usize)> = hashes
        .iter()
        .map(|&h| {
            let start = class_start(h);
            let size = hashes.iter().filter(|&&x| x == h).count();
            (start, start + size)
        })
        .collect();
    let mut best: Option<CanonicalKey> = None;
    let mut perm: Vec<usize> = (0..n).collect();
    // Enumerate class-respecting renamings onto canonical slots.
    fn rec(
        p: &Problem,
        slots: &[(usize, usize)],
        pos: usize,
        used: &mut Vec<bool>,
        perm: &mut Vec<usize>,
        best: &mut Option<CanonicalKey>,
    ) {
        let n = slots.len();
        if pos == n {
            let key = render(p, perm);
            match best {
                None => *best = Some(key),
                Some(b) => {
                    if key < *b {
                        *b = key;
                    }
                }
            }
            return;
        }
        let (lo, hi) = slots[pos];
        for tgt in lo..hi {
            if !used[tgt] {
                used[tgt] = true;
                perm[pos] = tgt;
                rec(p, slots, pos + 1, used, perm, best);
                used[tgt] = false;
            }
        }
    }
    fn render(p: &Problem, perm: &[usize]) -> CanonicalKey {
        let conv = |c: &Constraint| -> Vec<Vec<usize>> {
            let mut v: Vec<Vec<usize>> = c
                .iter()
                .map(|cfg| {
                    let mut labels: Vec<usize> = cfg.iter().map(|l| perm[l.index()]).collect();
                    labels.sort_unstable();
                    labels
                })
                .collect();
            v.sort();
            v
        };
        (conv(p.node()), conv(p.edge()))
    }
    let mut used = vec![false; n];
    rec(p, &slots, 0, &mut used, &mut perm, &mut best);
    best.expect("every label has a non-empty slot range")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::Config;
    use crate::label::Alphabet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A random problem over `n` labels: `node_cfgs` node configurations
    /// of arity `delta` and `edge_cfgs` edge configurations of arity
    /// `edge_arity`, labels drawn with repetition. With `symmetric`, every
    /// configuration comes with its whole orbit under one random label
    /// permutation, so each label orbit looks alike to every invariant and
    /// an isomorphism search has to backtrack among its members.
    pub(crate) fn random_problem(
        rng: &mut StdRng,
        n: usize,
        (delta, edge_arity): (usize, usize),
        (node_cfgs, edge_cfgs): (usize, usize),
        symmetric: bool,
    ) -> Problem {
        let mut sigma: Vec<usize> = (0..n).collect();
        if symmetric {
            sigma.shuffle(rng);
        }
        let mut fill = |arity: usize, count: usize| {
            let mut configs = Vec::new();
            for _ in 0..count {
                let start = Config::new(
                    (0..arity).map(|_| Label::from_index(rng.gen_range(0..n))).collect(),
                );
                let mut cfg = start.clone();
                loop {
                    configs.push(cfg.clone());
                    cfg = cfg.map(|l| Label::from_index(sigma[l.index()]));
                    if cfg == start {
                        break;
                    }
                }
            }
            Constraint::from_configs(arity, configs).unwrap()
        };
        let node = fill(delta, node_cfgs);
        let edge = fill(edge_arity, edge_cfgs);
        let alphabet = Alphabet::from_names((0..n).map(|i| format!("L{i}"))).unwrap();
        Problem::new_general("random", alphabet, node, edge).unwrap()
    }

    /// `p` with label `l` renamed to `perm[l]` (fresh names), its
    /// configurations inserted in shuffled order.
    fn renamed(p: &Problem, perm: &[usize], rng: &mut StdRng) -> Problem {
        let rename = |c: &Constraint, rng: &mut StdRng| {
            let mut cfgs: Vec<Config> = c
                .iter()
                .map(|cfg| cfg.iter().map(|l| Label::from_index(perm[l.index()])))
                .map(Config::from_iter)
                .collect();
            cfgs.shuffle(rng);
            Constraint::from_configs(c.arity(), cfgs).unwrap()
        };
        let node = rename(p.node(), rng);
        let edge = rename(p.edge(), rng);
        let alphabet = Alphabet::from_names((0..perm.len()).map(|i| format!("R{i}"))).unwrap();
        Problem::new_general("renamed", alphabet, node, edge).unwrap()
    }

    /// The per-label-`Vec` refinement round the flat pass replaced: the
    /// reference its hash values must equal bit for bit.
    fn refine_round(p: &Problem, h: &[u64]) -> Vec<u64> {
        let n = h.len();
        let mut cfg_hashes: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut co: Vec<u64> = Vec::new();
        for (side, c) in [p.node(), p.edge()].into_iter().enumerate() {
            let side_tag = fold(0x2545_F491_4F6C_DD1Du64, side as u64);
            for cfg in c.iter() {
                let groups: Vec<(Label, usize)> =
                    cfg.chunk_by(|a, b| a == b).map(|run| (run[0], run.len())).collect();
                co.clear();
                co.extend(groups.iter().map(|&(x, m)| fold(h[x.index()], m as u64)));
                co.sort_unstable();
                let mut base = side_tag;
                for &w in &co {
                    base = fold(base, w);
                }
                for &(x, m) in &groups {
                    cfg_hashes[x.index()].push(fold(base, m as u64));
                }
            }
        }
        cfg_hashes
            .into_iter()
            .enumerate()
            .map(|(l, mut v)| {
                v.sort_unstable();
                let mut acc = fold(0xE703_7ED1_A0B4_28DBu64, h[l]);
                acc = fold(acc, v.len() as u64);
                for w in v {
                    acc = fold(acc, w);
                }
                acc
            })
            .collect()
    }

    fn reference_refined_label_hashes(p: &Problem) -> Vec<u64> {
        let n = p.alphabet().len();
        let distinct = |h: &[u64]| {
            let mut sorted = h.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len()
        };
        let mut h: Vec<u64> = vec![0xA076_1D64_78BD_642Fu64; n];
        let mut d_prev = 1usize;
        for _ in 0..MAX_REFINE_ROUNDS {
            let next = refine_round(p, &h);
            let d = distinct(&next);
            if d <= d_prev && d_prev > 1 {
                break;
            }
            d_prev = d;
            h = next;
            if d_prev == n {
                break;
            }
        }
        h
    }

    /// The candidate filter before label ranks: both problems refined
    /// here, the sorted hash multisets compared, and candidates filtered
    /// by hash equality. The reference [`candidates_and_order`] must
    /// reproduce from ranks.
    fn hashed_candidates_and_order(
        a: &PackedProblem,
        b: &PackedProblem,
    ) -> Option<(Vec<Vec<Label>>, Vec<usize>)> {
        if !same_shape(a, b) {
            return None;
        }
        let n = a.label_count();
        let ha = Refiner::new().refine(a).to_vec();
        let hb = Refiner::new().refine(b).to_vec();
        {
            let mut sa = ha.clone();
            let mut sb = hb.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            if sa != sb {
                return None;
            }
        }
        let mut candidates: Vec<Vec<Label>> = Vec::with_capacity(n);
        for &h in &ha {
            let cands: Vec<Label> = (0..n).filter(|&m| hb[m] == h).map(Label::from_index).collect();
            if cands.is_empty() {
                return None;
            }
            candidates.push(cands);
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| candidates[i].len());
        Some((candidates, order))
    }

    /// The isomorphism search with the two-sided hash filter: the
    /// reference [`isomorphism_ranked`] must equal, mapping for mapping.
    fn hashed_isomorphism(a: &PackedProblem, b: &PackedProblem) -> Option<Vec<Label>> {
        let (candidates, order) = hashed_candidates_and_order(a, b)?;
        search(a, b, &candidates, &order)
    }

    /// [`isomorphism_ranked`] with both problems' ranks computed here.
    fn ranked(a: &PackedProblem, b: &PackedProblem) -> Option<Vec<Label>> {
        let (_, ra) = fingerprint_and_ranks(a);
        let (_, rb) = fingerprint_and_ranks(b);
        isomorphism_ranked(a, &ra, b, &rb)
    }

    /// The isomorphism search that probes every fully-mapped
    /// configuration (one `Config` and set probe each) at every depth and
    /// rebuilds both constraints at the leaf: the reference for the
    /// closing-configuration search.
    fn reference_isomorphism(a: &Problem, b: &Problem) -> Option<Vec<Label>> {
        fn partial_consistent(a: &Problem, b: &Problem, mapping: &[Option<Label>]) -> bool {
            let check = |ca: &Constraint, cb: &Constraint| {
                ca.iter().filter(|cfg| cfg.iter().all(|l| mapping[l.index()].is_some())).all(
                    |cfg| {
                        let image = cfg.iter().map(|l| mapping[l.index()].expect("checked above"));
                        cb.contains(&Config::from_iter(image))
                    },
                )
            };
            check(a.node(), b.node()) && check(a.edge(), b.edge())
        }
        fn assign(
            a: &Problem,
            b: &Problem,
            candidates: &[Vec<Label>],
            order: &[usize],
            depth: usize,
            mapping: &mut Vec<Option<Label>>,
            used: &mut Vec<bool>,
        ) -> bool {
            if depth == order.len() {
                let map: Vec<Label> = mapping.iter().map(|m| m.unwrap()).collect();
                return check_full(a, b, &map);
            }
            let src = order[depth];
            for &tgt in &candidates[src] {
                if used[tgt.index()] {
                    continue;
                }
                mapping[src] = Some(tgt);
                used[tgt.index()] = true;
                if partial_consistent(a, b, mapping)
                    && assign(a, b, candidates, order, depth + 1, mapping, used)
                {
                    return true;
                }
                mapping[src] = None;
                used[tgt.index()] = false;
            }
            false
        }
        let (candidates, order) = hashed_candidates_and_order(a.packed(), b.packed())?;
        let n = order.len();
        let mut mapping = vec![None; n];
        let mut used = vec![false; n];
        assign(a, b, &candidates, &order, 0, &mut mapping, &mut used)
            .then(|| mapping.into_iter().map(|m| m.unwrap()).collect())
    }

    /// Random problems for the oracle tests: up to 10 labels, node arity
    /// 2–4, edge arity 2–3, labels repeating within configurations, half
    /// of them closed under a random label permutation.
    fn random_problems(seed: u64, count: usize) -> Vec<Problem> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let n = rng.gen_range(1..=10);
                let arities = (rng.gen_range(2..=4), rng.gen_range(2..=3));
                let sizes = (rng.gen_range(1..=12), rng.gen_range(1..=12));
                random_problem(&mut rng, n, arities, sizes, i % 2 == 1)
            })
            .collect()
    }

    /// The fingerprint folded from the reference hashes.
    fn reference_fingerprint(p: &Problem) -> u64 {
        let mut h = fold(0xCBF2_9CE4_8422_2325u64, p.alphabet().len() as u64);
        h = fold(h, p.delta() as u64);
        h = fold(h, p.edge().arity() as u64);
        h = fold(h, ((p.node().len() as u64) << 32) | p.edge().len() as u64);
        let mut hashes = reference_refined_label_hashes(p);
        hashes.sort_unstable();
        hashes.into_iter().fold(h, fold)
    }

    #[test]
    fn flat_refinement_matches_the_per_label_reference() {
        for (i, p) in random_problems(0x5EED_0001, 400).iter().enumerate() {
            assert_eq!(
                Refiner::new().refine(p.packed()),
                reference_refined_label_hashes(p),
                "problem {i}:\n{}",
                p.to_text()
            );
            assert_eq!(fingerprint(p.packed()), reference_fingerprint(p), "problem {i}");
        }
    }

    #[test]
    fn closing_probes_find_the_reference_mapping() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002);
        let (mut searched, mut rejected) = (0, 0);
        for (i, p) in random_problems(0x5EED_0003, 400).iter().enumerate() {
            let n = p.alphabet().len();
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let q = renamed(p, &perm, &mut rng);
            let (pp, qp) = (p.packed(), q.packed());
            let map = isomorphism(pp, qp);
            assert_eq!(map, reference_isomorphism(p, &q), "problem {i}:\n{}", p.to_text());
            let map = map.expect("a renaming is an isomorphism");
            assert!(check_isomorphism(p, &q, &map), "problem {i}");
            let (candidates, _) = hashed_candidates_and_order(pp, qp).expect("invariants agree");
            if candidates.iter().any(|c| c.len() > 1) {
                searched += 1; // the invariants leave a choice to the search
            }
            // One node configuration of the copy swapped for an absent one:
            // same counts, so only the probes can tell.
            let absent = crate::config::all_multisets(n, p.delta())
                .into_iter()
                .find(|c| !q.node().contains(c) && c.labels().iter().any(|l| l.index() + 1 == n));
            if let Some(absent) = absent {
                let mut node: Vec<Config> =
                    q.node().iter().map(|c| Config::new(c.to_vec())).collect();
                let victim = rng.gen_range(0..node.len());
                node[victim] = absent;
                let node = Constraint::from_configs(p.delta(), node).unwrap();
                let swapped =
                    Problem::new_general("swapped", q.alphabet().clone(), node, q.edge().clone())
                        .unwrap();
                let map = isomorphism(pp, swapped.packed());
                assert_eq!(map, reference_isomorphism(p, &swapped), "swapped problem {i}");
                match map {
                    Some(map) => assert!(check_isomorphism(p, &swapped, &map)),
                    None => rejected += 1,
                }
            }
        }
        assert!(searched > 100, "too few cases left to the search: {searched}");
        assert!(rejected > 150, "too few rejected swaps: {rejected}");
    }

    /// A random problem from `seed` (see [`random_problems`]), a renamed
    /// copy, the copy with one node configuration swapped for an absent
    /// one (when one exists), and an independent problem of the same
    /// parameters.
    fn random_pairs(seed: u64) -> (Problem, Vec<Problem>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=10);
        let arities = (rng.gen_range(2..=4), rng.gen_range(2..=3));
        let sizes = (rng.gen_range(1..=12), rng.gen_range(1..=12));
        let symmetric = rng.gen_range(0..2usize) == 1;
        let p = random_problem(&mut rng, n, arities, sizes, symmetric);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        let q = renamed(&p, &perm, &mut rng);
        let mut others = vec![random_problem(&mut rng, n, arities, sizes, symmetric)];
        let absent = crate::config::all_multisets(n, p.delta())
            .into_iter()
            .find(|c| !q.node().contains(c) && c.labels().iter().any(|l| l.index() + 1 == n));
        if let Some(absent) = absent {
            let mut node: Vec<Config> = q.node().iter().map(|c| Config::new(c.to_vec())).collect();
            let victim = rng.gen_range(0..node.len());
            node[victim] = absent;
            let node = Constraint::from_configs(p.delta(), node).unwrap();
            others.push(
                Problem::new_general("swapped", q.alphabet().clone(), node, q.edge().clone())
                    .unwrap(),
            );
        }
        others.insert(0, q);
        (p, others)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rank-filtered isomorphism returns exactly the two-sided-hash
        /// search's `Option<map>`, on renamings (always `Some`) and on
        /// swapped copies and independent problems (mostly `None`).
        #[test]
        fn ranked_isomorphism_matches_the_hashed_reference(seed in 0u64..u64::MAX) {
            let (p, others) = random_pairs(seed);
            let pp = p.packed();
            for (k, q) in others.iter().enumerate() {
                let qp = q.packed();
                let want = hashed_isomorphism(pp, qp);
                prop_assert!(ranked(pp, qp) == want, "pair {k}: ranked search differs");
                prop_assert!(isomorphism(pp, qp) == want, "pair {k}: refining search differs");
                prop_assert!(k > 0 || want.is_some(), "a renaming is an isomorphism");
            }
        }
    }

    #[test]
    fn equal_ranks_with_different_hash_multisets_are_not_isomorphic() {
        // Each problem has a label-swap automorphism, so both of its labels
        // refine to one hash and rank 0; the two problems' hashes differ.
        let a = Problem::parse("name: a\nnode: A A A | B B B\nedge: A B").unwrap();
        let b = Problem::parse("name: b\nnode: A A B | A B B\nedge: A B").unwrap();
        let (pa, pb) = (a.packed(), b.packed());
        let (fa, ra) = fingerprint_and_ranks(pa);
        let (fb, rb) = fingerprint_and_ranks(pb);
        assert_eq!((&*ra, &*rb), (&[0u16, 0][..], &[0u16, 0][..]));
        assert_ne!(fa, fb);
        assert_ne!(refined_label_hashes(pa), refined_label_hashes(pb));
        assert_eq!(isomorphism_ranked(pa, &ra, pb, &rb), None);
        assert_eq!(hashed_isomorphism(pa, pb), None);
    }

    #[test]
    fn ranks_index_the_distinct_refined_hashes() {
        for p in random_problems(0x5EED_0004, 100) {
            let packed = p.packed();
            let hashes = refined_label_hashes(packed);
            let (fp, ranks) = fingerprint_and_ranks(packed);
            assert_eq!(fp, fingerprint(packed));
            for l in 0..hashes.len() {
                for m in 0..hashes.len() {
                    assert_eq!(ranks[l] == ranks[m], hashes[l] == hashes[m]);
                    assert_eq!(ranks[l] < ranks[m], hashes[l] < hashes[m]);
                }
            }
            // A reused refiner gives every problem the same answer.
            let mut refiner = Refiner::new();
            refiner.fingerprint_and_ranks(random_problems(fp, 1)[0].packed());
            assert_eq!(refiner.fingerprint_and_ranks(packed), (fp, ranks));
        }
    }

    #[test]
    fn renamed_problems_are_isomorphic() {
        let p = Problem::parse("name: p\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let q = Problem::parse("name: q\nnode: B A A\nedge: A A | B A").unwrap();
        let m = isomorphism(p.packed(), q.packed()).unwrap();
        // 0 must map to A, 1 to B (signatures differ).
        let zero = p.alphabet().require("0").unwrap();
        assert_eq!(q.alphabet().name(m[zero.index()]), "A");
        assert!(are_isomorphic(&q, &p));
    }

    #[test]
    fn different_structure_not_isomorphic() {
        let p = Problem::parse("name: p\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let q = Problem::parse("name: q\nnode: B A A\nedge: A A | B B").unwrap();
        assert!(!are_isomorphic(&p, &q));
        let r = Problem::parse("name: r\nnode: 1 0\nedge: 0 0 | 0 1").unwrap();
        assert!(!are_isomorphic(&p, &r)); // Δ differs
    }

    #[test]
    fn symmetric_labels_need_search() {
        // 3-coloring: all three labels have identical signatures.
        let p = Problem::parse("name: p\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        let q = Problem::parse("name: q\nnode: c c | a a | b b\nedge: b a | c a | b c").unwrap();
        assert!(are_isomorphic(&p, &q));
    }

    #[test]
    fn canonical_key_invariant_under_renaming() {
        let p = Problem::parse("name: p\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let q = Problem::parse("name: q\nnode: B A A\nedge: A A | B A").unwrap();
        assert_eq!(canonical_key(&p), canonical_key(&q));
        let r = Problem::parse("name: r\nnode: B A A\nedge: A A | B B").unwrap();
        assert_ne!(canonical_key(&p), canonical_key(&r));
    }

    #[test]
    fn iso_is_reflexive() {
        let p = Problem::parse("name: p\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        assert!(are_isomorphic(&p, &p));
    }
}
