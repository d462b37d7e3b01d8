//! Problem isomorphism and fixed-point detection.
//!
//! Two problems are *isomorphic* if some bijection of their alphabets maps
//! one's node and edge constraints exactly onto the other's. Detecting
//! isomorphism is how the iterated-speedup driver recognizes fixed points
//! such as the §4.4 loop (sinkless coloring → sinkless orientation →
//! sinkless coloring), which certifies that the speedup sequence never
//! reaches a 0-round-solvable problem.

use crate::config::Config;
use crate::constraint::Constraint;
use crate::label::Label;
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
pub fn refined_label_hashes(p: &Problem) -> Vec<u64> {
    let n = p.alphabet().len();
    let flat = FlatRuns::new(p);
    // Seed with a constant: round 1 then separates labels by their
    // configuration-shape profile (the classic signature), later rounds by
    // neighborhood structure.
    let mut h: Vec<u64> = vec![REFINE_SEED; n];
    let mut next: Vec<u64> = vec![0; n];
    let mut scratch = RefineScratch {
        slots: vec![0; flat.runs.len()],
        cursor: vec![0; n],
        co: Vec::with_capacity(p.delta().max(p.edge().arity())),
        sorted: Vec::with_capacity(n),
    };
    let mut distinct = 1usize;
    for _ in 0..MAX_REFINE_ROUNDS {
        flat.refine_into(&h, &mut next, &mut scratch);
        let d = count_distinct(&next, &mut scratch.sorted);
        if d <= distinct && distinct > 1 {
            break;
        }
        distinct = d;
        std::mem::swap(&mut h, &mut next);
        if distinct == n {
            break; // fully discrete — further rounds cannot split more
        }
    }
    h
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

/// Buffers one [`refined_label_hashes`] call reuses across its rounds.
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

impl FlatRuns {
    fn new(p: &Problem) -> FlatRuns {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut ends: Vec<u32> = Vec::with_capacity(p.node().len() + p.edge().len());
        let mut offsets = vec![0u32; p.alphabet().len() + 1];
        for cfg in p.node().iter().chain(p.edge().iter()) {
            let start = runs.len();
            for &l in cfg.labels() {
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
        FlatRuns { runs, ends, node_configs: p.node().len(), offsets }
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
/// Searches for an isomorphism from `a` to `b`.
///
/// Returns, if one exists, the label mapping `m` with
/// `m[l.index()]` = the `b`-label corresponding to `a`-label `l`.
///
/// ```
/// use roundelim_core::problem::Problem;
/// use roundelim_core::iso::isomorphism;
/// let p = Problem::parse("name: p\nnode: A A B\nedge: A B").unwrap();
/// let q = Problem::parse("name: q\nnode: Y X X\nedge: X Y").unwrap();
/// assert!(isomorphism(&p, &q).is_some());
/// ```
pub fn isomorphism(a: &Problem, b: &Problem) -> Option<Vec<Label>> {
    let (candidates, order) = candidates_and_order(a, b)?;
    let n = order.len();
    let mut probe = ClosingProbe::new(a, b, &order);
    let mut mapping: Vec<Option<Label>> = vec![None; n];
    let mut used = vec![false; n];
    if assign(&candidates, &order, 0, &mut mapping, &mut used, &mut probe) {
        Some(mapping.into_iter().map(|m| m.expect("assignment complete")).collect())
    } else {
        None
    }
}

/// The isomorphism search's candidate targets per source label and its
/// label order, or `None` when a cheap invariant already rules an
/// isomorphism out.
fn candidates_and_order(a: &Problem, b: &Problem) -> Option<(Vec<Vec<Label>>, Vec<usize>)> {
    if a.alphabet().len() != b.alphabet().len()
        || a.node().len() != b.node().len()
        || a.edge().len() != b.edge().len()
        || a.delta() != b.delta()
        || a.edge().arity() != b.edge().arity()
    {
        return None;
    }
    let n = a.alphabet().len();
    // Candidate targets per source label, filtered by the refined invariant
    // hashes (a necessary condition: any isomorphism maps a label onto one
    // with identical invariants).
    let ha = refined_label_hashes(a);
    let hb = refined_label_hashes(b);
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
    for l in a.alphabet().labels() {
        let cands: Vec<Label> =
            b.alphabet().labels().filter(|&m| hb[m.index()] == ha[l.index()]).collect();
        if cands.is_empty() {
            return None;
        }
        candidates.push(cands);
    }
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
    closing: Vec<(&'a Config, &'a Constraint)>,
    /// `ends[d]`: one past the last configuration closed at depth `d`.
    ends: Vec<usize>,
    /// Reused image buffer: one configuration mapped and sorted.
    image: Vec<Label>,
}

impl<'a> ClosingProbe<'a> {
    fn new(a: &'a Problem, b: &'a Problem, order: &[usize]) -> ClosingProbe<'a> {
        let n = order.len();
        let mut depth_of = vec![0usize; n];
        for (d, &l) in order.iter().enumerate() {
            depth_of[l] = d;
        }
        let closing_depth = |cfg: &Config| {
            cfg.labels()
                .iter()
                .map(|l| depth_of[l.index()])
                .max()
                .expect("configurations are non-empty")
        };
        let mut keyed: Vec<(usize, &Config, &Constraint)> =
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
                cfg.labels()
                    .iter()
                    .map(|l| mapping[l.index()].expect("closed configurations are mapped")),
            );
            self.image.sort_unstable();
            if !target.contains_slice(&self.image) {
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
    isomorphism(a, b).is_some()
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
/// collisions with [`are_isomorphic`]. Much cheaper than [`dedup_key`] —
/// a few refinement passes, no permutation enumeration. The bound
/// search's fingerprint interning and process-wide step memo are built on
/// it.
pub fn fingerprint(p: &Problem) -> u64 {
    let mut h = fold(0xCBF2_9CE4_8422_2325u64, p.alphabet().len() as u64);
    h = fold(h, p.delta() as u64);
    h = fold(h, p.edge().arity() as u64);
    h = fold(h, ((p.node().len() as u64) << 32) | p.edge().len() as u64);
    let mut hashes = refined_label_hashes(p);
    hashes.sort_unstable();
    for w in hashes {
        h = fold(h, w);
    }
    h
}

/// The sorted multiset of per-label refined invariant hashes
/// ([`refined_label_hashes`]): an isomorphism *invariant* (isomorphic
/// problems always agree on it) that is much cheaper than
/// [`canonical_key`] — a few refinement passes over the constraints
/// instead of a permutation enumeration. Not *complete*: distinct problems
/// can collide, so a cache keyed by this profile must resolve collisions
/// with [`are_isomorphic`]. This is what makes canonical-form dedup
/// affordable for the large, symmetric alphabets the speedup transform
/// produces; the refinement keeps the collision chains (and with them the
/// isomorphism-resolution scans) short.
pub fn signature_profile(p: &Problem) -> Vec<u64> {
    let mut hashes = refined_label_hashes(p);
    hashes.sort_unstable();
    hashes
}

/// Alphabet size up to which [`dedup_key`] uses the exact
/// [`canonical_key`]. The canonical enumeration visits every
/// signature-respecting renaming — factorial in the largest
/// same-signature label group — so 9 fully symmetric labels (≤ 9!
/// renamings) is the largest size that stays sub-millisecond; measured
/// cost at 16 symmetric labels is already tens of milliseconds per key.
const CANON_MAX_LABELS: usize = 9;

/// An isomorphism-dedup key: exact canonical form for small alphabets, the
/// cheap [`signature_profile`] invariant above [`CANON_MAX_LABELS`].
///
/// Two isomorphic problems always produce equal keys. For
/// [`DedupKey::Exact`] the converse holds too; [`DedupKey::Coarse`] keys
/// may collide across non-isomorphic problems, so a map keyed by
/// `DedupKey` must resolve coarse-bucket collisions with
/// [`are_isomorphic`] (see [`DedupKey::is_exact`]). Problems with
/// different label counts never share a key of either kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DedupKey {
    /// Exact: equal keys ⇔ isomorphic problems.
    Exact(CanonicalKey),
    /// Invariant only: isomorphic problems collide for sure, distinct
    /// problems may too.
    Coarse {
        /// Node-constraint arity (Δ).
        delta: usize,
        /// Edge-constraint arity.
        arity: usize,
        /// `(|node|, |edge|)` configuration counts.
        sizes: (usize, usize),
        /// Sorted per-label refined-invariant hash multiset.
        profile: Vec<u64>,
    },
}

impl DedupKey {
    /// Whether equal keys imply isomorphism (no collision check needed).
    pub fn is_exact(&self) -> bool {
        matches!(self, DedupKey::Exact(_))
    }
}

/// Computes the [`DedupKey`] of a problem: the affordable way to key a
/// problems-up-to-isomorphism map at any alphabet size.
pub fn dedup_key(p: &Problem) -> DedupKey {
    if p.alphabet().len() <= CANON_MAX_LABELS {
        DedupKey::Exact(canonical_key(p))
    } else {
        DedupKey::Coarse {
            delta: p.delta(),
            arity: p.edge().arity(),
            sizes: (p.node().len(), p.edge().len()),
            profile: signature_profile(p),
        }
    }
}

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
    let hashes: Vec<u64> = refined_label_hashes(p);
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
                    let mut labels: Vec<usize> =
                        cfg.labels().iter().map(|l| perm[l.index()]).collect();
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
    use crate::label::Alphabet;
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
            let mut c = Constraint::new(arity).unwrap();
            for _ in 0..count {
                let start = Config::new(
                    (0..arity).map(|_| Label::from_index(rng.gen_range(0..n))).collect(),
                );
                let mut cfg = start.clone();
                loop {
                    c.insert(cfg.clone()).unwrap();
                    cfg = cfg.map(|l| Label::from_index(sigma[l.index()]));
                    if cfg == start {
                        break;
                    }
                }
            }
            c
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
            let mut cfgs: Vec<Config> =
                c.iter().map(|cfg| cfg.map(|l| Label::from_index(perm[l.index()]))).collect();
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
                let groups = cfg.groups();
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

    /// The isomorphism search that probes every fully-mapped
    /// configuration (one `Config` and set probe each) at every depth and
    /// rebuilds both constraints at the leaf: the reference for the
    /// closing-configuration search.
    fn reference_isomorphism(a: &Problem, b: &Problem) -> Option<Vec<Label>> {
        fn partial_consistent(a: &Problem, b: &Problem, mapping: &[Option<Label>]) -> bool {
            let check = |ca: &Constraint, cb: &Constraint| {
                ca.iter()
                    .filter(|cfg| cfg.labels().iter().all(|l| mapping[l.index()].is_some()))
                    .all(|cfg| {
                        cb.contains(&cfg.map(|l| mapping[l.index()].expect("checked above")))
                    })
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
        let (candidates, order) = candidates_and_order(a, b)?;
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

    #[test]
    fn flat_refinement_matches_the_per_label_reference() {
        for (i, p) in random_problems(0x5EED_0001, 400).iter().enumerate() {
            assert_eq!(
                refined_label_hashes(p),
                reference_refined_label_hashes(p),
                "problem {i}:\n{}",
                p.to_text()
            );
        }
    }

    #[test]
    fn closing_probes_find_the_reference_mapping() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002);
        let (mut searched, mut rejected) = (0, 0);
        for (i, p) in random_problems(0x5EED_0003, 300).iter().enumerate() {
            let n = p.alphabet().len();
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let q = renamed(p, &perm, &mut rng);
            let map = isomorphism(p, &q);
            assert_eq!(map, reference_isomorphism(p, &q), "problem {i}:\n{}", p.to_text());
            let map = map.expect("a renaming is an isomorphism");
            assert!(check_isomorphism(p, &q, &map), "problem {i}");
            let (candidates, _) = candidates_and_order(p, &q).expect("invariants agree");
            if candidates.iter().any(|c| c.len() > 1) {
                searched += 1; // the invariants leave a choice to the search
            }
            // One node configuration of the copy swapped for an absent one:
            // same counts, so only the probes can tell.
            let absent = crate::config::all_multisets(n, p.delta())
                .into_iter()
                .find(|c| !q.node().contains(c) && c.labels().iter().any(|l| l.index() + 1 == n));
            if let Some(absent) = absent {
                let mut node: Vec<Config> = q.node().iter().cloned().collect();
                let victim = rng.gen_range(0..node.len());
                node[victim] = absent;
                let node = Constraint::from_configs(p.delta(), node).unwrap();
                let swapped =
                    Problem::new_general("swapped", q.alphabet().clone(), node, q.edge().clone())
                        .unwrap();
                let map = isomorphism(p, &swapped);
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

    #[test]
    fn renamed_problems_are_isomorphic() {
        let p = Problem::parse("name: p\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let q = Problem::parse("name: q\nnode: B A A\nedge: A A | B A").unwrap();
        let m = isomorphism(&p, &q).unwrap();
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
    fn dedup_key_invariant_under_renaming_in_both_regimes() {
        // Small alphabet: exact regime.
        let p = Problem::parse("name: p\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
        let q = Problem::parse("name: q\nnode: B A A\nedge: A A | B A").unwrap();
        assert!(dedup_key(&p).is_exact());
        assert_eq!(dedup_key(&p), dedup_key(&q));
        // Large alphabet (> CANON_MAX_LABELS): coarse regime still matches
        // across renamings, and differs across label counts.
        let names: Vec<String> = (0..12).map(|i| format!("l{i}")).collect();
        let mk = |names: &[String]| {
            let node = names.chunks(2).map(|c| c.join(" ")).collect::<Vec<_>>().join(" | ");
            let edge = names.windows(2).map(|c| c.join(" ")).collect::<Vec<_>>().join(" | ");
            Problem::parse(&format!("name: big\nnode: {node}\nedge: {edge}")).unwrap()
        };
        let renamed: Vec<String> = (0..12).map(|i| format!("x{i}")).collect();
        let big = mk(&names);
        assert!(!dedup_key(&big).is_exact());
        assert_eq!(dedup_key(&big), dedup_key(&mk(&renamed)));
        assert_ne!(dedup_key(&big), dedup_key(&p));
    }

    #[test]
    fn iso_is_reflexive() {
        let p = Problem::parse("name: p\nnode: 1 1 | 2 2 | 3 3\nedge: 1 2 | 1 3 | 2 3").unwrap();
        assert!(are_isomorphic(&p, &p));
    }
}
