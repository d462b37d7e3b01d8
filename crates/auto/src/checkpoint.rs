//! Crash-safe search snapshots.
//!
//! A [`Checkpoint`] is a complete capture of a bound search at a **depth
//! boundary** (see [`crate::search::CheckpointConf`]): the interned
//! isomorphism classes with their memos, the first-reach parent edges, the
//! frontier/goal/deepest loop state, and the effort counters. Because the
//! search is deterministic given that state, a resumed run replays exactly
//! the suffix an uninterrupted run would have executed — verdict,
//! certificate, and counters come out bit-identical at every thread count
//! (tested by `search.rs`'s
//! `budget_cut_then_resume_matches_the_uninterrupted_run_exactly` and, for
//! killed processes, by `tests/crash_recovery.rs`). The cache's pre-key
//! index is not stored: reading a snapshot recomputes it from the classes.
//!
//! The class table has one encoder and one decoder, and both work on the
//! [`CanonCache`] directly: writing reads each class's packed rows, name
//! ids and memos in place, and reading pushes each decoded class into a
//! new cache, checking every id against the table as it goes. No class
//! is copied into an intermediate form on either side.
//!
//! ## On-disk format
//!
//! A snapshot is one checksummed `roundelim-bin-v1` frame (see
//! [`roundelim_core::binenc`]) of kind `checkpoint-v3`, whose payload
//! encodes the complete boundary state with u32-interned labels, in
//! `DIR/search.ckpt` ([`checkpoint_file`]). [`Checkpoint::from_bin`] also
//! reads the `checkpoint-v2` frames of older builds, which carry a
//! trailing fingerprint index that it parses and drops; the search reads
//! their file name, `search.ckpt.json` ([`legacy_checkpoint_file`]), when
//! `search.ckpt` is absent. Any other file (including one written in the
//! retired JSON format `roundelim-checkpoint-v1`) fails to load with a
//! frame error and is left untouched.
//!
//! Files are written with [`atomic_write`] — temp file, fsync, rename — so
//! a crash mid-write (or the `checkpoint-write` failpoint) leaves either
//! the previous snapshot or the new one, never a torn file; loading
//! rejects any payload whose checksum does not match.

use crate::binenc::{
    decode_direction, decode_edge, decode_memos, decode_model, decode_search_stats,
    encode_direction, encode_edge, encode_model, encode_search_stats,
};
use crate::cache::{CacheStats, CanonCache, NodeId};
use crate::certificate::Direction;
use crate::failpoint;
use crate::search::{Meta, SearchStats};
use roundelim_core::binenc::{
    decode_problem, encode_problem, frame, read_frame_kind, unframe, Dec, Enc, MIN_PROBLEM_BYTES,
};
use roundelim_core::error::{Error, Result};
use roundelim_core::io::atomic_write;
use roundelim_core::problem::Problem;
use roundelim_core::sequence::ZeroRoundModel;
use std::path::{Path, PathBuf};

/// Frame kind of the checkpoints [`Checkpoint::save`] writes.
const FRAME_KIND: &str = "checkpoint-v3";

/// Frame kind of older checkpoints: a v3 payload plus a fingerprint index.
const FRAME_KIND_V2: &str = "checkpoint-v2";

/// The fewest bytes an encoded class takes: a problem, the depth, the
/// parent and step tags, and the two 0-round slots.
const ENTRY_MIN_BYTES: usize = MIN_PROBLEM_BYTES + 8 + 1 + 1 + 2;

/// The snapshot file inside a checkpoint directory.
pub fn checkpoint_file(dir: &Path) -> PathBuf {
    dir.join("search.ckpt")
}

/// The name older builds gave the snapshot file, read only when
/// [`checkpoint_file`] is absent.
pub fn legacy_checkpoint_file(dir: &Path) -> PathBuf {
    dir.join("search.ckpt.json")
}

/// A boundary snapshot of a bound search (see module docs).
#[derive(Debug)]
pub struct Checkpoint {
    /// Which search produced this (resume rejects a direction mismatch).
    pub direction: Direction,
    /// The 0-round model of the search.
    pub model: ZeroRoundModel,
    /// The input problem.
    pub root: Problem,
    /// [`crate::search::SearchOptions::beam_width`] at snapshot time.
    pub beam_width: usize,
    /// [`crate::search::SearchOptions::max_labels`] at snapshot time.
    pub max_labels: usize,
    /// [`crate::search::SearchOptions::use_relaxations`] at snapshot time.
    pub use_relaxations: bool,
    /// [`crate::search::SearchOptions::prune_siblings`] at snapshot time.
    pub prune_siblings: bool,
    /// The depth-loop counter at the boundary.
    pub depth: usize,
    /// Frontier entering `depth`.
    pub frontier: Vec<NodeId>,
    /// 0-round endpoints found so far.
    pub goals: Vec<NodeId>,
    /// Depth of the deepest non-goal chain endpoint.
    pub deepest_depth: usize,
    /// The deepest non-goal chain endpoint.
    pub deepest_node: NodeId,
    /// Effort counters at the boundary. Their cache part is written from
    /// `cache.stats`.
    pub stats: SearchStats,
    /// The interned classes with their memos and counters.
    pub cache: CanonCache,
    /// Each class's search metadata, in id order.
    pub meta: Vec<Meta>,
}

impl Checkpoint {
    /// Writes the snapshot to `path` atomically (temp file + fsync +
    /// rename) in the checksummed v3 binary format. Hits the
    /// `checkpoint-write` failpoint first, so a fault-injection test can
    /// crash the process at exactly this moment and assert that the
    /// previous snapshot survives intact.
    ///
    /// # Errors
    ///
    /// I/O errors from the atomic write.
    pub fn save(&self, path: &Path) -> Result<()> {
        let body = self.to_bin();
        failpoint::hit("checkpoint-write");
        atomic_write(path, &body)
    }

    /// Reads and validates a snapshot written by [`Checkpoint::save`] (or a
    /// v2 snapshot of an older build).
    ///
    /// # Errors
    ///
    /// I/O errors, frame errors (bad magic or kind, truncation, a checksum
    /// mismatch from a torn or corrupted file), or a malformed payload.
    pub fn load(path: &Path) -> Result<Checkpoint> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io { path: path.display().to_string(), reason: e.to_string() })?;
        Checkpoint::from_bin(&bytes)
    }

    /// The snapshot as one framed v3 binary message (what
    /// [`Checkpoint::save`] writes).
    pub fn to_bin(&self) -> Vec<u8> {
        let mut e = Enc::new();
        encode_direction(self.direction, &mut e);
        encode_model(self.model, &mut e);
        encode_problem(&self.root, &mut e);
        e.usize(self.beam_width);
        e.usize(self.max_labels);
        e.bool(self.use_relaxations);
        e.bool(self.prune_siblings);
        e.usize(self.depth);
        for ids in [&self.frontier, &self.goals] {
            e.u32(ids.len() as u32);
            for id in ids {
                e.u32(id.0);
            }
        }
        e.usize(self.deepest_depth);
        e.u32(self.deepest_node.0);
        encode_search_stats(&SearchStats { cache: self.cache.stats, ..self.stats }, &mut e);
        encode_classes(&self.cache, &self.meta, &mut e);
        frame(FRAME_KIND, &e.into_bytes())
    }

    /// Parses and validates the framed v3 binary message written by
    /// [`Checkpoint::to_bin`], or a v2 one, whose fingerprint index is
    /// parsed and dropped. Each class is pushed into the snapshot's cache
    /// as it is decoded.
    ///
    /// # Errors
    ///
    /// Frame errors (bad magic/kind, truncation, checksum mismatch), codec
    /// errors, and [`Error::Inconsistent`] for a snapshot no search wrote:
    /// no classes, a first class that is not the root, a first-reach
    /// parent that does not precede its child, or a step successor,
    /// frontier, goal or deepest id outside the class table.
    pub fn from_bin(bytes: &[u8]) -> Result<Checkpoint> {
        let v2 = read_frame_kind(&mut Dec::new(bytes))? == FRAME_KIND_V2;
        let mut d = Dec::new(unframe(bytes, if v2 { FRAME_KIND_V2 } else { FRAME_KIND })?);
        let direction = decode_direction(&mut d)?;
        let model = decode_model(&mut d)?;
        let root = decode_problem(&mut d)?;
        let beam_width = d.usize("beam_width")?;
        let max_labels = d.usize("max_labels")?;
        let use_relaxations = d.bool("use_relaxations")?;
        let prune_siblings = d.bool("prune_siblings")?;
        let depth = d.usize("depth")?;
        let ids = |what: &str, d: &mut Dec<'_>| -> Result<Vec<u32>> {
            let n = d.count(what, 4)?;
            (0..n).map(|_| d.u32(what)).collect()
        };
        let frontier = ids("frontier", &mut d)?;
        let goals = ids("goals", &mut d)?;
        let deepest_depth = d.usize("deepest_depth")?;
        let deepest_node = d.u32("deepest_node")?;
        let stats = decode_search_stats(&mut d)?;
        let (cache, meta) = decode_classes(&mut d, &root, stats.cache)?;
        if v2 {
            for _ in 0..d.count("fps count", 12)? {
                d.u64("fp")?;
                for _ in 0..d.count("fps bucket size", 4)? {
                    d.u32("fps id")?;
                }
            }
        }
        d.finish()?;
        let n = cache.len();
        let node = |id: u32, what: &str| -> Result<NodeId> {
            if (id as usize) < n {
                Ok(NodeId(id))
            } else {
                Err(inconsistent(format!("{what} id {id} out of range ({n} entries)")))
            }
        };
        Ok(Checkpoint {
            direction,
            model,
            root,
            beam_width,
            max_labels,
            use_relaxations,
            prune_siblings,
            depth,
            frontier: frontier.into_iter().map(|id| node(id, "frontier")).collect::<Result<_>>()?,
            goals: goals.into_iter().map(|id| node(id, "goal")).collect::<Result<_>>()?,
            deepest_depth,
            deepest_node: node(deepest_node, "deepest")?,
            stats,
            cache,
            meta,
        })
    }
}

fn inconsistent(reason: String) -> Error {
    Error::Inconsistent { reason: format!("checkpoint {reason}") }
}

/// Writes the class table: the class count, then per class its
/// representative, its [`Meta`] and its memos, all read in place.
pub(crate) fn encode_classes(cache: &CanonCache, meta: &[Meta], e: &mut Enc) {
    debug_assert_eq!(cache.len(), meta.len(), "one meta per class");
    e.u32(meta.len() as u32);
    for (i, m) in meta.iter().enumerate() {
        let id = NodeId(i as u32);
        cache.encode_class(id, e);
        e.usize(m.depth);
        match &m.parent {
            None => e.u8(0),
            Some((pid, edge)) => {
                e.u8(1);
                e.u32(pid.0);
                encode_edge(edge, e);
            }
        }
        cache.encode_memos(id, e);
    }
}

/// Reads the class table written by [`encode_classes`] into a new cache
/// (with the counters `stats`) and its meta list, checking that there is
/// a class, that the first one is `root`, that each parent precedes its
/// child and that each step successor is a class of the table.
pub(crate) fn decode_classes(
    d: &mut Dec<'_>,
    root: &Problem,
    stats: CacheStats,
) -> Result<(CanonCache, Vec<Meta>)> {
    let n = d.count("entry count", ENTRY_MIN_BYTES)?;
    if n == 0 {
        return Err(inconsistent("has no interned problems".into()));
    }
    let mut cache = CanonCache::new();
    cache.stats = stats;
    let mut meta = Vec::with_capacity(n);
    for i in 0..n {
        let rep = decode_problem(d)?;
        if i == 0 && rep != *root {
            return Err(inconsistent("root is not its first entry".into()));
        }
        let depth = d.usize("entry depth")?;
        let parent = match d.u8("parent tag")? {
            0 => None,
            1 => {
                let pid = d.u32("parent id")?;
                // First-reach parents strictly precede their children;
                // anything else would let `is_ancestor` loop forever.
                if pid as usize >= i {
                    return Err(inconsistent(format!("entry {i} has non-ancestral parent {pid}")));
                }
                Some((NodeId(pid), decode_edge(d)?))
            }
            t => {
                return Err(Error::Parse {
                    line: 0,
                    reason: format!("checkpoint: unknown parent tag {t}"),
                })
            }
        };
        let (step, zero_round) = decode_memos(d)?;
        if let Some((succ, _)) = step.as_ref().filter(|(succ, _)| *succ as usize >= n) {
            return Err(inconsistent(format!(
                "entry {i} has step successor {succ} out of range ({n} entries)"
            )));
        }
        cache.push_decoded(rep, step.map(|(succ, derived)| (NodeId(succ), derived)), zero_round);
        meta.push(Meta { depth, parent });
    }
    Ok((cache, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binenc::encode_memos;
    use crate::certificate::Edge;
    use roundelim_core::binenc::{fnv1a64, problem_to_bytes};
    use roundelim_core::label::Label;

    fn prob(name: &str) -> Problem {
        Problem::parse(&format!("name: {name}\nnode: O O O | O O I | O I I\nedge: O I")).unwrap()
    }

    fn stats() -> SearchStats {
        SearchStats {
            expanded: 7,
            step_failures: 1,
            depth_reached: 2,
            worker_panics: 0,
            cache: CacheStats {
                classes: 6,
                dedup_hits: 4,
                iso_resolutions: 2,
                step_hits: 1,
                step_misses: 5,
            },
        }
    }

    /// The ids and the class count a sample snapshot is written with. The
    /// default is a valid snapshot of 6 classes; each rejection case
    /// changes one field.
    struct Sample {
        classes: u32,
        first: Problem,
        parent_of_1: u32,
        step_of_2: u32,
        frontier: u32,
        goal: u32,
        deepest: u32,
    }

    impl Default for Sample {
        fn default() -> Sample {
            Sample {
                classes: 6,
                first: prob("root"),
                parent_of_1: 0,
                step_of_2: 3,
                frontier: 3,
                goal: 5,
                deepest: 3,
            }
        }
    }

    impl Sample {
        /// The snapshot as a framed v3 message, written field by field in
        /// the layout of `docs/PROTOCOL.md` rather than by the encoder.
        fn bytes(&self) -> Vec<u8> {
            let mut e = Enc::new();
            encode_direction(Direction::Lower, &mut e);
            encode_model(ZeroRoundModel::Oriented, &mut e);
            encode_problem(&prob("root"), &mut e);
            e.usize(8); // beam width
            e.usize(12); // max labels
            e.bool(true); // relaxations
            e.bool(true); // sibling pruning
            e.usize(2); // depth
            for ids in [&[self.frontier, 4][..], &[self.goal]] {
                e.u32(ids.len() as u32);
                ids.iter().for_each(|&id| e.u32(id));
            }
            e.usize(2);
            e.u32(self.deepest);
            encode_search_stats(&stats(), &mut e);
            e.u32(self.classes);
            for i in 0..self.classes {
                let rep = if i == 0 { self.first.clone() } else { prob(&format!("p{i}")) };
                encode_problem(&rep, &mut e);
                e.usize(i as usize / 3);
                if i == 0 {
                    e.u8(0);
                } else {
                    e.u8(1);
                    e.u32(if i == 1 { self.parent_of_1 } else { i - 1 });
                    let map = vec![Label::from_index(0)];
                    encode_edge(&if i % 2 == 0 { Edge::Step } else { Edge::Relax { map } }, &mut e);
                }
                let derived = prob("pd");
                let step = (i == 2).then_some((self.step_of_2, &derived));
                encode_memos(step, &[Some(i == 5), None], &mut e);
            }
            frame(FRAME_KIND, &e.into_bytes())
        }
    }

    #[test]
    fn bin_round_trip_preserves_everything() {
        let bytes = Sample::default().bytes();
        let ck = Checkpoint::from_bin(&bytes).unwrap();
        assert_eq!(ck.to_bin(), bytes);
        assert_eq!((ck.direction, ck.model), (Direction::Lower, ZeroRoundModel::Oriented));
        assert_eq!(ck.root, prob("root"));
        assert_eq!((ck.beam_width, ck.max_labels), (8, 12));
        assert!(ck.use_relaxations && ck.prune_siblings);
        assert_eq!(ck.depth, 2);
        assert_eq!(ck.frontier, [NodeId(3), NodeId(4)]);
        assert_eq!(ck.goals, [NodeId(5)]);
        assert_eq!((ck.deepest_depth, ck.deepest_node), (2, NodeId(3)));
        assert_eq!(ck.stats, stats());
        assert_eq!(ck.cache.stats, stats().cache);
        assert_eq!(ck.cache.len(), 6);
        assert_eq!(ck.cache.materialize(NodeId(0)), prob("root"));
        assert_eq!(ck.cache.materialize(NodeId(4)), prob("p4"));
        assert_eq!(ck.cache.step_derived(NodeId(2)), Some(&prob("pd")));
        assert_eq!(ck.cache.step_derived(NodeId(3)), None);
        let depths: Vec<usize> = ck.meta.iter().map(|m| m.depth).collect();
        assert_eq!(depths, [0, 0, 0, 1, 1, 1]);
        assert!(ck.meta[0].parent.is_none());
        assert!(matches!(ck.meta[1].parent, Some((NodeId(0), Edge::Relax { .. }))));
        assert!(matches!(ck.meta[4].parent, Some((NodeId(3), Edge::Step))));
    }

    #[test]
    fn from_bin_rejects_ids_and_tables_no_search_writes() {
        let cases = [
            (Sample { classes: 0, ..Sample::default() }, "has no interned problems"),
            (Sample { first: prob("other"), ..Sample::default() }, "root is not its first entry"),
            (Sample { parent_of_1: 1, ..Sample::default() }, "entry 1 has non-ancestral parent 1"),
            (Sample { parent_of_1: 9, ..Sample::default() }, "entry 1 has non-ancestral parent 9"),
            (Sample { step_of_2: 6, ..Sample::default() }, "step successor 6 out of range"),
            (Sample { frontier: 6, ..Sample::default() }, "frontier id 6 out of range"),
            (Sample { goal: 99, ..Sample::default() }, "goal id 99 out of range"),
            (Sample { deepest: 6, ..Sample::default() }, "deepest id 6 out of range"),
        ];
        for (sample, want) in cases {
            let err = Checkpoint::from_bin(&sample.bytes()).unwrap_err();
            assert!(matches!(err, Error::Inconsistent { .. }), "{want}: {err}");
            assert!(err.to_string().contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn save_load_round_trips_and_is_checksummed() {
        let dir = std::env::temp_dir().join(format!("roundelim-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_file(&dir);
        let ck = Checkpoint::from_bin(&Sample::default().bytes()).unwrap();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().to_bin(), ck.to_bin());
        // Flip one payload byte: the checksum must catch it.
        let good = std::fs::read(&path).unwrap();
        let mut torn = good.clone();
        torn[good.len() / 2] ^= 0x01;
        std::fs::write(&path, &torn).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation is caught too.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_a_frame_of_another_kind() {
        // A valid, checksummed frame that holds something else (here a
        // problem) is not a snapshot.
        let dir = std::env::temp_dir().join(format!("roundelim-ckpt-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_file(&dir);
        std::fs::write(&path, problem_to_bytes(&prob("p"))).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("frame kind mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
