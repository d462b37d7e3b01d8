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
//! index is not stored: restoring recomputes it from the classes.
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
    encode_direction, encode_edge, encode_memos, encode_model, encode_search_stats,
};
use crate::certificate::{Direction, Edge};
use crate::failpoint;
use crate::search::SearchStats;
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

/// The fewest bytes an encoded [`CkEntry`] takes: a problem, the depth,
/// the parent and step tags, and the two 0-round slots.
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

/// One interned isomorphism class: the cache entry plus its search
/// metadata, serialized side by side (they are indexed in lockstep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkEntry {
    /// Representative problem.
    pub problem: Problem,
    /// Step edges on the first-reach path from the root.
    pub depth: usize,
    /// First-reach parent id and connecting edge.
    pub parent: Option<(u32, Edge)>,
    /// Memoized speedup: successor class id and the concrete derived
    /// problem.
    pub step: Option<(u32, Problem)>,
    /// Memoized 0-round verdicts, one slot per [`ZeroRoundModel`].
    pub zero_round: [Option<bool>; 2],
}

/// A boundary snapshot of a bound search (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    pub frontier: Vec<u32>,
    /// 0-round endpoints found so far.
    pub goals: Vec<u32>,
    /// Depth of the deepest non-goal chain endpoint.
    pub deepest_depth: usize,
    /// The deepest non-goal chain endpoint.
    pub deepest_node: u32,
    /// Effort counters at the boundary (cache counters included).
    pub stats: SearchStats,
    /// The interned classes, in id order.
    pub entries: Vec<CkEntry>,
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
        e.u32(self.frontier.len() as u32);
        for &id in &self.frontier {
            e.u32(id);
        }
        e.u32(self.goals.len() as u32);
        for &id in &self.goals {
            e.u32(id);
        }
        e.usize(self.deepest_depth);
        e.u32(self.deepest_node);
        encode_search_stats(&self.stats, &mut e);
        e.u32(self.entries.len() as u32);
        for entry in &self.entries {
            encode_problem(&entry.problem, &mut e);
            e.usize(entry.depth);
            match &entry.parent {
                None => e.u8(0),
                Some((pid, edge)) => {
                    e.u8(1);
                    e.u32(*pid);
                    encode_edge(edge, &mut e);
                }
            }
            let step = entry.step.as_ref().map(|(succ, derived)| (*succ, derived));
            encode_memos(step, &entry.zero_round, &mut e);
        }
        frame(FRAME_KIND, &e.into_bytes())
    }

    /// Parses the framed v3 binary message written by
    /// [`Checkpoint::to_bin`], or a v2 one, whose fingerprint index is
    /// parsed and dropped.
    ///
    /// # Errors
    ///
    /// Frame errors (bad magic/kind, truncation, checksum mismatch) and
    /// codec errors. Structural validation against the search (id ranges,
    /// ancestry) is done at restore time, not here.
    pub fn from_bin(bytes: &[u8]) -> Result<Checkpoint> {
        let bad =
            |reason: String| Error::Parse { line: 0, reason: format!("checkpoint: {reason}") };
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
        let n = d.count("entry count", ENTRY_MIN_BYTES)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let problem = decode_problem(&mut d)?;
            let depth = d.usize("entry depth")?;
            let parent = match d.u8("parent tag")? {
                0 => None,
                1 => Some((d.u32("parent id")?, decode_edge(&mut d)?)),
                t => return Err(bad(format!("unknown parent tag {t}"))),
            };
            let (step, zero_round) = decode_memos(&mut d)?;
            entries.push(CkEntry { problem, depth, parent, step, zero_round });
        }
        if v2 {
            for _ in 0..d.count("fps count", 12)? {
                d.u64("fp")?;
                for _ in 0..d.count("fps bucket size", 4)? {
                    d.u32("fps id")?;
                }
            }
        }
        d.finish()?;
        Ok(Checkpoint {
            direction,
            model,
            root,
            beam_width,
            max_labels,
            use_relaxations,
            prune_siblings,
            depth,
            frontier,
            goals,
            deepest_depth,
            deepest_node,
            stats,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::binenc::{fnv1a64, problem_to_bytes};

    fn prob(name: &str) -> Problem {
        Problem::parse(&format!("name: {name}\nnode: O O O | O O I | O I I\nedge: O I")).unwrap()
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            direction: Direction::Lower,
            model: ZeroRoundModel::Oriented,
            root: prob("root"),
            beam_width: 8,
            max_labels: 12,
            use_relaxations: true,
            prune_siblings: true,
            depth: 2,
            frontier: vec![3, 4],
            goals: vec![5],
            deepest_depth: 2,
            deepest_node: 3,
            stats: SearchStats {
                expanded: 7,
                step_failures: 1,
                depth_reached: 2,
                worker_panics: 0,
                cache: crate::cache::CacheStats {
                    classes: 6,
                    dedup_hits: 4,
                    iso_resolutions: 2,
                    step_hits: 1,
                    step_misses: 5,
                },
            },
            entries: (0..6)
                .map(|i| CkEntry {
                    problem: prob(&format!("p{i}")),
                    depth: i / 3,
                    parent: if i == 0 {
                        None
                    } else {
                        Some((
                            (i - 1) as u32,
                            if i % 2 == 0 {
                                Edge::Step
                            } else {
                                Edge::Relax {
                                    map: vec![roundelim_core::label::Label::from_index(0)],
                                }
                            },
                        ))
                    },
                    step: if i == 2 { Some((3, prob("pd"))) } else { None },
                    zero_round: [Some(i == 5), None],
                })
                .collect(),
        }
    }

    #[test]
    fn bin_round_trip_preserves_everything() {
        let ck = sample();
        assert_eq!(Checkpoint::from_bin(&ck.to_bin()).unwrap(), ck);
    }

    #[test]
    fn save_load_round_trips_and_is_checksummed() {
        let dir = std::env::temp_dir().join(format!("roundelim-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_file(&dir);
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
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
