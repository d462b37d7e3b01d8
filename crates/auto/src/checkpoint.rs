//! Crash-safe search snapshots.
//!
//! A [`Checkpoint`] is a complete capture of a bound search at a **depth
//! boundary** (see [`crate::search::CheckpointConf`]): the interned
//! isomorphism classes with their memos, the first-reach parent edges, the
//! fingerprint index, the frontier/goal/deepest loop state, and the effort
//! counters. Because the search is deterministic given that state, a
//! resumed run replays exactly the suffix an uninterrupted run would have
//! executed — verdict, certificate, and counters come out bit-identical at
//! every thread count (tested by `search.rs`'s
//! `budget_cut_then_resume_matches_the_uninterrupted_run_exactly` and, for
//! killed processes, by `tests/crash_recovery.rs`).
//!
//! ## On-disk format
//!
//! Snapshots are written in `roundelim-checkpoint-v2`: one checksummed
//! `roundelim-bin-v1` frame (see [`roundelim_core::binenc`]) whose payload
//! encodes the complete boundary state with u32-interned labels — the
//! compact at-rest twin of the in-memory representation. The previous
//! format, `roundelim-checkpoint-v1` (a one-line FNV-1a checksum header
//! followed by a pretty-printed JSON document with problems embedded as
//! text), is still **loaded** transparently: [`Checkpoint::load`] sniffs
//! the leading bytes (`fnv1a64:` ⇒ v1, the binary frame magic ⇒ v2). The
//! v2 encoding of a snapshot is ~2.5× smaller than its v1 pretty-JSON
//! form (`v2_is_much_smaller_than_v1` pins the floor at 2×).
//!
//! Files are written with [`atomic_write`] — temp file, fsync, rename — so
//! a crash mid-write (or the `checkpoint-write` failpoint) leaves either
//! the previous snapshot or the new one, never a torn file; loading
//! rejects any payload whose checksum does not match, in both formats.

use crate::binenc::{
    decode_direction, decode_edge, decode_model, decode_search_stats, encode_direction,
    encode_edge, encode_model, encode_search_stats,
};
use crate::certificate::{edge_from_json, edge_to_json, Direction, Edge};
use crate::failpoint;
use crate::json::Json;
use crate::search::SearchStats;
use roundelim_core::binenc::{
    decode_problem, encode_problem, fnv1a64, frame, unframe, Dec, Enc, MAGIC,
};
use roundelim_core::error::{Error, Result};
use roundelim_core::io::atomic_write;
use roundelim_core::problem::Problem;
use roundelim_core::sequence::ZeroRoundModel;
use std::path::{Path, PathBuf};

/// Schema tag of the legacy JSON on-disk format (still loadable).
pub const SCHEMA: &str = "roundelim-checkpoint-v1";

/// Schema tag of the binary on-disk format ([`Checkpoint::save`] writes it).
pub const SCHEMA_V2: &str = "roundelim-checkpoint-v2";

/// Frame kind of a v2 checkpoint file.
const FRAME_KIND: &str = "checkpoint-v2";

/// The snapshot file inside a checkpoint directory.
pub fn checkpoint_file(dir: &Path) -> PathBuf {
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
    /// The cache's fingerprint index, sorted by fingerprint.
    pub fps: Vec<(u64, Vec<u32>)>,
}

fn opt_bool_json(v: Option<bool>) -> Json {
    match v {
        None => Json::Null,
        Some(b) => Json::Bool(b),
    }
}

fn direction_str(d: Direction) -> &'static str {
    match d {
        Direction::Lower => "lower-bound",
        Direction::Upper => "upper-bound",
    }
}

fn model_str(m: ZeroRoundModel) -> &'static str {
    match m {
        ZeroRoundModel::PlainPn => "plain-pn",
        ZeroRoundModel::Oriented => "oriented",
    }
}

fn ids_json(ids: &[u32]) -> Json {
    Json::Arr(ids.iter().map(|&id| Json::Num(u64::from(id))).collect())
}

impl Checkpoint {
    /// Writes the snapshot to `path` atomically (temp file + fsync +
    /// rename) in the checksummed v2 binary format. Hits the
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

    /// Reads and validates a snapshot in either on-disk format: the binary
    /// v2 written by [`Checkpoint::save`], or a legacy v1 JSON file (so a
    /// search interrupted under an older build resumes under this one).
    ///
    /// # Errors
    ///
    /// I/O errors, a checksum mismatch (torn or corrupted file), an
    /// unknown schema, or a malformed payload.
    pub fn load(path: &Path) -> Result<Checkpoint> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io { path: path.display().to_string(), reason: e.to_string() })?;
        if bytes.starts_with(MAGIC) {
            return Checkpoint::from_bin(&bytes);
        }
        let bad = |reason: &str| Error::Inconsistent { reason: format!("checkpoint: {reason}") };
        let text =
            String::from_utf8(bytes).map_err(|_| bad("file is neither a v2 frame nor v1 text"))?;
        let (head, rest) =
            text.split_once('\n').ok_or_else(|| bad("missing checksum header line"))?;
        let sum = head
            .strip_prefix("fnv1a64:")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("malformed checksum header"))?;
        let payload = rest.strip_suffix('\n').unwrap_or(rest);
        if fnv1a64(payload.as_bytes()) != sum {
            return Err(bad("checksum mismatch (torn or corrupted snapshot)"));
        }
        Checkpoint::from_json(payload)
    }

    /// The snapshot as one framed v2 binary message (what
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
            match &entry.step {
                None => e.u8(0),
                Some((succ, derived)) => {
                    e.u8(1);
                    e.u32(*succ);
                    encode_problem(derived, &mut e);
                }
            }
            for slot in &entry.zero_round {
                e.u8(match slot {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }
        }
        e.u32(self.fps.len() as u32);
        for (fp, ids) in &self.fps {
            e.u64(*fp);
            e.u32(ids.len() as u32);
            for &id in ids {
                e.u32(id);
            }
        }
        frame(FRAME_KIND, &e.into_bytes())
    }

    /// Parses the framed v2 binary message written by [`Checkpoint::to_bin`].
    ///
    /// # Errors
    ///
    /// Frame errors (bad magic/kind, truncation, checksum mismatch) and
    /// codec errors. Structural validation against the search (id ranges,
    /// ancestry) is done at restore time, not here.
    pub fn from_bin(bytes: &[u8]) -> Result<Checkpoint> {
        let bad =
            |reason: String| Error::Parse { line: 0, reason: format!("checkpoint: {reason}") };
        let payload = unframe(bytes, FRAME_KIND)?;
        let mut d = Dec::new(payload);
        let direction = decode_direction(&mut d)?;
        let model = decode_model(&mut d)?;
        let root = decode_problem(&mut d)?;
        let beam_width = d.usize("beam_width")?;
        let max_labels = d.usize("max_labels")?;
        let use_relaxations = d.bool("use_relaxations")?;
        let prune_siblings = d.bool("prune_siblings")?;
        let depth = d.usize("depth")?;
        let ids = |what: &str, d: &mut Dec<'_>| -> Result<Vec<u32>> {
            let n = d.u32(what)? as usize;
            (0..n).map(|_| d.u32(what)).collect()
        };
        let frontier = ids("frontier", &mut d)?;
        let goals = ids("goals", &mut d)?;
        let deepest_depth = d.usize("deepest_depth")?;
        let deepest_node = d.u32("deepest_node")?;
        let stats = decode_search_stats(&mut d)?;
        let n = d.u32("entry count")? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let problem = decode_problem(&mut d)?;
            let depth = d.usize("entry depth")?;
            let parent = match d.u8("parent tag")? {
                0 => None,
                1 => Some((d.u32("parent id")?, decode_edge(&mut d)?)),
                t => return Err(bad(format!("unknown parent tag {t}"))),
            };
            let step = match d.u8("step tag")? {
                0 => None,
                1 => Some((d.u32("step succ")?, decode_problem(&mut d)?)),
                t => return Err(bad(format!("unknown step tag {t}"))),
            };
            let mut zero_round = [None, None];
            for slot in &mut zero_round {
                *slot = match d.u8("zero_round slot")? {
                    0 => None,
                    1 => Some(false),
                    2 => Some(true),
                    t => return Err(bad(format!("unknown zero_round tag {t}"))),
                };
            }
            entries.push(CkEntry { problem, depth, parent, step, zero_round });
        }
        let n = d.u32("fps count")? as usize;
        let mut fps = Vec::with_capacity(n);
        for _ in 0..n {
            let fp = d.u64("fp")?;
            let k = d.u32("fps bucket size")? as usize;
            let bucket = (0..k).map(|_| d.u32("fps id")).collect::<Result<Vec<_>>>()?;
            fps.push((fp, bucket));
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
            fps,
        })
    }

    /// The snapshot as a [`Json`] value.
    pub fn json_value(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("problem", Json::Str(e.problem.to_text())),
                    ("depth", Json::Num(e.depth as u64)),
                    (
                        "zero_round",
                        Json::Arr(e.zero_round.iter().map(|&v| opt_bool_json(v)).collect()),
                    ),
                ];
                if let Some((pid, edge)) = &e.parent {
                    fields.push((
                        "parent",
                        Json::obj([
                            ("id", Json::Num(u64::from(*pid))),
                            ("edge", edge_to_json(edge)),
                        ]),
                    ));
                }
                if let Some((succ, derived)) = &e.step {
                    fields.push((
                        "step",
                        Json::obj([
                            ("succ", Json::Num(u64::from(*succ))),
                            ("derived", Json::Str(derived.to_text())),
                        ]),
                    ));
                }
                Json::obj(fields)
            })
            .collect();
        let fps = self
            .fps
            .iter()
            .map(|(fp, ids)| Json::obj([("fp", Json::Num(*fp)), ("ids", ids_json(ids))]))
            .collect();
        let stats = Json::obj([
            ("expanded", Json::Num(self.stats.expanded as u64)),
            ("step_failures", Json::Num(self.stats.step_failures as u64)),
            ("depth_reached", Json::Num(self.stats.depth_reached as u64)),
            ("worker_panics", Json::Num(self.stats.worker_panics as u64)),
            ("classes", Json::Num(self.stats.cache.classes as u64)),
            ("dedup_hits", Json::Num(self.stats.cache.dedup_hits as u64)),
            ("iso_resolutions", Json::Num(self.stats.cache.iso_resolutions as u64)),
            ("step_hits", Json::Num(self.stats.cache.step_hits as u64)),
            ("step_misses", Json::Num(self.stats.cache.step_misses as u64)),
        ]);
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("direction", Json::Str(direction_str(self.direction).into())),
            ("model", Json::Str(model_str(self.model).into())),
            ("root", Json::Str(self.root.to_text())),
            ("beam_width", Json::Num(self.beam_width as u64)),
            ("max_labels", Json::Num(self.max_labels as u64)),
            ("use_relaxations", Json::Bool(self.use_relaxations)),
            ("prune_siblings", Json::Bool(self.prune_siblings)),
            ("depth", Json::Num(self.depth as u64)),
            ("frontier", ids_json(&self.frontier)),
            ("goals", ids_json(&self.goals)),
            ("deepest_depth", Json::Num(self.deepest_depth as u64)),
            ("deepest_node", Json::Num(u64::from(self.deepest_node))),
            ("stats", stats),
            ("entries", Json::Arr(entries)),
            ("fps", Json::Arr(fps)),
        ])
    }

    /// Parses the JSON payload written by [`Checkpoint::json_value`].
    ///
    /// # Errors
    ///
    /// [`Error::Parse`]/[`Error::Inconsistent`] on malformed documents.
    /// Structural validation against the search (id ranges, ancestry) is
    /// done at restore time, not here.
    pub fn from_json(text: &str) -> Result<Checkpoint> {
        let bad = |reason: &str| Error::Parse { line: 0, reason: format!("checkpoint: {reason}") };
        let v = Json::parse(text).map_err(|e| Error::Parse { line: 0, reason: e })?;
        if v.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(bad("missing or unknown `schema`"));
        }
        let direction = match v.get("direction").and_then(Json::as_str) {
            Some("lower-bound") => Direction::Lower,
            Some("upper-bound") => Direction::Upper,
            _ => return Err(bad("missing or unknown `direction`")),
        };
        let model = match v.get("model").and_then(Json::as_str) {
            Some("plain-pn") => ZeroRoundModel::PlainPn,
            Some("oriented") => ZeroRoundModel::Oriented,
            _ => return Err(bad("missing or unknown `model`")),
        };
        let str_field = |key: &str| -> Result<String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| bad(&format!("missing string `{key}`")))
        };
        let num = |j: Option<&Json>, key: &str| -> Result<u64> {
            j.and_then(Json::as_u64).ok_or_else(|| bad(&format!("missing number `{key}`")))
        };
        let boolean = |key: &str| -> Result<bool> {
            v.get(key).and_then(Json::as_bool).ok_or_else(|| bad(&format!("missing bool `{key}`")))
        };
        let node_id = |j: &Json, key: &str| -> Result<u32> {
            j.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad(&format!("`{key}` entries must be node ids")))
        };
        let id_list = |key: &str| -> Result<Vec<u32>> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| bad(&format!("missing array `{key}`")))?
                .iter()
                .map(|j| node_id(j, key))
                .collect()
        };
        let stats_obj = v.get("stats").ok_or_else(|| bad("missing `stats`"))?;
        let stat =
            |key: &str| -> Result<usize> { num(stats_obj.get(key), key).map(|n| n as usize) };
        let stats = SearchStats {
            expanded: stat("expanded")?,
            step_failures: stat("step_failures")?,
            depth_reached: stat("depth_reached")?,
            worker_panics: stat("worker_panics")?,
            cache: crate::cache::CacheStats {
                classes: stat("classes")?,
                dedup_hits: stat("dedup_hits")?,
                iso_resolutions: stat("iso_resolutions")?,
                step_hits: stat("step_hits")?,
                step_misses: stat("step_misses")?,
            },
        };
        let entries = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `entries` array"))?
            .iter()
            .map(|e| {
                let problem = Problem::parse(
                    e.get("problem")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("entry missing `problem`"))?,
                )?;
                let depth = num(e.get("depth"), "depth")? as usize;
                let zero_round_arr = e
                    .get("zero_round")
                    .and_then(Json::as_arr)
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| bad("entry needs a 2-slot `zero_round`"))?;
                let mut zero_round = [None, None];
                for (slot, j) in zero_round.iter_mut().zip(zero_round_arr) {
                    *slot = match j {
                        Json::Null => None,
                        Json::Bool(b) => Some(*b),
                        _ => return Err(bad("`zero_round` slots must be null or bool")),
                    };
                }
                let parent = match e.get("parent") {
                    None => None,
                    Some(p) => Some((
                        num(p.get("id"), "parent id").and_then(|n| {
                            u32::try_from(n).map_err(|_| bad("parent id out of range"))
                        })?,
                        edge_from_json(p.get("edge").ok_or_else(|| bad("parent needs `edge`"))?)?,
                    )),
                };
                let step = match e.get("step") {
                    None => None,
                    Some(s) => Some((
                        num(s.get("succ"), "step succ").and_then(|n| {
                            u32::try_from(n).map_err(|_| bad("step succ out of range"))
                        })?,
                        Problem::parse(
                            s.get("derived")
                                .and_then(Json::as_str)
                                .ok_or_else(|| bad("step needs `derived`"))?,
                        )?,
                    )),
                };
                Ok(CkEntry { problem, depth, parent, step, zero_round })
            })
            .collect::<Result<Vec<_>>>()?;
        let fps = v
            .get("fps")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `fps` array"))?
            .iter()
            .map(|b| {
                let fp = num(b.get("fp"), "fp")?;
                let ids = b
                    .get("ids")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("fps bucket needs `ids`"))?
                    .iter()
                    .map(|j| node_id(j, "fps ids"))
                    .collect::<Result<Vec<_>>>()?;
                Ok((fp, ids))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Checkpoint {
            direction,
            model,
            root: Problem::parse(&str_field("root")?)?,
            beam_width: num(v.get("beam_width"), "beam_width")? as usize,
            max_labels: num(v.get("max_labels"), "max_labels")? as usize,
            use_relaxations: boolean("use_relaxations")?,
            prune_siblings: boolean("prune_siblings")?,
            depth: num(v.get("depth"), "depth")? as usize,
            frontier: id_list("frontier")?,
            goals: id_list("goals")?,
            deepest_depth: num(v.get("deepest_depth"), "deepest_depth")? as usize,
            deepest_node: num(v.get("deepest_node"), "deepest_node")
                .and_then(|n| u32::try_from(n).map_err(|_| bad("deepest_node out of range")))?,
            stats,
            entries,
            fps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            fps: vec![(0x1234, vec![0, 2]), (0xffff_ffff_ffff_ffff, vec![5])],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let ck = sample();
        let back = Checkpoint::from_json(&ck.json_value().to_string_pretty()).unwrap();
        assert_eq!(ck, back);
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
    fn v1_files_still_load() {
        // A file written by the previous release (checksummed pretty JSON
        // with problems embedded as text) loads transparently.
        let dir = std::env::temp_dir().join(format!("roundelim-ckpt-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_file(&dir);
        let ck = sample();
        let payload = ck.json_value().to_string_pretty();
        let body = format!("fnv1a64:{:016x}\n{payload}\n", fnv1a64(payload.as_bytes()));
        std::fs::write(&path, &body).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // A corrupted v1 payload is still rejected by its checksum.
        let torn = body.replace("\"beam_width\": 8", "\"beam_width\": 9");
        std::fs::write(&path, &torn).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_is_much_smaller_than_v1() {
        let ck = sample();
        let payload = ck.json_value().to_string_pretty();
        let v1_len = payload.len() + "fnv1a64:0000000000000000\n\n".len();
        let v2_len = ck.to_bin().len();
        assert!(
            v1_len >= 2 * v2_len,
            "v2 should be at least 2x smaller: v1={v1_len} bytes, v2={v2_len} bytes"
        );
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let ck = sample();
        let payload = ck.json_value().to_string_pretty().replace(SCHEMA, "bogus-v0");
        assert!(Checkpoint::from_json(&payload).is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
