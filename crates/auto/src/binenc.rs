//! `roundelim-bin-v1` codecs for this crate's types.
//!
//! `roundelim-core`'s [`binenc`](roundelim_core::binenc) module owns the
//! encoding primitives (frames, sections, the [`Problem`] codec); this
//! module layers the [`Certificate`] and [`CacheSnapshot`] codecs on top,
//! since their fields live here. The layouts are pinned, alongside the wire
//! protocol, in `docs/PROTOCOL.md`.
//!
//! Like everything in `roundelim-bin-v1`, the codecs are bit-exact: decode
//! ∘ encode is the identity on values *and* re-encoding decoded values
//! reproduces the input bytes, which the daemon's proof store and the v2
//! checkpoint format rely on for byte-identical restarts (property-tested
//! in `tests/binenc_props.rs`).

use crate::cache::{CacheSnapshot, CacheStats, NodeId, SnapshotEntry};
use crate::certificate::{CertVerdict, Certificate, Direction, Edge};
use crate::search::SearchStats;
use roundelim_core::binenc::{decode_problem, encode_problem, frame, unframe, Dec, Enc};
use roundelim_core::error::{Error, Result};
use roundelim_core::label::Label;
use roundelim_core::sequence::ZeroRoundModel;

fn bad(reason: impl Into<String>) -> Error {
    Error::Parse { line: 0, reason: format!("binenc: {}", reason.into()) }
}

/// Encodes a search direction as one byte.
pub fn encode_direction(d: Direction, e: &mut Enc) {
    e.u8(match d {
        Direction::Lower => 0,
        Direction::Upper => 1,
    });
}

/// Decodes a search direction.
///
/// # Errors
///
/// [`Error::Parse`] on an unknown tag.
pub fn decode_direction(d: &mut Dec<'_>) -> Result<Direction> {
    match d.u8("direction")? {
        0 => Ok(Direction::Lower),
        1 => Ok(Direction::Upper),
        t => Err(bad(format!("unknown direction tag {t}"))),
    }
}

/// Encodes a 0-round model as one byte.
pub fn encode_model(m: ZeroRoundModel, e: &mut Enc) {
    e.u8(match m {
        ZeroRoundModel::PlainPn => 0,
        ZeroRoundModel::Oriented => 1,
    });
}

/// Decodes a 0-round model.
///
/// # Errors
///
/// [`Error::Parse`] on an unknown tag.
pub fn decode_model(d: &mut Dec<'_>) -> Result<ZeroRoundModel> {
    match d.u8("model")? {
        0 => Ok(ZeroRoundModel::PlainPn),
        1 => Ok(ZeroRoundModel::Oriented),
        t => Err(bad(format!("unknown model tag {t}"))),
    }
}

fn encode_label_map(map: &[Label], e: &mut Enc) {
    e.u32(map.len() as u32);
    for l in map {
        e.u32(l.index() as u32);
    }
}

fn decode_label_map(d: &mut Dec<'_>) -> Result<Vec<Label>> {
    let n = d.u32("label map length")? as usize;
    let mut map = Vec::with_capacity(n);
    for _ in 0..n {
        let ix = d.u32("label map entry")? as usize;
        if ix > usize::from(u16::MAX) {
            return Err(bad(format!("label index {ix} out of range")));
        }
        map.push(Label::from_index(ix));
    }
    Ok(map)
}

/// Encodes a derivation edge: a tag byte, plus the witness map for
/// relaxations/hardenings.
pub fn encode_edge(edge: &Edge, e: &mut Enc) {
    match edge {
        Edge::Step => e.u8(0),
        Edge::Relax { map } => {
            e.u8(1);
            encode_label_map(map, e);
        }
        Edge::Harden { map } => {
            e.u8(2);
            encode_label_map(map, e);
        }
    }
}

/// Decodes a derivation edge.
///
/// # Errors
///
/// [`Error::Parse`] on an unknown tag or truncation.
pub fn decode_edge(d: &mut Dec<'_>) -> Result<Edge> {
    match d.u8("edge tag")? {
        0 => Ok(Edge::Step),
        1 => Ok(Edge::Relax { map: decode_label_map(d)? }),
        2 => Ok(Edge::Harden { map: decode_label_map(d)? }),
        t => Err(bad(format!("unknown edge tag {t}"))),
    }
}

fn encode_verdict(v: &CertVerdict, e: &mut Enc) {
    match v {
        CertVerdict::Unbounded { cycle_start, iso_map } => {
            e.u8(0);
            e.usize(*cycle_start);
            encode_label_map(iso_map, e);
        }
        CertVerdict::LowerBound { rounds } => {
            e.u8(1);
            e.usize(*rounds);
        }
        CertVerdict::UpperBound { rounds } => {
            e.u8(2);
            e.usize(*rounds);
        }
    }
}

fn decode_verdict(d: &mut Dec<'_>) -> Result<CertVerdict> {
    match d.u8("verdict tag")? {
        0 => Ok(CertVerdict::Unbounded {
            cycle_start: d.usize("cycle_start")?,
            iso_map: decode_label_map(d)?,
        }),
        1 => Ok(CertVerdict::LowerBound { rounds: d.usize("rounds")? }),
        2 => Ok(CertVerdict::UpperBound { rounds: d.usize("rounds")? }),
        t => Err(bad(format!("unknown verdict tag {t}"))),
    }
}

/// Encodes a certificate (unframed; see [`certificate_to_bytes`] for the
/// framed at-rest form).
pub fn encode_certificate(c: &Certificate, e: &mut Enc) {
    encode_direction(c.direction, e);
    encode_model(c.model, e);
    e.bool(c.incomplete);
    encode_verdict(&c.verdict, e);
    e.u32(c.problems.len() as u32);
    for p in &c.problems {
        encode_problem(p, e);
    }
    e.u32(c.edges.len() as u32);
    for edge in &c.edges {
        encode_edge(edge, e);
    }
}

/// Decodes a certificate encoded by [`encode_certificate`].
///
/// Structural soundness (chain shapes, witness validity) is *not* checked
/// here — that is [`Certificate::verify`]'s job, exactly as for the JSON
/// codec.
///
/// # Errors
///
/// [`Error::Parse`] on malformed input.
pub fn decode_certificate(d: &mut Dec<'_>) -> Result<Certificate> {
    let direction = decode_direction(d)?;
    let model = decode_model(d)?;
    let incomplete = d.bool("incomplete")?;
    let verdict = decode_verdict(d)?;
    let n = d.u32("problem count")? as usize;
    let mut problems = Vec::with_capacity(n);
    for _ in 0..n {
        problems.push(decode_problem(d)?);
    }
    let n = d.u32("edge count")? as usize;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push(decode_edge(d)?);
    }
    Ok(Certificate { direction, model, problems, edges, incomplete, verdict })
}

/// Encodes a certificate as one framed `certificate` message.
pub fn certificate_to_bytes(c: &Certificate) -> Vec<u8> {
    let mut e = Enc::new();
    encode_certificate(c, &mut e);
    frame("certificate", &e.into_bytes())
}

/// Decodes one framed `certificate` message.
///
/// # Errors
///
/// Frame errors (magic/kind/checksum/truncation) and codec errors.
pub fn certificate_from_bytes(bytes: &[u8]) -> Result<Certificate> {
    let payload = unframe(bytes, "certificate")?;
    let mut d = Dec::new(payload);
    let c = decode_certificate(&mut d)?;
    d.finish()?;
    Ok(c)
}

/// Encodes the cache counters (5 × u64).
pub fn encode_cache_stats(s: &CacheStats, e: &mut Enc) {
    e.usize(s.classes);
    e.usize(s.dedup_hits);
    e.usize(s.iso_resolutions);
    e.usize(s.step_hits);
    e.usize(s.step_misses);
}

/// Decodes the cache counters.
///
/// # Errors
///
/// [`Error::Parse`] on truncation.
pub fn decode_cache_stats(d: &mut Dec<'_>) -> Result<CacheStats> {
    Ok(CacheStats {
        classes: d.usize("classes")?,
        dedup_hits: d.usize("dedup_hits")?,
        iso_resolutions: d.usize("iso_resolutions")?,
        step_hits: d.usize("step_hits")?,
        step_misses: d.usize("step_misses")?,
    })
}

/// Encodes the search counters (4 × u64 + cache counters).
pub fn encode_search_stats(s: &SearchStats, e: &mut Enc) {
    e.usize(s.expanded);
    e.usize(s.step_failures);
    e.usize(s.depth_reached);
    e.usize(s.worker_panics);
    encode_cache_stats(&s.cache, e);
}

/// Decodes the search counters.
///
/// # Errors
///
/// [`Error::Parse`] on truncation.
pub fn decode_search_stats(d: &mut Dec<'_>) -> Result<SearchStats> {
    Ok(SearchStats {
        expanded: d.usize("expanded")?,
        step_failures: d.usize("step_failures")?,
        depth_reached: d.usize("depth_reached")?,
        worker_panics: d.usize("worker_panics")?,
        cache: decode_cache_stats(d)?,
    })
}

fn encode_entry(entry: &SnapshotEntry, e: &mut Enc) {
    let (problem, step, zero_round) = entry;
    encode_problem(problem, e);
    match step {
        None => e.u8(0),
        Some((succ, derived)) => {
            e.u8(1);
            e.u32(succ.0);
            encode_problem(derived, e);
        }
    }
    for slot in zero_round {
        e.u8(match slot {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
}

fn decode_entry(d: &mut Dec<'_>) -> Result<SnapshotEntry> {
    let problem = decode_problem(d)?;
    let step = match d.u8("step tag")? {
        0 => None,
        1 => {
            let succ = NodeId(d.u32("step successor")?);
            Some((succ, decode_problem(d)?))
        }
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
    Ok((problem, step, zero_round))
}

/// Encodes a cache snapshot (unframed; see [`snapshot_to_bytes`]).
pub fn encode_snapshot(s: &CacheSnapshot, e: &mut Enc) {
    e.u32(s.entries.len() as u32);
    for entry in &s.entries {
        encode_entry(entry, e);
    }
    e.u32(s.fps.len() as u32);
    for (fp, ids) in &s.fps {
        e.u64(*fp);
        e.u32(ids.len() as u32);
        for id in ids {
            e.u32(id.0);
        }
    }
    encode_cache_stats(&s.stats, e);
}

/// Decodes a cache snapshot encoded by [`encode_snapshot`].
///
/// Structural validation (id ranges, bucket consistency) happens in
/// [`crate::cache::CanonCache::restore`], exactly as for checkpoints.
///
/// # Errors
///
/// [`Error::Parse`] on malformed input.
pub fn decode_snapshot(d: &mut Dec<'_>) -> Result<CacheSnapshot> {
    let n = d.u32("entry count")? as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(decode_entry(d)?);
    }
    let n = d.u32("fingerprint bucket count")? as usize;
    let mut fps = Vec::with_capacity(n);
    for _ in 0..n {
        let fp = d.u64("fingerprint")?;
        let k = d.u32("bucket size")? as usize;
        let mut ids = Vec::with_capacity(k);
        for _ in 0..k {
            ids.push(NodeId(d.u32("bucket id")?));
        }
        fps.push((fp, ids));
    }
    let stats = decode_cache_stats(d)?;
    Ok(CacheSnapshot { entries, fps, stats })
}

/// Encodes a cache snapshot as one framed `cache-snapshot` message.
pub fn snapshot_to_bytes(s: &CacheSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    encode_snapshot(s, &mut e);
    frame("cache-snapshot", &e.into_bytes())
}

/// Decodes one framed `cache-snapshot` message.
///
/// # Errors
///
/// Frame errors (magic/kind/checksum/truncation) and codec errors.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<CacheSnapshot> {
    let payload = unframe(bytes, "cache-snapshot")?;
    let mut d = Dec::new(payload);
    let s = decode_snapshot(&mut d)?;
    d.finish()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CanonCache;
    use crate::search::{autolb, SearchOptions};
    use roundelim_core::problem::Problem;

    fn sinkless() -> Problem {
        Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap()
    }

    fn searched_certificate() -> Certificate {
        let out = autolb(&sinkless(), &SearchOptions { threads: 1, ..Default::default() }).unwrap();
        out.certificate.unwrap()
    }

    #[test]
    fn certificate_round_trips_bit_identically() {
        let cert = searched_certificate();
        let bytes = certificate_to_bytes(&cert);
        let back = certificate_from_bytes(&bytes).unwrap();
        assert_eq!(cert, back);
        assert_eq!(bytes, certificate_to_bytes(&back));
        back.verify().unwrap();
    }

    #[test]
    fn certificate_truncation_and_corruption_are_rejected() {
        let bytes = certificate_to_bytes(&searched_certificate());
        for n in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(certificate_from_bytes(&bytes[..n]).is_err(), "prefix {n} accepted");
        }
        let mut flipped = bytes.clone();
        let ix = flipped.len() / 2;
        flipped[ix] ^= 0x10;
        assert!(certificate_from_bytes(&flipped).is_err());
    }

    #[test]
    fn snapshot_round_trips_through_restore() {
        let out = autolb(&sinkless(), &SearchOptions { threads: 1, ..Default::default() }).unwrap();
        assert!(out.stats.cache.classes > 0);
        // Build a snapshot by re-running through the cache directly.
        let mut cache = CanonCache::new();
        let (a, _) = cache.intern(sinkless());
        let stepped = roundelim_core::speedup::full_step(&sinkless()).unwrap().problem().clone();
        let fp = crate::cache::fingerprint(&stepped);
        cache.record_step(a, stepped, fp);
        let snap = cache.snapshot();
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(bytes, snapshot_to_bytes(&back), "re-encoding must be byte-identical");
        let restored = CanonCache::restore(back).unwrap();
        assert_eq!(restored.snapshot().entries.len(), snap.entries.len());
        assert_eq!(snapshot_to_bytes(&restored.snapshot()), bytes);
    }

    #[test]
    fn edge_and_verdict_tags_are_validated() {
        let mut e = Enc::new();
        e.u8(9);
        let buf = e.into_bytes();
        assert!(decode_edge(&mut Dec::new(&buf)).is_err());
        assert!(decode_verdict(&mut Dec::new(&buf)).is_err());
        assert!(decode_direction(&mut Dec::new(&buf)).is_err());
        assert!(decode_model(&mut Dec::new(&buf)).is_err());
    }
}
