//! The persistent proof store.
//!
//! An append-only file of `roundelim-bin-v1` frames (kind `proof`), each
//! holding one solved problem and the certificate backing its bound. The
//! whole store is replayed at open time into the search's own
//! [`CanonCache`], so lookups resolve **up to isomorphism**: a query that
//! renames the labels (or permutes the configurations) of a solved problem
//! hits the cache and is served the stored representative with its
//! certificate, no search.
//!
//! ## Durability
//!
//! * Every record is an individually checksummed frame; frames are
//!   self-delimiting, so the file is a plain concatenation and the index
//!   is always rebuildable by a linear scan.
//! * Appends rewrite the store through
//!   [`atomic_write`](roundelim_core::io::atomic_write) (temp file, fsync,
//!   rename) — a crash leaves the previous store, never a torn one.
//! * Insert order is the only thing that determines the bytes, so a
//!   sequence of requests produces a byte-identical store at every
//!   search thread count (the search itself is deterministic).
//!
//! ## Warm-start snapshot
//!
//! Replaying a large store re-canonicalizes every problem. A graceful
//! shutdown writes a sidecar (`cache.snap.bin`, frame kind
//! `store-cache-v2`) with the live [`CanonCache`] snapshot and the record
//! index, guarded by the FNV-1a checksum of the store bytes it describes.
//! On open, a sidecar whose guard matches the store restores the cache
//! directly; any mismatch (store appended to after the snapshot, partial
//! copy, corruption, a `store-cache` sidecar of an older build) falls back
//! to the linear rebuild. The sidecar is an optimization only — its loss
//! is never an error.

use roundelim_auto::binenc::{
    decode_certificate, decode_snapshot, encode_certificate, encode_snapshot,
};
use roundelim_auto::certificate::{Certificate, Direction};
use roundelim_auto::CanonCache;
use roundelim_core::binenc::{
    decode_problem, encode_problem, fnv1a64, frame, read_frame, unframe, Dec, Enc,
};
use roundelim_core::error::{Error, Result};
use roundelim_core::io::atomic_write;
use roundelim_core::problem::Problem;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The store file inside a daemon directory.
pub const STORE_FILE: &str = "proofs.bin";

/// The warm-start sidecar inside a daemon directory.
pub const SNAP_FILE: &str = "cache.snap.bin";

const PROOF_KIND: &str = "proof";
const SNAP_KIND: &str = "store-cache-v2";

fn dir_tag(d: Direction) -> u8 {
    match d {
        Direction::Lower => 0,
        Direction::Upper => 1,
    }
}

/// One stored proof: the problem as originally solved and its certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The solved problem (the class representative served on hits).
    pub problem: Problem,
    /// The certificate backing the bound; replays against `problem`.
    pub certificate: Certificate,
}

/// The append-only, isomorphism-indexed proof store (see module docs).
#[derive(Debug)]
pub struct ProofStore {
    dir: PathBuf,
    /// The exact current store file contents.
    bytes: Vec<u8>,
    records: Vec<Record>,
    /// Interns every stored problem, giving each isomorphism class a
    /// stable id. Lookups only probe it.
    cache: CanonCache,
    /// (class id, direction) → index into `records`.
    index: HashMap<(u32, u8), usize>,
}

impl ProofStore {
    /// Opens (or initializes) the store in `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors, or a corrupted/truncated store file (every frame is
    /// checksummed; a bad sidecar is ignored, a bad store is not).
    pub fn open(dir: impl Into<PathBuf>) -> Result<ProofStore> {
        let dir = dir.into();
        let path = dir.join(STORE_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(Error::Io { path: path.display().to_string(), reason: e.to_string() })
            }
        };
        let mut d = Dec::new(&bytes);
        let mut records = Vec::new();
        while d.remaining() > 0 {
            let payload = read_frame(&mut d, PROOF_KIND)?;
            let mut pd = Dec::new(payload);
            let problem = decode_problem(&mut pd)?;
            let certificate = decode_certificate(&mut pd)?;
            pd.finish()?;
            records.push(Record { problem, certificate });
        }
        let mut store =
            ProofStore { dir, bytes, records, cache: CanonCache::default(), index: HashMap::new() };
        if !store.try_restore_sidecar() {
            store.rebuild_cache();
        }
        Ok(store)
    }

    /// Restores the cache and index from the warm-start sidecar, if it
    /// matches the store bytes. Returns whether it did.
    fn try_restore_sidecar(&mut self) -> bool {
        let Ok(bytes) = std::fs::read(self.dir.join(SNAP_FILE)) else { return false };
        let Ok(payload) = unframe(&bytes, SNAP_KIND) else { return false };
        let mut d = Dec::new(payload);
        type Restored = (CanonCache, HashMap<(u32, u8), usize>);
        let mut parse = || -> Result<Restored> {
            if d.u64("store guard")? != fnv1a64(&self.bytes) {
                return Err(Error::Inconsistent { reason: "sidecar guard mismatch".into() });
            }
            let cache = CanonCache::restore(decode_snapshot(&mut d)?)?;
            let n = d.count("index count", 9)?;
            let mut index = HashMap::with_capacity(n);
            for _ in 0..n {
                let id = d.u32("index class id")?;
                let tag = d.u8("index direction")?;
                let ix = d.u32("index record")? as usize;
                if (id as usize) >= cache.len() || ix >= self.records.len() || tag > 1 {
                    return Err(Error::Inconsistent {
                        reason: "sidecar index out of range".into(),
                    });
                }
                index.insert((id, tag), ix);
            }
            d.finish()?;
            if index.len() != self.records.len() {
                return Err(Error::Inconsistent { reason: "sidecar index incomplete".into() });
            }
            Ok((cache, index))
        };
        match parse() {
            Ok((cache, index)) => {
                self.cache = cache;
                self.index = index;
                true
            }
            Err(_) => false,
        }
    }

    /// Rebuilds the isomorphism index by interning every record in order.
    fn rebuild_cache(&mut self) {
        self.cache = CanonCache::default();
        self.index = HashMap::new();
        for ix in 0..self.records.len() {
            let (id, _) = self.cache.intern(self.records[ix].problem.clone());
            let dir = self.records[ix].certificate.direction;
            self.index.entry((id.0, dir_tag(dir))).or_insert(ix);
        }
    }

    /// Number of stored proofs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no proofs.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of interned isomorphism classes: the classes of the stored
    /// problems.
    pub fn classes(&self) -> usize {
        self.cache.len()
    }

    /// Looks up a proof for `p`'s isomorphism class in `direction`. A miss
    /// leaves the store as it was: only [`ProofStore::insert`] adds a
    /// class, so a query that never gets a proof costs no memory.
    pub fn lookup(&self, p: &Problem, direction: Direction) -> Option<&Record> {
        let id = self.cache.find(p)?;
        self.index.get(&(id.0, dir_tag(direction))).map(|&ix| &self.records[ix])
    }

    /// Appends a proof, unless its isomorphism class is already stored for
    /// the certificate's direction (returns `false` — first write wins, so
    /// the store never grows duplicate classes).
    ///
    /// The append is durable before this returns: the store file is
    /// rewritten atomically with the new frame included.
    ///
    /// # Errors
    ///
    /// I/O errors from the atomic write (the in-memory state is unchanged
    /// on failure).
    pub fn insert(&mut self, problem: Problem, certificate: Certificate) -> Result<bool> {
        let tag = dir_tag(certificate.direction);
        let (id, _) = self.cache.intern(problem.clone());
        if self.index.contains_key(&(id.0, tag)) {
            return Ok(false);
        }
        let mut e = Enc::new();
        encode_problem(&problem, &mut e);
        encode_certificate(&certificate, &mut e);
        let rec = frame(PROOF_KIND, &e.into_bytes());
        let mut bytes = Vec::with_capacity(self.bytes.len() + rec.len());
        bytes.extend_from_slice(&self.bytes);
        bytes.extend_from_slice(&rec);
        atomic_write(self.dir.join(STORE_FILE), &bytes)?;
        self.bytes = bytes;
        self.index.insert((id.0, tag), self.records.len());
        self.records.push(Record { problem, certificate });
        Ok(true)
    }

    /// Writes the warm-start sidecar for the current store contents
    /// (called on graceful shutdown; see module docs).
    ///
    /// # Errors
    ///
    /// I/O errors from the atomic write.
    pub fn save_cache_snapshot(&self) -> Result<()> {
        let mut e = Enc::new();
        e.u64(fnv1a64(&self.bytes));
        encode_snapshot(&self.cache.snapshot(), &mut e);
        let mut entries: Vec<_> = self.index.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        e.u32(entries.len() as u32);
        for ((id, tag), ix) in entries {
            e.u32(id);
            e.u8(tag);
            e.u32(ix as u32);
        }
        atomic_write(self.dir.join(SNAP_FILE), frame(SNAP_KIND, &e.into_bytes()))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_auto::search::{autolb, SearchOptions};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("roundelim-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sinkless() -> Problem {
        Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap()
    }

    /// Sinkless orientation with the labels renamed — isomorphic, not equal.
    fn sinkless_renamed() -> Problem {
        Problem::parse("name: so2\nnode: Y X X | X X X | Y Y X\nedge: X Y").unwrap()
    }

    fn solved() -> (Problem, Certificate) {
        let p = sinkless();
        let out = autolb(&p, &SearchOptions { threads: 1, ..SearchOptions::default() }).unwrap();
        (p, out.certificate.expect("sinkless orientation certifies"))
    }

    #[test]
    fn insert_persist_reopen_lookup() {
        let dir = tmp_dir("basic");
        let (p, cert) = solved();
        {
            let mut store = ProofStore::open(&dir).unwrap();
            assert!(store.is_empty());
            assert!(store.lookup(&p, Direction::Lower).is_none());
            assert!(store.insert(p.clone(), cert.clone()).unwrap());
            assert!(!store.insert(p.clone(), cert.clone()).unwrap(), "duplicate class");
            assert_eq!(store.len(), 1);
        }
        // A fresh open (no sidecar) rebuilds the index by scanning.
        let store = ProofStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        let rec = store.lookup(&p, Direction::Lower).expect("hit after reopen");
        assert_eq!(rec.certificate, cert);
        rec.certificate.verify().unwrap();
        // An isomorphic renaming hits the same class; the served
        // certificate replays against the stored representative.
        let hit = store.lookup(&sinkless_renamed(), Direction::Lower).expect("isomorphic hit");
        assert_eq!(hit.problem, p);
        // The other direction is a different key.
        assert!(store.lookup(&p, Direction::Upper).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sidecar_restores_and_guards() {
        let dir = tmp_dir("sidecar");
        let (p, cert) = solved();
        let q = Problem::parse("name: q\nnode: A A A\nedge: A A").unwrap();
        {
            let mut store = ProofStore::open(&dir).unwrap();
            store.insert(p.clone(), cert.clone()).unwrap();
            // Lookup misses intern nothing, so the snapshot holds exactly
            // the stored classes.
            assert!(store.lookup(&sinkless_renamed(), Direction::Upper).is_none());
            assert!(store.lookup(&q, Direction::Lower).is_none());
            store.save_cache_snapshot().unwrap();
        }
        let mut store = ProofStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.classes(), 1);
        assert!(store.lookup(&sinkless_renamed(), Direction::Lower).is_some());
        // Append after the snapshot: the stale sidecar must be ignored,
        // not trusted.
        let out = autolb(&q, &SearchOptions { threads: 1, ..SearchOptions::default() }).unwrap();
        store.insert(q.clone(), out.certificate.unwrap()).unwrap();
        let reopened = ProofStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.lookup(&q, Direction::Lower).is_some());
        assert!(reopened.lookup(&p, Direction::Lower).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookup_misses_create_no_classes() {
        let dir = tmp_dir("misses");
        let (p, cert) = solved();
        let mut store = ProofStore::open(&dir).unwrap();
        store.insert(p.clone(), cert).unwrap();
        let classes = store.classes();
        // Distinct classes (k-colorings of cycles), each missed twice, and
        // a stored class missed in the other direction.
        for k in 2..10 {
            let labels: Vec<String> = (0..k).map(|c| format!("C{c}")).collect();
            let node: Vec<String> = labels.iter().map(|l| format!("{l} {l}")).collect();
            let mut edge = Vec::new();
            for (i, a) in labels.iter().enumerate() {
                edge.extend(labels[i + 1..].iter().map(|b| format!("{a} {b}")));
            }
            let text =
                format!("name: c{k}\nnode: {}\nedge: {}", node.join(" | "), edge.join(" | "));
            let q = Problem::parse(&text).unwrap();
            for _ in 0..2 {
                assert!(store.lookup(&q, Direction::Lower).is_none(), "{text}");
            }
        }
        assert!(store.lookup(&sinkless_renamed(), Direction::Upper).is_none());
        assert_eq!(store.classes(), classes);
        assert!(store.lookup(&sinkless_renamed(), Direction::Lower).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_store_is_rejected() {
        let dir = tmp_dir("corrupt");
        let (p, cert) = solved();
        {
            let mut store = ProofStore::open(&dir).unwrap();
            store.insert(p, cert).unwrap();
        }
        let path = dir.join(STORE_FILE);
        let good = std::fs::read(&path).unwrap();
        // Flip a payload byte: the frame checksum must catch it.
        let mut torn = good.clone();
        torn[good.len() / 2] ^= 0x01;
        std::fs::write(&path, &torn).unwrap();
        let err = ProofStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation is caught too.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(ProofStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_bytes_depend_only_on_insert_order() {
        let (p, cert) = solved();
        let dir_a = tmp_dir("order-a");
        let dir_b = tmp_dir("order-b");
        for dir in [&dir_a, &dir_b] {
            let mut store = ProofStore::open(dir).unwrap();
            store.insert(p.clone(), cert.clone()).unwrap();
        }
        assert_eq!(
            std::fs::read(dir_a.join(STORE_FILE)).unwrap(),
            std::fs::read(dir_b.join(STORE_FILE)).unwrap()
        );
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}
