//! The persistent proof store.
//!
//! An append-only file of `roundelim-bin-v1` frames (kind `proof`), each
//! holding one solved problem and the certificate backing its bound. The
//! file is the store's only state on disk: open decodes its records and
//! files each under its [`pre_key`], so lookups resolve **up to
//! isomorphism**: a query's pre-key picks a bucket, and the first record
//! there in the asked direction that [`isomorphism`] maps onto the query
//! is served, stored representative and certificate, with no search. A
//! query that renames the labels (or permutes the configurations) of a
//! solved problem hits.
//!
//! ## Durability
//!
//! * Every record is an individually checksummed frame; frames are
//!   self-delimiting, so the file is a plain concatenation and the index
//!   is rebuilt by a linear scan on every open.
//! * An insert appends its one frame and `sync_data`s the file before it
//!   returns; a failed append truncates the file back to its previous
//!   length. Nothing ever rewrites the frames already written.
//! * A crash mid-append can leave a torn final frame (its header or
//!   declared payload runs past the end of the file). Open truncates the
//!   file back to the last complete frame and reports the dropped bytes
//!   on stderr. A complete frame that fails its checksum is an error.
//! * Insert order is the only thing that determines the bytes, so a
//!   sequence of requests produces a byte-identical store at every
//!   search thread count (the search itself is deterministic).
//!
//! Older builds also wrote a `cache.snap.bin` sidecar on shutdown; it is
//! ignored.

use roundelim_auto::binenc::{decode_certificate, encode_certificate};
use roundelim_auto::certificate::{Certificate, Direction};
use roundelim_core::binenc::{decode_problem, encode_problem, frame, read_frame, Dec, Enc, MAGIC};
use roundelim_core::error::{Error, Result};
use roundelim_core::iso::{isomorphism, pre_key};
use roundelim_core::problem::Problem;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The store file inside a daemon directory.
pub const STORE_FILE: &str = "proofs.bin";

const PROOF_KIND: &str = "proof";

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> Error {
    Error::Io { path: path.display().to_string(), reason: format!("{what}: {e}") }
}

/// Whether `rest`, the unread end of the store file, is a torn append: a
/// prefix of a proof frame whose header or declared payload runs past the
/// end of the file, with no frame header after it. A later header means
/// a corrupted length: a torn append is the last thing in the file, and
/// open must fail rather than drop the complete frames behind it.
fn is_torn_tail(rest: &[u8]) -> bool {
    let head = [&MAGIC[..], &[PROOF_KIND.len() as u8], PROOF_KIND.as_bytes()].concat();
    let Some(len) = rest.get(head.len()..head.len() + 4) else {
        return head.starts_with(&rest[..rest.len().min(head.len())]);
    };
    let len = u32::from_le_bytes(len.try_into().expect("4-byte slice")) as usize;
    rest.starts_with(&head)
        && head.len() + 4 + len + 8 > rest.len()
        && !rest[1..].windows(head.len()).any(|w| w == head)
}

/// Whether `rec`'s problem is isomorphic to `p`.
fn is_iso(rec: &Record, p: &Problem) -> bool {
    isomorphism(rec.problem.packed(), p.packed()).is_some()
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
    /// The store file.
    path: PathBuf,
    records: Vec<Record>,
    /// Pre-key → indices into `records`, in insertion order.
    buckets: HashMap<u64, Vec<u32>>,
    /// Distinct isomorphism classes among the records, both directions.
    classes: usize,
}

impl ProofStore {
    /// Opens (or initializes, creating `dir` if needed) the store in
    /// `dir`, truncating a torn final frame (see module docs).
    ///
    /// # Errors
    ///
    /// I/O errors, or a corrupted store file (every frame is checksummed).
    pub fn open(dir: impl AsRef<Path>) -> Result<ProofStore> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create store directory", &e))?;
        let path = dir.join(STORE_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(&path, "read", &e)),
        };
        let mut store =
            ProofStore { path, records: Vec::new(), buckets: HashMap::new(), classes: 0 };
        let mut d = Dec::new(&bytes);
        while d.remaining() > 0 {
            let end = bytes.len() - d.remaining();
            if is_torn_tail(&bytes[end..]) {
                store.truncate_torn_tail(end as u64, bytes.len() - end)?;
                break;
            }
            let payload = read_frame(&mut d, PROOF_KIND)?;
            let mut pd = Dec::new(payload);
            let problem = decode_problem(&mut pd)?;
            let certificate = decode_certificate(&mut pd)?;
            pd.finish()?;
            store.push(problem, certificate);
        }
        Ok(store)
    }

    /// Cuts the store file back to `len` bytes, dropping a torn final
    /// frame of `dropped` bytes.
    fn truncate_torn_tail(&self, len: u64, dropped: usize) -> Result<()> {
        let f = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, "open", &e))?;
        f.set_len(len)
            .and_then(|()| f.sync_data())
            .map_err(|e| io_err(&self.path, "truncate torn tail", &e))?;
        eprintln!(
            "proof store {}: dropped {dropped} bytes of a torn final frame",
            self.path.display()
        );
        Ok(())
    }

    /// Files a record at the end of its pre-key bucket, counting a new
    /// class if no record there is isomorphic to it.
    fn push(&mut self, problem: Problem, certificate: Certificate) {
        let bucket = self.buckets.entry(pre_key(problem.packed(), &mut Vec::new())).or_default();
        let records = &self.records;
        if !bucket.iter().any(|&ix| is_iso(&records[ix as usize], &problem)) {
            self.classes += 1;
        }
        bucket.push(u32::try_from(records.len()).expect("under 2^32 records"));
        self.records.push(Record { problem, certificate });
    }

    /// Number of stored proofs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no proofs.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct isomorphism classes among the stored problems,
    /// across both directions.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Looks up a proof for `p`'s isomorphism class in `direction`: the
    /// first such record stored. A miss leaves the store as it was: only
    /// [`ProofStore::insert`] adds a record, so a query that never gets a
    /// proof costs no memory.
    pub fn lookup(&self, p: &Problem, direction: Direction) -> Option<&Record> {
        let bucket = self.buckets.get(&pre_key(p.packed(), &mut Vec::new()))?;
        bucket
            .iter()
            .map(|&ix| &self.records[ix as usize])
            .find(|rec| rec.certificate.direction == direction && is_iso(rec, p))
    }

    /// Appends a proof, unless its isomorphism class is already stored for
    /// the certificate's direction (returns `false` — first write wins, so
    /// the store never grows duplicate classes).
    ///
    /// The append is durable before this returns: the new frame is
    /// written at the end of the store file and synced.
    ///
    /// # Errors
    ///
    /// I/O errors from the append. The file is truncated back to its
    /// previous length and the in-memory state is unchanged.
    pub fn insert(&mut self, problem: Problem, certificate: Certificate) -> Result<bool> {
        if self.lookup(&problem, certificate.direction).is_some() {
            return Ok(false);
        }
        let mut e = Enc::new();
        encode_problem(&problem, &mut e);
        encode_certificate(&certificate, &mut e);
        self.append(&frame(PROOF_KIND, &e.into_bytes()))?;
        self.push(problem, certificate);
        Ok(true)
    }

    /// Appends `rec` to the store file and syncs it, or truncates the file
    /// back to its previous length on failure.
    fn append(&self, rec: &[u8]) -> Result<()> {
        let path = &self.path;
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open for append", &e))?;
        let len = f.metadata().map_err(|e| io_err(path, "stat", &e))?.len();
        // The first append may have created the file: its directory entry
        // must be durable too.
        let sync_dir = || match path.parent().filter(|_| len == 0) {
            Some(dir) => File::open(dir).and_then(|d| d.sync_all()),
            None => Ok(()),
        };
        if let Err(e) = f.write_all(rec).and_then(|()| f.sync_data()).and_then(|()| sync_dir()) {
            let _ = f.set_len(len);
            return Err(io_err(path, "append", &e));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_auto::search::{autolb, autoub, SearchOptions};

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
        // Opening a store creates its directory.
        let dir = tmp_dir("basic").join("store");
        let (p, cert) = solved();
        {
            let mut store = ProofStore::open(&dir).unwrap();
            assert!(store.is_empty());
            assert!(store.lookup(&p, Direction::Lower).is_none());
            assert!(store.insert(p.clone(), cert.clone()).unwrap());
            assert!(!store.insert(p.clone(), cert.clone()).unwrap(), "duplicate class");
            assert_eq!(store.len(), 1);
        }
        // Reopening rebuilds the index by scanning the file.
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
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn one_class_in_both_directions_serves_each_its_own_certificate() {
        let dir = tmp_dir("both-directions");
        let p = Problem::parse("name: t\nnode: A A A\nedge: A A").unwrap();
        let renamed = Problem::parse("name: t2\nnode: Z Z Z\nedge: Z Z").unwrap();
        let opts = SearchOptions { threads: 1, ..SearchOptions::default() };
        let lower = autolb(&p, &opts).unwrap().certificate.expect("lower certificate");
        let upper = autoub(&p, &opts).unwrap().certificate.expect("upper certificate");
        let check = |store: &ProofStore| {
            assert_eq!((store.len(), store.classes()), (2, 1));
            for (q, dir, cert) in
                [(&p, Direction::Lower, &lower), (&renamed, Direction::Upper, &upper)]
            {
                let rec = store.lookup(q, dir).expect("hit");
                assert_eq!((&rec.problem, &rec.certificate), (&p, cert));
            }
        };
        let mut store = ProofStore::open(&dir).unwrap();
        assert!(store.insert(p.clone(), lower.clone()).unwrap());
        assert!(store.insert(p.clone(), upper.clone()).unwrap());
        assert!(!store.insert(renamed.clone(), lower.clone()).unwrap(), "first write wins");
        check(&store);
        drop(store);
        check(&ProofStore::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_shared_pre_key_keeps_non_isomorphic_classes_apart() {
        let dir = tmp_dir("shared-pre-key");
        let p3 = Problem::parse("name: p3\nnode: C C | B C | A D\nedge: B D | A C | C D").unwrap();
        let p4 = Problem::parse("name: p4\nnode: A D | A A | B C\nedge: B D | A C | A D").unwrap();
        assert_eq!(pre_key(p3.packed(), &mut Vec::new()), pre_key(p4.packed(), &mut Vec::new()));
        assert!(isomorphism(p3.packed(), p4.packed()).is_none());
        let opts = SearchOptions { threads: 1, ..SearchOptions::default() };
        let certify = |p: &Problem| autolb(p, &opts).unwrap().certificate.expect("certifies");
        let (c3, c4) = (certify(&p3), certify(&p4));
        assert_ne!(c3, c4);
        let mut store = ProofStore::open(&dir).unwrap();
        assert!(store.insert(p3.clone(), c3.clone()).unwrap());
        assert!(store.insert(p4.clone(), c4.clone()).unwrap());
        assert_eq!((store.len(), store.classes()), (2, 2));
        for (p, cert) in [(&p3, &c3), (&p4, &c4)] {
            let rec = store.lookup(p, Direction::Lower).expect("hit");
            assert_eq!((&rec.problem, &rec.certificate), (p, cert));
        }
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
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = ProofStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // A cut-off frame is a torn append, not corruption: open drops it.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(ProofStore::open(&dir).unwrap().is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_frame_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let (p, cert) = solved();
        let q = Problem::parse("name: q\nnode: A A A\nedge: A A").unwrap();
        let q_cert = autolb(&q, &SearchOptions { threads: 1, ..SearchOptions::default() })
            .unwrap()
            .certificate
            .unwrap();
        let path = dir.join(STORE_FILE);
        let first = {
            let mut store = ProofStore::open(&dir).unwrap();
            store.insert(p.clone(), cert).unwrap();
            let first = std::fs::read(&path).unwrap();
            store.insert(q.clone(), q_cert.clone()).unwrap();
            first
        };
        let good = std::fs::read(&path).unwrap();
        for cut in first.len() + 1..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            let mut store = ProofStore::open(&dir).unwrap();
            assert_eq!(store.len(), 1, "cut at {cut}");
            assert!(store.lookup(&p, Direction::Lower).is_some());
            assert_eq!(std::fs::read(&path).unwrap(), first, "cut at {cut}");
            // Appending after the truncation reproduces the uncut store.
            assert!(store.insert(q.clone(), q_cert.clone()).unwrap());
            assert_eq!(ProofStore::open(&dir).unwrap().len(), 2, "cut at {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), good, "cut at {cut}");
        }
        // A first frame whose length runs past the end is not the final
        // frame: that is corruption, and no complete frame is dropped.
        let mut inflated = good.clone();
        let len_at = MAGIC.len() + 1 + PROOF_KIND.len();
        inflated[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &inflated).unwrap();
        assert!(ProofStore::open(&dir).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), inflated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_insert_leaves_the_store_unchanged() {
        let dir = tmp_dir("failed-insert");
        let (p, cert) = solved();
        let mut store = ProofStore::open(&dir).unwrap();
        // A directory in the store file's place makes the append fail.
        std::fs::create_dir(dir.join(STORE_FILE)).unwrap();
        assert!(store.insert(p.clone(), cert.clone()).is_err());
        assert_eq!((store.len(), store.classes()), (0, 0));
        assert!(store.lookup(&p, Direction::Lower).is_none());
        std::fs::remove_dir(dir.join(STORE_FILE)).unwrap();
        assert!(store.insert(p.clone(), cert).unwrap());
        assert_eq!(ProofStore::open(&dir).unwrap().len(), 1);
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
