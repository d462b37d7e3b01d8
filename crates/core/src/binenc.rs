//! `roundelim-bin-v1`: the compact, versioned binary at-rest encoding.
//!
//! The engine's hot paths intern labels as dense indices; this module makes
//! the at-rest format match. A binary message is a sequence of fixed-width
//! little-endian integers and **length-prefixed sections** (a `u32` byte
//! count followed by the section body), wrapped in a self-delimiting frame:
//!
//! ```text
//! magic   "RELIMB1\n"            8 bytes
//! kind    u8 length + UTF-8      what the payload encodes ("problem", …)
//! payload u32 length + bytes     the message body
//! check   u64 LE                 FNV-1a-64 of the payload bytes
//! ```
//!
//! The frame makes every reader fail loudly on truncation (the declared
//! lengths outrun the buffer) and on corruption (the checksum mismatches),
//! mirroring the checkpoint discipline in `roundelim-auto`. Frames
//! concatenate cleanly, which is what the daemon's append-only proof store
//! relies on: a store file is just a run of frames, each independently
//! verifiable.
//!
//! This module owns the primitives and the [`Problem`] codec; the
//! `Certificate` and checkpoint codecs live in `roundelim-auto`, whose
//! types they serialize. All codecs are **bit-exact**: decode ∘ encode is
//! the identity on bytes as well as on values (alphabet order, constraint
//! order, and names all round-trip), which is what lets restarted services
//! reproduce byte-identical files.

use crate::config::Config;
use crate::constraint::Constraint;
use crate::error::{Error, Result};
use crate::label::{Alphabet, Label};
use crate::problem::Problem;

/// Schema tag of the binary encoding (documented in `docs/PROTOCOL.md`).
pub const SCHEMA: &str = "roundelim-bin-v1";

/// Frame magic: fixed 8 bytes starting every framed message.
pub const MAGIC: &[u8; 8] = b"RELIMB1\n";

/// 64-bit FNV-1a over a byte string — small, dependency-free, and more
/// than enough to catch truncation and bit rot (adversarial tampering is
/// out of scope: these files are the engine's own private state, and
/// certificates are *re-verified*, not trusted).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bad(reason: impl Into<String>) -> Error {
    Error::Parse { line: 0, reason: format!("binenc: {}", reason.into()) }
}

/// An append-only byte encoder for `roundelim-bin-v1` messages.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the encoding is architecture-free).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed byte section.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("section exceeds u32 length"));
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string section.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A checked cursor over `roundelim-bin-v1` bytes.
///
/// Every read validates that the buffer still holds the declared bytes, so
/// truncated input surfaces as an [`Error::Parse`] instead of a panic or a
/// silently short value.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!(
                "truncated input: wanted {n} bytes for {what}, {} left",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| bad(format!("{what} out of range: {v}")))
    }

    /// Reads a 0/1 bool byte.
    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("{what} must be 0 or 1, found {b}"))),
        }
    }

    /// Reads a `u32` item count for a sequence whose items each encode to
    /// at least `min_item_bytes` bytes, and rejects a count the rest of the
    /// input cannot hold. Decoders size their allocations from this, so a
    /// hostile length field fails here instead of aborting the process on
    /// a multi-gigabyte `Vec::with_capacity`.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on truncation or an impossible count.
    pub fn count(&mut self, what: &str, min_item_bytes: usize) -> Result<usize> {
        debug_assert!(min_item_bytes > 0, "a zero-byte item bounds nothing");
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(bad(format!(
                "{what} {n} needs at least {min_item_bytes} bytes each, {} left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte section.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let n = self.u32(what)? as usize;
        self.take(n, what)
    }

    /// Reads a length-prefixed UTF-8 string section.
    pub fn str(&mut self, what: &str) -> Result<&'a str> {
        std::str::from_utf8(self.bytes(what)?)
            .map_err(|_| bad(format!("{what} is not valid UTF-8")))
    }

    /// Asserts that the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] if trailing bytes remain (a framing bug or a
    /// mis-declared length).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing bytes after message", self.remaining())));
        }
        Ok(())
    }
}

/// Wraps a payload in a checksummed `roundelim-bin-v1` frame.
pub fn frame(kind: &str, payload: &[u8]) -> Vec<u8> {
    assert!(kind.len() <= u8::MAX as usize, "frame kind too long");
    let mut out = Vec::with_capacity(8 + 1 + kind.len() + 4 + payload.len() + 8);
    out.extend_from_slice(MAGIC);
    out.push(kind.len() as u8);
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&u32::try_from(payload.len()).expect("payload fits u32").to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Reads one frame of the expected `kind` starting at the cursor, returning
/// its verified payload. Frames are self-delimiting, so callers can iterate
/// this over a concatenated store file.
///
/// # Errors
///
/// [`Error::Parse`] on bad magic, an unexpected kind, or truncation;
/// [`Error::Inconsistent`] on a checksum mismatch (torn or corrupted data).
pub fn read_frame<'a>(d: &mut Dec<'a>, kind: &str) -> Result<&'a [u8]> {
    let found = read_frame_kind(d)?;
    if found != kind {
        return Err(bad(format!("frame kind mismatch: expected `{kind}`, found `{found}`")));
    }
    let payload = d.bytes("frame payload")?;
    let sum = d.u64("frame checksum")?;
    if fnv1a64(payload) != sum {
        return Err(Error::Inconsistent {
            reason: format!("binenc: checksum mismatch on `{kind}` frame (torn or corrupted data)"),
        });
    }
    Ok(payload)
}

/// Reads the magic and kind of the frame at the cursor, for a reader that
/// picks its decoder by kind.
///
/// # Errors
///
/// [`Error::Parse`] on bad magic or truncation.
pub fn read_frame_kind<'a>(d: &mut Dec<'a>) -> Result<&'a str> {
    let magic = d.take(MAGIC.len(), "frame magic")?;
    if magic != MAGIC {
        return Err(bad("bad frame magic (not a roundelim-bin-v1 frame)"));
    }
    let klen = d.u8("frame kind length")? as usize;
    std::str::from_utf8(d.take(klen, "frame kind")?)
        .map_err(|_| bad("frame kind is not valid UTF-8"))
}

/// Convenience: unwraps a buffer holding exactly one frame of `kind`.
///
/// # Errors
///
/// As [`read_frame`], plus [`Error::Parse`] on trailing bytes.
pub fn unframe<'a>(bytes: &'a [u8], kind: &str) -> Result<&'a [u8]> {
    let mut d = Dec::new(bytes);
    let payload = read_frame(&mut d, kind)?;
    d.finish()?;
    Ok(payload)
}

/// Encodes a constraint: arity, configuration count, then each
/// configuration's labels as `u32` indices — configurations in the
/// constraint's sorted canonical order, labels in each configuration's
/// sorted order, so the encoding is a pure function of the value.
pub fn encode_constraint(c: &Constraint, e: &mut Enc) {
    e.u32(c.arity() as u32);
    e.u32(c.len() as u32);
    for cfg in c.iter() {
        for l in cfg.iter() {
            e.u32(l.index() as u32);
        }
    }
}

/// Decodes a constraint encoded by [`encode_constraint`], validating label
/// indices against `n_labels`.
///
/// # Errors
///
/// [`Error::Parse`] on truncation or out-of-range labels; construction
/// errors ([`Error::EmptyArity`], [`Error::ArityMismatch`]) pass through.
pub fn decode_constraint(d: &mut Dec<'_>, n_labels: usize) -> Result<Constraint> {
    let arity = d.u32("constraint arity")? as usize;
    if arity == 0 {
        return Err(Error::EmptyArity);
    }
    let n = d.count("constraint size", arity.saturating_mul(4))?;
    let mut configs = Vec::with_capacity(n);
    for _ in 0..n {
        let mut labels = Vec::with_capacity(arity);
        for _ in 0..arity {
            let ix = d.u32("config label")? as usize;
            if ix >= n_labels {
                return Err(bad(format!("label index {ix} out of range ({n_labels} labels)")));
            }
            labels.push(Label::from_index(ix));
        }
        configs.push(Config::new(labels));
    }
    Constraint::from_configs(arity, configs)
}

/// The fewest bytes an encoded problem takes: the name and alphabet
/// prefixes plus arity and size of both constraints, all `u32`.
pub const MIN_PROBLEM_BYTES: usize = 6 * 4;

/// Encodes a problem: name, the alphabet as an ordered name list, then the
/// node and edge constraints (see [`encode_constraint`]).
pub fn encode_problem(p: &Problem, e: &mut Enc) {
    e.str(p.name());
    e.u32(p.alphabet().len() as u32);
    for name in p.alphabet().names() {
        e.str(name);
    }
    encode_constraint(p.node(), e);
    encode_constraint(p.edge(), e);
}

/// Decodes a problem encoded by [`encode_problem`].
///
/// The general constructor is used (edge arity is not forced to 2), so the
/// codec covers the hypergraph-generalized problems some oracles build.
///
/// # Errors
///
/// [`Error::Parse`] on malformed input; alphabet/constraint construction
/// errors pass through (duplicate labels, inconsistent constraints).
pub fn decode_problem(d: &mut Dec<'_>) -> Result<Problem> {
    let name = d.str("problem name")?.to_owned();
    let n_labels = d.count("alphabet size", 4)?;
    let mut names = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        names.push(d.str("label name")?.to_owned());
    }
    let alphabet = Alphabet::from_names(names)?;
    let node = decode_constraint(d, n_labels)?;
    let edge = decode_constraint(d, n_labels)?;
    Problem::new_general(name, alphabet, node, edge)
}

/// Encodes a problem as one framed `problem` message.
pub fn problem_to_bytes(p: &Problem) -> Vec<u8> {
    let mut e = Enc::new();
    encode_problem(p, &mut e);
    frame("problem", &e.into_bytes())
}

/// Decodes one framed `problem` message.
///
/// # Errors
///
/// As [`unframe`] and [`decode_problem`].
pub fn problem_from_bytes(bytes: &[u8]) -> Result<Problem> {
    let payload = unframe(bytes, "problem")?;
    let mut d = Dec::new(payload);
    let p = decode_problem(&mut d)?;
    d.finish()?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Problem {
        Problem::parse(
            "name: mm\nlabels: M O P X\nnode: M O O | P O O | O O X\nedge: M M | P O | X X\n",
        )
        .unwrap()
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX);
        e.bool(true);
        e.str("héllo");
        e.bytes(b"");
        let buf = e.into_bytes();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(d.u64("c").unwrap(), u64::MAX);
        assert!(d.bool("d").unwrap());
        assert_eq!(d.str("e").unwrap(), "héllo");
        assert_eq!(d.bytes("f").unwrap(), b"");
        d.finish().unwrap();
    }

    #[test]
    fn problem_round_trips_bit_identically() {
        let p = sample();
        let bytes = problem_to_bytes(&p);
        let back = problem_from_bytes(&bytes).unwrap();
        assert_eq!(p, back);
        assert_eq!(p.to_text(), back.to_text(), "alphabet order must survive");
        assert_eq!(bytes, problem_to_bytes(&back), "re-encoding must be byte-identical");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = problem_to_bytes(&sample());
        for n in 0..bytes.len() {
            assert!(problem_from_bytes(&bytes[..n]).is_err(), "prefix of {n} bytes accepted");
        }
    }

    #[test]
    fn corruption_is_rejected_by_the_checksum() {
        let good = problem_to_bytes(&sample());
        // Flip each payload byte in turn (skip the frame header; header
        // corruption is caught structurally, payload corruption by FNV).
        let payload_start = MAGIC.len() + 1 + "problem".len() + 4;
        for ix in payload_start..good.len() {
            let mut bytes = good.clone();
            bytes[ix] ^= 0x20;
            assert!(problem_from_bytes(&bytes).is_err(), "flip at {ix} accepted");
        }
    }

    #[test]
    fn checksum_failure_names_the_checksum() {
        let mut bytes = problem_to_bytes(&sample());
        let ix = bytes.len() - 9; // last payload byte
        bytes[ix] ^= 1;
        let err = problem_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn frame_kind_is_checked() {
        let bytes = problem_to_bytes(&sample());
        assert!(unframe(&bytes, "certificate").is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = problem_to_bytes(&sample());
        bytes.push(0);
        assert!(problem_from_bytes(&bytes).is_err());
    }

    #[test]
    fn frames_concatenate_and_stream() {
        let p = sample();
        let mut buf = problem_to_bytes(&p);
        buf.extend_from_slice(&problem_to_bytes(&p));
        let mut d = Dec::new(&buf);
        let mut seen = 0;
        while d.remaining() > 0 {
            let payload = read_frame(&mut d, "problem").unwrap();
            let mut pd = Dec::new(payload);
            assert_eq!(decode_problem(&mut pd).unwrap(), p);
            seen += 1;
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn general_arity_problems_round_trip() {
        // Hypergraph-generalized edge side (arity 3).
        let alphabet = Alphabet::from_names(["A", "B"]).unwrap();
        let l = Label::from_index;
        let node = Constraint::from_configs(2, [Config::new(vec![l(0), l(1)])]).unwrap();
        let edge = Constraint::from_configs(3, [Config::new(vec![l(0), l(0), l(1)])]).unwrap();
        let p = Problem::new_general("hyper", alphabet, node, edge).unwrap();
        assert_eq!(problem_from_bytes(&problem_to_bytes(&p)).unwrap(), p);
    }
}
