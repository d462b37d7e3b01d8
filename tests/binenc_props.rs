//! Property-based tests of the `roundelim-bin-v1` binary encoding: every
//! `Problem` and `Certificate` must round-trip **bit-identically** (decode
//! ∘ encode = id on bytes, not just on values), including problems with
//! ≥ 9 labels, where the canonical-form pipeline switches to
//! signature-profile buckets. A `CanonCache` restored from its snapshot,
//! as checkpoints restore it, must recognise every interned problem.
//! Truncations and byte flips must be rejected by the frame checksum,
//! mirroring the snapshot corruption coverage in
//! `tests/crash_recovery.rs`.

use proptest::prelude::*;
use roundelim::auto::binenc::{certificate_from_bytes, certificate_to_bytes};
use roundelim::auto::cache::{CanonCache, NodeId, Probe};
use roundelim::auto::checkpoint::Checkpoint;
use roundelim::auto::search::{autolb, SearchOptions};
use roundelim::core::binenc::{frame, problem_from_bytes, problem_to_bytes, unframe};
use roundelim::core::config::{all_multisets, Config};
use roundelim::core::constraint::Constraint;
use roundelim::core::label::Alphabet;
use roundelim::core::problem::Problem;
use roundelim::core::speedup::full_step;

/// Steps class `id` the way the search does: the speedup step of its
/// representative, recorded with `CanonCache::record_step`. Some problems
/// have no legal step; those record nothing.
fn record_full_step(cache: &mut CanonCache, id: NodeId) {
    if let Ok(step) = full_step(&cache.materialize(id), 1) {
        let derived = step.full.problem;
        cache.record_step(id, derived.clone(), Probe::new(derived));
    }
}

/// A random problem with Δ and label count drawn from the given ranges
/// (the `tests/properties.rs` generator, parameterised over sizes).
fn arb_problem_sized(
    deltas: std::ops::RangeInclusive<usize>,
    labels: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Problem> {
    (deltas, labels).prop_flat_map(|(delta, n_labels)| {
        let node_space = all_multisets(n_labels, delta);
        let edge_space = all_multisets(n_labels, 2);
        let node_sel = proptest::collection::vec(any::<bool>(), node_space.len());
        let edge_sel = proptest::collection::vec(any::<bool>(), edge_space.len());
        (Just(delta), Just(n_labels), node_sel, edge_sel).prop_filter_map(
            "nonempty constraints",
            |(delta, n_labels, ns, es)| {
                let node: Vec<Config> = all_multisets(n_labels, delta)
                    .into_iter()
                    .zip(&ns)
                    .filter(|(_, &keep)| keep)
                    .map(|(c, _)| c)
                    .collect();
                let edge: Vec<Config> = all_multisets(n_labels, 2)
                    .into_iter()
                    .zip(&es)
                    .filter(|(_, &keep)| keep)
                    .map(|(c, _)| c)
                    .collect();
                if node.is_empty() || edge.is_empty() {
                    return None;
                }
                let alphabet = Alphabet::from_names((0..n_labels).map(|i| format!("L{i}"))).ok()?;
                let node = Constraint::from_configs(delta, node).ok()?;
                let edge = Constraint::from_configs(2, edge).ok()?;
                Problem::new("random", alphabet, node, edge).ok()
            },
        )
    })
}

/// Small search-sized problems (2–4 labels).
fn arb_problem() -> impl Strategy<Value = Problem> {
    arb_problem_sized(2..=3, 2..=4)
}

/// Problems big enough that canonicalisation uses signature-profile
/// buckets rather than exhaustive permutations (≥ 9 labels).
fn arb_big_problem() -> impl Strategy<Value = Problem> {
    arb_problem_sized(2..=3, 9..=10)
}

fn small_budget() -> SearchOptions {
    SearchOptions {
        max_steps: 3,
        beam_width: 3,
        max_labels: 6,
        threads: 1,
        ..SearchOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Problem` round-trips bit-identically: decoding and re-encoding
    /// reproduces the exact original bytes, and the decoded value is equal.
    #[test]
    fn problem_bytes_round_trip_bit_identically(p in arb_problem()) {
        let bytes = problem_to_bytes(&p);
        let back = problem_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(problem_to_bytes(&back), bytes);
    }

    /// Certificates from real searches round-trip bit-identically and the
    /// decoded certificate still replays green.
    #[test]
    fn certificate_bytes_round_trip_bit_identically(p in arb_problem()) {
        let out = autolb(&p, &small_budget()).unwrap();
        let cert = out.certificate.expect("autolb always certifies something");
        let bytes = certificate_to_bytes(&cert);
        let back = certificate_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &cert);
        prop_assert_eq!(certificate_to_bytes(&back), bytes);
        prop_assert!(back.verify().is_ok(), "decoded certificate must replay green");
    }

    /// A populated `CanonCache` snapshot (interned problems plus recorded
    /// speedup steps) restores to a cache that recognises the same
    /// problems without fresh interning.
    #[test]
    fn restored_cache_recognises_every_interned_problem(ps in proptest::collection::vec(arb_problem(), 1..4)) {
        let mut cache = CanonCache::new();
        let mut ids = Vec::new();
        for p in &ps {
            let (id, _) = cache.intern(p.clone());
            ids.push(id);
            // Recording a step exercises the succ/derived snapshot fields.
            record_full_step(&mut cache, id);
        }
        let mut restored = CanonCache::restore(cache.snapshot()).unwrap();
        for (p, id) in ps.iter().zip(&ids) {
            let (again, fresh) = restored.intern(p.clone());
            prop_assert_eq!(again, *id);
            prop_assert!(!fresh, "restored cache must already know every interned problem");
        }
    }
}

proptest! {
    // Big-alphabet cases are pricier; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Problems with ≥ 9 labels — the signature-profile bucket regime of
    /// the canonical form — round-trip bit-identically, and a `CanonCache`
    /// restored from its snapshot recognises them.
    #[test]
    fn nine_plus_label_problems_round_trip_bit_identically(p in arb_big_problem()) {
        prop_assert!(p.alphabet().len() >= 9);
        let bytes = problem_to_bytes(&p);
        let back = problem_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(problem_to_bytes(&back), bytes);

        let mut cache = CanonCache::new();
        let (id, _) = cache.intern(p.clone());
        let mut restored = CanonCache::restore(cache.snapshot()).unwrap();
        let (again, fresh) = restored.intern(p.clone());
        prop_assert_eq!(again, id);
        prop_assert!(!fresh);
    }
}

/// Every truncation of a `roundelim-bin-v1` blob is rejected, and a byte
/// flip inside the payload is caught by the FNV-1a frame checksum — the
/// same guarantees `tests/crash_recovery.rs` pins for checkpoint files.
/// The blobs include a v3 checkpoint and a committed v2 one.
#[test]
fn truncations_and_byte_flips_are_rejected() {
    let p = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I").unwrap();
    let out = autolb(&p, &small_budget()).unwrap();
    let cert = out.certificate.expect("sinkless orientation certifies");

    // The committed v2 checkpoint of an older build, and its v3 rewrite.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/mm3-checkpoint");
    let v2 = std::fs::read(format!("{fixture}/search.ckpt.json")).unwrap();
    let ck = Checkpoint::from_bin(&v2).unwrap();
    let v3 = ck.to_bin();
    assert_eq!(Checkpoint::from_bin(&v3).unwrap(), ck);
    let v3_payload = unframe(&v3, "checkpoint-v3").unwrap().to_vec();

    let blobs: Vec<(&str, Vec<u8>)> = vec![
        ("problem", problem_to_bytes(&p)),
        ("certificate", certificate_to_bytes(&cert)),
        ("checkpoint", v3),
        ("checkpoint", v2),
    ];
    let decode_as = |what: &str, b: &[u8]| -> Result<(), String> {
        let r = match what {
            "problem" => problem_from_bytes(b).map(|_| ()),
            "certificate" => certificate_from_bytes(b).map(|_| ()),
            _ => Checkpoint::from_bin(b).map(|_| ()),
        };
        r.map_err(|e| e.to_string())
    };
    for (what, bytes) in &blobs {
        let decode = |b: &[u8]| decode_as(what, b);
        assert!(decode(bytes).is_ok(), "{what}: pristine bytes must decode");
        // Truncation at a spread of cut points (including the empty and
        // the all-but-last-byte prefixes) must never decode.
        let step = (bytes.len() / 17).max(1);
        for cut in (0..bytes.len()).step_by(step).chain([bytes.len() - 1]) {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "{what}: truncation to {cut}/{} bytes must be rejected",
                bytes.len()
            );
        }
        // A flipped payload byte must trip the checksum, not decode into
        // a different value. (Mid-blob lands in the payload section: the
        // frame is MAGIC + kind + length + payload + trailing checksum.)
        let mut flipped = bytes.clone();
        let ix = flipped.len() / 2;
        flipped[ix] ^= 0x40;
        let err = decode(&flipped).expect_err("byte flip must be rejected");
        assert!(err.contains("checksum"), "{what}: expected a checksum error, got: {err}");
    }

    // Re-framed payloads whose first count field is 0xFFFFFFFF: the frame
    // checksum is valid, so only the decoder's count check stands between
    // them and a multi-gigabyte allocation. Each must fail with an error.
    let inflated = |kind: &str, prefix: &[u8]| {
        let mut payload = prefix.to_vec();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0; 16]);
        frame(kind, &payload)
    };
    let name_so = [2, 0, 0, 0, b's', b'o'];
    let hostile: Vec<(&str, &str, Vec<u8>)> = vec![
        ("problem", "alphabet size", inflated("problem", &name_so)),
        // Empty name, empty alphabet, node arity 0: zero-byte configs.
        ("problem", "constraint arity 0", inflated("problem", &[0; 12])),
        // Lower bound, plain PN, complete, 0 rounds; then the problem count.
        (
            "certificate",
            "problem count",
            inflated("certificate", &[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
        ),
        // A v2 checkpoint is a v3 payload, then its fingerprint index.
        ("checkpoint", "fingerprint bucket count", inflated("checkpoint-v2", &v3_payload)),
    ];
    for (what, field, bytes) in &hostile {
        assert!(decode_as(what, bytes).is_err(), "{what}: an inflated {field} must be rejected");
    }
}
