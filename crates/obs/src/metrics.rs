//! Process-wide metrics registry: named atomic counters and log-bucketed
//! (HDR-style) histograms.
//!
//! Names are `&'static str` in dotted form (`"cache.intern_hits"`,
//! `"daemon.solve_ns"`; the `_ns` suffix marks nanosecond latencies).
//! [`counter`] / [`histogram`] return `&'static` handles — the registry
//! leaks one small allocation per unique name, so hot call sites cache
//! the handle in a `OnceLock` and pay a single relaxed `fetch_add` per
//! event afterwards.
//!
//! Histogram buckets are log-linear: values 0–3 are exact, then each
//! power-of-two octave `[2^m, 2^(m+1))` splits into 4 equal sub-buckets
//! (relative error ≤ 25%, 252 buckets covering all of `u64`). Quantiles
//! are answered by a bucket walk and return the matched bucket's upper
//! bound clamped to the observed min/max — integer math only, so two
//! identical record sequences always summarize identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 2;
/// Total bucket count (group 62 ends at index 251; round up for safety).
const BUCKETS: usize = 256;

/// A monotonically increasing atomic counter. Always live — incrementing
/// is one relaxed `fetch_add` whether or not anything reads it.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter (registry use; call sites go via [`counter`]).
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Maps a value to its log-linear bucket index.
fn bucket_index(v: u64) -> usize {
    let sub_count = 1u64 << SUB_BITS;
    if v < sub_count {
        return usize::try_from(v).expect("v < 4");
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = msb - SUB_BITS + 1;
    let sub = (v >> (msb - SUB_BITS)) & (sub_count - 1);
    usize::try_from(u64::from(group) * sub_count + sub).expect("bucket index fits")
}

/// Largest value stored in bucket `i` (inverse of [`bucket_index`]).
fn bucket_upper_bound(i: usize) -> u64 {
    let i = u64::try_from(i).expect("bucket index");
    let sub_count = 1u64 << SUB_BITS;
    if i < sub_count {
        return i;
    }
    let group = i >> SUB_BITS;
    let sub = i & (sub_count - 1);
    // Octave base 2^(group+1), sub-bucket width 2^(group-1). Computed in
    // u128: the top buckets' bounds exceed u64 and saturate.
    let bound = (u128::from(sub_count + sub + 1) << (group - 1)) - 1;
    u64::try_from(bound).unwrap_or(u64::MAX)
}

/// A log-bucketed latency/value histogram with exact count/sum/min/max.
/// Recording is lock-free: one bucket `fetch_add` plus four bookkeeping
/// atomics, all relaxed.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram (registry use; call sites go via
    /// [`histogram`]).
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far (wrapping; nanosecond sums would
    /// need five centuries of recorded time to wrap).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for summarizing. Not a consistent cut under
    /// concurrent writers (metrics, not accounting), but exact when the
    /// histogram is quiescent.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_upper_bound(i), n))
                })
                .collect(),
        }
    }
}

/// An immutable histogram summary: exact count/sum/min/max plus the
/// non-empty buckets as `(upper_bound, count)` pairs in ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `p`-per-mille quantile (`500` = p50). Returns the upper bound
    /// of the bucket containing that rank, clamped to the observed
    /// min/max; 0 for an empty histogram. Integer math throughout.
    #[must_use]
    fn quantile_permille(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = self.count.saturating_mul(p).div_ceil(1000).clamp(1, self.count);
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (by bucket upper bound).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile_permille(500)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile_permille(900)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile_permille(990)
    }
}

/// The process-wide registry. Handles are leaked so call sites can hold
/// `&'static` references; the leak is bounded by the set of distinct
/// metric names (small and static in practice).
#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    // Metrics must survive a panicking worker thread: a poisoned lock
    // still guards a structurally intact map, so clear the poison flag
    // rather than propagating it into unrelated threads.
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The counter registered under `name`, created on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = lock_registry();
    reg.counters.entry(name).or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// The histogram registered under `name`, created on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = lock_registry();
    reg.histograms.entry(name).or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// A point-in-time copy of the whole registry, names sorted.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots every registered counter and histogram (sorted by name).
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = lock_registry();
    Snapshot {
        counters: reg.counters.iter().map(|(n, c)| ((*n).to_owned(), c.get())).collect(),
        histograms: reg.histograms.iter().map(|(n, h)| ((*n).to_owned(), h.snapshot())).collect(),
    }
}

/// A metric name as a Prometheus identifier: `roundelim_` prefix, with
/// every non-alphanumeric character mapped to `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("roundelim_");
    out.extend(name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
    out
}

/// Renders a snapshot in the Prometheus text exposition format:
/// counters as `counter` metrics, histograms as `summary` metrics with
/// p50/p90/p99 quantiles plus `_sum` and `_count`.
#[must_use]
pub fn prometheus_text(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let p = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {p} counter");
        let _ = writeln!(out, "{p} {v}");
    }
    for (name, h) in &snap.histograms {
        let p = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {p} summary");
        for (q, permille) in [("0.5", 500), ("0.9", 900), ("0.99", 990)] {
            let _ = writeln!(out, "{p}{{quantile=\"{q}\"}} {}", h.quantile_permille(permille));
        }
        let _ = writeln!(out, "{p}_sum {}", h.sum);
        let _ = writeln!(out, "{p}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_land_in_exact_buckets() {
        for v in 0..4u64 {
            let i = bucket_index(v);
            assert_eq!(i, usize::try_from(v).unwrap());
            assert_eq!(bucket_upper_bound(i), v);
        }
        // The [4, 8) octave is still exact (sub-bucket width 1).
        for v in 4..8u64 {
            assert_eq!(bucket_upper_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn buckets_are_monotone_and_bounds_contain_their_values() {
        let mut samples: Vec<u64> = (0..256).collect();
        for shift in 3..64u32 {
            for off in [0u64, 1, 2, 3] {
                samples.push((1u64 << shift).saturating_add(off << (shift - 3)));
            }
        }
        samples.push(u64::MAX);
        samples.sort_unstable();
        let mut prev = 0;
        for v in samples {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index must not decrease: v={v}");
            prev = i;
            assert!(i < BUCKETS, "v={v} overflows the bucket array");
            assert!(bucket_upper_bound(i) >= v, "upper bound below value: v={v}");
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < v, "previous bound covers v={v}");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded_by_a_quarter() {
        for v in [10u64, 100, 1_000, 123_456, 1 << 40] {
            let bound = bucket_upper_bound(bucket_index(v));
            assert!(bound - v <= v / 4, "v={v} bound={bound}");
        }
    }

    #[test]
    fn quantiles_walk_buckets_deterministically() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        let p50 = s.p50();
        // Rank 50 lands in the bucket holding 50; its upper bound is 55
        // (octave [32,64), sub-bucket [48,56)).
        assert_eq!(p50, 55);
        assert!(s.p90() >= p50 && s.p99() >= s.p90());
        assert!(s.p99() <= 100, "clamped to the observed max");
        // Identical record sequences summarize identically.
        let h2 = Histogram::new();
        for v in 1..=100u64 {
            h2.record(v);
        }
        assert_eq!(h2.snapshot(), s);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn registry_returns_the_same_handle_per_name() {
        let a = counter("test.registry_identity");
        let b = counter("test.registry_identity");
        assert!(std::ptr::eq(a, b));
        a.incr();
        b.add(2);
        assert_eq!(a.get(), 3);
        let h1 = histogram("test.registry_identity_h");
        let h2 = histogram("test.registry_identity_h");
        assert!(std::ptr::eq(h1, h2));
    }

    #[test]
    fn snapshot_sorts_names_and_prometheus_renders_both_kinds() {
        counter("test.prom_b").add(2);
        counter("test.prom_a").add(1);
        histogram("test.prom_ns").record(7);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE roundelim_test_prom_a counter"), "{text}");
        assert!(text.contains("roundelim_test_prom_b 2"), "{text}");
        assert!(text.contains("roundelim_test_prom_ns{quantile=\"0.5\"} 7"), "{text}");
        assert!(text.contains("roundelim_test_prom_ns_count 1"), "{text}");
    }
}
