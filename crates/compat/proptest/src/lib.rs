//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment has no crates registry, so this crate implements
//! the subset of the proptest API the workspace's property tests use:
//!
//! * the [`Strategy`] trait with `prop_map`, `prop_flat_map`, `prop_filter`,
//!   and `prop_filter_map` combinators;
//! * strategies for integer ranges, [`Just`], tuples (arity ≤ 8),
//!   [`any::<bool>()`](any), and [`collection::vec`];
//! * the [`proptest!`] macro with `#![proptest_config(..)]` support, plus
//!   [`prop_assert!`], [`prop_assert_eq!`], and [`prop_assert_ne!`];
//! * [`prelude::ProptestConfig`] with `with_cases`.
//!
//! Unlike the real proptest it does **no shrinking** and is *deterministic
//! by default*: the per-test RNG is seeded from the test name, so CI runs
//! are reproducible and need no `proptest-regressions/` files. Set
//! `PROPTEST_SEED=<u64>` to explore a different part of the input space,
//! and re-run with that seed printed by a failure to reproduce it.
//!
//! ```
//! use proptest::prelude::*;
//! let mut rng = proptest::TestRng::new(42);
//! let strat = (0usize..10).prop_map(|x| x * 2);
//! let v = strat.generate(&mut rng).unwrap();
//! assert!(v < 20 && v % 2 == 0);
//! ```

#![forbid(unsafe_code)]

use std::fmt;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 128 random bits.
    pub fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// A uniform draw from `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "TestRng::below: empty range");
        (self.next_u64() % bound as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating values of type `Value`.
///
/// `generate` returns `None` when the candidate was rejected (by a filter);
/// the runner retries rejected cases with fresh randomness.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value, or `None` on rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds on it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Rejects values failing the predicate. The reason is informational.
    fn prop_filter<R, F>(self, _reason: R, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        R: Into<String>,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f }
    }

    /// Combined map + filter: `None` results are rejected.
    fn prop_filter_map<U, R, F>(self, _reason: R, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        R: Into<String>,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap { inner: self, f }
    }
}

/// Local retry budget inside a filtering combinator before the rejection is
/// propagated to the runner (which then retries the whole strategy tree).
const LOCAL_RETRIES: usize = 64;

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S2::Value> {
        let first = self.inner.generate(rng)?;
        (self.f)(first).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        for _ in 0..LOCAL_RETRIES {
            if let Some(v) = self.inner.generate(rng) {
                if (self.f)(&v) {
                    return Some(v);
                }
            }
        }
        None
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<U>,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        for _ in 0..LOCAL_RETRIES {
            if let Some(v) = self.inner.generate(rng) {
                if let Some(u) = (self.f)(v) {
                    return Some(u);
                }
            }
        }
        None
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "strategy on empty range");
                let span = (self.end - self.start) as u128;
                Some(self.start + (rng.next_u128() % span) as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "strategy on empty range");
                match ((end - start) as u128).checked_add(1) {
                    // start..=end covers the whole type: raw bits are uniform.
                    None => Some(rng.next_u128() as $t),
                    Some(span) => Some(start.wrapping_add((rng.next_u128() % span) as $t)),
                }
            }
        }
    )*};
}

int_range_strategies!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategies {
    ($(($($s:ident / $ix:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                Some(($(self.$ix.generate(rng)?,)+))
            }
        }
    )*};
}

tuple_strategies! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
}

/// Types with a canonical strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// The canonical strategy for the type.
    type Strategy: Strategy<Value = Self>;
    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `A`.
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

/// Canonical strategy for `bool`: a fair coin.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> Option<bool> {
        Some(rng.next_u64() & 1 == 1)
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

macro_rules! arbitrary_uniform_ints {
    ($($t:ty => $any:ident),*) => {$(
        /// Canonical full-range strategy for the integer type.
        #[derive(Debug, Clone, Copy)]
        pub struct $any;
        impl Strategy for $any {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.next_u128() as $t)
            }
        }
        impl Arbitrary for $t {
            type Strategy = $any;
            fn arbitrary() -> $any { $any }
        }
    )*};
}

arbitrary_uniform_ints! {
    u8 => AnyU8, u16 => AnyU16, u32 => AnyU32, u64 => AnyU64, u128 => AnyU128,
    usize => AnyUsize, i8 => AnyI8, i16 => AnyI16, i32 => AnyI32, i64 => AnyI64,
    isize => AnyIsize
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A length specification: fixed or a range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        start: usize,
        end_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { start: n, end_excl: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "vec strategy: empty size range");
            SizeRange { start: r.start, end_excl: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "vec strategy: empty size range");
            SizeRange { start: *r.start(), end_excl: *r.end() + 1 }
        }
    }

    /// A strategy for `Vec`s of values from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = if self.size.end_excl - self.size.start <= 1 {
                self.size.start
            } else {
                self.size.start + rng.below(self.size.end_excl - self.size.start)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Runner configuration, mirroring `proptest::test_runner::Config`.
pub mod test_runner {
    /// How many accepted cases each property runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of accepted cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 64 }
        }
    }
}

/// A failed property case (carried through `prop_assert!` early returns).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// FNV-1a, used to derive a per-test seed from the test name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Total rejected candidates tolerated before a property gives up.
const MAX_GLOBAL_REJECTS: u32 = 1 << 16;

/// Drives one property: generates inputs from `strategy` and applies `test`
/// until `config.cases` accepted cases pass (used by [`proptest!`]).
///
/// Deterministic: the seed is `fnv1a(name)` unless `PROPTEST_SEED` is set.
///
/// # Panics
///
/// Panics (failing the surrounding `#[test]`) on the first failing case or
/// when the rejection budget is exhausted.
pub fn run_proptest<S, F>(config: &test_runner::Config, name: &str, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let seed = match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or_else(|_| panic!("PROPTEST_SEED must be a u64: {s:?}")),
        Err(_) => fnv1a(name.as_bytes()),
    };
    let mut rng = TestRng::new(seed);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    while accepted < config.cases {
        match strategy.generate(&mut rng) {
            None => {
                rejected += 1;
                assert!(
                    rejected < MAX_GLOBAL_REJECTS,
                    "property '{name}': too many rejected candidates ({rejected}); \
                     strategy filters are too strict"
                );
            }
            Some(input) => {
                accepted += 1;
                if let Err(e) = test(input) {
                    panic!(
                        "property '{name}' failed at case {accepted}/{} (seed {seed}): {e}\n\
                         reproduce with PROPTEST_SEED={seed}",
                        config.cases
                    );
                }
            }
        }
    }
}

/// Everything a property test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Arbitrary, Just, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests; see the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = (<$crate::test_runner::Config as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let strategy = ($($strat,)+);
            $crate::run_proptest(&config, stringify!($name), &strategy, |($($arg,)+)| {
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Fails the current property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn filter_map_retries_then_rejects() {
        let strat = (0u32..4).prop_filter_map("even", |x| (x % 2 == 0).then_some(x));
        let mut rng = crate::TestRng::new(9);
        for _ in 0..50 {
            let v = strat.generate(&mut rng).unwrap();
            assert_eq!(v % 2, 0);
        }
    }

    #[test]
    fn flat_map_threads_randomness() {
        let strat = (1usize..4).prop_flat_map(|n| collection::vec(any::<bool>(), n));
        let mut rng = crate::TestRng::new(10);
        for _ in 0..50 {
            let v = strat.generate(&mut rng).unwrap();
            assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_without_env_seed() {
        let strat = (0u64..1000, 0u64..1000);
        let a: Vec<_> =
            (0..20).map(|_| strat.generate(&mut crate::TestRng::new(5)).unwrap()).collect();
        let b: Vec<_> =
            (0..20).map(|_| strat.generate(&mut crate::TestRng::new(5)).unwrap()).collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: multiple args, patterns, and prop_assert forms.
        #[test]
        fn macro_end_to_end((a, b) in (0u8..10, 0u8..10), v in collection::vec(any::<bool>(), 3)) {
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(v.len(), 3);
            prop_assert_ne!(v.len(), 4);
        }
    }
}
