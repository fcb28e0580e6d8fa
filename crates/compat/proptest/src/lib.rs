//! Offline shim for the `proptest` crate.
//!
//! Provides the strategy combinators, `proptest!` macro and
//! `prop_assert*` macros this workspace's property tests use. Cases are
//! generated from a deterministic per-test RNG (seeded from the test
//! name, overridable via `PROPTEST_SEED`), so failures are reproducible;
//! there is no shrinking — the failing case is printed verbatim instead.
//! `PROPTEST_CASES` overrides the per-test case count.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::ops::Range;

/// Runner configuration, accepted via `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for API compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// The deterministic generator handed to strategies.
#[derive(Clone, Debug)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds a generator for one named test.
    pub fn for_test(test_name: &str) -> TestRng {
        let seed = match std::env::var("PROPTEST_SEED") {
            Ok(s) => s.parse().unwrap_or(0xC0FFEE),
            Err(_) => {
                // FNV-1a over the test name: stable across runs.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in test_name.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
                h
            }
        };
        TestRng(StdRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.random_range(0..n.max(1))
    }
}

/// Effective case count for a test (config, then env override).
pub fn effective_cases(config: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(config.cases)
}

/// A generator of random values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns
    /// for it (dependent generation).
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe view of [`Strategy`] for boxing.
trait DynStrategy {
    type Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (built by `prop_oneof!`).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let i = rng.below(self.0.len());
        self.0[i].generate(rng)
    }
}

/// Types with a canonical `any::<T>()` strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

/// The canonical strategy for an [`Arbitrary`] type.
pub struct AnyStrategy<A>(std::marker::PhantomData<A>);

impl<A: Arbitrary> Strategy for AnyStrategy<A> {
    type Value = A;
    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// `any::<T>()`: the canonical strategy for `T`.
pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
    AnyStrategy(std::marker::PhantomData)
}

macro_rules! impl_strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.start..self.end)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(*self.start()..=*self.end())
            }
        }
    )*};
}
impl_strategy_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// String strategies from a pattern of the form `[class]{min,max}` —
/// the small regex subset this workspace's tests use. The class accepts
/// literal characters and `a-z`-style ranges.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, min, max) = parse_pattern(self);
        let len = rng.0.random_range(min..=max);
        (0..len).map(|_| chars[rng.below(chars.len())]).collect()
    }
}

fn parse_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
    let inner = pattern
        .strip_prefix('[')
        .and_then(|r| r.split_once(']'))
        .unwrap_or_else(|| {
            panic!("unsupported string pattern {pattern:?} (want \"[class]{{min,max}}\")")
        });
    let (class, quant) = inner;
    let mut chars = Vec::new();
    let cs: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' && cs[i] <= cs[i + 2] {
            for c in cs[i]..=cs[i + 2] {
                chars.push(c);
            }
            i += 3;
        } else {
            chars.push(cs[i]);
            i += 1;
        }
    }
    assert!(!chars.is_empty(), "empty character class in {pattern:?}");
    let quant = quant
        .strip_prefix('{')
        .and_then(|q| q.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported quantifier in {pattern:?}"));
    let (min, max) = match quant.split_once(',') {
        Some((a, b)) => (a.trim().parse().unwrap(), b.trim().parse().unwrap()),
        None => {
            let n = quant.trim().parse().unwrap();
            (n, n)
        }
    };
    (chars, min, max)
}

macro_rules! impl_strategy_for_tuple {
    ($(($($name:ident),+);)*) => {$(
        #[allow(non_snake_case, reason = "the tuple components are named by their type parameters")]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_strategy_for_tuple! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
    (A, B, C, D, E, F, G);
    (A, B, C, D, E, F, G, H);
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy for `Vec`s whose length is drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, min..max)`: vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Uniform choice between strategy alternatives with a common value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Asserts inside a `proptest!` body; failure reports the case instead
/// of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), left, right
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right
            ));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            ));
        }
    }};
}

/// Declares property tests: each `fn` runs its body against many
/// generated cases.
#[macro_export]
macro_rules! proptest {
    (
        @with_config ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let cases = $crate::effective_cases(&config);
                let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let case_desc = format!(
                        concat!($("\n  ", stringify!($arg), " = {:?}",)+),
                        $(&$arg),+
                    );
                    let body = || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    let outcome = body();
                    if let ::std::result::Result::Err(msg) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}\ninputs:{}\n(set PROPTEST_SEED to reproduce a specific stream)",
                            stringify!($name), case, cases, msg, case_desc
                        );
                    }
                }
            }
        )*
    };
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest! { @with_config ($config) $($rest)* }
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest! { @with_config ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vecs(x in 3u8..9, v in collection::vec(0u32..5, 0..10)) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(v.len() < 10);
            for e in &v {
                prop_assert!(*e < 5, "element {} out of range", e);
            }
        }

        #[test]
        fn strings_match_class(s in "[a-c]{2,4}") {
            prop_assert!((2..=4).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn oneof_and_maps(v in prop_oneof![Just(1u8), 2u8..4, Just(9u8)].prop_map(|x| x as u32)) {
            prop_assert!(v == 1 || v == 2 || v == 3 || v == 9);
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..5).prop_flat_map(|n| (Just(n), collection::vec(0u8..2, n..(n + 1))))) {
            prop_assert_eq!(pair.0, pair.1.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
        #[test]
        fn config_cases_respected(_x in 0u8..10) {
            // Runs exactly 3 cases; nothing to assert beyond termination.
        }
    }
}
