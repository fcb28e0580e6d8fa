//! Offline shim for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `rand` 0.9 API the project actually
//! uses: the [`Rng`]/[`RngExt`]/[`SeedableRng`] traits, integer/float
//! range sampling, and a deterministic [`rngs::StdRng`] (xoshiro256++
//! seeded with SplitMix64). Statistical quality is more than sufficient
//! for protocol sampling and the uniformity assertions in the test
//! suite; it is *not* a cryptographic generator.

// The wire crates call into this shim with untrusted lengths: no
// panicking call, index, slice or integer division outside tests (an
// exception is a reasoned `#[expect]`, counted by swim-lint).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::integer_division_remainder_used))]

use std::num::NonZeroU64;
use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`Rng::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from the generator's full output
/// (the shim's stand-in for `rand`'s `StandardUniform` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, span)` by rejection sampling (no modulo
/// bias). Every caller passes `span ≥ 1`: it has checked its range
/// non-empty first.
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let Some(span) = NonZeroU64::new(span) else {
        return 0;
    };
    if span.is_power_of_two() {
        return rng.next_u64() & (span.get() - 1);
    }
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

/// Panics on an empty range, as `rand` does: sampling one is a caller
/// bug.
#[track_caller]
// lint: allow(panic_path) — documented contract mirroring `rand`; every workspace caller samples a range it has checked non-empty (`n > 0` first on the wire paths)
fn assert_non_empty(non_empty: bool) {
    assert!(non_empty, "cannot sample empty range");
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert_non_empty(self.start < self.end);
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert_non_empty(lo <= hi);
                let span = (hi - lo) as u64;
                if span == u64::MAX as $t as u64 && hi.wrapping_sub(lo) == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert_non_empty(self.start < self.end);
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert_non_empty(lo <= hi);
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(i8, i16, i32, i64, isize);

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// A uniformly random value of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::random_from(self)
    }

    /// A uniformly random value from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state, per
            // the xoshiro authors' recommendation.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.random_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.random_range(-4i32..=4);
            assert!((-4..=4).contains(&w));
            let u = rng.random_range(0usize..=0);
            assert_eq!(u, 0);
            let f = rng.random::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }
}
