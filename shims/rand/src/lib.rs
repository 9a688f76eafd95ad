//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a minimal, deterministic implementation of the subset
//! of the `rand` 0.10 API it actually uses: [`Rng`]/[`RngExt`],
//! [`SeedableRng`], [`rngs::StdRng`], `random`, `random_bool` and
//! `random_range`. The generator is xoshiro256** seeded through SplitMix64,
//! so streams are high-quality and fully reproducible from a `u64` seed —
//! which is all the synthetic-workload generators in `snp-popgen` need.
//! Swapping the real crate back in requires only a `Cargo.toml` change.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words (rand's `RngCore` role; kept under the
/// name the workspace's generic bounds use).
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// The convenience sampling methods (`random`, `random_bool`,
/// `random_range`), blanket-implemented for every [`Rng`] as in rand 0.10's
/// extension-trait layering.
pub trait RngExt: Rng {
    /// Samples a uniform value of type `T` (see [`Random`] for the
    /// per-type distributions).
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// A Bernoulli draw: `true` with probability `p`. Panics if `p` is not
    /// in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        f64::random(self) < p
    }

    /// Samples uniformly from a range (half-open or inclusive; integer or
    /// floating point). Panics on an empty range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Types that can be drawn uniformly from an [`Rng`].
pub trait Random {
    /// Draws one value.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            #[inline]
            fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for bool {
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision.
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// Uniform on `[0, 1)` with 24 bits of precision.
    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

// The span and the offset are taken in the unsigned type of the same
// width, so signed ranges such as `-5i32..6` work; for unsigned types both
// wrapping operations are exact and the stream is unchanged.
macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(reduce(rng.next_u64(), span) as $u as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(reduce(rng.next_u64(), span + 1) as $u as $t)
            }
        }
    )*};
}

impl_sample_range_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + f64::random(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + f64::random(rng) * (hi - lo)
    }
}

/// Maps a uniform `u64` onto `0..span` with negligible bias (Lemire's
/// multiply-shift reduction).
#[inline]
fn reduce(x: u64, span: u64) -> u64 {
    ((x as u128 * span as u128) >> 64) as u64
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard RNG: xoshiro256** seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into four non-zero words.
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
        #[inline]
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** (Blackman & Vigna).
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

pub use rngs::StdRng as DefaultRng;

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.random_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = r.random_range(0.25f64..=0.5);
            assert!((0.25..=0.5).contains(&w));
        }
    }

    #[test]
    fn signed_ranges_cover_their_ends() {
        let mut r = StdRng::seed_from_u64(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.random_range(-3i32..4);
            assert!((-3..4).contains(&v));
            seen[(v + 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every value drawn: {seen:?}");
        let mut ends = (false, false);
        for _ in 0..10_000 {
            let b = r.random_range(i8::MIN..=i8::MAX);
            ends.0 |= b == i8::MIN;
            ends.1 |= b == i8::MAX;
        }
        assert_eq!(ends, (true, true));
        assert_eq!(r.random_range(-5i64..=-5), -5);
        for _ in 0..1000 {
            assert!(r.random_range(i64::MIN..i64::MAX) < i64::MAX);
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut r = StdRng::seed_from_u64(11);
        assert!(!r.random_bool(0.0));
        assert!(r.random_bool(1.0));
        let heads = (0..10_000).filter(|_| r.random_bool(0.3)).count();
        assert!((2_500..3_500).contains(&heads), "got {heads}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(1);
        let _ = r.random_range(5usize..5);
    }
}
