//! Offline stand-in for the `rand` crate, and the generator that defines
//! every seeded input of this workspace.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a minimal, deterministic implementation of the subset
//! of the `rand` 0.10 API it actually uses: [`Rng`]/[`RngExt`],
//! [`SeedableRng`], [`rngs::StdRng`], `random`, `random_bool` and
//! `random_range`.
//!
//! **The stream is this crate's own.** [`rngs::StdRng`] is xoshiro256**
//! seeded through SplitMix64. rand's `StdRng` is a different generator
//! (ChaCha12), and its sampling methods map draws to values differently.
//! Every seeded input in the workspace, the digests pinned on them and the
//! golden files under `results/` are defined by this stream, so swapping
//! the real crate back in is not only a `Cargo.toml` change: it would
//! change all of them.
//!
//! Two extensions that rand does not have let a generator split the stream
//! exactly:
//!
//! * [`rngs::Jump`] and [`rngs::StdRng::advance`] move a generator `n`
//!   draws ahead for any `n`, leaving it in exactly the state `n` calls of
//!   `next_u64` would, in about 256 steps.
//! * [`rngs::Lanes`] steps `L` generators together, one draw each per
//!   step. Lane `l` yields exactly the stream of the `l`-th generator it
//!   was built from, and `StdRng::next_u64` is the one-lane case, so the
//!   workspace has one xoshiro256** step.

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

/// Named generators, mirroring `rand::rngs`, and this workspace's two
/// extensions of them: [`Jump`](rngs::Jump) and [`Lanes`](rngs::Lanes).
pub mod rngs {
    use super::poly::{self, Poly};
    use super::{Rng, SeedableRng};

    /// The workspace's standard RNG: xoshiro256** seeded via SplitMix64. It
    /// is the one-lane [`Lanes`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(Lanes<1>);

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
            StdRng(Lanes {
                s: [[next()], [next()], [next()], [next()]],
            })
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let [x] = self.0.next_u64s();
            x
        }
    }

    impl StdRng {
        /// Moves the generator `n` draws ahead: afterwards it is in exactly
        /// the state `n` calls of `next_u64` would have left. Computing the
        /// jump costs about `log₂ n` polynomial squarings; to repeat one
        /// distance, make its [`Jump`] once and [`jump`](Self::jump) by it.
        pub fn advance(&mut self, n: u64) {
            self.jump(&Jump::ahead(n));
        }

        /// Moves the generator ahead by `jump`'s distance, in 256 steps of
        /// a copy of the state: `r(T)·s`, the XOR of `Tⁱ·s` over the
        /// coefficients `i` set in `r`.
        pub fn jump(&mut self, jump: &Jump) {
            let mut acc = [[0u64; 1]; 4];
            let mut copy = self.0.clone();
            for i in 0..256 {
                if jump.0[i / 64] >> (i % 64) & 1 == 1 {
                    for (a, w) in acc.iter_mut().zip(&copy.s) {
                        a[0] ^= w[0];
                    }
                }
                copy.next_u64s();
            }
            self.0.s = acc;
        }
    }

    /// A fixed distance ahead in the stream, reusable on any [`StdRng`].
    ///
    /// xoshiro256's state transition `T` is linear over GF(2), and its
    /// characteristic polynomial `P` has `P(T) = 0` (Cayley–Hamilton). So
    /// `n` steps, `Tⁿ`, equal `r(T)` for `r(x) = xⁿ mod P(x)`, a polynomial
    /// of degree below 256 that [`StdRng::jump`] applies.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Jump(Poly);

    impl Jump {
        /// The jump `n` draws ahead: `xⁿ mod P` by left-to-right
        /// square-and-multiply over the bits of `n`.
        pub fn ahead(n: u64) -> Jump {
            let mut r: Poly = [1, 0, 0, 0];
            for bit in (0..u64::BITS - n.leading_zeros()).rev() {
                r = poly::square(r);
                if n >> bit & 1 == 1 {
                    r = poly::times_x(r);
                }
            }
            Jump(r)
        }
    }

    /// `L` xoshiro256** generators stepped together.
    ///
    /// The state is held word-major, `[[u64; L]; 4]`, so each state word
    /// of all `L` lanes is one array that a vector register of `L · 64`
    /// bits holds whole, and one step is a few vector operations. Lane `l`
    /// yields exactly the stream of the `l`-th generator the lanes were
    /// built from; start the lanes at [`jump`](StdRng::jump)ed copies of
    /// one generator to draw disjoint pieces of its stream at once.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Lanes<const L: usize> {
        s: [[u64; L]; 4],
    }

    impl<const L: usize> Lanes<L> {
        /// Lanes that continue `gens`' streams, lane `l` that of `gens[l]`.
        pub fn new(gens: [StdRng; L]) -> Self {
            Lanes {
                s: std::array::from_fn(|k| std::array::from_fn(|l| gens[l].0.s[k][0])),
            }
        }

        /// One draw from every lane: the workspace's one xoshiro256** step
        /// (Blackman and Vigna), on each lane.
        #[inline(always)]
        pub fn next_u64s(&mut self) -> [u64; L] {
            let [s0, s1, s2, s3] = &mut self.s;
            let mut out = [0; L];
            #[allow(clippy::needless_range_loop)] // l indexes all five arrays
            for l in 0..L {
                out[l] = s1[l].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
                let t = s1[l] << 17;
                s2[l] ^= s0[l];
                s3[l] ^= s1[l];
                s1[l] ^= s2[l];
                s0[l] ^= s3[l];
                s2[l] ^= t;
                s3[l] = s3[l].rotate_left(45);
            }
            out
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::poly::CHAR_POLY;

        /// `P(T)·s = 0`: XOR-ing `Tⁱ·s` over `P`'s coefficients, `x²⁵⁶`
        /// included, gives the zero state.
        #[test]
        fn char_poly_annihilates_the_state() {
            for seed in [0, 7, u64::MAX] {
                let mut t = StdRng::seed_from_u64(seed).0;
                let mut acc = [[0u64; 1]; 4];
                for i in 0..=256 {
                    if i == 256 || CHAR_POLY[i / 64] >> (i % 64) & 1 == 1 {
                        for (a, w) in acc.iter_mut().zip(&t.s) {
                            a[0] ^= w[0];
                        }
                    }
                    t.next_u64s();
                }
                assert_eq!(acc, [[0; 1]; 4], "seed {seed}");
            }
        }
    }
}

/// Polynomials over GF(2) modulo xoshiro256's characteristic polynomial,
/// the arithmetic of [`rngs::Jump`].
mod poly {
    /// A polynomial of degree below 256: bit `i % 64` of word `i / 64` is
    /// the coefficient of `xⁱ`.
    pub(crate) type Poly = [u64; 4];

    /// The characteristic polynomial `P(x)` of xoshiro256's state
    /// transition, without its leading `x²⁵⁶`: so `x²⁵⁶ ≡ CHAR_POLY`
    /// modulo `P`. Its weight, with the leading term, is 115; the tests
    /// check that `P(T)` annihilates the state and that `x^(2¹²⁸) mod P`
    /// is the published `jump()` polynomial.
    pub(crate) const CHAR_POLY: Poly = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// `a · x mod P`.
    pub(crate) fn times_x(a: Poly) -> Poly {
        let mut out = [
            a[0] << 1,
            a[1] << 1 | a[0] >> 63,
            a[2] << 1 | a[1] >> 63,
            a[3] << 1 | a[2] >> 63,
        ];
        if a[3] >> 63 == 1 {
            for (o, p) in out.iter_mut().zip(CHAR_POLY) {
                *o ^= p;
            }
        }
        out
    }

    /// `a² mod P`. Over GF(2) squaring only spreads the coefficients, `xⁱ`
    /// to `x²ⁱ`; the product's terms from `x²⁵⁶` up then fold back, from
    /// the top, through `x²⁵⁶⁺ᵏ ≡ xᵏ · CHAR_POLY`, whose degree is below
    /// `256 + k`.
    pub(crate) fn square(a: Poly) -> Poly {
        let mut wide = [0u64; 8];
        for (i, &w) in a.iter().enumerate() {
            wide[2 * i] = spread(w as u32);
            wide[2 * i + 1] = spread((w >> 32) as u32);
        }
        for bit in (256..512).rev() {
            if wide[bit / 64] >> (bit % 64) & 1 == 1 {
                wide[bit / 64] ^= 1 << (bit % 64);
                let (word, shift) = ((bit - 256) / 64, (bit - 256) % 64);
                for (j, p) in CHAR_POLY.into_iter().enumerate() {
                    wide[word + j] ^= p << shift;
                    if shift != 0 {
                        wide[word + j + 1] ^= p >> (64 - shift);
                    }
                }
            }
        }
        [wide[0], wide[1], wide[2], wide[3]]
    }

    /// Bit `i` of `x` moved to bit `2i`, the odd bits zero.
    fn spread(x: u32) -> u64 {
        let mut x = u64::from(x);
        x = (x | x << 16) & 0x0000_ffff_0000_ffff;
        x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
        x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | x << 2) & 0x3333_3333_3333_3333;
        (x | x << 1) & 0x5555_5555_5555_5555
    }
}

pub use rngs::StdRng as DefaultRng;

#[cfg(test)]
mod tests {
    use super::poly::{self, Poly};
    use super::rngs::{Jump, Lanes, StdRng};
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

    /// The raw stream, as seeding and stepping produce it: every seeded
    /// input, pinned digest and golden file in the workspace rests on it.
    #[test]
    fn first_draws_are_pinned() {
        for (seed, want) in [
            (
                0,
                [
                    0x99ec_5f36_cb75_f2b4,
                    0xbf6e_1f78_4956_452a,
                    0x1a5f_849d_4933_e6e0,
                    0x6aa5_94f1_262d_2d2c,
                ],
            ),
            (
                42,
                [
                    0x1578_0b2e_0c2e_c716,
                    0x6104_d986_6d11_3a7e,
                    0xae17_5332_39e4_99a1,
                    0xecb8_ad47_03b3_60a1,
                ],
            ),
            (
                u64::MAX,
                [
                    0x8f55_20d5_2a7e_ad08,
                    0xc476_a018_caa1_802d,
                    0x81de_31c0_d260_469e,
                    0xbf65_8d7e_065f_3c2f,
                ],
            ),
        ] {
            let mut r = StdRng::seed_from_u64(seed);
            assert_eq!([(); 4].map(|_| r.next_u64()), want, "seed {seed}");
        }
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

    #[test]
    fn char_poly_gives_the_published_jumps() {
        // Blackman and Vigna's `jump()` and `long_jump()` for xoshiro256
        // XOR together the states at the coefficients of x^(2¹²⁸) and
        // x^(2¹⁹²) modulo its characteristic polynomial.
        let mut r: Poly = [2, 0, 0, 0];
        for squarings in 1..=192 {
            r = poly::square(r);
            match squarings {
                128 => assert_eq!(
                    r,
                    [
                        0x180e_c6d3_3cfd_0aba,
                        0xd5a6_1266_f0c9_392c,
                        0xa958_2618_e03f_c9aa,
                        0x39ab_dc45_29b1_661c,
                    ]
                ),
                192 => assert_eq!(
                    r,
                    [
                        0x76e1_5d3e_fefd_cbbf,
                        0xc500_4e44_1c52_2fb3,
                        0x7771_0069_854e_e241,
                        0x3910_9bb0_2acb_e635,
                    ]
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn advance_equals_that_many_draws() {
        let start = StdRng::seed_from_u64(3);
        let mut stepped = start.clone();
        for n in 0..=4096 {
            let mut jumped = start.clone();
            jumped.advance(n);
            assert_eq!(jumped, stepped, "n = {n}");
            stepped.next_u64();
        }
    }

    #[test]
    fn far_jumps_land_where_a_sequential_run_does() {
        // 2²⁴ draws, and one draw per bit of the 39 995 × 1024 database.
        let stops = [1 << 24, (1 << 24) + 1, 39_995 * 1024];
        let start = StdRng::seed_from_u64(104_729);
        let mut stepped = start.clone();
        let mut at = 0;
        for n in stops {
            (at..n).for_each(|_| {
                stepped.next_u64();
            });
            at = n;
            let mut jumped = start.clone();
            jumped.advance(n);
            assert_eq!(jumped, stepped, "n = {n}");
        }
    }

    #[test]
    fn jumps_compose() {
        let mut x = StdRng::seed_from_u64(17);
        let start = StdRng::seed_from_u64(5);
        for _ in 0..64 {
            let (a, b) = (x.next_u64() >> 2, x.next_u64() >> 2);
            let mut twice = start.clone();
            twice.advance(a);
            twice.jump(&Jump::ahead(b));
            let mut once = start.clone();
            once.advance(a + b);
            assert_eq!(twice, once, "{a} + {b}");
        }
        // One `Jump` reused: eight strides of q are one jump of 8q.
        let q = 4999 * 1024;
        let stride = Jump::ahead(q);
        let mut strided = start.clone();
        (0..8).for_each(|_| strided.jump(&stride));
        let mut once = start.clone();
        once.advance(8 * q);
        assert_eq!(strided, once);
    }

    #[test]
    fn lanes_continue_each_generators_stream() {
        let gens: [StdRng; 8] = std::array::from_fn(|l| StdRng::seed_from_u64(l as u64));
        let mut each = gens.clone();
        let mut lanes = Lanes::new(gens);
        for _ in 0..1000 {
            assert_eq!(lanes.next_u64s(), each.each_mut().map(|g| g.next_u64()));
        }
    }
}
