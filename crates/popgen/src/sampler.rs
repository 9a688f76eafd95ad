//! Bernoulli bits a 64-bit word at a time, from the draws `random_bool`
//! makes.
//!
//! `random_bool(p)` draws one `next_u64` `x` and returns
//! `(x >> 11) as f64 · 2⁻⁵³ < p`. Both sides are exact in `f64`: the 53-bit
//! integer converts exactly, and scaling by a power of two only moves the
//! exponent. So the draw is `true` exactly when the integer `x >> 11` is
//! below the real `p · 2⁵³`, that is below [`threshold`]`(p) = ⌈p · 2⁵³⌉`,
//! which is at most `2⁵³` and so exact too. [`words`] makes that integer
//! compare once per bit and packs the results, bit `i` of a word from its
//! `i`-th draw. A row built from it consumes the stream exactly as the
//! per-bit loop `if rng.random_bool(p[c]) { m.set(r, c, true) }` over the
//! row's columns would, and a ragged last word draws only its own columns,
//! so the padding stays zero.

use rand::Rng;

/// `⌈p · 2⁵³⌉`: `random_bool(p)` is `true` exactly when `next_u64() >> 11`
/// is below it. Panics, as `random_bool` does, if `p` is not in `[0, 1]`.
pub(crate) fn threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The words of one row of Bernoulli bits: column `c` is set with the
/// probability whose [`threshold`] is `thresholds[c]`, from one draw per
/// column in column order. Each word draws when it is pulled, so zipping
/// with a row of `⌈thresholds.len() / 64⌉` words draws the whole row.
pub(crate) fn words<'a, R: Rng + ?Sized>(
    rng: &'a mut R,
    thresholds: &'a [u64],
) -> impl Iterator<Item = u64> + 'a {
    thresholds.chunks(64).map(move |word| {
        word.iter().enumerate().fold(0, |bits, (i, &t)| {
            bits | u64::from((rng.next_u64() >> 11) < t) << i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The probabilities at the edges of the compare: never, the smallest
    /// step, one half, one step short of always, always.
    const EDGES: [f64; 5] = [
        0.0,
        1.0 / (1u64 << 53) as f64,
        0.5,
        1.0 - 1.0 / (1u64 << 53) as f64,
        1.0,
    ];

    /// An RNG that replays fixed draws.
    #[derive(Clone)]
    struct Replay(std::vec::IntoIter<u64>);

    impl Rng for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("replayed draws run out")
        }
    }

    /// One column drawn through [`words`].
    fn bit(rng: &mut impl Rng, t: u64) -> bool {
        words(rng, &[t]).next() == Some(1)
    }

    #[test]
    fn threshold_decides_as_random_bool_does() {
        for p in EDGES.into_iter().chain([0.3, 0.01, 1e-300, 5e-324]) {
            let t = threshold(p);
            let mut a = StdRng::seed_from_u64(p.to_bits());
            let mut b = a.clone();
            for _ in 0..10_000 {
                assert_eq!(a.random_bool(p), bit(&mut b, t), "p = {p}");
            }
            // The draws on either side of the boundary, with random low bits.
            let ints = [0, 1, t.saturating_sub(1), t, t + 1, (1 << 53) - 1];
            let draws: Vec<u64> = ints
                .iter()
                .filter(|&&u| u < 1 << 53)
                .map(|&u| u << 11 | (b.next_u64() >> 53))
                .collect();
            let mut a = Replay(draws.clone().into_iter());
            let mut b = a.clone();
            for x in draws {
                assert_eq!(a.random_bool(p), bit(&mut b, t), "p = {p}, x = {x:#x}");
            }
        }
        assert_eq!(
            EDGES.map(threshold),
            [0, 1, 1 << 52, (1 << 53) - 1, 1 << 53]
        );
    }

    #[test]
    fn words_pack_one_draw_per_column_in_order() {
        let thresholds: Vec<u64> = (0..130).map(|c| threshold(c as f64 / 129.0)).collect();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = a.clone();
        let packed: Vec<u64> = words(&mut a, &thresholds).collect();
        assert_eq!(packed.len(), 3);
        for c in 0..130 {
            let bit = packed[c / 64] >> (c % 64) & 1 == 1;
            assert_eq!(bit, b.random_bool(c as f64 / 129.0), "column {c}");
        }
        assert_eq!(packed[2] >> 2, 0, "the ragged word's padding is zero");
        assert_eq!(a.next_u64(), b.next_u64(), "both drew 130 times");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn threshold_rejects_what_random_bool_rejects() {
        threshold(f64::NAN);
    }
}
