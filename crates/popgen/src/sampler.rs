//! Bernoulli bits a 64-bit word at a time, from the draws `random_bool`
//! makes, on one generator or on eight at once.
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
//!
//! [`lane_rows`] makes the same words on [`LANES`] generators at once, one
//! draw per lane per column. Started at the draw index a row has in the
//! sequential stream (the `rand` shim's `Jump` gets there exactly), a lane
//! writes the words [`words`] would. Its eight u64 lanes fill one 512-bit
//! register, and only that build of it beats [`words`]: callers take it
//! through [`lane_rows_avx512`] where [`lanes_run`], and use [`words`]
//! everywhere else.

use rand::rngs::Lanes;
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

/// Generators [`lane_rows_avx512`] steps at once: eight u64 lanes are one
/// 512-bit register.
pub(crate) const LANES: usize = 8;

/// The words of `rows` rows of `cols` columns on each of `L` lanes. In row
/// `i`, lane `l` sets column `c` when its draw is below
/// `threshold(i, c)[l]`, one draw per lane per column in column order, and
/// a ragged last word draws only its own columns: each lane draws exactly
/// as [`words`] does over its rows. `put(i, w, bits)` takes word `w` of row
/// `i`, lane `l`'s in `bits[l]`.
#[inline(always)]
pub(crate) fn lane_rows<const L: usize>(
    lanes: &mut Lanes<L>,
    rows: usize,
    cols: usize,
    threshold: impl Fn(usize, usize) -> [u64; L],
    mut put: impl FnMut(usize, usize, [u64; L]),
) {
    for i in 0..rows {
        for (w, first) in (0..cols).step_by(64).enumerate() {
            let mut bits = [0; L];
            for b in 0..(cols - first).min(64) {
                let t = threshold(i, first + b);
                let x = lanes.next_u64s();
                for l in 0..L {
                    bits[l] |= u64::from((x[l] >> 11) < t[l]) << b;
                }
            }
            put(i, w, bits);
        }
    }
}

/// Whether this CPU runs [`lane_rows_avx512`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn lanes_run() -> bool {
    // std caches the answer after the first query.
    is_x86_feature_detected!("avx512f")
}

/// Whether this CPU runs [`lane_rows_avx512`].
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn lanes_run() -> bool {
    false
}

/// [`lane_rows`] on [`LANES`] lanes, compiled for AVX-512. Panics unless
/// [`lanes_run`]; callers ask first, since without AVX-512 [`words`] is
/// faster than any build of the lanes.
pub(crate) fn lane_rows_avx512(
    lanes: &mut Lanes<LANES>,
    rows: usize,
    cols: usize,
    threshold: impl Fn(usize, usize) -> [u64; LANES],
    put: impl FnMut(usize, usize, [u64; LANES]),
) {
    assert!(lanes_run(), "the lane kernel needs avx512f");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above checked that this CPU supports avx512f.
    unsafe {
        avx512(lanes, rows, cols, threshold, put)
    }
    #[cfg(not(target_arch = "x86_64"))]
    lane_rows(lanes, rows, cols, threshold, put)
}

/// The AVX-512 build of [`lane_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512(
    lanes: &mut Lanes<LANES>,
    rows: usize,
    cols: usize,
    threshold: impl Fn(usize, usize) -> [u64; LANES],
    put: impl FnMut(usize, usize, [u64; LANES]),
) {
    lane_rows(lanes, rows, cols, threshold, put)
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

    /// A lane kernel under test: [`lane_rows`] or [`lane_rows_avx512`].
    type Kernel = fn(
        &mut Lanes<LANES>,
        usize,
        usize,
        &dyn Fn(usize, usize) -> [u64; LANES],
        &mut dyn FnMut(usize, usize, [u64; LANES]),
    );

    /// Runs `kernel` (the lane body or its AVX-512 entry) at every row
    /// count in 0..=40 and at widths on either side of each word boundary
    /// up to 200, with a threshold per row, column and lane taken from the
    /// compare's edges and random values; each lane's rows must be what
    /// [`words`] draws from its generator, which must end where the lane
    /// does.
    fn check_lanes_against_words(kernel: Kernel) {
        let mut pick = StdRng::seed_from_u64(11);
        for rows in 0..=40 {
            let random_cols: usize = pick.random_range(1..=200);
            for cols in [1, 63, 64, 65, 127, 128, 200, random_cols] {
                let edges = [0, 1, 1 << 52, (1 << 53) - 1, 1 << 53];
                let t: Vec<Vec<[u64; LANES]>> = (0..rows)
                    .map(|_| {
                        (0..cols)
                            .map(|_| {
                                std::array::from_fn(|_| match pick.random_range(0..10) {
                                    e @ 0..5 => edges[e],
                                    _ => pick.random_range(0..=1 << 53),
                                })
                            })
                            .collect()
                    })
                    .collect();
                let seed = pick.next_u64() >> 8;
                let mut gens: [StdRng; LANES] =
                    std::array::from_fn(|l| StdRng::seed_from_u64(seed + l as u64));
                let mut lanes = Lanes::new(gens.clone());
                let wpr = cols.div_ceil(64);
                let mut got = vec![vec![[0u64; LANES]; wpr]; rows];
                kernel(
                    &mut lanes,
                    rows,
                    cols,
                    &|i, c| t[i][c],
                    &mut |i, w, bits| got[i][w] = bits,
                );
                for (l, gen) in gens.iter_mut().enumerate() {
                    for (i, row) in got.iter().enumerate() {
                        let lane_t: Vec<u64> = t[i].iter().map(|t| t[l]).collect();
                        let want: Vec<u64> = words(gen, &lane_t).collect();
                        let lane_row: Vec<u64> = row.iter().map(|w| w[l]).collect();
                        assert_eq!(lane_row, want, "{rows} × {cols}: lane {l}, row {i}");
                    }
                }
                assert_eq!(lanes, Lanes::new(gens), "{rows} × {cols}: same draw counts");
            }
        }
    }

    #[test]
    fn lane_body_draws_as_words_does() {
        check_lanes_against_words(|lanes, rows, cols, t, put| lane_rows(lanes, rows, cols, t, put));
    }

    #[test]
    fn avx512_lanes_draw_as_words_does() {
        if !lanes_run() {
            eprintln!("no avx512f: only the lane body is checked");
            return;
        }
        check_lanes_against_words(|lanes, rows, cols, t, put| {
            lane_rows_avx512(lanes, rows, cols, t, put)
        });
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn threshold_rejects_what_random_bool_rejects() {
        threshold(f64::NAN);
    }
}
