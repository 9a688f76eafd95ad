//! Portable 4-lane wide popcount for the microkernel's lane tiers.
//!
//! [`W64x4`] is an explicit `u64x4`-style vector: a `#[repr(align(32))]`
//! wrapper over `[u64; 4]` whose lane-wise bit operations and SWAR popcount
//! are written as straight-line per-lane arithmetic so the auto-vectorizer
//! lowers them to 256-bit vector instructions where the target has them —
//! no `core::simd`, no target intrinsics, stable everywhere. The vector
//! width deliberately equals the microkernel's `NR` register tile, so one
//! vector holds the four B lanes of a shared-dimension step and the
//! Harley–Seal tree of [`popcount8_lanes`] reduces all four γ columns at
//! once.
//!
//! Everything is exact bit arithmetic; the scalar one-popcount-per-word
//! loop (`microkernel_scalar`) remains the correctness oracle, and the
//! property tests pin every tier bit-identical to it.

/// Four 64-bit lanes, aligned to the 256-bit vector width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(32))]
pub struct W64x4(pub [u64; 4]);

impl W64x4 {
    /// Lane count — must match the microkernel's `NR`.
    pub const LANES: usize = 4;

    /// All lanes equal to `x`.
    #[inline(always)]
    pub fn splat(x: u64) -> Self {
        W64x4([x; 4])
    }

    /// Loads the first four words of `w`.
    #[inline(always)]
    pub fn load(w: &[u64]) -> Self {
        W64x4([w[0], w[1], w[2], w[3]])
    }

    /// Lane-wise wrapping add.
    #[inline(always)]
    pub fn wrapping_add(self, o: Self) -> Self {
        W64x4(std::array::from_fn(|l| self.0[l].wrapping_add(o.0[l])))
    }

    /// Lane-wise SWAR population count: each lane is replaced by its own
    /// `count_ones()`, computed with the classic 0x5555…/0x3333…/0x0f0f…
    /// reduction so the whole vector popcounts without leaving the lanes.
    #[inline(always)]
    pub fn popcount_lanes(self) -> Self {
        W64x4(std::array::from_fn(|l| {
            let mut x = self.0[l];
            x -= (x >> 1) & 0x5555_5555_5555_5555;
            x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
            x = (x + (x >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
            x.wrapping_mul(0x0101_0101_0101_0101) >> 56
        }))
    }

    /// The lanes narrowed to `u32` (valid after [`Self::popcount_lanes`]
    /// sums, which are ≤ 8 × 64 per lane).
    #[inline(always)]
    pub fn lanes_u32(self) -> [u32; 4] {
        std::array::from_fn(|l| self.0[l] as u32)
    }
}

impl std::ops::BitAnd for W64x4 {
    type Output = W64x4;
    #[inline(always)]
    fn bitand(self, o: Self) -> Self {
        W64x4(std::array::from_fn(|l| self.0[l] & o.0[l]))
    }
}

impl std::ops::BitOr for W64x4 {
    type Output = W64x4;
    #[inline(always)]
    fn bitor(self, o: Self) -> Self {
        W64x4(std::array::from_fn(|l| self.0[l] | o.0[l]))
    }
}

impl std::ops::BitXor for W64x4 {
    type Output = W64x4;
    #[inline(always)]
    fn bitxor(self, o: Self) -> Self {
        W64x4(std::array::from_fn(|l| self.0[l] ^ o.0[l]))
    }
}

impl std::ops::Not for W64x4 {
    type Output = W64x4;
    #[inline(always)]
    fn not(self) -> Self {
        W64x4(std::array::from_fn(|l| !self.0[l]))
    }
}

/// Lane-wise half adder: `a + b = sum + 2·carry` in every bit column of
/// every lane.
#[inline(always)]
pub fn half_v(a: W64x4, b: W64x4) -> (W64x4, W64x4) {
    (a ^ b, a & b)
}

/// Lane-wise carry-save adder: `s + a + b = sum + 2·carry` in every bit
/// column of every lane.
#[inline(always)]
pub fn csa_v(s: W64x4, a: W64x4, b: W64x4) -> (W64x4, W64x4) {
    let u = s ^ a;
    (u ^ b, (s & a) | (u & b))
}

/// Population count of 8 vectors, per lane, through a Harley–Seal
/// carry-save adder tree: the eight words of each lane are reduced
/// bit-column-wise to weight-1/2/4/8 counters and only those are
/// popcounted — 4 wide popcounts instead of 32 scalar ones.
#[inline(always)]
pub fn popcount8_lanes(w: &[W64x4; 8]) -> [u32; 4] {
    let (a1, c1) = half_v(w[0], w[1]);
    let (a2, c2) = half_v(w[2], w[3]);
    let (a3, c3) = half_v(w[4], w[5]);
    let (a4, c4) = half_v(w[6], w[7]);
    let (b1, d1) = half_v(a1, a2);
    let (b2, d2) = half_v(a3, a4);
    let (ones, d3) = half_v(b1, b2);
    let (e1, f1) = csa_v(c1, c2, c3);
    let (e2, f2) = csa_v(c4, d1, d2);
    let (twos, f3) = csa_v(e1, e2, d3);
    let (fours, eights) = csa_v(f1, f2, f3);
    // total = pc(ones) + 2·pc(twos) + 4·pc(fours) + 8·pc(eights), lane-wise;
    // the weights are lane shifts, the sums stay well inside u64.
    let two = twos.popcount_lanes();
    let four = fours.popcount_lanes();
    let eight = eights.popcount_lanes();
    ones.popcount_lanes()
        .wrapping_add(two.wrapping_add(two))
        .wrapping_add(W64x4(std::array::from_fn(|l| four.0[l] << 2)))
        .wrapping_add(W64x4(std::array::from_fn(|l| eight.0[l] << 3)))
        .lanes_u32()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word stream (SplitMix64) without external dependencies.
    fn stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut x = seed;
        std::iter::repeat_with(move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn swar_popcount_matches_count_ones() {
        for w in stream(11).take(400) {
            let v = W64x4([w, !w, w.rotate_left(13), 0]);
            let pc = v.popcount_lanes();
            for l in 0..4 {
                assert_eq!(pc.0[l], v.0[l].count_ones() as u64, "lane {l} of {w:#x}");
            }
        }
        assert_eq!(W64x4::splat(u64::MAX).popcount_lanes(), W64x4::splat(64));
        assert_eq!(W64x4::splat(0).popcount_lanes(), W64x4::splat(0));
    }

    #[test]
    fn popcount8_lanes_matches_count_ones() {
        let words: Vec<u64> = stream(23).take(8 * 4 * 50).collect();
        for chunk in words.chunks_exact(8 * 4) {
            let w: [W64x4; 8] = std::array::from_fn(|p| W64x4::load(&chunk[p * 4..]));
            let got = popcount8_lanes(&w);
            for (l, &g) in got.iter().enumerate() {
                let want: u32 = w.iter().map(|v| v.0[l].count_ones()).sum();
                assert_eq!(g, want, "lane {l}");
            }
        }
        assert_eq!(popcount8_lanes(&[W64x4::splat(u64::MAX); 8]), [8 * 64; 4]);
    }

    #[test]
    fn lane_adders_are_column_adders() {
        let mut it = stream(31);
        for _ in 0..100 {
            let a = W64x4::load(&it.by_ref().take(4).collect::<Vec<_>>());
            let b = W64x4::load(&it.by_ref().take(4).collect::<Vec<_>>());
            let s = W64x4::load(&it.by_ref().take(4).collect::<Vec<_>>());
            let (sum, carry) = half_v(a, b);
            let (csum, ccarry) = csa_v(s, a, b);
            for l in 0..4 {
                assert_eq!(
                    sum.0[l].count_ones() + 2 * carry.0[l].count_ones(),
                    a.0[l].count_ones() + b.0[l].count_ones()
                );
                assert_eq!(
                    csum.0[l].count_ones() + 2 * ccarry.0[l].count_ones(),
                    s.0[l].count_ones() + a.0[l].count_ones() + b.0[l].count_ones()
                );
            }
        }
    }
}
