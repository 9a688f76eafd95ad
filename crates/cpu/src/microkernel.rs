//! The popcount microkernel.
//!
//! The entire architecture-specific part of the CPU engine, exactly as in
//! \[11\]: an `MR × NR` block of `γ` accumulators updated along the shared
//! dimension with the three-instruction sequence
//! `γ += POPC(a ⋄ b)` (paper §III). A arrives as a packed panel (word-major,
//! produced by [`snp_bitmat::PackedPanels`]). B arrives as a strided
//! [`BView`], so the loop nests can hand over `NR` rows of a
//! [`BitMatrix`] where they already are, or a packed panel.
//!
//! [`microkernel`] is the production path. The release build targets
//! baseline x86-64, where `count_ones()` lowers to a SWAR sequence, so the
//! kernel picks its popcount instruction at run time, once per process
//! ([`Tier::detected`]), from three tiers that compute bit-identical counts:
//!
//! * [`Tier::Vpopcntq`] — AVX-512 `VPOPCNTQ`. One zmm register holds the
//!   `MR` A words of a shared-dimension step; each of the `NR` B words is
//!   broadcast straight from the view, combined with it by one
//!   `VPTERNLOGQ`, popcounted by one `VPOPCNTQ` and added into its own u64
//!   zmm accumulator. The four accumulators are added into the u32 tile
//!   once per call.
//! * [`Tier::Avx2`] — the 4-lane Harley–Seal tree of [`crate::simd`]
//!   compiled with AVX2 enabled, so one [`W64x4`] is one ymm register.
//! * [`Tier::Portable`] — the same tree as compiled for the build target;
//!   the only tier on targets other than x86-64.
//!
//! Both lane tiers copy each [`CSA_BLOCK`]-deep slab of the view into a
//! local packed array, run it through the tree, and run the
//! `k % CSA_BLOCK` remainder through the scalar loop.
//!
//! Every entry point asserts that the operands cover `k` steps before it
//! enters `unsafe`; the tiers then read B without per-word bounds checks.
//! [`microkernel_scalar`], one `count_ones()` per combined word in safe
//! code, is the oracle every tier is tested against through
//! [`microkernel_tier`].

use std::sync::OnceLock;

use snp_bitmat::{BitMatrix, CompareOp};

use crate::blocking::{MR, NR};
use crate::simd::{popcount8_lanes, W64x4};

const _: () = assert!(NR == W64x4::LANES, "the SIMD lane width is the NR tile");

/// Shared-dimension steps folded per Harley–Seal tree in the lane tiers.
pub const CSA_BLOCK: usize = 8;

/// The popcount instruction a [`microkernel`] call runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// AVX-512 `VPOPCNTQ` (x86-64 with `avx512f` and `avx512vpopcntdq`).
    Vpopcntq,
    /// The [`W64x4`] lane compiled for AVX2 (x86-64 with `avx2`).
    Avx2,
    /// The [`W64x4`] lane compiled for the build target; runs everywhere.
    Portable,
}

impl Tier {
    /// Every tier, fastest first.
    pub const ALL: [Tier; 3] = [Tier::Vpopcntq, Tier::Avx2, Tier::Portable];

    /// The fastest tier this CPU supports; detected on the first call and
    /// fixed for the rest of the process.
    pub fn detected() -> Tier {
        static DETECTED: OnceLock<Tier> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            Tier::ALL
                .into_iter()
                .find(|t| t.available())
                .expect("the portable tier is always available")
        })
    }

    /// Whether this CPU can run the tier.
    pub fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Vpopcntq => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Vpopcntq | Tier::Avx2 => false,
            Tier::Portable => true,
        }
    }
}

/// The short lower-case name `snpgpu cpu` reports.
impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::Vpopcntq => "vpopcntq",
            Tier::Avx2 => "avx2",
            Tier::Portable => "portable",
        })
    }
}

/// The `NR` rows of B one microkernel call reads: word `p` of row `j` is
/// `words[j·row_stride + p·word_stride]`.
///
/// A packed panel is the view with strides 1 and `NR`
/// ([`BView::packed`]); rows of a [`BitMatrix`] read in place have strides
/// `words_per_row` and 1 ([`BView::rows`]). A view may be shorter than any
/// `k`: each microkernel call asserts that it covers that call's `k` steps.
#[derive(Debug, Clone, Copy)]
pub struct BView<'a> {
    words: &'a [u64],
    row_stride: usize,
    word_stride: usize,
}

impl<'a> BView<'a> {
    /// The view of `words` with the given strides.
    pub fn new(words: &'a [u64], row_stride: usize, word_stride: usize) -> Self {
        BView {
            words,
            row_stride,
            word_stride,
        }
    }

    /// A packed panel: word `p` of row `j` at `panel[p·NR + j]`.
    pub fn packed(panel: &'a [u64]) -> Self {
        Self::new(panel, 1, NR)
    }

    /// Rows `row..row + NR` of `m` from word `word` on, read in place.
    ///
    /// Panics if `row` and `word` lie past the end of `m`.
    pub fn rows(m: &'a BitMatrix<u64>, row: usize, word: usize) -> Self {
        let wpr = m.words_per_row();
        Self::new(&m.words()[row * wpr + word..], wpr, 1)
    }

    /// Whether word `k − 1` of row `NR − 1`, the last one `k` steps read,
    /// lies inside the view (every view covers `k = 0`).
    fn covers(&self, k: usize) -> bool {
        k == 0
            || (NR - 1)
                .checked_mul(self.row_stride)
                .zip((k - 1).checked_mul(self.word_stride))
                .and_then(|(row, word)| row.checked_add(word))
                .is_some_and(|last| last < self.words.len())
    }

    /// Word `p` of row `j`, without a bounds check.
    ///
    /// # Safety
    ///
    /// `j < NR`, and `self.covers(k)` for some `k > p`.
    #[inline(always)]
    unsafe fn get_unchecked(&self, j: usize, p: usize) -> u64 {
        // SAFETY: with j ≤ NR − 1 and p ≤ k − 1, the index is at most the
        // last word `covers(k)` found inside `words`, and computing that
        // word did not overflow, so neither does this index.
        unsafe {
            *self
                .words
                .get_unchecked(j * self.row_stride + p * self.word_stride)
        }
    }
}

/// Computes `acc[i][j] += Σ_p popc(op(a_panel[p·MR + i], b_panel[p·NR + j]))`
/// for `p` in `0..k`, on the [`Tier::detected`] popcount instruction: the
/// packed-panel case of [`microkernel_view`].
///
/// `a_panel` must hold `k × MR` words, `b_panel` `k × NR` words.
#[inline]
pub fn microkernel(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b_panel: &[u64],
    acc: &mut [[u32; NR]; MR],
) {
    microkernel_view(op, k, a_panel, BView::packed(b_panel), acc)
}

/// Computes `acc[i][j] += Σ_p popc(op(a_panel[p·MR + i], b(j, p)))` for `p`
/// in `0..k`, where `b(j, p)` is word `p` of row `j` of the view, on the
/// [`Tier::detected`] popcount instruction.
///
/// Panics if `a_panel` holds fewer than `k × MR` words or `b` does not
/// cover `k` steps.
#[inline]
pub fn microkernel_view(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
) {
    check_operands(k, a_panel, &b);
    // SAFETY: `Tier::detected` returns only a tier this CPU supports, and
    // `check_operands` asserted that `b` covers `k` steps.
    unsafe { dispatch(Tier::detected(), op, k, a_panel, b, acc) }
}

/// [`microkernel_view`] on a chosen tier: the seam that lets tests run
/// every tier the host supports against [`microkernel_scalar`].
///
/// Panics if the operands are too short for `k`, or if this CPU cannot run
/// `tier`.
pub fn microkernel_tier(
    tier: Tier,
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
) {
    check_operands(k, a_panel, &b);
    assert!(
        tier.available(),
        "popcount tier {tier} is not available on this CPU"
    );
    // SAFETY: the asserts above checked that this CPU supports `tier` and
    // that `b` covers `k` steps.
    unsafe { dispatch(tier, op, k, a_panel, b, acc) }
}

/// Runs one microkernel call on `tier`.
///
/// # Safety
///
/// This CPU must support `tier` ([`Tier::available`]), and `b` must cover
/// `k` steps ([`BView::covers`]).
#[inline(always)]
unsafe fn dispatch(
    tier: Tier,
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Vpopcntq => {
            // `VPTERNLOGQ` looks each result bit up in an 8-bit truth table
            // indexed by its three operands' bits; with the first operand's
            // table `A` and the second's `B`, each operator's table is that
            // operator applied to them, and the third operand is ignored.
            const A: i32 = 0xF0;
            const B: i32 = 0xCC;
            let steps = match op {
                CompareOp::And => vpopcntq::<{ A & B }>,
                CompareOp::Xor => vpopcntq::<{ A ^ B }>,
                CompareOp::AndNot => vpopcntq::<{ A & !B }>,
            };
            // SAFETY: the caller guarantees `avx512f`, `avx512vpopcntdq` and
            // that `b` covers `k`.
            unsafe { steps(k, a_panel, b, acc) }
        }
        // SAFETY: the caller guarantees `avx2` and that `b` covers `k`.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { lane_avx2(op, k, a_panel, b, acc) },
        // SAFETY: the caller guarantees that `b` covers `k`.
        _ => unsafe { lane(op, k, a_panel, b, acc) },
    }
}

/// The [`Tier::Vpopcntq`] kernel for the operator whose `VPTERNLOGQ` truth
/// table is `TABLE`. It reads A through safe slices (stopping at the
/// shorter of `k` and the panel).
///
/// # Safety
///
/// This CPU must support `avx512f` and `avx512vpopcntdq`, and `b` must
/// cover `k` steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn vpopcntq<const TABLE: i32>(
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
) {
    use std::arch::x86_64::*;
    const _: () = assert!(MR * 64 == 512, "one zmm register holds the MR A lanes");

    let mut sums = [_mm512_setzero_si512(); NR];
    let (a_steps, _) = a_panel.as_chunks::<MR>();
    for (p, a) in a_steps.iter().enumerate().take(k) {
        // SAFETY: `a` is MR = 8 readable u64 words, one zmm; the load is
        // unaligned.
        let av = unsafe { _mm512_loadu_si512(a.as_ptr().cast()) };
        for (j, sum) in sums.iter_mut().enumerate() {
            // SAFETY: j < NR and p < k, and the caller guarantees that `b`
            // covers `k` steps.
            let bj = unsafe { b.get_unchecked(j, p) };
            let w = _mm512_ternarylogic_epi64::<TABLE>(av, _mm512_set1_epi64(bj as i64), av);
            *sum = _mm512_add_epi64(*sum, _mm512_popcnt_epi64(w));
        }
    }
    for (j, sum) in sums.into_iter().enumerate() {
        let mut lanes = [0u64; MR];
        // SAFETY: `lanes` is MR = 8 writable u64 words, one zmm; the store
        // is unaligned.
        unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), sum) };
        for (row, count) in acc.iter_mut().zip(lanes) {
            // A lane holds at most 64·k, which the u32 tile must hold anyway.
            row[j] += count as u32;
        }
    }
}

/// The [`Tier::Avx2`] kernel: [`lane`] compiled with AVX2 enabled.
///
/// # Safety
///
/// This CPU must support `avx2`, and `b` must cover `k` steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_avx2(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
) {
    // SAFETY: the caller guarantees that `b` covers `k`.
    unsafe { lane(op, k, a_panel, b, acc) }
}

/// The [`Tier::Portable`] kernel: the Harley–Seal tree of [`crate::simd`]
/// over `W64x4` vectors, one vector per shared-dimension step holding all
/// `NR` B lanes. Inlined so [`lane_avx2`] recompiles it.
///
/// # Safety
///
/// `b` must cover `k` steps.
#[inline(always)]
unsafe fn lane(op: CompareOp, k: usize, a_panel: &[u64], b: BView<'_>, acc: &mut [[u32; NR]; MR]) {
    // Monomorphize per operator so the combine compiles to a single
    // instruction (AND / XOR / ANDN) in the inner loop.
    // SAFETY: the caller guarantees that `b` covers `k`, and every arm
    // passes `b` and `k` on unchanged.
    unsafe {
        match op {
            CompareOp::And => lane_impl(k, a_panel, b, acc, |a, b| a & b),
            CompareOp::Xor => lane_impl(k, a_panel, b, acc, |a, b| a ^ b),
            CompareOp::AndNot => lane_impl(k, a_panel, b, acc, |a, b| a & !b),
        }
    }
}

/// See [`lane`], whose safety contract this shares.
#[inline(always)]
unsafe fn lane_impl(
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
    combine: impl Fn(u64, u64) -> u64 + Copy,
) {
    let combine_v =
        move |a: W64x4, b: W64x4| W64x4(std::array::from_fn(|l| combine(a.0[l], b.0[l])));
    let full = k - k % CSA_BLOCK;
    for p0 in (0..full).step_by(CSA_BLOCK) {
        let a: &[u64; CSA_BLOCK * MR] = a_panel[p0 * MR..(p0 + CSA_BLOCK) * MR].try_into().unwrap();
        // Gather the slab into packed order, row by row, so that each step
        // below is one vector load, as on a packed panel.
        let mut slab = [0u64; CSA_BLOCK * NR];
        for j in 0..NR {
            for p in 0..CSA_BLOCK {
                // SAFETY: j < NR and p0 + p < full ≤ k, and the caller
                // guarantees that `b` covers `k` steps.
                slab[p * NR + j] = unsafe { b.get_unchecked(j, p0 + p) };
            }
        }
        // One vector load per B step, reused across the MR rows.
        let bv: [W64x4; CSA_BLOCK] = std::array::from_fn(|p| W64x4::load(&slab[p * NR..]));
        #[allow(clippy::needless_range_loop)] // explicit row index keeps the tile obvious
        for i in 0..MR {
            let w: [W64x4; CSA_BLOCK] =
                std::array::from_fn(|p| combine_v(W64x4::splat(a[p * MR + i]), bv[p]));
            let counts = popcount8_lanes(&w);
            for j in 0..NR {
                acc[i][j] += counts[j];
            }
        }
    }
    scalar_steps(full, k, a_panel, b, acc, combine);
}

/// The one-popcount-per-word loop: one `count_ones()` per combined word,
/// in safe code. Exact same contract and results as [`microkernel`]; the
/// reference oracle every [`Tier`] is tested against, and the `scalar`
/// side of the `cpu/microkernel` Criterion comparison.
#[inline]
pub fn microkernel_scalar(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
) {
    check_operands(k, a_panel, &b);
    match op {
        CompareOp::And => scalar_steps(0, k, a_panel, b, acc, |a, b| a & b),
        CompareOp::Xor => scalar_steps(0, k, a_panel, b, acc, |a, b| a ^ b),
        CompareOp::AndNot => scalar_steps(0, k, a_panel, b, acc, |a, b| a & !b),
    }
}

#[inline(always)]
fn check_operands(k: usize, a_panel: &[u64], b: &BView<'_>) {
    assert!(
        a_panel.len() >= k * MR,
        "A panel too short: {} < {}",
        a_panel.len(),
        k * MR
    );
    assert!(b.covers(k), "B view too short for k = {k}");
}

/// Scalar accumulation of shared-dimension steps `lo..hi`, bounds-checked.
#[inline(always)]
fn scalar_steps(
    lo: usize,
    hi: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
    combine: impl Fn(u64, u64) -> u64 + Copy,
) {
    for p in lo..hi {
        // Fixed-size arrays of the current step let the compiler unroll
        // and keep everything in registers.
        let a: &[u64; MR] = a_panel[p * MR..p * MR + MR].try_into().unwrap();
        let bw: [u64; NR] = std::array::from_fn(|j| b.words[j * b.row_stride + p * b.word_stride]);
        for (acc_row, &ai) in acc.iter_mut().zip(a) {
            for (o, &bj) in acc_row.iter_mut().zip(&bw) {
                *o += combine(ai, bj).count_ones();
            }
        }
    }
}

/// A fresh zeroed accumulator tile.
#[inline]
pub fn zero_tile() -> [[u32; NR]; MR] {
    [[0u32; NR]; MR]
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::{reference_gamma, BitMatrix, PackedPanels};

    fn panels_of(a: &BitMatrix<u64>, b: &BitMatrix<u64>) -> (PackedPanels<u64>, PackedPanels<u64>) {
        (PackedPanels::pack_all(a, MR), PackedPanels::pack_all(b, NR))
    }

    #[test]
    fn matches_reference_on_full_tile() {
        let a = BitMatrix::<u64>::from_fn(MR, 130, |r, c| (r * 13 + c) % 3 == 0);
        let b = BitMatrix::<u64>::from_fn(NR, 130, |r, c| (r * 7 + c) % 5 == 0);
        let (pa, pb) = panels_of(&a, &b);
        for op in CompareOp::ALL {
            let mut acc = zero_tile();
            microkernel(op, pa.k(), pa.panel(0), pb.panel(0), &mut acc);
            let expect = reference_gamma(&a, &b, op);
            for (i, acc_row) in acc.iter().enumerate() {
                for (j, &got) in acc_row.iter().enumerate() {
                    assert_eq!(got, expect.get(i, j), "op {op} at ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn accumulates_across_calls() {
        // Splitting the k dimension across two calls must equal one call —
        // the property the k_c loop relies on.
        let a = BitMatrix::<u64>::from_fn(MR, 256, |r, c| (r + c) % 2 == 0);
        let b = BitMatrix::<u64>::from_fn(NR, 256, |r, c| (r * c) % 3 == 1);
        let k = 4usize; // words per row
        let pa = PackedPanels::pack_all(&a, MR);
        let pb = PackedPanels::pack_all(&b, NR);
        assert_eq!(pa.k(), k);
        let mut whole = zero_tile();
        microkernel(CompareOp::And, k, pa.panel(0), pb.panel(0), &mut whole);
        let pa1 = PackedPanels::pack(&a, 0, MR, 0, 2, MR);
        let pa2 = PackedPanels::pack(&a, 0, MR, 2, 4, MR);
        let pb1 = PackedPanels::pack(&b, 0, NR, 0, 2, NR);
        let pb2 = PackedPanels::pack(&b, 0, NR, 2, 4, NR);
        let mut split = zero_tile();
        microkernel(CompareOp::And, 2, pa1.panel(0), pb1.panel(0), &mut split);
        microkernel(CompareOp::And, 2, pa2.panel(0), pb2.panel(0), &mut split);
        assert_eq!(whole, split);
    }

    #[test]
    fn zero_k_is_identity() {
        let mut acc = zero_tile();
        acc[1][2] = 77;
        microkernel(CompareOp::Xor, 0, &[], &[], &mut acc);
        assert_eq!(acc[1][2], 77);
    }

    #[test]
    fn padded_lanes_contribute_nothing() {
        // Panel with fewer logical rows than MR: padding lanes are zero and
        // must produce zero counts for AND / AndNot, and |b| for XOR rows.
        let a = BitMatrix::<u64>::from_fn(3, 64, |_, c| c % 2 == 0);
        let b = BitMatrix::<u64>::from_fn(NR, 64, |_, c| c % 4 == 0);
        let pa = PackedPanels::pack_all(&a, MR);
        let mut acc = zero_tile();
        microkernel(
            CompareOp::And,
            pa.k(),
            pa.panel(0),
            PackedPanels::pack_all(&b, NR).panel(0),
            &mut acc,
        );
        for (i, lane) in acc.iter().enumerate().skip(3) {
            assert_eq!(lane, &[0; NR], "padded A lane {i} must stay zero");
        }
    }

    #[test]
    #[should_panic(expected = "A panel too short")]
    fn short_panel_panics() {
        let mut acc = zero_tile();
        microkernel(CompareOp::And, 2, &[0u64; MR], &[0u64; 2 * NR], &mut acc);
    }

    #[test]
    fn production_path_matches_scalar_oracle() {
        // Every k regime: below one CSA block, exact multiples, and odd
        // remainders — for all three operators.
        for k_bits in [1usize, 63, 64, 65, 7 * 64, 8 * 64, 8 * 64 + 1, 13 * 64 + 17] {
            let a = BitMatrix::<u64>::from_fn(MR, k_bits, |r, c| (r * 31 + c * 7) % 5 < 2);
            let b = BitMatrix::<u64>::from_fn(NR, k_bits, |r, c| (r * 17 + c * 3) % 4 == 0);
            let (pa, pb) = panels_of(&a, &b);
            for op in CompareOp::ALL {
                let mut fast = zero_tile();
                microkernel(op, pa.k(), pa.panel(0), pb.panel(0), &mut fast);
                let mut oracle = zero_tile();
                microkernel_scalar(
                    op,
                    pa.k(),
                    pa.panel(0),
                    BView::packed(pb.panel(0)),
                    &mut oracle,
                );
                assert_eq!(fast, oracle, "op {op}, k_bits {k_bits}");
            }
        }
    }

    #[test]
    fn scalar_oracle_matches_reference() {
        let a = BitMatrix::<u64>::from_fn(MR, 200, |r, c| (r + 2 * c) % 3 == 0);
        let b = BitMatrix::<u64>::from_fn(NR, 200, |r, c| (3 * r + c) % 7 < 3);
        let (pa, pb) = panels_of(&a, &b);
        for op in CompareOp::ALL {
            let mut acc = zero_tile();
            microkernel_scalar(
                op,
                pa.k(),
                pa.panel(0),
                BView::packed(pb.panel(0)),
                &mut acc,
            );
            let expect = reference_gamma(&a, &b, op);
            for (i, acc_row) in acc.iter().enumerate() {
                for (j, &got) in acc_row.iter().enumerate() {
                    assert_eq!(got, expect.get(i, j), "op {op} at ({i}, {j})");
                }
            }
        }
    }
}
