//! The popcount microkernel.
//!
//! The entire architecture-specific part of the CPU engine, exactly as in
//! \[11\]: an `MR × NR` block of `γ` accumulators updated along the shared
//! dimension with the three-instruction sequence
//! `γ += POPC(a ⋄ b)` (paper §III). A arrives as a packed panel (word-major,
//! produced by [`snp_bitmat::PackedPanels`]). B arrives as a strided
//! [`BView`], so the loop nests can hand over rows of a [`BitMatrix`]
//! where they already are, or a packed panel.
//!
//! The production path is a *panel run*: one call takes one A panel against
//! `panels` consecutive `NR`-row panels of B, and writes each panel's
//! `MR × NR` counts straight into the A panel's row segments of γ, as
//! BLIS's kernel updates C from its registers. Like BLIS's `C := βC + AB`,
//! a run has two writebacks. [`microkernel_store`] is β = 0: it stores the
//! counts into cells it never reads, which may be uninitialized, so a
//! fresh γ is never zero-filled. [`microkernel_run`] is β = 1: it adds the
//! counts into cells that already hold sums. The loop nest stores a tile's
//! first `k_c` block and adds the rest. The release build targets baseline
//! x86-64, where `count_ones()` lowers to a SWAR sequence, so a run picks
//! its popcount instruction at run time, once per process
//! ([`Tier::detected`]), from three tiers that compute bit-identical counts:
//!
//! * [`Tier::Vpopcntq`] — AVX-512 `VPOPCNTQ`. One zmm register holds the
//!   `MR` A words of a shared-dimension step; each of the `NR` B words is
//!   broadcast straight from the view, combined with it by one
//!   `VPTERNLOGQ`, popcounted by one `VPOPCNTQ` and added into its own u64
//!   zmm accumulator. After the `k` steps of a panel, four permutes turn
//!   the four accumulators into one 128-bit row of four u32 counts per A
//!   row. The store writeback writes each row with one 128-bit store; the
//!   add writeback loads the row's cells, adds and stores.
//! * [`Tier::Avx2`] — the 4-lane Harley–Seal tree of [`crate::simd`]
//!   compiled with AVX2 enabled, so one [`W64x4`] is one ymm register.
//! * [`Tier::Portable`] — the same tree as compiled for the build target;
//!   the only tier on targets other than x86-64.
//!
//! Both lane tiers copy each [`CSA_BLOCK`]-deep slab of a panel into a
//! local packed array, run it through the tree, run the `k % CSA_BLOCK`
//! remainder through the scalar loop, and store or add the panel's tile
//! into γ.
//!
//! Each tier has one body, and the type of γ's cells picks its writeback
//! at compile time. A run picks the tier once. [`microkernel`],
//! [`microkernel_view`] and [`microkernel_tier`] are the one-panel case of
//! the add run, with a `u32` tile standing in for γ. Every entry point
//! asserts all of a run's bounds once, before it enters `unsafe`; the tiers
//! then read B and write γ without per-word bounds checks.
//! [`microkernel_scalar`], one `count_ones()` per combined word in safe
//! code, is the oracle every tier is tested against through
//! [`microkernel_tier`], [`microkernel_run_tier`] and
//! [`microkernel_store_tier`].

use std::mem::MaybeUninit;
use std::sync::OnceLock;

use snp_bitmat::{BitMatrix, CompareOp};

use crate::blocking::{MR, NR};
use crate::simd::{popcount8_lanes, W64x4};

const _: () = assert!(NR == W64x4::LANES, "the SIMD lane width is the NR tile");

/// Shared-dimension steps folded per Harley–Seal tree in the lane tiers.
pub const CSA_BLOCK: usize = 8;

/// The popcount instruction a [`microkernel_run`] call runs on.
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

/// The rows of B a microkernel call reads: word `p` of row `j` is
/// `words[j·row_stride + p·word_stride]`. Panel `q` of a run is rows
/// `q·NR..(q + 1)·NR`.
///
/// A packed panel is the view with strides 1 and `NR`
/// ([`BView::packed`]); rows of a [`BitMatrix`] read in place have strides
/// `words_per_row` and 1 ([`BView::rows`]). A view may be shorter than any
/// run: each call asserts that it covers that call's panels and `k` steps.
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

    /// Rows `row..` of `m` from word `word` on, read in place.
    ///
    /// Panics if `row` and `word` lie past the end of `m`.
    pub fn rows(m: &'a BitMatrix<u64>, row: usize, word: usize) -> Self {
        let wpr = m.words_per_row();
        Self::new(&m.words()[row * wpr + word..], wpr, 1)
    }

    /// Whether word `k − 1` of row `panels·NR − 1`, the last one a run of
    /// `panels` panels over `k` steps reads, lies inside the view (every
    /// view covers `k = 0` and `panels = 0`).
    fn covers(&self, panels: usize, k: usize) -> bool {
        let Some(rows) = panels.checked_mul(NR) else {
            return false;
        };
        rows == 0
            || k == 0
            || (rows - 1)
                .checked_mul(self.row_stride)
                .zip((k - 1).checked_mul(self.word_stride))
                .and_then(|(row, word)| row.checked_add(word))
                .is_some_and(|last| last < self.words.len())
    }

    /// Word `p` of row `j`, without a bounds check.
    ///
    /// # Safety
    ///
    /// `self.covers(panels, k)` for some `panels` and `k` with
    /// `j < panels·NR` and `p < k`.
    #[inline(always)]
    unsafe fn get_unchecked(&self, j: usize, p: usize) -> u64 {
        // SAFETY: with j ≤ panels·NR − 1 and p ≤ k − 1, the index is at
        // most the last word `covers(panels, k)` found inside `words`, and
        // computing that word did not overflow, so neither does this index.
        unsafe {
            *self
                .words
                .get_unchecked(j * self.row_stride + p * self.word_stride)
        }
    }
}

/// A γ cell type, and how a panel run writes its counts into it.
///
/// A `u32` cell already holds a sum, and the run adds into it (BLIS's
/// β = 1). A `MaybeUninit<u32>` cell may hold nothing yet, and the run
/// stores into it without reading it (β = 0). [`GammaCell::ADDS`] is a
/// constant, so each tier's one body compiles to two writebacks.
pub(crate) trait GammaCell {
    /// Whether the writeback reads the cell and adds into it.
    const ADDS: bool;

    /// Writes one count into the cell.
    fn put(&mut self, count: u32);
}

impl GammaCell for u32 {
    const ADDS: bool = true;

    #[inline(always)]
    fn put(&mut self, count: u32) {
        *self += count;
    }
}

impl GammaCell for MaybeUninit<u32> {
    const ADDS: bool = false;

    #[inline(always)]
    fn put(&mut self, count: u32) {
        self.write(count);
    }
}

/// The add run, on the [`Tier::detected`] popcount instruction: for each
/// panel `q < panels`, adds
/// `Σ_p popc(op(a_panel[p·MR + i], b(q·NR + j, p)))` over `p` in `0..k`
/// into `segs[i][q·NR + j]`, where `b(r, p)` is word `p` of row `r` of the
/// view.
///
/// `segs` are the A panel's row segments of γ, at most `MR` of them; A
/// rows past `segs.len()` (an edge panel's zero padding) are computed and
/// dropped. Columns of a segment past `panels·NR` are left alone.
///
/// Panics if `a_panel` holds fewer than `k × MR` words, `b` does not cover
/// `panels` panels of `k` steps, or `segs` holds more than `MR` segments or
/// one shorter than `panels·NR`.
#[inline]
pub fn microkernel_run(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [u32]],
) {
    panel_run(op, k, a_panel, b, panels, segs)
}

/// [`microkernel_run`] on a chosen tier: the seam that lets tests run
/// every tier the host supports against [`microkernel_scalar`].
///
/// Panics like [`microkernel_run`], or if this CPU cannot run `tier`.
pub fn microkernel_run_tier(
    tier: Tier,
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [u32]],
) {
    panel_run_tier(tier, op, k, a_panel, b, panels, segs)
}

/// The store run: [`microkernel_run`], but it stores each count into
/// `segs[i][q·NR + j]` instead of adding it, and never reads γ. So the
/// segments may be uninitialized; the run initializes columns
/// `0..panels·NR` of each one and leaves the rest alone.
///
/// Panics like [`microkernel_run`].
#[inline]
pub fn microkernel_store(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [MaybeUninit<u32>]],
) {
    panel_run(op, k, a_panel, b, panels, segs)
}

/// [`microkernel_store`] on a chosen tier: the seam that lets tests run
/// every tier's store writeback against [`microkernel_scalar`].
///
/// Panics like [`microkernel_store`], or if this CPU cannot run `tier`.
pub fn microkernel_store_tier(
    tier: Tier,
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [MaybeUninit<u32>]],
) {
    panel_run_tier(tier, op, k, a_panel, b, panels, segs)
}

/// The panel run on the [`Tier::detected`] popcount instruction, with the
/// writeback of `C`: the body of [`microkernel_run`] and
/// [`microkernel_store`], which the loop nest calls with either.
#[inline]
pub(crate) fn panel_run<C: GammaCell>(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [C]],
) {
    check_operands(k, a_panel, &b, panels, segs);
    // SAFETY: `Tier::detected` returns only a tier this CPU supports, and
    // `check_operands` asserted the run's bounds.
    unsafe { dispatch(Tier::detected(), op, k, a_panel, b, panels, segs) }
}

/// [`panel_run`] on a chosen tier.
fn panel_run_tier<C: GammaCell>(
    tier: Tier,
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [C]],
) {
    check_operands(k, a_panel, &b, panels, segs);
    assert!(
        tier.available(),
        "popcount tier {tier} is not available on this CPU"
    );
    // SAFETY: the asserts above checked that this CPU supports `tier` and
    // the run's bounds.
    unsafe { dispatch(tier, op, k, a_panel, b, panels, segs) }
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
/// [`Tier::detected`] popcount instruction: the one-panel add run into a
/// tile.
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
    let mut segs = acc.each_mut().map(|r| &mut r[..]);
    microkernel_run(op, k, a_panel, b, 1, &mut segs)
}

/// [`microkernel_view`] on a chosen tier: the one-panel case of
/// [`microkernel_run_tier`].
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
    let mut segs = acc.each_mut().map(|r| &mut r[..]);
    microkernel_run_tier(tier, op, k, a_panel, b, 1, &mut segs)
}

/// Runs one panel run on `tier`, with the writeback of `C`.
///
/// # Safety
///
/// This CPU must support `tier` ([`Tier::available`]), and the operands
/// must pass [`check_operands`].
#[inline(always)]
unsafe fn dispatch<C: GammaCell>(
    tier: Tier,
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [C]],
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
            let run = match op {
                CompareOp::And => vpopcntq::<{ A & B }, C>,
                CompareOp::Xor => vpopcntq::<{ A ^ B }, C>,
                CompareOp::AndNot => vpopcntq::<{ A & !B }, C>,
            };
            // SAFETY: the caller guarantees `avx512f`, `avx512vpopcntdq` and
            // the run's bounds.
            unsafe { run(k, a_panel, b, panels, segs) }
        }
        // SAFETY: the caller guarantees `avx2` and the run's bounds.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { lane_avx2(op, k, a_panel, b, panels, segs) },
        // SAFETY: the caller guarantees the run's bounds.
        _ => unsafe { lane(op, k, a_panel, b, panels, segs) },
    }
}

/// The [`Tier::Vpopcntq`] run for the operator whose `VPTERNLOGQ` truth
/// table is `TABLE`. It reads A through safe slices. Each panel's four u64
/// sums stay in zmm registers across the `k` loop and go into γ through
/// [`write_sums`].
///
/// # Safety
///
/// This CPU must support `avx512f` and `avx512vpopcntdq`, and the operands
/// must pass [`check_operands`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn vpopcntq<const TABLE: i32, C: GammaCell>(
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [C]],
) {
    use std::arch::x86_64::*;
    const _: () = assert!(MR * 64 == 512, "one zmm register holds the MR A lanes");

    let a_steps = &a_panel.as_chunks::<MR>().0[..k];
    for q in 0..panels {
        let col = q * NR;
        let mut sums = [_mm512_setzero_si512(); NR];
        for (p, a) in a_steps.iter().enumerate() {
            // SAFETY: `a` is MR = 8 readable u64 words, one zmm; the load is
            // unaligned.
            let av = unsafe { _mm512_loadu_si512(a.as_ptr().cast()) };
            for (j, sum) in sums.iter_mut().enumerate() {
                // SAFETY: col + j < panels·NR and p < k, and `check_operands`
                // asserted that `b` covers `panels` panels of `k` steps.
                let bj = unsafe { b.get_unchecked(col + j, p) };
                let w = _mm512_ternarylogic_epi64::<TABLE>(av, _mm512_set1_epi64(bj as i64), av);
                *sum = _mm512_add_epi64(*sum, _mm512_popcnt_epi64(w));
            }
        }
        // SAFETY: this function's own contract guarantees `avx512f`, and
        // `check_operands` asserted that every segment holds
        // panels·NR ≥ col + NR cells.
        unsafe { write_sums(sums, segs, col) }
    }
}

/// Writes one panel's sums into γ: `segs[i][col + j] = sums[j][i]` for
/// `MaybeUninit` cells, `+=` for `u32` cells.
///
/// Lane `i` of `sums[j]` is the u64 count of A row `i` against B row `j`;
/// its low dword is the count, since a u32 γ cell must hold it anyway. Two
/// `vpermt2d` pair up the low dwords of columns 0–1 and 2–3 per row, two
/// `vpermt2q` put each row's four dwords into one 128-bit lane, and each
/// row segment then takes one 128-bit store, after a load and an add when
/// `C` adds.
///
/// # Safety
///
/// This CPU must support `avx512f`, and every segment must hold at least
/// `col + NR` cells.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn write_sums<C: GammaCell>(
    sums: [std::arch::x86_64::__m512i; NR],
    segs: &mut [&mut [C]],
    col: usize,
) {
    use std::arch::x86_64::*;
    const _: () = assert!(NR * 32 == 128, "one xmm register holds a row's NR counts");
    let low_dwords = _mm512_setr_epi32(0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28, 14, 30);
    let c01 = _mm512_permutex2var_epi32(sums[0], low_dwords, sums[1]);
    let c23 = _mm512_permutex2var_epi32(sums[2], low_dwords, sums[3]);
    let rows_0_3 = _mm512_permutex2var_epi64(c01, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11), c23);
    let rows_4_7 =
        _mm512_permutex2var_epi64(c01, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15), c23);
    let rows: [__m128i; MR] = [
        _mm512_castsi512_si128(rows_0_3),
        _mm512_extracti32x4_epi32::<1>(rows_0_3),
        _mm512_extracti32x4_epi32::<2>(rows_0_3),
        _mm512_extracti32x4_epi32::<3>(rows_0_3),
        _mm512_castsi512_si128(rows_4_7),
        _mm512_extracti32x4_epi32::<1>(rows_4_7),
        _mm512_extracti32x4_epi32::<2>(rows_4_7),
        _mm512_extracti32x4_epi32::<3>(rows_4_7),
    ];
    for (seg, row) in segs.iter_mut().zip(rows) {
        // SAFETY: `C` is `u32` or `MaybeUninit<u32>`, four bytes each, and
        // the caller guarantees that `seg` holds `col + NR` cells, one
        // unaligned 128-bit store from `col` on. Only a `u32` segment,
        // whose cells are initialized, is loaded first.
        unsafe {
            let out = seg.as_mut_ptr().add(col).cast::<__m128i>();
            let row = if C::ADDS {
                _mm_add_epi32(_mm_loadu_si128(out), row)
            } else {
                row
            };
            _mm_storeu_si128(out, row);
        }
    }
}

/// The [`Tier::Avx2`] run: [`lane`] compiled with AVX2 enabled.
///
/// # Safety
///
/// This CPU must support `avx2`, and the operands must pass
/// [`check_operands`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_avx2<C: GammaCell>(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [C]],
) {
    // SAFETY: the caller guarantees the run's bounds.
    unsafe { lane(op, k, a_panel, b, panels, segs) }
}

/// The [`Tier::Portable`] run: the Harley–Seal tree of [`crate::simd`]
/// over `W64x4` vectors, one vector per shared-dimension step holding all
/// `NR` B lanes. Inlined so [`lane_avx2`] recompiles it.
///
/// # Safety
///
/// The operands must pass [`check_operands`].
#[inline(always)]
unsafe fn lane<C: GammaCell>(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [C]],
) {
    // Monomorphize per operator so the combine compiles to a single
    // instruction (AND / XOR / ANDN) in the inner loop.
    // SAFETY: the caller guarantees the run's bounds, and every arm passes
    // the operands on unchanged.
    unsafe {
        match op {
            CompareOp::And => lane_impl(k, a_panel, b, panels, segs, |a, b| a & b),
            CompareOp::Xor => lane_impl(k, a_panel, b, panels, segs, |a, b| a ^ b),
            CompareOp::AndNot => lane_impl(k, a_panel, b, panels, segs, |a, b| a & !b),
        }
    }
}

/// See [`lane`], whose safety contract this shares.
#[inline(always)]
unsafe fn lane_impl<C: GammaCell>(
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    panels: usize,
    segs: &mut [&mut [C]],
    combine: impl Fn(u64, u64) -> u64 + Copy,
) {
    let combine_v =
        move |a: W64x4, b: W64x4| W64x4(std::array::from_fn(|l| combine(a.0[l], b.0[l])));
    let full = k - k % CSA_BLOCK;
    for q in 0..panels {
        let col = q * NR;
        let mut acc = zero_tile();
        for p0 in (0..full).step_by(CSA_BLOCK) {
            let a: &[u64; CSA_BLOCK * MR] =
                a_panel[p0 * MR..(p0 + CSA_BLOCK) * MR].try_into().unwrap();
            // Gather the slab into packed order, row by row, so that each
            // step below is one vector load, as on a packed panel.
            let mut slab = [0u64; CSA_BLOCK * NR];
            for j in 0..NR {
                for p in 0..CSA_BLOCK {
                    // SAFETY: col + j < panels·NR and p0 + p < full ≤ k, and
                    // the caller guarantees that `b` covers `panels` panels
                    // of `k` steps.
                    slab[p * NR + j] = unsafe { b.get_unchecked(col + j, p0 + p) };
                }
            }
            // One vector load per B step, reused across the MR rows.
            let bv: [W64x4; CSA_BLOCK] = std::array::from_fn(|p| W64x4::load(&slab[p * NR..]));
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let w: [W64x4; CSA_BLOCK] =
                    std::array::from_fn(|p| combine_v(W64x4::splat(a[p * MR + i]), bv[p]));
                for (o, count) in acc_row.iter_mut().zip(popcount8_lanes(&w)) {
                    *o += count;
                }
            }
        }
        scalar_steps(full, k, a_panel, b, col, &mut acc, combine);
        for (seg, acc_row) in segs.iter_mut().zip(&acc) {
            for (o, &v) in seg[col..col + NR].iter_mut().zip(acc_row) {
                o.put(v);
            }
        }
    }
}

/// The one-popcount-per-word loop: one `count_ones()` per combined word,
/// in safe code. Exact same contract and results as [`microkernel_view`];
/// the reference oracle every [`Tier`] is tested against.
#[inline]
pub fn microkernel_scalar(
    op: CompareOp,
    k: usize,
    a_panel: &[u64],
    b: BView<'_>,
    acc: &mut [[u32; NR]; MR],
) {
    check_operands::<u32>(k, a_panel, &b, 1, &[]);
    match op {
        CompareOp::And => scalar_steps(0, k, a_panel, b, 0, acc, |a, b| a & b),
        CompareOp::Xor => scalar_steps(0, k, a_panel, b, 0, acc, |a, b| a ^ b),
        CompareOp::AndNot => scalar_steps(0, k, a_panel, b, 0, acc, |a, b| a & !b),
    }
}

/// Asserts every bound a run relies on, before any `unsafe`: the A panel
/// holds `k` steps, `b` covers `panels` panels of `k` steps, and `segs` is
/// at most `MR` segments of at least `panels·NR` words each.
#[inline(always)]
fn check_operands<C>(k: usize, a_panel: &[u64], b: &BView<'_>, panels: usize, segs: &[&mut [C]]) {
    assert!(
        a_panel.len() >= k * MR,
        "A panel too short: {} < {}",
        a_panel.len(),
        k * MR
    );
    assert!(
        b.covers(panels, k),
        "B view too short for {panels} panel(s) of k = {k}"
    );
    assert!(
        segs.len() <= MR,
        "{} row segments for an A panel of MR = {MR} rows",
        segs.len()
    );
    assert!(
        segs.iter().all(|s| s.len() / NR >= panels),
        "row segment shorter than {panels} panel(s) of NR = {NR} columns"
    );
}

/// Scalar accumulation of shared-dimension steps `lo..hi` against view rows
/// `row..row + NR`, bounds-checked.
#[inline(always)]
fn scalar_steps(
    lo: usize,
    hi: usize,
    a_panel: &[u64],
    b: BView<'_>,
    row: usize,
    acc: &mut [[u32; NR]; MR],
    combine: impl Fn(u64, u64) -> u64 + Copy,
) {
    for p in lo..hi {
        // Fixed-size arrays of the current step let the compiler unroll
        // and keep everything in registers.
        let a: &[u64; MR] = a_panel[p * MR..p * MR + MR].try_into().unwrap();
        let bw: [u64; NR] =
            std::array::from_fn(|j| b.words[(row + j) * b.row_stride + p * b.word_stride]);
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
