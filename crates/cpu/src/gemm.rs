//! The blocked popcount-GEMM loop nest, shared by every schedule.
//!
//! Loop structure after BLIS (paper Fig. 3), computing
//! `γ (m × n) = A (m × K) ⋄ Bᵀ` where both inputs store one sequence per
//! row over `K` packed words. γ is cut into tiles, each one task of a
//! schedule (sequential here, parallel in [`crate::parallel`]):
//!
//! ```text
//! tiles:       m_c rows × ≤ n_c NR-aligned columns of γ  (one task each)
//! pc loop:     K in steps of k_c      (Ã: m_c × k_c blocks, packed once per run)
//! ir loop:     the block's Ã panels (m_r = MR)
//! panel run:   the tile's full NR-row panels of B   (read in place, one call)
//!   jr loop:   MR × NR popcount sums over k_c words, written into γ's rows
//! ```
//!
//! B is never packed: one panel run per Ã panel and `k_c` block reads all
//! of the tile's full `NR`-row panels where they are ([`BView::rows`]) and
//! writes each panel's sums straight into the Ã panel's row segments of γ.
//! Only the last `n % NR` rows, which do not fill a panel, go through a
//! zero-padded [`PackedPanels`] and a tile, which is clipped to the
//! segments. Edge panels of Ã are zero-padded by the packer, and the run
//! drops their rows.
//!
//! γ is written once, as a BLIS kernel writes C when β = 0. A tile's first
//! `k_c` block stores its sums
//! ([`microkernel_store`](crate::microkernel::microkernel_store)) and so
//! writes every cell of the tile; later blocks add theirs
//! ([`microkernel_run`](crate::microkernel::microkernel_run)). Nothing
//! zero-fills γ first: a fresh γ ([`gamma_blocked`]) is allocated
//! uninitialized, and [`gamma_blocked_into`] overwrites its output.
//!
//! A symmetric self-comparison ([`crate::symmetric`]) runs the same tiles
//! over the upper triangle: row block `ic` covers columns `ic..m`, and
//! each tile also owns the lower-triangle pieces that mirror its columns
//! past the diagonal block, which it fills once its sums are final.

use std::mem::MaybeUninit;

use snp_bitmat::{BitMatrix, CompareOp, CountMatrix, PackedPanels};

use crate::blocking::{CpuBlocking, MR, NR};
use crate::microkernel::{microkernel_view, panel_run, zero_tile, BView, GammaCell};

/// Writes `A ⋄ Bᵀ` into `c` using the blocked algorithm on one thread,
/// overwriting what `c` held.
///
/// Panics if shapes disagree (`a`, `b` must share `words_per_row`; `c` must
/// be `a.rows() × b.rows()`), or if `blocking` is invalid.
pub fn gamma_blocked_into(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
) {
    check_shapes(a, b, (c.rows(), c.cols()), blocking);
    // SAFETY: the tiles write only counts into `c`.
    run_tiles(op, a, b, blocking, unsafe { overwrite(c.as_mut_slice()) });
}

/// [`gamma_blocked_into`] into a fresh output, which is never zero-filled.
pub fn gamma_blocked(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
) -> CountMatrix {
    check_shapes(a, b, (a.rows(), b.rows()), blocking);
    // SAFETY: the tiles partition γ, and each tile writes all of its cells.
    unsafe { fresh(a.rows(), b.rows(), |c| run_tiles(op, a, b, blocking, c)) }
}

/// Runs every tile of `c`, a row-major `a.rows() × b.rows()` γ, on this
/// thread, one per `m_c × n_c` block.
pub(crate) fn run_tiles(
    op: CompareOp,
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    blocking: &CpuBlocking,
    c: &mut [MaybeUninit<u32>],
) {
    let a_packs = pack_a(a, blocking);
    for mut tile in tiles(c, b.rows(), blocking, 1, false) {
        run_tile(op, &a_packs, b, &mut tile);
    }
}

/// A fresh `rows × cols` γ whose cells `fill` writes: the buffer is
/// allocated, handed to `fill` uninitialized, and never zero-filled.
///
/// Panics if `rows × cols` overflows `usize`.
///
/// # Safety
///
/// `fill` must write every cell of the buffer it is given.
pub(crate) unsafe fn fresh(
    rows: usize,
    cols: usize,
    fill: impl FnOnce(&mut [MaybeUninit<u32>]),
) -> CountMatrix {
    let len = rows.checked_mul(cols).expect("γ size overflows usize");
    let mut data = Vec::with_capacity(len);
    fill(&mut data.spare_capacity_mut()[..len]);
    // SAFETY: the capacity holds `len` cells, and the caller guarantees
    // that `fill` wrote every one of them.
    unsafe { data.set_len(len) };
    CountMatrix::from_vec(rows, cols, data)
}

/// `c`'s cells, viewed as a buffer the loop nest overwrites.
///
/// # Safety
///
/// Only initialized values may be written through the view, so that `c`
/// stays initialized.
pub(crate) unsafe fn overwrite(c: &mut [u32]) -> &mut [MaybeUninit<u32>] {
    let cells: *mut [u32] = c;
    // SAFETY: `MaybeUninit<u32>` has the size and alignment of `u32`, so
    // the view covers exactly `c`'s cells, and it borrows `c` for as long
    // as it lives. The caller guarantees that every write through it
    // stores a value, so `c` stays initialized.
    unsafe { &mut *(cells as *mut [MaybeUninit<u32>]) }
}

/// One tile of `γ`: columns `jc..jc + n_blk` of the rows of row block
/// `blk` (rows `blk·m_c..`), held as one mutable segment per row. A tile
/// of a symmetric run also owns `mirror`: for each of its last
/// `mirror.len()` columns `j`, the segment `γ[j][blk·m_c..]` of the lower
/// triangle that holds the column's transpose. The cells may be
/// uninitialized until [`run_tile`] writes them.
pub(crate) struct Tile<'c> {
    pub(crate) blk: usize,
    pub(crate) jc: usize,
    pub(crate) n_blk: usize,
    pub(crate) rows: Vec<&'c mut [MaybeUninit<u32>]>,
    pub(crate) mirror: Vec<&'c mut [MaybeUninit<u32>]>,
}

/// Cuts `c`, a row-major γ of `n` columns, into tiles that partition it:
/// every cell lies in exactly one tile's row segment or mirror piece. Each
/// row block is split into the fewest NR-aligned column ranges of at most
/// `n_c` columns, or into more where that gives fewer than `min_tiles`
/// tiles overall. The ranges of one row block differ in width by at most
/// `NR`.
///
/// A row block covers columns `0..n`, or with `symmetric` (a square `c`
/// holding a self-comparison) only `blk·m_c..n`, from its diagonal block
/// on. Row `j`'s cells left of its diagonal block are then cut into `m_c`
/// wide pieces, one per earlier row block, each handed to the tile of
/// that block whose columns hold `j`.
pub(crate) fn tiles<'c>(
    c: &'c mut [MaybeUninit<u32>],
    n: usize,
    blocking: &CpuBlocking,
    min_tiles: usize,
    symmetric: bool,
) -> Vec<Tile<'c>> {
    let (m, m_c) = (c.len().checked_div(n).unwrap_or(0), blocking.m_c);
    let per_block = min_tiles.div_ceil(m.div_ceil(m_c).max(1));
    let mut tiles = Vec::new();
    let mut firsts = Vec::new(); // each row block's first tile
    let block_len = (m_c * n).max(1); // `chunks_mut` needs it non-zero
    for (blk, block) in c.chunks_mut(block_len).enumerate() {
        let lo = if symmetric { blk * m_c } else { 0 };
        let panels = (n - lo).div_ceil(NR);
        let splits = (n - lo).div_ceil(blocking.n_c).max(per_block).min(panels);
        let first = tiles.len();
        firsts.push(first);
        tiles.extend((0..splits).map(|t| {
            let jc = lo + t * panels / splits * NR;
            let end = (lo + (t + 1) * panels / splits * NR).min(n);
            Tile {
                blk,
                jc,
                n_blk: end - jc,
                rows: Vec::with_capacity(m_c),
                mirror: Vec::new(),
            }
        }));
        for (r, row) in block.chunks_mut(n).enumerate() {
            let j = blk * m_c + r;
            let (lower, mut rest) = row.split_at_mut(lo);
            for (b, piece) in lower.chunks_mut(m_c).enumerate() {
                let owners = &mut tiles[firsts[b]..firsts[b + 1]];
                let t = owners.partition_point(|t| t.jc + t.n_blk <= j);
                owners[t].mirror.push(piece);
            }
            for tile in &mut tiles[first..] {
                let (seg, tail) = std::mem::take(&mut rest).split_at_mut(tile.n_blk);
                tile.rows.push(seg);
                rest = tail;
            }
        }
    }
    tiles
}

/// Packs Ã for a whole run, `pc`-major: entry `[p][blk]` is the
/// `m_c × k_c` block of row block `blk` at `pc = p·k_c`, packed once and
/// shared by every tile of that row block.
pub(crate) fn pack_a(a: &BitMatrix<u64>, blocking: &CpuBlocking) -> Vec<Vec<PackedPanels<u64>>> {
    let (m, k_words) = (a.rows(), a.words_per_row());
    (0..k_words)
        .step_by(blocking.k_c)
        .map(|pc| {
            let pk = (pc + blocking.k_c).min(k_words);
            (0..m)
                .step_by(blocking.m_c)
                .map(|ic| PackedPanels::pack(a, ic, (ic + blocking.m_c).min(m), pc, pk, MR))
                .collect()
        })
        .collect()
}

/// Writes one tile's share of `A ⋄ Bᵀ` into its row segments: loops 1–2
/// for each `k_c` block, with the Ã panel loop outside the B panel loop
/// ([`run_block`]). The first block stores its sums, which writes every
/// cell of the segments, so the tile may start uninitialized; later
/// blocks add theirs. With no shared words there is no block, and the
/// tile writes zeros. Then the tile copies its finished columns into its
/// mirror pieces, which writes every cell of those too.
pub(crate) fn run_tile(
    op: CompareOp,
    a_packs: &[Vec<PackedPanels<u64>>],
    b: &BitMatrix<u64>,
    tile: &mut Tile<'_>,
) {
    let (jc, n_blk) = (tile.jc, tile.n_blk);
    let mut blocks = a_packs.iter().map(|blocks| &blocks[tile.blk]);
    let Some(first) = blocks.next() else {
        for seg in tile.rows.iter_mut().chain(&mut tile.mirror) {
            seg.fill(MaybeUninit::new(0));
        }
        return;
    };
    run_block(op, first, b, jc, 0, n_blk, &mut tile.rows);
    let mut rows: Vec<&mut [u32]> = tile
        .rows
        .iter_mut()
        .map(|seg| {
            let cells: *mut [MaybeUninit<u32>] = &mut **seg;
            // SAFETY: the first block stored a count into every cell of
            // every segment: the panel run into columns `..n_blk − n_blk %
            // NR` and the tail into the rest. `MaybeUninit<u32>` has the
            // layout of `u32`, and the view reborrows the segment.
            unsafe { &mut *(cells as *mut [u32]) }
        })
        .collect();
    let mut pc = first.k();
    for a_pack in blocks {
        run_block(op, a_pack, b, jc, pc, n_blk, &mut rows);
        pc += a_pack.k();
    }
    let first_col = n_blk - tile.mirror.len();
    for (col, piece) in (first_col..).zip(&mut tile.mirror) {
        for (out, row) in piece.iter_mut().zip(&rows) {
            out.write(row[col]);
        }
    }
}

/// One `k_c` block of a tile: the `k` words of Ã block `a_pack` from word
/// `pc` on, against B rows `jc..jc + n_blk`, written into the tile's row
/// segments with the writeback of `C`. One `MR × k_c` Ã panel stays in L1
/// while B's `NR`-row panels stream past it in place, all of the tile's
/// full panels in one panel run. A ragged last B panel is packed
/// zero-padded first and goes through a tile, clipped to the segments.
fn run_block<C: GammaCell>(
    op: CompareOp,
    a_pack: &PackedPanels<u64>,
    b: &BitMatrix<u64>,
    jc: usize,
    pc: usize,
    n_blk: usize,
    rows: &mut [&mut [C]],
) {
    let k = a_pack.k();
    let full = n_blk - n_blk % NR;
    let tail = (full < n_blk).then(|| PackedPanels::pack(b, jc + full, jc + n_blk, pc, pc + k, NR));
    for (ip, segs) in rows.chunks_mut(MR).enumerate() {
        let a_panel = a_pack.panel(ip);
        panel_run(op, k, a_panel, BView::rows(b, jc, pc), full / NR, segs);
        if let Some(t) = &tail {
            let mut acc = zero_tile();
            microkernel_view(op, k, a_panel, BView::packed(t.panel(0)), &mut acc);
            for (row, acc_row) in segs.iter_mut().zip(&acc) {
                for (o, &v) in row[full..].iter_mut().zip(acc_row) {
                    o.put(v);
                }
            }
        }
    }
}

pub(crate) fn check_shapes(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    c: (usize, usize),
    blocking: &CpuBlocking,
) {
    let (wa, wb) = (a.words_per_row(), b.words_per_row());
    assert_eq!(wa, wb, "operands disagree on packed width: {wa} vs {wb}");
    assert_eq!(c, (a.rows(), b.rows()), "output must be A rows × B rows");
    let viol = blocking.violations();
    assert!(viol.is_empty(), "invalid blocking: {viol:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::reference_gamma;

    fn blocking_small() -> CpuBlocking {
        // Tiny blocks force every loop to iterate multiple times even on
        // small inputs, exercising all edge paths.
        CpuBlocking {
            m_r: MR,
            n_r: NR,
            k_c: 2,
            m_c: 2 * MR,
            n_c: 2 * NR,
        }
    }

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r * 37 + c * 11 + salt) % 7 < 3)
    }

    #[test]
    fn matches_reference_exact_multiples() {
        let a = matrix(2 * MR, 256, 0);
        let b = matrix(2 * NR, 256, 1);
        for op in CompareOp::ALL {
            let got = gamma_blocked(&a, &b, op, &blocking_small());
            let want = reference_gamma(&a, &b, op);
            assert_eq!(got.first_mismatch(&want), None, "op {op}");
        }
    }

    #[test]
    fn matches_reference_ragged_everything() {
        // Rows, cols and words that are NOT multiples of any block size.
        let a = matrix(MR * 2 + 3, 64 * 5 + 17, 2);
        let b = matrix(NR * 3 + 1, 64 * 5 + 17, 3);
        for op in CompareOp::ALL {
            let got = gamma_blocked(&a, &b, op, &blocking_small());
            let want = reference_gamma(&a, &b, op);
            assert_eq!(got.first_mismatch(&want), None, "op {op}");
        }
    }

    #[test]
    fn matches_reference_with_default_blocking() {
        let a = matrix(37, 900, 4);
        let b = matrix(29, 900, 5);
        let got = gamma_blocked(&a, &b, CompareOp::Xor, &CpuBlocking::default());
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(got.first_mismatch(&want), None);
    }

    #[test]
    fn overwrites_existing_output() {
        // β = 0: whatever `c` held, and however often the GEMM runs into
        // it, it ends up holding exactly the counts.
        let a = matrix(5, 128, 6);
        let b = matrix(7, 128, 7);
        let poison = (0..5 * 7).map(|i| u32::MAX ^ i).collect();
        let mut c = CountMatrix::from_vec(5, 7, poison);
        let want = reference_gamma(&a, &b, CompareOp::And);
        for _ in 0..2 {
            gamma_blocked_into(&a, &b, CompareOp::And, &blocking_small(), &mut c);
            assert_eq!(c.first_mismatch(&want), None);
        }
    }

    #[test]
    fn single_row_and_column() {
        let a = matrix(1, 70, 8);
        let b = matrix(1, 70, 9);
        let got = gamma_blocked(&a, &b, CompareOp::AndNot, &blocking_small());
        let want = reference_gamma(&a, &b, CompareOp::AndNot);
        assert_eq!(got.first_mismatch(&want), None);
    }

    #[test]
    fn symmetric_tiles_own_every_cell_once() {
        // Upper-triangle segments and mirror pieces together partition γ:
        // their address ranges, sorted, run end to end over the whole
        // buffer. One tile per m_c × n_c block is cut when one tile is
        // enough.
        let blocking = blocking_small();
        for m in [1usize, NR - 1, 2 * MR, 2 * MR + 1, 10 * MR - 1, 10 * MR + 3] {
            let mut c = vec![MaybeUninit::new(0u32); m * m];
            let whole = c.as_ptr_range();
            let cut = tiles(&mut c, m, &blocking, 1, true);
            let blocks: usize = (0..m)
                .step_by(blocking.m_c)
                .map(|ic| (m - ic).div_ceil(blocking.n_c))
                .sum();
            assert_eq!(cut.len(), blocks, "m={m}");
            let mut ranges = Vec::new();
            for tile in &cut {
                assert!(tile.mirror.iter().all(|p| p.len() == tile.rows.len()));
                ranges.extend(
                    tile.rows
                        .iter()
                        .chain(&tile.mirror)
                        .map(|s| s.as_ptr_range()),
                );
            }
            ranges.sort_by_key(|r| r.start);
            let mut next = whole.start;
            for r in ranges {
                assert_eq!(r.start, next, "m={m}: a gap or an overlap");
                next = r.end;
            }
            assert_eq!(next, whole.end, "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "packed width")]
    fn width_mismatch_panics() {
        let a = matrix(4, 64, 0);
        let b = matrix(4, 128, 0);
        let _ = gamma_blocked(&a, &b, CompareOp::And, &CpuBlocking::default());
    }

    #[test]
    #[should_panic(expected = "invalid blocking")]
    fn invalid_blocking_panics() {
        let a = matrix(4, 64, 0);
        let bad = CpuBlocking {
            m_r: 2,
            n_r: NR,
            k_c: 8,
            m_c: 16,
            n_c: 16,
        };
        let _ = gamma_blocked(&a, &a, CompareOp::And, &bad);
    }
}
